"""Poisson bivectors, brackets, Hamiltonian fields and modular vector fields.

Sign conventions, fixed once and pinned by tests because the duality
theorem depends on them:

* the bracket is {f,g} = pi(df,dg);
* the Hamiltonian field of f is X_f = sum_i {x_i,f} d/dx_i, so X_f(g) = {g,f};
* the degree -1 differential on forms is bnd = iota_pi d - d iota_pi;
* the modular field solves bnd(mu) = iota_phi(mu).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .calculus import Form, MultiVector, interior_product, lie_derivative
from .errors import DimensionError, JacobiError, ModularFieldError
from .poly import Poly, _int_or_fraction


@dataclass(frozen=True)
class VolumeForm:
    """mu = coefficient * dx_1 ^ ... ^ dx_n with a nonzero rational constant.

    In the polynomial model the units of the coefficient ring are exactly
    the nonzero constants, so nothing more general qualifies as a volume.
    The coefficient is stored as ``Poly`` stores one, an ``int`` when it is
    integral and a ``Fraction`` otherwise, so the modular field, the
    duality map and the twist stay in int arithmetic for integral volumes.
    """

    coefficient: int | Fraction = 1

    def __post_init__(self):
        object.__setattr__(self, "coefficient", _int_or_fraction(self.coefficient))
        if not self.coefficient:
            raise ValueError("a volume form needs a nonzero coefficient")

    def form(self, nvars: int) -> Form:
        top = tuple(range(nvars))
        return Form(nvars, nvars, {top: Poly.constant(nvars, self.coefficient)})

    def contract(self, indices: tuple, nvars: int) -> tuple:
        """iota_{Dx_I}(mu) as (complement of I, coefficient): for increasing 0-based I
        with |I| = k the coefficient is (-1)^(sum I - k(k-1)/2) times mu's."""
        k = len(indices)
        sign = -1 if (sum(indices) - k * (k - 1) // 2) % 2 else 1
        return tuple(i for i in range(nvars) if i not in indices), sign * self.coefficient


class PoissonStructure:
    """A bivector field that satisfies the Jacobi identity.

    The constructor is the Jacobi gate: it expands the cyclic sum
    {{x_i,x_j},x_k} + {{x_j,x_k},x_i} + {{x_k,x_i},x_j} on all coordinate
    triples and raises ``JacobiError`` with the first nonzero one. Coordinate
    triples suffice because for a biderivation bracket this sum is a
    triderivation, hence determined by its coordinate values. So every
    instance is a Poisson structure, and no operation checks again.
    """

    __slots__ = ("bivector", "nvars", "coordinates", "_modular", "_hamiltonians",
                 "_columns", "_monomials")

    def __init__(self, bivector: MultiVector):
        if not isinstance(bivector, MultiVector):
            raise TypeError("expected a MultiVector")
        if bivector.degree != 2:
            raise DimensionError("a Poisson structure is a bivector (degree 2)")
        n = bivector.nvars
        object.__setattr__(self, "bivector", bivector)
        object.__setattr__(self, "nvars", n)
        # the coordinate functions x_1..x_n, built once (a Poly is immutable)
        object.__setattr__(self, "coordinates", tuple(Poly.variable(n, i) for i in range(n)))
        object.__setattr__(self, "_modular", {})  # VolumeForm -> checked modular field
        # (kind, module, packed key of e_a (x) I) -> the column tables of
        # ``complexes._column_tables``, filled on first use
        object.__setattr__(self, "_columns", {})
        # |alpha| -> the packed keys of the x^alpha, for ``complexes._slice_keys``
        object.__setattr__(self, "_monomials", {})
        x, br = self.coordinates, self.bracket
        for i, j, k in combinations(range(n), 3):
            jac = (br(br(x[i], x[j]), x[k]) + br(br(x[j], x[k]), x[i])
                   + br(br(x[k], x[i]), x[j]))
            if not jac.is_zero():
                raise JacobiError((i, j, k, jac))
        # X_{x_1}..X_{x_n}, the symbols of both differentials in the coefficient
        object.__setattr__(self, "_hamiltonians", tuple(self.hamiltonian(c) for c in x))

    def __setattr__(self, name, value):
        raise AttributeError("PoissonStructure is immutable")

    # ------------------------------------------------------------------

    def bracket(self, f: Poly, g: Poly) -> Poly:
        """{f,g} = pi(df,dg): the bivector evaluated on f and g."""
        return self.bivector.evaluate(f, g)

    def hamiltonian(self, f: Poly) -> MultiVector:
        """X_f = sum_i {x_i,f} Dx_i; as a derivation X_f(g) = {g,f}."""
        return MultiVector(self.nvars, 1, {(i,): self.bracket(x, f)
                                           for i, x in enumerate(self.coordinates)})

    # ------------------------------------------------------------------

    def koszul_differential(self, omega: Form) -> Form:
        """The degree -1 operator iota_pi d - d iota_pi on forms."""
        if omega.nvars != self.nvars:
            raise DimensionError("mismatched variable counts")
        return interior_product(self.bivector, omega.d()) - interior_product(
            self.bivector, omega
        ).d()

    def modular_vector_field(self, mu: VolumeForm) -> MultiVector:
        """The unique vector field phi with bnd(mu) = iota_phi(mu).

        Solved by inverting the top-degree contraction: iota_{Dx_i}(mu) is
        ``mu.contract((i,), n)``, so phi_i is the coefficient of bnd(mu) at
        the complement of i divided by that contraction's coefficient.
        The result is cross-validated against the Lie-derivative
        characterization L_{X_{x_i}} mu = phi(x_i) mu on every coordinate;
        a disagreement raises ``ModularFieldError`` with the coordinate and
        both sides. A field that passes is kept per volume on this instance.
        """
        if mu in self._modular:
            return self._modular[mu]
        n = self.nvars
        mu_form = mu.form(n)
        boundary = self.koszul_differential(mu_form)
        out = {}
        for i in range(n):
            complement, coefficient = mu.contract((i,), n)
            c = boundary.coefficient(complement)
            if c:
                out[(i,)] = c.scale(Fraction(1, coefficient))
        phi = MultiVector(n, 1, out)
        for i, (x_i, field) in enumerate(zip(self.coordinates, self._hamiltonians)):
            lhs = lie_derivative(field, mu_form)  # L_{X_{x_i}} mu
            rhs = mu_form.scale(phi.evaluate(x_i))
            if lhs != rhs:
                raise ModularFieldError((i, lhs, rhs))
        self._modular[mu] = phi
        return phi

    # ------------------------------------------------------------------

    def poisson_field_defect(self, phi: MultiVector):
        """Witness that phi fails to be a Poisson vector field, or None.

        phi is Poisson iff phi({f,g}) = {phi f, g} + {f, phi g}; checking
        coordinate pairs suffices because the defect is a biderivation.
        """
        if phi.degree != 1:
            raise DimensionError("expected a vector field (degree 1)")
        if phi.nvars != self.nvars:
            raise DimensionError("mismatched variable counts")
        for i in range(self.nvars):
            for j in range(i + 1, self.nvars):
                x_i, x_j = self.coordinates[i], self.coordinates[j]
                defect = (
                    phi.evaluate(self.bracket(x_i, x_j))
                    - self.bracket(phi.evaluate(x_i), x_j)
                    - self.bracket(x_i, phi.evaluate(x_j))
                )
                if not defect.is_zero():
                    return (i, j, defect)
        return None

    # ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PoissonStructure):
            return NotImplemented
        return self.bivector == other.bivector

    def __hash__(self):
        return hash(("PoissonStructure", self.bivector))

    def __repr__(self):
        return f"PoissonStructure({self.bivector.text()!r})"
