"""Free Poisson modules of finite rank over the polynomial ring.

A module W of rank r is determined by its coordinate bracket data: n
matrices B_1..B_n of polynomials with

    {e_a, x_i}_W = sum_b B_i[a][b] e_b.

The bracket extends to arbitrary elements and functions by the two Leibniz
axioms; the remaining axiom (W is a right Lie module over the bracket) is
the flatness condition, checked on coordinate pairs.

Read as vector fields, the rows of the data are the W-valued fields

    X_a = {e_a,-}_W = sum_{i,b} B_i[a][b] d/dx_i e_b,

one per basis section, built once per module. The module bracket and the
contraction term of the chain differential read B only through them.

The same data read with opposite sign is a flat contravariant connection:
nabla_{dx_i}(e_a) = sum_b Gamma_i[a][b] e_b with Gamma_i = -B_i.
"""

from __future__ import annotations

from fractions import Fraction

from .calculus import Form, ModuleCochainElement, MultiVector, interior_product
from .errors import DimensionError, FlatnessError, PoishomError, PoissonFieldError
from .poisson import PoissonStructure, VolumeForm
from .poly import Poly


def _check_matrices(nvars, rank, matrices):
    matrices = tuple(tuple(tuple(row) for row in m) for m in matrices)
    if len(matrices) != nvars:
        raise DimensionError(f"expected {nvars} bracket matrices, got {len(matrices)}")
    for m in matrices:
        if len(m) != rank or any(len(row) != rank for row in m):
            raise DimensionError(f"bracket matrices must be {rank}x{rank}")
        for row in m:
            for entry in row:
                if not isinstance(entry, Poly) or entry.nvars != nvars:
                    raise DimensionError("bracket entries must be Poly over the same variables")
    return matrices


class PoissonModule:
    """A free rank-r module with coordinate bracket matrices.

    Flatness is relative to a Poisson structure. ``PoissonModule(...,
    structure=P)`` is the flatness gate: it raises ``FlatnessError`` with a
    witness unless the data is a right Lie module over P, and records P as
    ``structure``. Without ``structure`` the module is plain data
    (``structure`` is None); the differentials and ``twist`` accept it only
    when every bracket matrix is zero, which is flat for every structure.
    Equality and hashing use the bracket data alone.
    """

    __slots__ = ("nvars", "rank", "brackets", "structure", "_hash", "_fields")

    def __init__(self, nvars: int, rank: int, brackets, *, structure=None):
        if rank < 1:
            raise DimensionError("rank must be >= 1")
        brackets = _check_matrices(nvars, rank, brackets)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "brackets", brackets)
        # immutable, so hashed once: the column memo hashes it per column
        object.__setattr__(self, "_hash", hash(("PoissonModule", nvars, rank, brackets)))
        # X_1..X_r of the module docstring, degree-1 W-valued multiderivations
        object.__setattr__(self, "_fields", tuple(ModuleCochainElement(
            [MultiVector(nvars, 1, [((i,), m[a][b]) for i, m in enumerate(brackets)])
             for b in range(rank)]) for a in range(rank)))
        if structure is not None:
            witness = flatness_defect(self, structure)
            if witness is not None:
                raise FlatnessError(witness)
        object.__setattr__(self, "structure", structure)

    def __setattr__(self, name, value):
        raise AttributeError("PoissonModule is immutable")

    # ------------------------------------------------------------------

    @classmethod
    def trivial(cls, nvars: int, rank: int = 1) -> "PoissonModule":
        """All bracket matrices zero; flat for every Poisson structure."""
        zero = Poly.zero(nvars)
        m = tuple(tuple(tuple(zero for _ in range(rank)) for _ in range(rank)) for _ in range(nvars))
        return cls(nvars, rank, m)

    # ------------------------------------------------------------------
    # connection dictionary: B_i = -Gamma_i

    @classmethod
    def from_connection(cls, nvars: int, rank: int, gammas) -> "PoissonModule":
        gammas = _check_matrices(nvars, rank, gammas)
        negated = tuple(
            tuple(tuple(-entry for entry in row) for row in m) for m in gammas
        )
        return cls(nvars, rank, negated)

    # ------------------------------------------------------------------

    def __eq__(self, other):
        # equality is on the bracket data; the checked structure is bookkeeping
        if not isinstance(other, PoissonModule):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.rank == other.rank
            and self.brackets == other.brackets
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PoissonModule(nvars={self.nvars}, rank={self.rank})"


# ----------------------------------------------------------------------
# bracket and flatness


def bracket_vector(module: PoissonModule, structure: PoissonStructure, vec, f: Poly):
    """{w, f}_W on a plain coefficient vector w = sum_b g_b e_b.

    By the two Leibniz axioms it is ({g_b, f})_b + sum_a g_a X_a(f), with
    X_a(f) = {e_a, f}_W the value of the module field X_a.
    """
    out = [structure.bracket(g, f) for g in vec]
    for g_a, field in zip(vec, module._fields):
        if g_a:
            out = [acc + g_a * value for acc, value in zip(out, field.evaluate(f))]
    return tuple(out)


def flatness_defect(module: PoissonModule, structure: PoissonStructure):
    """Flatness witness (a, i, j, discrepancy) or None; ignores ``module.structure``.

    The discrepancy is oriented as
        {e_a,{x_i,x_j}}_W - {{e_a,x_i}_W,x_j}_W + {{e_a,x_j}_W,x_i}_W,
    each side expanded with the same Leibniz extension used everywhere else.
    Coordinate pairs suffice by the Leibniz axioms.
    """
    if module.nvars != structure.nvars:
        raise DimensionError("mismatched variable counts")
    if _zero_brackets(module):  # flat for every structure
        return None
    n, r = module.nvars, module.rank
    zero = Poly.zero(n)
    for a in range(r):
        basis = tuple(Poly.constant(n, 1) if b == a else zero for b in range(r))
        for i in range(n):
            x_i = structure.coordinates[i]
            for j in range(i + 1, n):
                x_j = structure.coordinates[j]
                lhs_ij = bracket_vector(
                    module, structure, bracket_vector(module, structure, basis, x_i), x_j
                )
                lhs_ji = bracket_vector(
                    module, structure, bracket_vector(module, structure, basis, x_j), x_i
                )
                rhs = bracket_vector(module, structure, basis, structure.bracket(x_i, x_j))
                disc = tuple(
                    r_b - l_ij + l_ji for r_b, l_ij, l_ji in zip(rhs, lhs_ij, lhs_ji)
                )
                if any(not p.is_zero() for p in disc):
                    return (a, i, j, disc)
    return None


# ----------------------------------------------------------------------
# twisting


def _zero_brackets(module: PoissonModule) -> bool:
    return all(entry.is_zero() for m in module.brackets for row in m for entry in row)


def _require_flat(module: PoissonModule, structure: PoissonStructure):
    """Refuse a module not known to be flat for ``structure``.

    Known flat: the flatness gate ran against this structure (or an equal
    one), or every bracket matrix is zero.
    """
    checked = module.structure
    if checked is structure or checked == structure:
        return
    if not _zero_brackets(module):
        raise PoishomError(
            "module is not known to be flat for this structure; "
            "construct it with structure= first"
        )


def twist(module: PoissonModule, structure: PoissonStructure,
          phi: MultiVector) -> PoissonModule:
    """Twist the bracket by a Poisson vector field: {w,f} + w phi(f).

    On bracket matrices this is B_i -> B_i + phi(x_i) I. The module must be
    flat for ``structure`` (see ``_require_flat``) and phi must be Poisson
    (else ``PoissonFieldError``); the result is then flat for ``structure``
    without a further check.
    """
    if phi.nvars != module.nvars:
        raise DimensionError("mismatched variable counts")
    _require_flat(module, structure)
    defect = structure.poisson_field_defect(phi)
    if defect is not None:
        raise PoissonFieldError(defect)
    n, r = module.nvars, module.rank
    new = []
    for i in range(n):
        value = phi.evaluate(structure.coordinates[i])
        matrix = [list(row) for row in module.brackets[i]]
        for a in range(r):
            matrix[a][a] = matrix[a][a] + value
        new.append(tuple(tuple(row) for row in matrix))
    twisted = PoissonModule(n, r, tuple(new))
    object.__setattr__(twisted, "structure", structure)
    return twisted


def elw_connection(structure: PoissonStructure, mu: VolumeForm) -> PoissonModule:
    """The canonical flat connection on top forms, built from its formula.

    The rank-1 module models Omega^n in the mu-trivialization. The
    connection is nabla_omega(s) = omega ^ d(iota_pi s); reading
    nabla_{dx_i}(mu) = Gamma_i mu off that formula gives the bracket entry
    B_i = -Gamma_i. Constructed independently of twisting so the identity
    with twist(trivial, modular field) stays a theorem, not a tautology;
    flatness is still verified eagerly here.
    """
    n = structure.nvars
    mu_form = mu.form(n)
    top = tuple(range(n))
    contracted = interior_product(structure.bivector, mu_form)
    gammas = []
    for i in range(n):
        dx_i = Form(n, 1, {(i,): Poly.constant(n, 1)})
        nabla = dx_i.wedge(contracted.d())
        gamma = nabla.coefficient(top).scale(Fraction(1, mu.coefficient))
        gammas.append(((gamma,),))
    module = PoissonModule.from_connection(n, 1, tuple(gammas))
    return PoissonModule(n, 1, module.brackets, structure=structure)
