"""The chain and cochain complexes with module coefficients.

Chain side: elements of W (x) Omega^q with the degree -1 differential that
decomposes, on each basis section, as

    e_a (x) omega  |->  e_a (x) bnd(omega) + iota_{X_a}(omega),

where bnd = iota_pi d - d iota_pi is the scalar Koszul differential and
X_a = {e_a,-}_W is the W-valued vector field sum_{i,b} B_i[a][b] d/dx_i e_b
that the module keeps. ``chain_differential`` applies it as written: the
Koszul operator, plus the module-valued ``interior_product`` by X_a. The
decomposition is equivalent to the two-sum formula on decomposables (the
test suite checks this against an independent oracle).

Cochain side: W-valued multiderivations of degree k with the degree +1
differential

    (dX)(f_1..f_{k+1}) = sum_i (-1)^i {X(.. ^f_i ..), f_i}_W
                       + sum_{i<j} (-1)^{i+j} X({f_i,f_j}, .. ^f_i .. ^f_j ..).

A multiderivation is determined by its values on coordinate tuples, so the
implementation evaluates the formula there and reassembles the result, but
only on the tuples the support of X reaches: for f = x_J, a term of the
first sum is nonzero only if J minus one index is an index tuple of X, and
a term of the second only if J = rest + {p, q} with pi_pq nonzero and rest
an index tuple of X minus one index (Brylinski, J. Differential Geom. 1988;
Luo, Wang and Wu, J. Algebra 2015).

Slice columns follow from one first-order rule. Both differentials are
first-order operators in the coefficient,

    d(f X)     = f dX       + X_f ^ X,
    bnd^W(f w) = f bnd^W(w) - iota_{X_f} w,

componentwise over the sections, with X_f the Hamiltonian field of f and
bnd^W the chain differential (Koszul, Asterisque 1985; Brylinski 1988). For
a basis vector b = e_a (x) D_I or e_a (x) dx_I and f = x^alpha, X_f =
sum_p alpha_p x^(alpha - e_p) X_{x_p}, so with D either differential

    D(x^alpha b) = x^alpha D(b) + sum_p alpha_p x^(alpha - e_p) sigma_p(b),

where the symbol sigma_p(b) is X_{x_p} ^ D_I e_a on cochains and
-iota_{X_{x_p}} dx_I e_a on chains. D(b) is one image of the reference
differential on the constant basis vector and sigma_p(b) one wedge or
contraction; both are computed once per (kind, module, a, I) and kept on the
structure, so every column is these tables shifted by alpha and the symbol
of p scaled by alpha_p. The only sign rules are those of the object-level
calculus: the two reference differentials, like the wedges and contractions,
take every shuffle sign from ``calculus.wedge_indices``.

Weight grading: weight(x_i) = weight(dx_i) = +1, weight(d/dx_i) = -1. When
the bivector is homogeneous of coefficient degree d and every bracket entry
is homogeneous of degree d-1, both differentials shift weight by exactly
d-2 and every weight slice is finite dimensional; ``assemble_slice`` stores
these restrictions as sparse columns over deterministic monomial bases, the
one form that slice ranks and the duality check both read.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .calculus import (
    Form,
    ModuleChainElement,
    ModuleCochainElement,
    MultiVector,
    _accumulate,
    interior_product,
    wedge_indices,
)
from .errors import DimensionError, GradedModeError
from .pmodule import PoissonModule, _require_flat, bracket_vector
from .poisson import PoissonStructure, VolumeForm
from .poly import Poly, monomials_of_degree


def _check_pair(structure: PoissonStructure, module: PoissonModule, element):
    _require_flat(module, structure)
    if module.nvars != structure.nvars or element.nvars != module.nvars:
        raise DimensionError("mismatched variable counts")
    if element.rank != module.rank:
        raise DimensionError("rank mismatch")


def chain_differential(structure: PoissonStructure, module: PoissonModule,
                       element: ModuleChainElement) -> ModuleChainElement:
    """Degree -1 differential of the chain complex with coefficients.

    Component a contributes its Koszul boundary to e_a and its contraction
    ``interior_product(X_a, omega_a)`` with the module field X_a, which
    spreads it over the sections e_b. A zero component contributes the zero
    of degree q-1.
    """
    _check_pair(structure, module, element)
    zero = Form.zero(element.nvars, element.degree - 1)
    out = ModuleChainElement([structure.koszul_differential(omega) if omega else zero
                              for omega in element.components])
    for omega, field in zip(element.components, module._fields):
        out = out + interior_product(field, omega)
    return out


def cochain_differential(structure: PoissonStructure, module: PoissonModule,
                         element: ModuleCochainElement) -> ModuleCochainElement:
    """Degree +1 differential of the cochain complex with coefficients.

    In wedge form the two sums of the module docstring are

        sum_{K, j}    -Dx_j ^ {X(x_K), x_j}_W Dx_K,
        sum_{pq, rest} -Dx_p ^ Dx_q ^ X(pi_pq, x_rest) Dx_rest,

    over index tuples K of X and j, and over the terms pi_pq of the
    bivector and tuples rest of k - 1 indices; X(x_K) is read off the
    components, and X(pi_pq, x_rest) vanishes unless rest lies inside some
    K, so only those are visited. Each target tuple and its sign come from
    ``wedge_indices``, whose None drops the terms with a repeated index.
    """
    _check_pair(structure, module, element)
    n, r, k = element.nvars, element.rank, element.degree
    coords = structure.coordinates
    zero = Poly.zero(n)
    support = sorted({idx for comp in element.components for idx in comp.terms})
    out_terms: list[dict] = [{} for _ in range(r)]

    def add(merged, values):
        # a term -Dx_left ^ (values) Dx_right, with merged = wedge_indices(left, right)
        sign, tup = merged
        for b, piece in enumerate(values):
            if not piece.is_zero():
                _accumulate(out_terms[b], tup, -piece if sign > 0 else piece)

    for idx in support:
        value = tuple(comp.terms.get(idx, zero) for comp in element.components)
        for j in range(n):
            merged = wedge_indices((j,), idx)
            if merged is not None:
                add(merged, bracket_vector(module, structure, value, coords[j]))
    rests = sorted({idx[:i] + idx[i + 1:] for idx in support for i in range(k)})
    for rest in rests:
        args = [coords[u] for u in rest]
        for pq, pi_pq in structure.bivector.terms.items():
            merged = wedge_indices(pq, rest)
            if merged is not None:
                add(merged, element.evaluate(pi_pq, *args))
    return ModuleCochainElement([MultiVector(n, k + 1, terms) for terms in out_terms])


# ----------------------------------------------------------------------
# duality maps


def _triangle_sign(k: int) -> int:
    return -1 if (k * (k + 1) // 2) % 2 else 1


def blacktriangle(mu: VolumeForm, element: ModuleCochainElement) -> ModuleChainElement:
    """The duality map X |-> (-1)^(k(k+1)/2) iota_X(mu), term by term through
    ``mu.contract``; the sign makes the duality square commute."""
    n, k = element.nvars, element.degree
    sign = _triangle_sign(k)

    def term(idx, poly):
        complement, coefficient = mu.contract(idx, n)
        return complement, poly.scale(sign * coefficient)

    return ModuleChainElement([Form(n, n - k, [term(*item) for item in c.terms.items()])
                               for c in element.components])


def blacktriangle_basis(mu: VolumeForm, n: int, entry: BasisElement):
    """``blacktriangle`` of one cochain basis vector, as (chain basis vector, coefficient)."""
    complement, coefficient = mu.contract(entry.indices, n)
    return (BasisElement(entry.section, complement, entry.exponents),
            coefficient * _triangle_sign(len(entry.indices)))


# ----------------------------------------------------------------------
# weight-graded slices


class BasisElement(NamedTuple):
    """One monomial basis vector: section e_a, index tuple, coefficient exponents."""

    section: int
    indices: tuple
    exponents: tuple


def graded_weight_shift(structure: PoissonStructure, module: PoissonModule) -> int:
    """Weight shift of the differentials in graded mode.

    Graded mode requires the bivector homogeneous of some coefficient degree
    d and every bracket entry homogeneous of degree d-1 (zero entries are
    fine); the shift is then d-2. If the bivector vanishes the bracket
    degree m alone fixes the shift m-1, and with no data at all the shift
    is 0 (both differentials vanish identically).
    """
    degrees = []
    for polys, mixed in (
        (structure.bivector.terms.values(), "bivector coefficients have mixed degrees"),
        ((entry for m in module.brackets for row in m for entry in row),
         "bracket entries have mixed homogeneous degrees"),
    ):
        try:
            found = {poly.homogeneous_degree() for poly in polys if poly}
        except ValueError as exc:  # a polynomial that is not homogeneous
            raise GradedModeError(str(exc)) from exc
        if len(found) > 1:
            raise GradedModeError(mixed)
        degrees.append(found.pop() if found else None)
    pi_degree, bracket_degree = degrees
    if pi_degree is None and bracket_degree is None:
        return 0
    if pi_degree is None:
        return bracket_degree - 1
    if bracket_degree is not None and bracket_degree != pi_degree - 1:
        raise GradedModeError(
            f"bracket entries have degree {bracket_degree}, expected "
            f"{pi_degree - 1} for a bivector of degree {pi_degree}"
        )
    return pi_degree - 2


def slice_basis(module: PoissonModule, kind: str, degree: int, weight: int):
    """Ordered monomial basis of one weight slice.

    Cochain slice (k, w): sections e_a (x) x^alpha Dx_I with |I| = k and
    |alpha| = w + k. Chain slice (q, w): e_a (x) x^alpha dx_I with |alpha| =
    w - q. Order: section, then index tuple (lex), then exponents
    (lex-descending), matching the printing order of polynomials.
    """
    if kind not in ("chain", "cochain"):
        raise ValueError(f"unknown kind {kind!r}")
    n = module.nvars
    k = degree
    coeff_degree = weight + k if kind == "cochain" else weight - k
    if k < 0 or k > n or coeff_degree < 0:
        return []
    return [
        BasisElement(a, idx, exps)
        for a in range(module.rank)
        for idx in combinations(range(n), k)
        for exps in monomials_of_degree(n, coeff_degree)
    ]


def element_from_basis(module: PoissonModule, kind: str, degree: int,
                       entry: BasisElement):
    n = module.nvars
    poly = Poly.monomial(n, entry.exponents)
    if kind == "cochain":
        comp = MultiVector(n, degree, {entry.indices: poly})
        return ModuleCochainElement.single(module.rank, entry.section, comp)
    comp = Form(n, degree, {entry.indices: poly})
    return ModuleChainElement.single(module.rank, entry.section, comp)


@dataclass(frozen=True)
class ComplexSlice:
    """One differential restricted to a weight slice, as sparse columns.

    ``columns`` holds one {codomain BasisElement: coefficient} per domain
    basis vector, in the order of ``domain_basis``: the nonzero coefficients
    of its image, keyed by the ``codomain_basis`` objects themselves.
    ``matrix`` derives the dense rows on demand, with int zeros; only
    ``bench/tracing.py``'s slice statistics and the tests read it.
    """

    kind: str
    degree: int
    weight: int
    domain_basis: tuple
    codomain_basis: tuple
    columns: tuple  # one {codomain BasisElement: coefficient} per domain vector

    @property
    def matrix(self) -> tuple:
        """Dense rows: entry (row, col) is the coefficient of codomain_basis[row] in column col."""
        index = {entry: row for row, entry in enumerate(self.codomain_basis)}
        rows = [[0] * len(self.columns) for _ in self.codomain_basis]
        for col, column in enumerate(self.columns):
            for key, coeff in column.items():
                rows[index[key]][col] = coeff
        return tuple(tuple(row) for row in rows)


def _table(sections, lower: int | None = None) -> tuple:
    """The terms of (section, form or multivector) pairs as (section, indices,
    exponents, coefficient), exponents lowered by e_lower if it is given."""
    return tuple(
        (b, idx, exps if lower is None else exps[:lower] + (exps[lower] - 1,) + exps[lower + 1:],
         coeff)
        for b, comp in sections
        for idx, poly in comp.terms.items()
        for exps, coeff in poly.terms.items()
    )


def _column_tables(structure: PoissonStructure, module: PoissonModule, kind: str,
                   a: int, idx: tuple) -> tuple:
    """The tables of the first-order rule (module docstring) for b = e_a (x) I.

    Table 0 is D(b), one ``cochain_differential`` or ``chain_differential``
    image of the constant basis vector; table 1 + p is the symbol
    sigma_p(b), X_{x_p} ^ D_I e_a on cochains and -iota_{X_{x_p}} dx_I e_a
    on chains, with exponents lowered by e_p. Each holds (b, indices,
    exponents, coefficient) and all are kept per (kind, module, a, I) on
    ``structure``.
    """
    key = (kind, module, a, idx)
    tables = structure._columns.get(key)
    if tables is None:
        n = module.nvars
        constant = element_from_basis(module, kind, len(idx), BasisElement(a, idx, (0,) * n))
        comp = constant.components[a]
        if kind == "cochain":
            image = cochain_differential(structure, module, constant)
            symbols = [field.wedge(comp) for field in structure._hamiltonians]
        else:
            image = chain_differential(structure, module, constant)
            symbols = [-interior_product(field, comp) for field in structure._hamiltonians]
        tables = structure._columns[key] = (
            _table(enumerate(image.components)),
            *(_table([(a, symbol)], p) for p, symbol in enumerate(symbols)),
        )
    return tables


def basis_image(structure: PoissonStructure, module: PoissonModule, kind: str,
                degree: int, entry: BasisElement) -> dict:
    """Image of one basis vector under the differential, as {BasisElement: coefficient}.

    Slice assembly and the chain-level duality check both read the
    differentials through this function. The column of x^alpha b follows
    the first-order rule of the module docstring from the tables of b
    (``_column_tables``): the reference image D(b) shifted by x^alpha, plus
    alpha_p times the symbol table of p, shifted by x^(alpha - e_p). It
    checks flatness, the variable counts and the shape of ``entry`` on
    every call.
    """
    if kind not in ("chain", "cochain"):
        raise ValueError(f"unknown kind {kind!r}")
    _require_flat(module, structure)
    n = module.nvars
    if structure.nvars != n or len(entry.indices) != degree or len(entry.exponents) != n:
        raise DimensionError(f"{entry} is not a {kind} basis vector of degree {degree}")
    a, idx, alpha = entry
    out = defaultdict(int)
    for scale, table in zip((1, *alpha), _column_tables(structure, module, kind, a, idx)):
        if scale:
            for b, joined, exps, coeff in table:
                out[BasisElement(b, joined, tuple(map(int.__add__, alpha, exps)))] += scale * coeff
    return {key: c for key, c in out.items() if c}


def assemble_slice(structure: PoissonStructure, module: PoissonModule,
                   kind: str, degree: int, weight: int) -> ComplexSlice:
    """Columns of the differential leaving slice (degree, weight)."""
    shift = graded_weight_shift(structure, module)
    domain = slice_basis(module, kind, degree, weight)
    codomain_degree = degree + 1 if kind == "cochain" else degree - 1
    codomain = slice_basis(module, kind, codomain_degree, weight + shift)
    own = {entry: entry for entry in codomain}  # columns reuse the codomain key objects
    columns = []
    for entry in domain:
        column = {}
        for key, coeff in basis_image(structure, module, kind, degree, entry).items():
            shared = own.get(key)
            if shared is None:
                raise GradedModeError(
                    f"image of {entry} leaves the expected slice at {key}"
                )
            column[shared] = coeff
        columns.append(column)
    return ComplexSlice(
        kind, degree, weight, tuple(domain), tuple(codomain), tuple(columns)
    )
