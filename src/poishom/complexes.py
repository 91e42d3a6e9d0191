"""The chain and cochain complexes with module coefficients.

Chain side: elements of W (x) Omega^q with the degree -1 differential that
decomposes, on each basis section, as

    e_a (x) omega  |->  e_a (x) bnd(omega) + iota_{X_a}(omega),

where bnd = iota_pi d - d iota_pi is the scalar Koszul differential and
X_a = {e_a,-}_W is the W-valued vector field sum_{i,b} B_i[a][b] d/dx_i e_b.
Slice columns read both off the exponent dicts of pi and B; the reference
``chain_differential`` goes through the Koszul operator and builds duality
witnesses. The decomposition is equivalent to the two-sum formula on
decomposables (the test suite checks this against an independent oracle).

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

Slice columns factor through the Leibniz rule. The second sum is linear
over functions, and {f e_a, x_j}_W = f {e_a, x_j}_W + {f, x_j} e_a, so

    d(x^alpha D_I e_a) = x^alpha d(D_I e_a)
                       + sum_{j not in I} (-1)^(t+1) {x^alpha, x_j} e_a D_(I + j)

with t the 0-based position of j in I + j and {x^alpha, x_j} =
sum_p alpha_p x^(alpha - e_p) {x_p, x_j}. Each column is therefore one
reference image d(D_I e_a), computed once per (module, a, I) by
``cochain_differential`` and kept on the structure, shifted by alpha, plus
alpha_p times the bivector terms {x_p, x_j} shifted by alpha - e_p.

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
    subset_sign,
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
    with X_a, read straight off the bracket matrices: each term f dx_I and
    each position t of i in I give (-1)^t f B_i[a][b] to e_b (x) dx_{I - i}.
    """
    _check_pair(structure, module, element)
    n, r, q = element.nvars, element.rank, element.degree
    if q == 0 or element.is_zero():
        return ModuleChainElement.zero(r, n, max(q - 1, 0))
    out_terms: list[dict] = [{} for _ in range(r)]
    for a, omega in enumerate(element.components):
        if omega.is_zero():
            continue
        for idx, poly in structure.koszul_differential(omega).terms.items():
            _accumulate(out_terms[a], idx, poly)
        for idx, f in omega.terms.items():
            for t, i in enumerate(idx):
                rest = idx[:t] + idx[t + 1:]
                for b, entry in enumerate(module.brackets[i][a]):
                    if not entry.is_zero():
                        piece = f * entry
                        _accumulate(out_terms[b], rest, piece if t % 2 == 0 else -piece)
    return ModuleChainElement([Form(n, q - 1, terms) for terms in out_terms], degree=q - 1)


def cochain_differential(structure: PoissonStructure, module: PoissonModule,
                         element: ModuleCochainElement) -> ModuleCochainElement:
    """Degree +1 differential of the cochain complex with coefficients.

    Only the output tuples J that the support of X reaches are visited.
    The first sum contributes to J = K + {j} for an index tuple K of X,
    with X(x_K) read off the components; the second to J = rest + {p, q}
    for a term pi_pq of the bivector, where rest is K minus one index
    (X(pi_pq, x_rest) vanishes unless rest lies inside some K).
    """
    _check_pair(structure, module, element)
    n, r, k = element.nvars, element.rank, element.degree
    if k >= n:
        return ModuleCochainElement.zero(r, n, n)
    coords = structure.coordinates
    zero = Poly.zero(n)
    support = sorted({idx for comp in element.components for idx in comp.terms})
    out_terms: list[dict] = [{} for _ in range(r)]

    def add(tup, values, sign):
        for b, piece in enumerate(values):
            if not piece.is_zero():
                _accumulate(out_terms[b], tup, piece if sign > 0 else -piece)

    for idx in support:
        value = tuple(comp.terms.get(idx, zero) for comp in element.components)
        for j in range(n):
            if j in idx:
                continue
            tup = tuple(sorted(idx + (j,)))
            sign = -1 if tup.index(j) % 2 == 0 else 1  # (-1)**(t+1) for 0-based t
            add(tup, bracket_vector(module, structure, value, coords[j]), sign)
    rests = sorted({idx[:i] + idx[i + 1:] for idx in support for i in range(k)})
    for rest in rests:
        args = [coords[u] for u in rest]
        for (p, q), pi_pq in structure.bivector.terms.items():
            if p in rest or q in rest:
                continue
            tup = tuple(sorted(rest + (p, q)))
            s, t = tup.index(p), tup.index(q)
            sign = 1 if (s + t) % 2 == 0 else -1  # (-1)**((s+1)+(t+1))
            add(tup, element.evaluate(pi_pq, *args), sign)
    return ModuleCochainElement(
        [MultiVector(n, k + 1, terms) for terms in out_terms], degree=k + 1
    )


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
                               for c in element.components], degree=n - k)


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
    ``matrix`` derives the dense rows from them on demand, with int zeros.
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

    def to_text(self) -> str:
        """Dense rational grid with the ordered bases, for golden files."""
        lines = [f"{self.kind} slice degree={self.degree} weight={self.weight}"]
        lines.append("domain:")
        for e in self.domain_basis:
            lines.append(f"  e{e.section + 1} {e.indices} x^{e.exponents}")
        lines.append("codomain:")
        for e in self.codomain_basis:
            lines.append(f"  e{e.section + 1} {e.indices} x^{e.exponents}")
        lines.append("matrix:")
        for row in self.matrix:
            lines.append("  " + " ".join(str(c) for c in row))
        return "\n".join(lines)


def _d(exps: tuple, idx: tuple):
    """Terms (coefficient, exponents, indices) of d(x^exps dx_idx)."""
    for s, e in enumerate(exps):
        if e and s not in idx:
            joined = tuple(sorted(idx + (s,)))
            yield (-e if joined.index(s) % 2 else e), exps[:s] + (e - 1,) + exps[s + 1:], joined


def _iota_pi(structure: PoissonStructure, exps: tuple, idx: tuple):
    """Terms (coefficient, exponents, indices) of iota_pi(x^exps dx_idx)."""
    for (p, q), pi_pq in structure.bivector.terms.items():
        if p in idx and q in idx:
            rest, sign = tuple(u for u in idx if u != p and u != q), subset_sign((p, q), idx)
            for e, c in pi_pq.terms.items():
                yield sign * c, tuple(map(int.__add__, exps, e)), rest


def _chain_column(structure: PoissonStructure, module: PoissonModule, entry: BasisElement):
    """Chain differential of e_a (x) x^alpha dx_I, read off the exponent dicts:
    bnd = iota_pi d - d iota_pi on the monomial, then the contraction with
    X_a, (-1)^t x^alpha B_i[a][b] e_b (x) dx_(I - i) for i = I[t]."""
    a, idx, alpha = entry
    out = defaultdict(int)
    for c, exps, joined in _d(alpha, idx):
        for c2, exps2, rest in _iota_pi(structure, exps, joined):
            out[BasisElement(a, rest, exps2)] += c * c2
    for c, exps, rest in _iota_pi(structure, alpha, idx):
        for c2, exps2, joined in _d(exps, rest):
            out[BasisElement(a, joined, exps2)] -= c * c2
    for t, i in enumerate(idx):
        rest = idx[:t] + idx[t + 1:]
        for b, entry_ab in enumerate(module.brackets[i][a]):
            for e, c in entry_ab.terms.items():
                out[BasisElement(b, rest, tuple(map(int.__add__, alpha, e)))] += -c if t % 2 else c
    return {key: c for key, c in out.items() if c}


def _cochain_tables(structure: PoissonStructure, module: PoissonModule, a: int,
                    idx: tuple) -> tuple:
    """The two tables of the Leibniz rule for section a and index tuple I.

    The reference image d(D_I e_a), from ``cochain_differential`` on the
    constant basis vector, as (b, J, exponents, coefficient); and, for each
    j not in I, the terms of (-1)^(t+1) {x_p, x_j} e_a D_J, J = I + j, as
    (p, J, exponents - e_p, coefficient), read off the bivector terms. Kept
    per (module, a, I) on ``structure``.
    """
    key = (module, a, idx)
    tables = structure._cochain_columns.get(key)
    if tables is None:
        constant = BasisElement(a, idx, (0,) * module.nvars)
        image = cochain_differential(
            structure, module, element_from_basis(module, "cochain", len(idx), constant))
        reference = tuple(
            (b, joined, exps, coeff)
            for b, comp in enumerate(image.components)
            for joined, poly in comp.terms.items()
            for exps, coeff in poly.terms.items()
        )
        leibniz = []
        for (p, q), pi_pq in structure.bivector.terms.items():
            # {x_p, x_q} = pi_pq and {x_q, x_p} = -pi_pq
            for u, j, sign in ((p, q, 1), (q, p, -1)):
                if j in idx:
                    continue
                joined = tuple(sorted(idx + (j,)))
                if joined.index(j) % 2 == 0:  # (-1)**(t+1)
                    sign = -sign
                leibniz += [(u, joined, exps[:u] + (exps[u] - 1,) + exps[u + 1:], sign * coeff)
                            for exps, coeff in pi_pq.terms.items()]
        tables = structure._cochain_columns[key] = (reference, tuple(leibniz))
    return tables


def _cochain_column(structure: PoissonStructure, module: PoissonModule, entry: BasisElement):
    """Cochain differential of x^alpha D_I e_a by the Leibniz rule (module
    docstring): both tables shifted by alpha, the Leibniz terms of p scaled
    by alpha_p."""
    a, idx, alpha = entry
    reference, leibniz = _cochain_tables(structure, module, a, idx)
    out = defaultdict(int)
    for b, joined, exps, coeff in reference:
        out[BasisElement(b, joined, tuple(map(int.__add__, alpha, exps)))] += coeff
    for p, joined, exps, coeff in leibniz:
        if alpha[p]:
            out[BasisElement(a, joined, tuple(map(int.__add__, alpha, exps)))] += alpha[p] * coeff
    return {key: c for key, c in out.items() if c}


def basis_image(structure: PoissonStructure, module: PoissonModule, kind: str,
                degree: int, entry: BasisElement) -> dict:
    """Image of one basis vector under the differential, as {BasisElement: coefficient}.

    Slice assembly and the chain-level duality check both read the
    differentials through this function. Chain columns come from exponent
    dicts (``_chain_column``); cochain columns by the Leibniz rule from one
    ``cochain_differential`` image per (module, section, index tuple),
    shifted by x^alpha (``_cochain_column``). Both check flatness, the
    variable counts and the shape of ``entry`` on every call.
    """
    if kind not in ("chain", "cochain"):
        raise ValueError(f"unknown kind {kind!r}")
    _require_flat(module, structure)
    n = module.nvars
    if structure.nvars != n or len(entry.indices) != degree or len(entry.exponents) != n:
        raise DimensionError(f"{entry} is not a {kind} basis vector of degree {degree}")
    if kind == "chain":
        return _chain_column(structure, module, entry)
    return _cochain_column(structure, module, entry)


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
