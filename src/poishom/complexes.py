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

Packed keys: the kernel names the basis vector e_a (x) x^alpha D_I (or dx_I)
by one int,

    key = ((a << n | mask(I)) << (B n)) + sum_i alpha_i << (B i),

with mask(I) = sum_{i in I} 2^i and B = 32 bits per exponent. The tables
hold (key of a term minus 2^(B p) for the symbol of p, coefficient), so the
column of x^alpha b adds the key of x^alpha to each offset: a shift is one
integer addition. No sum carries from one field into the next: every
exponent of every column stays in [0, 2^B), as a lowered exponent is only
used with alpha_p >= 1 and ``_kernel`` refuses with ``DimensionError`` a
coefficient degree that, plus the largest table degree, reaches 2^(B-1).
The duality map relabels I by its complement and keeps a and alpha, so on a
key it is key ^ FLIP with FLIP = (2^n - 1) << (B n), times a sign that
depends on mask(I) alone (``_blacktriangle_keys``).

Weight grading: weight(x_i) = weight(dx_i) = +1, weight(d/dx_i) = -1. When
the bivector is homogeneous of coefficient degree d and every bracket entry
is homogeneous of degree d-1, both differentials shift weight by exactly
d-2 and every weight slice is finite dimensional; a ``Grading`` decides this
once per complex. ``assemble_slice`` stores these restrictions as sparse
columns over deterministic monomial bases, the one form that slice ranks and
the duality check both read.
"""

from __future__ import annotations

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


def _blacktriangle_keys(mu: VolumeForm, n: int):
    """``blacktriangle`` on packed keys, as a function from a column {cochain
    key: coefficient} to its image {chain key: coefficient}: each key goes to
    key ^ FLIP, times the sign of its index mask (module docstring)."""
    subsets = (tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n))
    signs = [mu.contract(idx, n)[1] * _triangle_sign(len(idx)) for idx in subsets]
    shift, full = _B * n, (1 << n) - 1
    flip = full << shift
    return lambda column: {key ^ flip: signs[key >> shift & full] * c
                           for key, c in column.items()}


# ----------------------------------------------------------------------
# weight-graded slices


class BasisElement(NamedTuple):
    """One monomial basis vector: section e_a, index tuple, coefficient exponents."""

    section: int
    indices: tuple
    exponents: tuple


_B = 32  # bits per exponent in a packed key (module docstring)
_EXPONENT = (1 << _B) - 1


def _pack(n: int, section: int, indices, exponents=()) -> int:
    """The packed key of e_section (x) x^exponents over the tuple ``indices``."""
    head = section << n
    for i in indices:
        head |= 1 << i
    key = head << (_B * n)
    for i, e in enumerate(exponents):
        key += e << (_B * i)
    return key


def _unpack(n: int, key: int) -> BasisElement:
    """The basis vector of a packed key."""
    head = key >> (_B * n)
    return BasisElement(head >> n, tuple(i for i in range(n) if head >> i & 1),
                        tuple(key >> (_B * i) & _EXPONENT for i in range(n)))


class Grading:
    """The weight grading of the ``kind`` complex ("cochain" or "chain") of
    ``structure`` with coefficients in ``module``; the constructor is the
    graded-mode gate. It needs the bivector homogeneous of some coefficient
    degree d and every nonzero bracket entry of degree d-1, else it raises
    ``GradedModeError``. The differential moves degree by ``step`` (+1 on
    cochains, -1 on chains) and weight by ``shift``: d-2, or m-1 if only the
    brackets (of degree m) are nonzero, or 0 with no data. ``_ranks`` keeps
    (dimension, rank) per (degree, weight) for ``homology.betti``.
    """

    __slots__ = ("structure", "module", "kind", "shift", "step", "_ranks")

    def __init__(self, structure: PoissonStructure, module: PoissonModule, kind: str):
        if kind not in ("chain", "cochain"):
            raise ValueError(f"unknown kind {kind!r}")
        degrees = []
        for polys, mixed in (
            (structure.bivector.terms.values(), "bivector coefficients have mixed degrees"),
            ((entry for m in module.brackets for row in m for entry in row),
             "bracket entries have mixed homogeneous degrees"),
        ):
            found = set()
            for poly in filter(None, polys):
                try:
                    found.add(poly.homogeneous_degree())
                except ValueError as exc:
                    raise GradedModeError("polynomial {} is not homogeneous", poly) from exc
            if len(found) > 1:
                raise GradedModeError(mixed)
            degrees.append(found.pop() if found else None)
        pi_degree, bracket_degree = degrees
        if pi_degree is None:
            shift = 0 if bracket_degree is None else bracket_degree - 1
        elif bracket_degree is None or bracket_degree == pi_degree - 1:
            shift = pi_degree - 2
        else:
            raise GradedModeError(
                f"bracket entries have degree {bracket_degree}, expected "
                f"{pi_degree - 1} for a bivector of degree {pi_degree}"
            )
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "step", 1 if kind == "cochain" else -1)
        object.__setattr__(self, "_ranks", {})

    def __setattr__(self, name, value):
        raise AttributeError("Grading is immutable")


def _coefficient_degree(kind: str, degree: int, weight: int) -> int:
    """|alpha| on the slice (degree, weight): w + k on cochains, w - q on chains."""
    return weight + degree if kind == "cochain" else weight - degree


def _heads(module: PoissonModule, degree: int) -> list:
    """The packed keys of the constant basis vectors e_a (x) I with |I| = degree."""
    n = module.nvars
    return [_pack(n, a, idx) for a in range(module.rank)
            for idx in (combinations(range(n), degree) if degree >= 0 else ())]


def _slice_keys(module: PoissonModule, kind: str, degree: int, weight: int,
                monomials: dict) -> list:
    """The packed keys of one weight slice's basis.

    Cochain slice (k, w): sections e_a (x) x^alpha Dx_I with |I| = k and
    |alpha| = w + k. Chain slice (q, w): e_a (x) x^alpha dx_I with |alpha| =
    w - q. Order: section, then index tuple (lex), then exponents
    (lex-descending), matching the printing order of polynomials.
    ``monomials`` keeps the packed keys of the x^alpha per |alpha|; they
    depend on n alone, so slice assembly and the duality check pass their
    structure's ``_monomials`` and enumerate each degree once per structure.
    """
    n = module.nvars
    coeff_degree = _coefficient_degree(kind, degree, weight)
    heads = _heads(module, degree)
    if not heads or coeff_degree < 0:
        return []
    keys = monomials.get(coeff_degree)
    if keys is None:
        keys = monomials[coeff_degree] = [_pack(n, 0, (), exps)
                                          for exps in monomials_of_degree(n, coeff_degree)]
    return [head + monomial for head in heads for monomial in keys]


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

    ``domain_basis`` and ``codomain_basis`` are the packed keys (module
    docstring) of the two slice bases, in ``_slice_keys`` order; ``columns``
    holds one {codomain key: coefficient} per domain basis vector, in the
    order of ``domain_basis``: the nonzero coefficients of its image.
    ``matrix`` derives the dense rows on demand, with int zeros; only
    ``bench/tracing.py``'s slice statistics and the tests read it.
    """

    degree: int
    weight: int
    domain_basis: tuple  # packed keys
    codomain_basis: tuple  # packed keys
    columns: tuple  # one {codomain key: coefficient} per domain vector

    @property
    def matrix(self) -> tuple:
        """Dense rows: entry (row, col) is the coefficient of the packed key
        codomain_basis[row] in column col."""
        index = {key: row for row, key in enumerate(self.codomain_basis)}
        rows = [[0] * len(self.columns) for _ in self.codomain_basis]
        for col, column in enumerate(self.columns):
            for key, coeff in column.items():
                rows[index[key]][col] = coeff
        return tuple(tuple(row) for row in rows)


def _table(n: int, sections, drop: int = 0) -> tuple:
    """(table, degree): the terms of (section, form or multivector) pairs as
    (packed key - ``drop``, coefficient), and their largest coefficient degree."""
    table, top = [], 0
    for b, comp in sections:
        for idx, poly in comp.terms.items():
            for exps, coeff in poly.terms.items():
                table.append((_pack(n, b, idx, exps) - drop, coeff))
                top = max(top, sum(exps))
    return tuple(table), top


def _column_tables(structure: PoissonStructure, module: PoissonModule, kind: str,
                   head: int) -> tuple:
    """(degree, tables) of the first-order rule (module docstring) for the
    constant basis vector b = e_a (x) I of packed key ``head``.

    Table 0 is D(b), one ``cochain_differential`` or ``chain_differential``
    image of the constant basis vector; table 1 + p is the symbol
    sigma_p(b), X_{x_p} ^ D_I e_a on cochains and -iota_{X_{x_p}} dx_I e_a
    on chains, with exponents lowered by e_p: its offsets are packed keys
    minus 2^(B p). Each holds (offset, coefficient); degree is the largest
    coefficient degree of their terms. Both are kept per (kind, module, head)
    on ``structure``.
    """
    key = (kind, module, head)
    found = structure._columns.get(key)
    if found is None:
        n = module.nvars
        a, idx, _ = entry = _unpack(n, head)
        constant = element_from_basis(module, kind, len(idx), entry)
        comp = constant.components[a]
        if kind == "cochain":
            image = cochain_differential(structure, module, constant)
            symbols = [field.wedge(comp) for field in structure._hamiltonians]
        else:
            image = chain_differential(structure, module, constant)
            symbols = [-interior_product(field, comp) for field in structure._hamiltonians]
        pieces = [_table(n, enumerate(image.components)),
                  *(_table(n, [(a, symbol)], 1 << (_B * p)) for p, symbol in enumerate(symbols))]
        found = structure._columns[key] = (max(top for _, top in pieces),
                                           tuple(table for table, _ in pieces))
    return found


def _kernel(structure: PoissonStructure, module: PoissonModule, kind: str,
            degree: int, coeff_degree: int):
    """The differential on the ``kind`` basis vectors of ``degree`` with
    coefficient degree ``coeff_degree``, as a function from a packed key to
    its column {packed key: coefficient}.

    The gates run here, once: the kind, flatness, the variable counts and
    the headroom of the packed sums, ``DimensionError`` when coeff_degree
    plus the largest table degree reaches 2^(B-1). The column of x^alpha b
    is the first-order rule of the module docstring on the tables of b: the
    key of x^alpha plus each offset of D(b), and plus each offset of the
    symbol of p, scaled by alpha_p.
    """
    if kind not in ("chain", "cochain"):
        raise ValueError(f"unknown kind {kind!r}")
    _require_flat(module, structure)
    n = module.nvars
    if structure.nvars != n:
        raise DimensionError("mismatched variable counts")
    found = {head: _column_tables(structure, module, kind, head)
             for head in _heads(module, degree)}
    if coeff_degree + max((top for top, _ in found.values()), default=0) >= 1 << (_B - 1):
        raise DimensionError(f"coefficient degree {coeff_degree} overflows a packed key")
    tables = {head: tables for head, (_, tables) in found.items()}
    low = (1 << (_B * n)) - 1
    places = range(0, _B * n, _B)

    def column(key: int) -> dict:
        monomial = key & low
        image, *symbols = tables[key - monomial]
        out = {}
        get = out.get
        for offset, coeff in image:
            target = monomial + offset
            out[target] = get(target, 0) + coeff
        for place, symbol in zip(places, symbols):
            scale = monomial >> place & _EXPONENT
            if scale:
                for offset, coeff in symbol:
                    target = monomial + offset
                    out[target] = get(target, 0) + scale * coeff
        return {target: c for target, c in out.items() if c}

    return column


def assemble_slice(grading: Grading, degree: int, weight: int) -> ComplexSlice:
    """Columns of the differential of ``grading``'s complex leaving slice
    (degree, weight); its codomain is slice (degree + step, weight + shift).
    The kernel's gates run once per slice; an image outside the codomain
    raises ``GradedModeError``."""
    structure, module, kind = grading.structure, grading.module, grading.kind
    n = module.nvars
    column = _kernel(structure, module, kind, degree, _coefficient_degree(kind, degree, weight))
    domain = _slice_keys(module, kind, degree, weight, structure._monomials)
    codomain = _slice_keys(module, kind, degree + grading.step, weight + grading.shift,
                           structure._monomials)
    inside = set(codomain)
    columns = []
    for key in domain:
        image = column(key)
        if not image.keys() <= inside:
            stray = next(k for k in image if k not in inside)
            raise GradedModeError(
                f"image of {_unpack(n, key)} leaves the expected slice at {_unpack(n, stray)}"
            )
        columns.append(image)
    return ComplexSlice(degree, weight, tuple(domain), tuple(codomain), tuple(columns))
