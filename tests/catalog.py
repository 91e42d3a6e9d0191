"""Shared test fixtures: named structures, flat modules, random data, oracles.

Randomized tests draw from seeded generators with this documented
distribution: n <= 3 variables, module rank <= 2, coefficient degree <= 4,
up to 3 monomials per coefficient, integer coefficients in -3..3.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from poishom import (
    Form,
    ModuleChainElement,
    ModuleCochainElement,
    MultiVector,
    PoissonModule,
    PoissonStructure,
    Poly,
    VolumeForm,
    elw_connection,
)
from poishom.complexes import _check_pair

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def p2(text):
    return Poly.parse(text, XY)


def p3(text):
    return Poly.parse(text, XYZ)


def bivector(nvars, components):
    return MultiVector(nvars, 2, {k: v for k, v in components.items() if not v.is_zero()})


def symplectic2() -> PoissonStructure:
    """pi = Dx^Dy on R^2; constant coefficients (degree 0)."""
    return PoissonStructure(bivector(2, {(0, 1): p2("1")}))


def quadratic2() -> PoissonStructure:
    """pi = x*y Dx^Dy on R^2; quadratic coefficients (degree 2)."""
    return PoissonStructure(bivector(2, {(0, 1): p2("x*y")}))


def so3() -> PoissonStructure:
    """Linear structure with {x,y}=z, {y,z}=x, {z,x}=y (degree 1)."""
    return PoissonStructure(
        bivector(3, {(0, 1): p3("z"), (1, 2): p3("x"), (0, 2): p3("-y")})
    )


def heisenberg3() -> PoissonStructure:
    """Lie-Poisson structure of the Heisenberg algebra: {x,y} = z (degree 1)."""
    return PoissonStructure(bivector(3, {(0, 1): p3("z")}))


def bianchi5() -> PoissonStructure:
    """Lie-Poisson structure of Bianchi type V: {x,z} = -x, {y,z} = -y
    (degree 1). The algebra is not unimodular (tr ad z = 2), so the modular
    field is a nonzero constant (Weinstein, "The modular automorphism group
    of a Poisson manifold", J. Geom. Phys. 23, 1997)."""
    return PoissonStructure(bivector(3, {(0, 2): p3("-x"), (1, 2): p3("-y")}))


def zero2() -> PoissonStructure:
    return PoissonStructure(MultiVector.zero(2, 2))


def line1() -> PoissonStructure:
    """The line R^1, where every bivector vanishes: pi = 0."""
    return PoissonStructure(MultiVector.zero(1, 2))


def generic2() -> PoissonStructure:
    """Non-homogeneous bivector on R^2 (every bivector there is Poisson)."""
    return PoissonStructure(bivector(2, {(0, 1): p2("1 + x^2*y")}))


def nonjacobi3() -> MultiVector:
    """The bivector y Dx^Dy + Dy^Dz; jacobiator(x,y,z) = 1, so
    ``PoissonStructure`` refuses it."""
    return bivector(3, {(0, 1): p3("y"), (1, 2): p3("1")})


# ----------------------------------------------------------------------
# flat modules


def matrix(nvars, rows):
    return tuple(tuple(Poly.parse(t, XY if nvars == 2 else XYZ) for t in row) for row in rows)


def symplectic_rank2(structure) -> PoissonModule:
    """Constant commuting bracket matrices; flat since {x,y} is constant."""
    b_x = matrix(2, [["0", "1"], ["0", "0"]])
    b_y = matrix(2, [["1", "1"], ["0", "1"]])
    return PoissonModule(2, 2, (b_x, b_y), structure=structure)


def quadratic_rank2(structure) -> PoissonModule:
    """Diagonal degree-1 matrices; flat and graded for the quadratic pi."""
    b_x = matrix(2, [["x", "0"], ["0", "0"]])
    b_y = matrix(2, [["0", "0"], ["0", "y"]])
    return PoissonModule(2, 2, (b_x, b_y), structure=structure)


def line_rank1(structure, c, m) -> PoissonModule:
    """{e, x} = c x^m e on the line; flat, as R^1 has no coordinate pairs,
    and graded with weight shift m - 1."""
    return PoissonModule(1, 1, (((Poly.monomial(1, (m,), c),),),), structure=structure)


def so3_rank2(structure) -> PoissonModule:
    """Diagonal of two Hamiltonian twists of the trivial line; flat, not graded."""
    b_x = matrix(3, [["0", "0"], ["0", "z"]])
    b_y = matrix(3, [["-z", "0"], ["0", "0"]])
    b_z = matrix(3, [["y", "0"], ["0", "-x"]])
    return PoissonModule(3, 2, (b_x, b_y, b_z), structure=structure)


def so3_adjoint(structure) -> PoissonModule:
    """The adjoint module of so(3): rank 3, (B_i)_ab = -epsilon_iab. Its
    constant matrices do not commute, and they are graded for the linear
    structure (degree 0 = d - 1)."""
    def epsilon(i, a, b):
        return (i - a) * (a - b) * (b - i) // 2

    return representation_module(structure, [
        [[-epsilon(i, a, b) for b in range(3)] for a in range(3)] for i in range(3)
    ])


# ----------------------------------------------------------------------
# Lie-Poisson structures and representation modules


def lie_poisson(constants) -> PoissonStructure:
    """The Lie-Poisson structure {x_i,x_j} = sum_k c[i][j][k] x_k on g*, for
    the structure constants c of a Lie algebra g with basis x_1..x_n."""
    n = len(constants)
    return PoissonStructure(bivector(n, {
        (i, j): Poly(n, {tuple(int(t == k) for t in range(n)): c
                         for k, c in enumerate(constants[i][j]) if c})
        for i, j in combinations(range(n), 2)}))


def adjoint(constants):
    """The matrices ad(x_i): entry [a][b] is the x_a-coefficient of [x_i, x_b]."""
    n = len(constants)
    return [[[constants[i][b][a] for b in range(n)] for a in range(n)] for i in range(n)]


def representation_module(structure, matrices) -> PoissonModule:
    """The module with constant brackets B_i = matrices[i], through the
    flatness gate."""
    n, r = structure.nvars, len(matrices[0])
    return PoissonModule(n, r, tuple(
        tuple(tuple(Poly.constant(n, c) for c in row) for row in m) for m in matrices
    ), structure=structure)


def bianchi5_rank2(structure) -> PoissonModule:
    """A two-dimensional representation of the Bianchi V algebra: B_x = E_12,
    B_y = 2 E_12, B_z = diag(1, 0). Constant and not symmetric, over a
    structure whose modular field is nonzero."""
    return representation_module(structure, [
        [[0, 1], [0, 0]], [[0, 2], [0, 0]], [[1, 0], [0, 0]],
    ])


def sl2_constants():
    """sl(2) in the basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, value in [(0, 1, (0, 0, 1)), (0, 2, (-2, 0, 0)), (1, 2, (0, 2, 0))]:
        c[i][j] = list(value)
        c[j][i] = [-v for v in value]
    return c


def chain_catalog():
    """(label, structure, module, mu) triples for chain-level duality checks."""
    mu = VolumeForm()
    out = []
    for label, make, rank2 in [
        ("symplectic2", symplectic2, symplectic_rank2),
        ("quadratic2", quadratic2, quadratic_rank2),
        ("so3", so3, so3_rank2),
    ]:
        structure = make()
        out.append((f"{label}/trivial1", structure, PoissonModule.trivial(structure.nvars, 1), mu))
        out.append((f"{label}/rank2", structure, rank2(structure), mu))
        out.append((f"{label}/elw", structure, elw_connection(structure, mu), mu))
    return out


def graded_catalog():
    """(label, structure, module, mu, weight cap) for the Betti comparisons.

    The rank-2 entries are graded flat choices (graded mode forces bracket
    degree d-1): for the quadratic structure the diagonal degree-1 module,
    for the constant and linear structures the trivial rank-2 module. The
    linear structure also admits nonzero constant matrices, as in
    ``so3_adjoint``; the constant one admits none, degree -1.
    """
    mu = VolumeForm()
    out = []
    for label, make, rank2, cap in [
        ("symplectic2", symplectic2, None, 8),
        ("quadratic2", quadratic2, quadratic_rank2, 8),
        ("so3", so3, None, 6),
    ]:
        structure = make()
        n = structure.nvars
        two = rank2(structure) if rank2 else PoissonModule.trivial(n, 2)
        out.append((f"{label}/trivial1", structure, PoissonModule.trivial(n, 1), mu, cap))
        out.append((f"{label}/rank2-graded", structure, two, mu, cap))
        out.append((f"{label}/elw", structure, elw_connection(structure, mu), mu, cap))
    return out


# ----------------------------------------------------------------------
# seeded random data


def rand_poly(rng: random.Random, nvars: int, max_degree: int = 4, terms: int = 3) -> Poly:
    acc = {}
    for _ in range(rng.randint(0, terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + rng.randint(-3, 3)
    return Poly(nvars, {k: v for k, v in acc.items() if v})


def rand_form(rng, nvars, degree, **kw) -> Form:
    terms = {}
    for idx in combinations(range(nvars), degree):
        if rng.random() < 0.7:
            poly = rand_poly(rng, nvars, **kw)
            if not poly.is_zero():
                terms[idx] = poly
    return Form(nvars, degree, terms)


def rand_multivector(rng, nvars, degree, **kw) -> MultiVector:
    terms = {}
    for idx in combinations(range(nvars), degree):
        if rng.random() < 0.7:
            poly = rand_poly(rng, nvars, **kw)
            if not poly.is_zero():
                terms[idx] = poly
    return MultiVector(nvars, degree, terms)


def rand_chain_element(rng, nvars, degree, rank, **kw) -> ModuleChainElement:
    return ModuleChainElement([rand_form(rng, nvars, degree, **kw) for _ in range(rank)])


def rand_cochain_element(rng, nvars, degree, rank, **kw) -> ModuleCochainElement:
    return ModuleCochainElement([rand_multivector(rng, nvars, degree, **kw) for _ in range(rank)])


def rand_point(rng, nvars):
    return tuple(Fraction(rng.randint(-4, 4)) for _ in range(nvars))


# ----------------------------------------------------------------------
# independent oracles


def eval_poly(poly: Poly, point) -> Fraction:
    """Evaluate termwise at a rational point (independent of poly arithmetic)."""
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        value = coeff
        for base, e in zip(point, exps):
            value *= base**e
        total += value
    return total


def leibniz_determinant(nvars, functions, idx) -> Poly:
    """det(df_s/dx_{idx_t}) over s, t < k = len(idx), every permutation
    signed by its own inversion count; 1 for k = 0."""
    k = len(idx)
    assert len(functions) == k
    total = Poly.zero(nvars)
    for perm in permutations(range(k)):
        inversions = sum(
            1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
        )
        factors = [functions[s].partial(idx[perm[s]]) for s in range(k)]
        if all(factors):
            prod = Poly.constant(nvars, -1 if inversions % 2 else 1)
            for factor in factors:
                prod = prod * factor
            total = total + prod
    return total


def decomposable(f0: Poly, functions) -> Form:
    """f0 df_1 ^ ... ^ df_r, its coefficient at I the Leibniz determinant
    det(df_s/dx_{I_t}) times f0, so independent of ``Form.wedge`` and the
    sign rule of the calculus."""
    n, r = f0.nvars, len(functions)
    return Form(n, r, {idx: f0 * leibniz_determinant(n, functions, idx)
                       for idx in combinations(range(n), r)})


def evaluate_oracle(field, *functions):
    """X(df_1, ..., df_k) by the Leibniz determinant.

    Each term c_J Dx_J of X contributes c_J det(df_s/dx_{j_t}), so the
    result is independent of the wedge sign that ``MultiVector.evaluate``
    reads. Module-valued fields give the tuple of their components' values.
    """
    if isinstance(field, ModuleCochainElement):
        return tuple(evaluate_oracle(c, *functions) for c in field.components)
    assert len(functions) == field.degree
    n = field.nvars
    total = Poly.zero(n)
    for idx, coeff in field.terms.items():
        total = total + coeff * leibniz_determinant(n, functions, idx)
    return total


def shuffle_interior_oracle(field, f0, functions):
    """Paper-style shuffle formula for iota on a decomposable form.

    Works for scalar fields (returns Form) and module-valued fields
    (returns ModuleChainElement); independent of the index-tuple algorithm
    in calculus. For q < k no k factors can be chosen, and the sum is the
    zero of degree q - k.
    """
    module_valued = isinstance(field, ModuleCochainElement)
    n = f0.nvars
    q = len(functions)
    k = field.degree
    rank = field.rank if module_valued else 1
    parts = [Form.zero(n, q - k)] * rank
    for chosen in combinations(range(q), k):
        remaining = [t for t in range(q) if t not in chosen]
        perm = list(chosen) + remaining
        inversions = sum(
            1 for a in range(q) for b in range(a + 1, q) if perm[a] > perm[b]
        )
        sign = -1 if inversions % 2 else 1
        args = [functions[t] for t in chosen]
        tail = decomposable(f0, [functions[t] for t in remaining]).scale(sign)
        if module_valued:
            values = evaluate_oracle(field, *args)
            parts = [acc + tail.scale(v) for acc, v in zip(parts, values)]
        else:
            parts[0] = parts[0] + tail.scale(evaluate_oracle(field, *args))
    if module_valued:
        return ModuleChainElement(parts)
    return parts[0]


def two_sum_chain_oracle(structure, module, wvec, f0, functions):
    """The defining two-sum formula for the chain differential.

    Input is the decomposable w (x) f0 df_1 ^ ... ^ df_r with w given by the
    coefficient vector ``wvec``; independent of the Koszul-plus-contraction
    decomposition used by the implementation and of its sign rule, since
    every decomposable and bracket comes from the oracles here.
    """
    r = len(functions)
    n = structure.nvars
    out = ModuleChainElement.zero(module.rank, n, r - 1)
    for i in range(1, r + 1):
        rest = [functions[t] for t in range(r) if t != i - 1]
        bracketed = module_bracket_oracle(
            structure, module, tuple(g * f0 for g in wvec), functions[i - 1]
        )
        tail = decomposable(Poly.constant(n, 1), rest)
        sign = (-1) ** (i - 1)
        out = out + ModuleChainElement([tail.scale(g.scale(sign)) for g in bracketed])
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            br = bracket_oracle(structure, functions[i - 1], functions[j - 1])
            rest = [functions[t] for t in range(r) if t not in (i - 1, j - 1)]
            tail = decomposable(f0, [br, *rest]).scale((-1) ** (i + j))
            out = out + ModuleChainElement([tail.scale(g) for g in wvec])
    return out


def bracket_oracle(structure, f, g):
    """{f,g} = sum of p_ij (f_i g_j - f_j g_i) over the terms p_ij Dx_i^Dx_j
    of pi: the direct formula, with no wedge and no sign rule."""
    n = structure.nvars
    out = Poly.zero(n)
    if f.is_zero() or g.is_zero():
        return out
    df, dg = ([h.partial(i) for i in range(n)] for h in (f, g))
    for (i, j), p in structure.bivector.terms.items():
        piece = df[i] * dg[j] - df[j] * dg[i]
        if not piece.is_zero():
            out = out + p * piece
    return out


def module_bracket_oracle(structure, module, vec, f):
    """{w, f}_W by its defining formula, read straight off the bracket
    matrices: component b is {g_b, f} + sum_a g_a sum_i df/dx_i B_i[a][b],
    with ``bracket_oracle`` for the scalar bracket."""
    df = [f.partial(i) for i in range(structure.nvars)]
    out = []
    for b in range(module.rank):
        value = bracket_oracle(structure, vec[b], f)
        for a, g_a in enumerate(vec):
            for df_i, matrix in zip(df, module.brackets):
                if g_a and df_i and matrix[a][b]:
                    value = value + g_a * df_i * matrix[a][b]
        out.append(value)
    return tuple(out)


def cochain_differential_oracle(structure, module, element):
    """The cochain differential evaluated on every (k+1)-subset of coordinates.

    The defining formula, applied by brute force: for each coordinate tuple
    J, every term of both sums is computed with ``evaluate_oracle``,
    ``bracket_oracle`` and ``module_bracket_oracle``, whether or not the
    support of X can reach J.
    Independent of the support-driven loops of ``cochain_differential`` and
    of its wedge signs.
    """
    _check_pair(structure, module, element)
    n, r, k = element.nvars, element.rank, element.degree
    coords = structure.coordinates
    out_terms: list[dict] = [{} for _ in range(r)]
    for tup in combinations(range(n), k + 1):
        value = [Poly.zero(n) for _ in range(r)]
        for t, i in enumerate(tup):
            rest = [coords[j] for j in tup if j != i]
            evaluated = evaluate_oracle(element, *rest)
            bracketed = module_bracket_oracle(structure, module, evaluated, coords[i])
            sign = -1 if t % 2 == 0 else 1  # (-1)**(t+1) for 0-based t
            for b in range(r):
                value[b] = value[b] + bracketed[b].scale(sign)
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                first = bracket_oracle(structure, coords[tup[s]], coords[tup[t]])
                rest = [coords[tup[u]] for u in range(k + 1) if u not in (s, t)]
                evaluated = evaluate_oracle(element, first, *rest)
                sign = 1 if (s + t) % 2 == 0 else -1  # (-1)**((s+1)+(t+1))
                for b in range(r):
                    value[b] = value[b] + evaluated[b].scale(sign)
        for b in range(r):
            if not value[b].is_zero():
                out_terms[b][tup] = value[b]
    return ModuleCochainElement([MultiVector(n, k + 1, terms) for terms in out_terms])


def rank_oracle(rows) -> int:
    """Naive rational Gaussian elimination, independent of ``matrix_rank``'s
    sparse elimination."""
    rows = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [c / lead for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [c - factor * d for c, d in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def sparse_rows(m) -> list:
    """Dense rows as the sparse rows ``matrix_rank`` takes, {column: entry},
    zero entries kept."""
    return [dict(enumerate(r)) for r in m]
