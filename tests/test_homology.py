import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poishom import (
    BasisElement,
    ComplexSlice,
    FlatnessError,
    Form,
    ModuleChainElement,
    MultiVector,
    PoissonModule,
    PoissonStructure,
    Poly,
    VolumeForm,
    assemble_slice,
    basis_image,
    betti,
    betti_table,
    blacktriangle,
    chain_differential,
    cochain_differential,
    elw_connection,
    graded_weight_shift,
    matrix_rank,
    slice_basis,
    twist,
    verify_duality,
)
from poishom.calculus import ModuleCochainElement

from catalog import (
    XYZ,
    adjoint,
    bianchi5,
    generic2,
    graded_catalog,
    heisenberg3,
    lie_poisson,
    line1,
    line_rank1,
    p2,
    quadratic2,
    quadratic_rank2,
    rank_oracle,
    representation_module,
    sl2_constants,
    so3,
    so3_adjoint,
    sparse_rows,
    symplectic2,
    zero2,
)


# ----------------------------------------------------------------------
# exact rank


def test_rank_trivial_cases():
    assert matrix_rank(sparse_rows([[0, 0, 0, 0]] * 3)) == 0
    identity = [[Fraction(i == j) for j in range(5)] for i in range(5)]
    assert matrix_rank(sparse_rows(identity)) == 5
    assert matrix_rank(sparse_rows([[1, 2], [2, 4]])) == 1
    assert matrix_rank([]) == 0


def test_rank_of_empty_input_and_empty_or_zero_rows_is_zero():
    assert matrix_rank(()) == 0
    assert matrix_rank([{}]) == 0
    assert matrix_rank([{0: 0, "a": 0}, {}]) == 0
    assert matrix_rank([{0: 0}, {0: 3}]) == 1


def test_rank_accepts_a_generator_of_rows():
    assert matrix_rank({i: 1, i + 1: 1} for i in range(4)) == 4
    assert matrix_rank(row for row in sparse_rows([[1, 2], [2, 4]])) == 1


def test_rank_does_not_change_the_rows():
    rows = [{"a": Fraction(1, 2), "b": 0}, {"a": 1, "b": Fraction(-1, 3)}, {"a": True}]
    before = [dict(row) for row in rows]
    assert matrix_rank(rows) == 2
    assert rows == before


def test_rank_reads_any_hashable_keys_in_any_order():
    rng = random.Random(31)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        m = [[rng.choice([0, 0, 1, -2, Fraction(3, 2)]) for _ in range(ncols)]
             for _ in range(nrows)]
        expected = matrix_rank(sparse_rows(m))
        assert expected == rank_oracle(m)
        names = [f"c{j}" for j in range(ncols)]
        elements = [BasisElement(j % 2, (j,), (ncols - j, j)) for j in range(ncols)]
        for labels in (names, elements):
            rows = []
            for r in m:
                items = [(labels[j], c) for j, c in enumerate(r)]
                rng.shuffle(items)
                rows.append(dict(items))
            assert matrix_rank(rows) == expected


def test_rank_with_rational_entries():
    assert matrix_rank(sparse_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])) == 1


@pytest.mark.parametrize("entry", [0.5, 0.0, "1", None, complex(1)])
def test_rank_refuses_inexact_entries(entry):
    # sparse_rows keeps zero entries, so 0.0 and None reach matrix_rank too
    with pytest.raises(TypeError, match="coefficient must be an int or Fraction"):
        matrix_rank(sparse_rows([[1, 0], [Fraction(1, 2), entry]]))


def test_rank_reads_booleans_and_integral_fractions_as_ints():
    assert matrix_rank(sparse_rows([[True, True], [Fraction(2, 1), 2]])) == 1
    assert matrix_rank(sparse_rows([[True, 0], [0, Fraction(4, 2)]])) == 2


def test_rank_transpose_invariance_and_oracle():
    rng = random.Random(23)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        transpose = [[m[i][j] for i in range(rows)] for j in range(cols)]
        expected = rank_oracle(m)
        assert matrix_rank(sparse_rows(m)) == expected
        assert matrix_rank(sparse_rows(transpose)) == expected


# Generated sparse matrices: permuted block-diagonal matrices of low-rank
# blocks, with zero rows and columns, repeated rows, integers up to 10^12
# and fractions with denominators.
ENTRIES = st.one_of(
    st.integers(-10**12, 10**12),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
)
SPARSE_ENTRIES = st.one_of(st.just(0), st.just(0), ENTRIES)


def transpose(m, ncols):
    return [[row[j] for row in m] for j in range(ncols)]


@st.composite
def sparse_matrices(draw):
    """(matrix, number of columns)."""
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        inner = draw(st.integers(1, min(nrows, ncols)))  # rank <= inner
        left = draw(st.lists(st.lists(SPARSE_ENTRIES, min_size=inner, max_size=inner),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(SPARSE_ENTRIES, min_size=ncols, max_size=ncols),
                              min_size=inner, max_size=inner))
        blocks.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                       for row in left])
    ncols = sum(len(b[0]) for b in blocks) + draw(st.integers(0, 2))
    rows, offset = [], 0
    for block in blocks:
        for brow in block:
            rows.append([0] * offset + brow + [0] * (ncols - offset - len(brow)))
        offset += len(block[0])
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    row_order = draw(st.permutations(range(len(rows))))
    col_order = draw(st.permutations(range(ncols)))
    return [[rows[i][j] for j in col_order] for i in row_order], ncols


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_matrices())
def test_rank_matches_oracle_on_generated_sparse_matrices(generated):
    m, ncols = generated
    expected = rank_oracle(m)
    assert matrix_rank(sparse_rows(m)) == expected
    assert matrix_rank(sparse_rows(transpose(m, ncols))) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sparse_matrices(), st.data())
def test_rank_invariant_under_permutation_and_row_scaling(generated, data):
    m, ncols = generated
    row_order = data.draw(st.permutations(range(len(m))))
    col_order = data.draw(st.permutations(range(ncols)))
    moved = [[m[i][j] for j in col_order] for i in row_order]
    scaled_row = data.draw(st.integers(0, len(m) - 1))
    factor = data.draw(ENTRIES.filter(bool))
    moved[scaled_row] = [factor * c for c in moved[scaled_row]]
    assert matrix_rank(sparse_rows(moved)) == matrix_rank(sparse_rows(m))


def test_rank_agrees_with_oracle_on_catalog_slices():
    checked = set()
    for label, structure, module, _, _ in graded_catalog():
        n = structure.nvars
        for kind in ("cochain", "chain"):
            for degree in range(n + 1):
                for weight in range(-degree, 5):
                    if not slice_basis(module, kind, degree, weight):
                        continue
                    piece = assemble_slice(structure, module, kind, degree, weight)
                    matrix = piece.matrix
                    assert matrix_rank(piece.columns) == rank_oracle(matrix), (
                        label, kind, degree, weight
                    )
                    for col, (entry, column) in enumerate(
                        zip(piece.domain_basis, piece.columns, strict=True)
                    ):
                        assert column == basis_image(structure, module, kind, degree, entry)
                        for row, key in enumerate(piece.codomain_basis):
                            assert matrix[row][col] == column.get(key, 0)
                    checked.add(kind)
    assert checked == {"cochain", "chain"}


def test_runs_rank_slices_without_the_dense_view(monkeypatch):
    P = quadratic2()
    W = quadratic_rank2(P)
    expected = {kind: betti_table(P, W, kind, 3).entries for kind in ("cohomology", "homology")}

    def dense(piece):
        raise AssertionError("a run path built a dense slice matrix")

    monkeypatch.setattr(ComplexSlice, "matrix", property(dense))
    for kind, entries in expected.items():
        assert betti_table(P, W, kind, 3).entries == entries
    report = verify_duality(P, W, VolumeForm(), max_weight=3, trials=3)
    assert report.ok() and report.betti_pairs


# ----------------------------------------------------------------------
# Betti numbers


def test_zero_structure_betti_equals_slice_dimension():
    # r * C(n,k) * C(p+n-1, n-1), p the coefficient degree
    P = zero2()
    W = PoissonModule.trivial(2, 2)
    for k in range(3):
        for p in range(4):
            weight = p - k
            dim = 2 * math.comb(2, k) * math.comb(p + 1, 1)
            assert betti(P, W, "cochain", k, weight) == dim
            assert len(slice_basis(W, "cochain", k, weight)) == dim


def test_symplectic_cohomology_is_acyclic_in_positive_degrees():
    P = symplectic2()
    W = PoissonModule.trivial(2, 1)
    table = betti_table(P, W, "cohomology", 8)
    assert {key: d for key, d in table.entries.items() if d} == {(0, 0): 1}  # constants


def test_symplectic_homology_matches_shifted_cohomology():
    # unimodular case: dim HP_k at weight w+2 equals dim HP^{2-k} at weight w
    P = symplectic2()
    W = PoissonModule.trivial(2, 1)
    cache = {}
    for k in range(3):
        for w in range(-2, 7):
            lhs = betti(P, W, "chain", 2 - k, w + 2, _cache=cache)
            rhs = betti(P, W, "cochain", k, w, _cache=cache)
            assert lhs == rhs


def test_so3_casimir_dimensions():
    """so(3)* with its Lie-Poisson bracket: HP(so(3)*) with polynomial
    coefficients is the Chevalley-Eilenberg cohomology H(g, S(g)), which for
    semisimple g is H(g) (x) S(g)^g (Chevalley and Eilenberg, "Cohomology
    theory of Lie groups and Lie algebras", Trans. AMS 63, 1948; the smooth
    analogue is Ginzburg and Weinstein, "Lie-Poisson structure on some
    Poisson Lie groups", J. AMS 5, 1992). H(so(3)) is one-dimensional in
    degrees 0 and 3 and S(g)^g = R[x^2+y^2+z^2], so HP^0 = 1 at even
    weights >= 0, HP^3 = 1 at odd weights >= -3, and all else vanishes."""
    table = betti_table(so3(), PoissonModule.trivial(3, 1), "cohomology", 12)
    expected = {}
    for k in range(4):
        for w in range(-k, 13):
            expected[(k, w)] = (
                int(w >= 0 and w % 2 == 0) if k == 0
                else int(w % 2 == 1) if k == 3
                else 0
            )
    assert table.entries == expected


def test_so3_adjoint_module_dimensions():
    """Coefficients in the adjoint module g = so(3): HP(so(3)*, g) is
    H(g, S(g) (x) g) = H(g) (x) (S(g) (x) g)^g for semisimple g (Chevalley
    and Eilenberg, Trans. AMS 63, 1948), and (S^m(g) (x) g)^g is one-
    dimensional for odd m (spanned by c^((m-1)/2) sum_i x_i e_i, c the
    Casimir) and zero for even m. With m = w + k the coefficient degree and
    b = (1, 0, 0, 1), dim HP^k_w = b_k [m >= 1 and m odd]. The bracket
    matrices are nonzero constants that do not commute."""
    P = so3()
    W = so3_adjoint(P)
    table = betti_table(P, W, "cohomology", 5)
    b = (1, 0, 0, 1)
    assert table.entries == {
        (k, w): b[k] * int(w + k >= 1 and (w + k) % 2 == 1)
        for k in range(4) for w in range(-k, 6)
    }
    report = verify_duality(P, W, VolumeForm(), max_weight=3, trials=3)
    assert report.ok() and report.diagram_total == 1131


def test_sl2_adjoint_and_dual_module_dimensions():
    """sl(2) with B = ad read as coefficient matrices, and its dual -ad^T:
    non-commuting constant brackets whose orientation the flatness gate
    fixes, accepting a representation (ad, -ad^T) and refusing ad^T and
    -ad. Both modules are isomorphic to the adjoint V_1 (sl(2) is
    semisimple), so as for so(3), dim HP^k_w = b_k [w + k >= 1 and w + k
    odd] with b = (1, 0, 0, 1) (Chevalley and Eilenberg, Trans. AMS 63,
    1948). The builders reproduce so3() and so3_adjoint from epsilon."""
    epsilon = [[[(i - j) * (j - k) * (k - i) // 2 for k in range(3)] for j in range(3)]
               for i in range(3)]
    so3_star = lie_poisson(epsilon)
    assert so3_star == so3()
    assert representation_module(so3_star, [[[-v for v in row] for row in zip(*m)]
                                            for m in adjoint(epsilon)]) == so3_adjoint(so3())
    P = lie_poisson(sl2_constants())
    ad = adjoint(sl2_constants())
    transposed = [[list(row) for row in zip(*m)] for m in ad]

    def negated(mats):
        return [[[-v for v in row] for row in m] for m in mats]

    for refused in (transposed, negated(ad)):
        with pytest.raises(FlatnessError):
            representation_module(P, refused)
    b = (1, 0, 0, 1)
    expected = {(k, w): b[k] * int(w + k >= 1 and (w + k) % 2 == 1)
                for k in range(4) for w in range(-k, 5)}
    for mats in (ad, negated(transposed)):
        W = representation_module(P, mats)
        assert betti_table(P, W, "cohomology", 4).entries == expected
    report = verify_duality(P, W, VolumeForm(), max_weight=3, trials=3)
    assert report.ok() and report.diagram_total == 1131


def test_lie_poisson_constant_slices_give_lie_algebra_betti_numbers():
    """For the Lie-Poisson structure of a Lie algebra g, the constant
    k-vectors are exactly slice (k, -k), and there the Poisson differential
    is the Chevalley-Eilenberg differential of g with trivial coefficients
    (Chevalley and Eilenberg, Trans. AMS 63, 1948). So HP^k at weight -k is
    the Lie algebra Betti number b_k(g): (1, 2, 2, 1) for the Heisenberg
    algebra, (1, 1, 0, 0) for Bianchi V, which is not unimodular."""
    W = PoissonModule.trivial(3, 1)
    for structure, expected in [(heisenberg3(), [1, 2, 2, 1]), (bianchi5(), [1, 1, 0, 0])]:
        assert [betti(structure, W, "cochain", k, -k) for k in range(4)] == expected


def test_verify_duality_bianchi5_twists_the_trivial_line():
    # the modular field is the constant -2 d/dz (Weinstein, J. Geom. Phys. 23,
    # 1997), so the twisted module has a nonzero z-bracket, unlike W
    P = bianchi5()
    W = PoissonModule.trivial(3, 1)
    report = verify_duality(P, W, VolumeForm(), 2, 5, 0)
    assert [p.text(XYZ) for p in report.modular_field] == ["0", "0", "-2"]
    assert twist(W, P, -P.modular_vector_field(VolumeForm())) != W
    assert report.ok() and report.weight_shift == -1
    assert report.betti_pairs and report.to_dict()["diagram"]["random_checked"] == 5


def test_line_betti_numbers_and_duality_closed_forms():
    """The line R^1 with pi = 0. With trivial coefficients HP^0 = R[x] and
    HP^1 = R[x] Dx, HP_0 = R[x] and HP_1 = R[x] dx. For {e, x} = c x^m e,
    c != 0, both differentials are multiplication by c x^m between the two
    copies of R[x] (weight of x^j Dx is j - 1, of x^j dx is j + 1), so
    HP^0 = HP_1 = 0 and HP^1, HP_0 are R[x]/(x^m): HP^1_w = 1 for
    -1 <= w <= m - 2 and HP_0,w = 1 for 0 <= w <= m - 1."""
    P = line1()
    modules = [(PoissonModule.trivial(1, 1), None)]
    modules += [(line_rank1(P, c, m), m) for c in (3, -2) for m in range(5)]
    for W, m in modules:
        cohomology = betti_table(P, W, "cohomology", 5).entries
        homology = betti_table(P, W, "homology", 5).entries
        assert set(cohomology) == {(k, w) for k in (0, 1) for w in range(-k, 6)}
        assert set(homology) == {(q, w) for q in (0, 1) for w in range(q, 6)}
        if m is None:  # every listed slice: w >= -k on cochains, w >= q on chains
            assert set(cohomology.values()) == set(homology.values()) == {1}
        else:
            assert cohomology == {(k, w): int(k == 1 and w <= m - 2) for k, w in cohomology}
            assert homology == {(q, w): int(q == 0 and w <= m - 1) for q, w in homology}
        report = verify_duality(P, W, VolumeForm(), 5, 5, 0)
        assert report.ok() and len(report.betti_pairs) == 13


def test_symplectic_r4_cohomology_is_constants():
    """{x1,x2} = {x3,x4} = 1 on R^4: for a symplectic structure the Poisson
    complex is the de Rham complex (Lichnerowicz, "Les varietes de Poisson
    et leurs algebres de Lie associees", J. Diff. Geom. 12, 1977), and by
    the polynomial Poincare lemma only the constants survive."""
    one = Poly.constant(4, 1)
    structure = PoissonStructure(MultiVector(4, 2, {(0, 1): one, (2, 3): one}))
    table = betti_table(structure, PoissonModule.trivial(4, 1), "cohomology", 3)
    assert {key: dim for key, dim in table.entries.items() if dim} == {(0, 0): 1}
    assert set(table.entries) >= {(k, w) for k in range(5) for w in range(-k, 4)}


def test_fermat_jacobian_casimirs():
    """Jacobian structure {x_i,x_j} = eps_ijk d_k f of f = x^3+y^3+z^3 with
    trivial coefficients: f has an isolated singularity, so HP^0 = R[f]
    (Pichereau, "Poisson (co)homology and isolated singularities",
    J. Algebra 299, 2006), one dimension at each weight divisible by 3."""
    f = Poly.parse("x^3 + y^3 + z^3", XYZ)
    structure = PoissonStructure(MultiVector(3, 2, {
        (0, 1): f.partial(2), (1, 2): f.partial(0), (0, 2): -f.partial(1),
    }))
    W = PoissonModule.trivial(3, 1)
    cache = {}
    assert [betti(structure, W, "cochain", 0, w, _cache=cache) for w in range(7)] == [
        1, 0, 0, 1, 0, 0, 1
    ]


def test_betti_independent_of_basis_order():
    # permuting rows and columns of the slice matrices leaves ranks alone
    P = quadratic2()
    W = quadratic_rank2(P)
    rng = random.Random(29)
    shift = graded_weight_shift(P, W)
    for kind, degree, weight in [("cochain", 1, 2), ("chain", 1, 3)]:
        outgoing = assemble_slice(P, W, kind, degree, weight)
        incoming_degree = degree - 1 if kind == "cochain" else degree + 1
        incoming = assemble_slice(P, W, kind, incoming_degree, weight - shift)

        def permuted_rank(piece):
            rows = [list(r) for r in piece.matrix]
            rng.shuffle(rows)
            cols = list(range(len(rows[0]) if rows else 0))
            rng.shuffle(cols)
            shuffled = [[row[c] for c in cols] for row in rows]
            return matrix_rank(sparse_rows(shuffled))

        direct = betti(P, W, kind, degree, weight)
        if outgoing.matrix and incoming.matrix:
            recomputed = (
                len(outgoing.domain_basis)
                - permuted_rank(outgoing)
                - permuted_rank(incoming)
            )
            assert direct == recomputed


def test_euler_characteristic_per_weight_line():
    # alternating sums of slice dimensions and of Betti numbers agree along
    # each weight line (slices connected by the differential)
    for P, W, cap in [
        (symplectic2(), PoissonModule.trivial(2, 1), 6),
        (quadratic2(), quadratic_rank2(quadratic2()), 6),
        (so3(), PoissonModule.trivial(3, 1), 5),
    ]:
        n = P.nvars
        shift = graded_weight_shift(P, W)
        cache = {}
        for w0 in range(-n, cap):
            dims = 0
            bettis = 0
            for k in range(n + 1):
                w = w0 + k * shift
                dims += (-1) ** k * len(slice_basis(W, "cochain", k, w))
                bettis += (-1) ** k * betti(P, W, "cochain", k, w, _cache=cache)
            assert dims == bettis


def test_betti_table_metadata_and_totals():
    P = symplectic2()
    W = PoissonModule.trivial(2, 1)
    table = betti_table(P, W, "cohomology", 5)
    assert table.metadata["max_weight"] == 5
    assert table.metadata["weight_shift"] == -2
    assert all(dim >= 0 for dim in table.entries.values())
    payload = table.to_dict()
    assert payload["kind"] == "cohomology"
    assert all(set(e) == {"degree", "weight", "dim"} for e in payload["entries"])


# ----------------------------------------------------------------------
# duality verification


def test_verify_duality_symplectic_trivial():
    P = symplectic2()
    report = verify_duality(P, PoissonModule.trivial(2, 1), VolumeForm(), 6, 10, 3)
    assert report.ok()
    assert all(p.is_zero() for p in report.modular_field)
    assert report.graded and report.weight_shift == -2
    assert report.diagram_total > 0 and report.to_dict()["diagram"]["random_checked"] == 10
    assert report.betti_pairs


def test_verify_duality_quadratic_chain_witness():
    # hand-checked instance: k=0, X = x e: both routes give -xy dx (x) e
    P = quadratic2()
    W = PoissonModule.trivial(2, 1)
    mu = VolumeForm()
    phi = P.modular_vector_field(mu)
    twisted = twist(W, P, -phi)
    X = ModuleCochainElement([MultiVector(2, 0, {(): p2("x")})])
    lhs = chain_differential(P, twisted, blacktriangle(mu, X))
    rhs = blacktriangle(mu, cochain_differential(P, W, X))
    expected = ModuleChainElement([Form(2, 1, {(0,): p2("-x*y")})])
    assert lhs == expected and rhs == expected


def test_verify_duality_quadratic_report():
    P = quadratic2()
    report = verify_duality(P, PoissonModule.trivial(2, 1), VolumeForm(), 6, 25, 11)
    assert report.ok()
    assert [p.text(["x", "y"]) for p in report.modular_field] == ["-x", "y"]


def test_verify_duality_elw_gives_untwisted_homology():
    # the twisted coefficients of the ELW module are the trivial ones, so the
    # report's chain side computes plain homology (the corollary's content)
    P = quadratic2()
    mu = VolumeForm()
    E = elw_connection(P, mu)
    phi = P.modular_vector_field(mu)
    assert twist(E, P, -phi) == PoissonModule.trivial(2, 1)
    report = verify_duality(P, E, mu, 6, 10, 5)
    assert report.ok()
    trivial = PoissonModule.trivial(2, 1)
    cache = {}
    for pair in report.betti_pairs:
        direct = betti(
            P, trivial, "chain", pair["homology_degree"], pair["homology_weight"],
            _cache=cache,
        )
        assert pair["homology_dim"] == direct
        assert pair["cohomology_dim"] == direct


def test_verify_duality_reports_wrong_twist(monkeypatch):
    # twisting by +phi instead of -phi breaks the square; each failing basis
    # vector is reported with both object-level sides
    from poishom import homology

    right = homology.twist
    monkeypatch.setattr(homology, "twist", lambda W, P, phi: right(W, P, -phi))
    report = verify_duality(quadratic2(), PoissonModule.trivial(2, 1), VolumeForm(), 3, 0, 0)
    assert report.diagram_total == 61
    assert len(report.diagram_failures) == 40
    assert report.betti_failures == 3
    assert report.diagram_failures[0] == {
        "degree": 0,
        "element": "e1: 1",
        "lhs": "e1: -2*x2*dx1 + -2*x1*dx2",
        "rhs": "e1: 0",
    }
    assert not report.ok()
    # non-graded mode goes through the same comparison
    report = verify_duality(generic2(), PoissonModule.trivial(2, 1), VolumeForm(), 3, 0, 0)
    assert not report.graded and len(report.diagram_failures) == 40
    assert report.diagram_failures[0]["lhs"] == "e1: -4*x1*x2*dx1 + -2*x1^2*dx2"


def test_verify_duality_nongraded_skips_betti():
    from catalog import generic2

    P = generic2()
    report = verify_duality(P, PoissonModule.trivial(2, 1), VolumeForm(), 4, 5, 1)
    assert report.diagram_ok
    assert not report.graded and report.betti_pairs == []
    assert "skipped" in report.graded_note
    assert report.ok()  # nothing computed failed


def test_diagram_pass_implies_betti_pass():
    # no report may combine a commuting diagram with unequal Betti numbers
    for P, W in [
        (symplectic2(), PoissonModule.trivial(2, 1)),
        (quadratic2(), quadratic_rank2(quadratic2())),
    ]:
        report = verify_duality(P, W, VolumeForm(), 5, 5, 2)
        if report.diagram_ok and report.graded:
            assert report.betti_ok


def test_duality_report_is_frozen_and_derives_its_counts():
    import dataclasses

    report = verify_duality(quadratic2(), PoissonModule.trivial(2, 1), VolumeForm(), 2, 3, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.diagram_total = 0
    assert report.graded and report.weight_shift == 0
    assert report.betti_failures == 0 and report.to_dict()["diagram"]["random_checked"] == 3
    assert not verify_duality(generic2(), PoissonModule.trivial(2, 1), VolumeForm(), 1, 0, 0).graded
    with pytest.raises(ValueError, match="trials"):
        verify_duality(generic2(), PoissonModule.trivial(2, 1), VolumeForm(), 1, -4, 0)


def test_each_slice_is_assembled_at_most_once_per_run(monkeypatch):
    # the Betti-level pass reads the ranks the chain-level pass recorded
    from poishom import homology

    calls = []
    assemble = homology.assemble_slice

    def recording(structure, module, kind, degree, weight):
        calls.append((module, kind, degree, weight))
        return assemble(structure, module, kind, degree, weight)

    monkeypatch.setattr(homology, "assemble_slice", recording)
    P = quadratic2()
    runs = [
        lambda: verify_duality(so3(), PoissonModule.trivial(3, 1), VolumeForm(), 3, 0, 0),
        lambda: verify_duality(P, quadratic_rank2(P), VolumeForm(), 3, 0, 0),
        lambda: betti_table(so3(), PoissonModule.trivial(3, 1), "cohomology", 3),
    ]
    for run in runs:
        calls.clear()
        run()
        assert calls and len(calls) == len(set(calls))


def test_report_serialization_is_json_friendly():
    import json

    P = quadratic2()
    report = verify_duality(P, PoissonModule.trivial(2, 1), VolumeForm(), 3, 2, 1)
    payload = report.to_dict(["x", "y"])
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text)["ok"] is True
