import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from poishom import (
    BasisElement,
    DimensionError,
    Form,
    GradedModeError,
    ModuleChainElement,
    ModuleCochainElement,
    MultiVector,
    PoishomError,
    PoissonModule,
    PoissonStructure,
    Poly,
    VolumeForm,
    assemble_slice,
    basis_image,
    betti_table,
    blacktriangle,
    blacktriangle_basis,
    chain_differential,
    cochain_differential,
    graded_weight_shift,
    interior_product,
    slice_basis,
    twist,
)
from poishom.cli import load
from poishom.complexes import element_from_basis

from catalog import (
    bivector,
    chain_catalog,
    cochain_differential_oracle,
    decomposable,
    generic2,
    graded_catalog,
    line1,
    line_rank1,
    p2,
    p3,
    quadratic2,
    quadratic_rank2,
    rand_chain_element,
    rand_cochain_element,
    rand_poly,
    so3,
    so3_adjoint,
    so3_rank2,
    sparse_rows,
    symplectic2,
    symplectic_rank2,
    two_sum_chain_oracle,
    zero2,
)

PAIRS = [
    (symplectic2(), PoissonModule.trivial(2, 1)),
    (symplectic2(), symplectic_rank2(symplectic2())),
    (quadratic2(), quadratic_rank2(quadratic2())),
    (so3(), so3_rank2(so3())),
    (generic2(), PoissonModule.trivial(2, 2)),
    (zero2(), PoissonModule.trivial(2, 1)),
]


def single(rank, section, component):
    if isinstance(component, Form):
        return ModuleChainElement.single(rank, section, component)
    return ModuleCochainElement.single(rank, section, component)


# ----------------------------------------------------------------------
# chain differential


def test_chain_differential_degree_one_bracket():
    P = symplectic2()
    W = PoissonModule.trivial(2, 1)
    x = single(1, 0, Form(2, 1, {(0,): p2("y^2")}))
    assert chain_differential(P, W, x) == single(1, 0, Form(2, 0, {(): p2("-2*y")}))


def test_chain_differential_matches_koszul_on_trivial_coefficients():
    P = symplectic2()
    W = PoissonModule.trivial(2, 1)
    x = single(1, 0, Form(2, 2, {(0, 1): p2("x")}))
    assert chain_differential(P, W, x) == single(1, 0, Form(2, 1, {(0,): p2("-1")}))


def test_chain_differential_constant_decomposable_dies():
    P = quadratic2()
    W = quadratic_rank2(P)
    x = single(2, 1, Form(2, 1, {(0,): p2("3")}))  # 3 dx = c df with f = x
    # {e_2 * 3, x}_W = 3 {e_2, x}_W = 0 for the diagonal module
    assert chain_differential(P, W, x).is_zero()


def test_chain_differential_degree_zero_maps_to_zero():
    P = quadratic2()
    W = quadratic_rank2(P)
    w = rand_chain_element(random.Random(0), 2, 0, 2)
    assert chain_differential(P, W, w).is_zero()


def test_chain_differential_against_two_sum_oracle():
    rng = random.Random(1)
    for P, W in PAIRS:
        n = P.nvars
        for _ in range(25):
            r = rng.randint(1, n)
            f0 = rand_poly(rng, n, 2, 2)
            fs = [rand_poly(rng, n, 2, 2) for _ in range(r)]
            wvec = tuple(rand_poly(rng, n, 2, 2) for _ in range(W.rank))
            omega = decomposable(f0, fs)
            element = ModuleChainElement([omega.scale(g) for g in wvec])
            got = chain_differential(P, W, element)
            want = two_sum_chain_oracle(P, W, wvec, f0, fs)
            assert got == want


def test_chain_differential_squares_to_zero():
    rng = random.Random(3)
    for P, W in PAIRS:
        n = P.nvars
        for _ in range(30):
            q = rng.randint(0, n)
            x = rand_chain_element(rng, n, q, W.rank, max_degree=3, terms=2)
            assert chain_differential(P, W, chain_differential(P, W, x)).is_zero()


# ----------------------------------------------------------------------
# cochain differential


def test_cochain_degree_zero_is_minus_bracket():
    P = symplectic2()
    W = PoissonModule.trivial(2, 1)
    x = single(1, 0, MultiVector(2, 0, {(): p2("x")}))
    # delta^0(x e) = X_x (x) e = -Dy (x) e
    assert cochain_differential(P, W, x) == single(
        1, 0, MultiVector(2, 1, {(1,): p2("-1")})
    )


def test_cochain_constant_field_closed_for_constant_structure():
    P = symplectic2()
    W = PoissonModule.trivial(2, 1)
    x = single(1, 0, MultiVector(2, 1, {(0,): p2("1")}))
    assert cochain_differential(P, W, x).is_zero()


def test_cochain_vanishes_identically_for_zero_data():
    P = zero2()
    W = PoissonModule.trivial(2, 2)
    rng = random.Random(5)
    for k in range(3):
        x = rand_cochain_element(rng, 2, k, 2)
        assert cochain_differential(P, W, x).is_zero()


def test_cochain_top_degree_maps_to_zero():
    P = so3()
    W = so3_rank2(P)
    x = rand_cochain_element(random.Random(7), 3, 3, 2)
    image = cochain_differential(P, W, x)
    assert image.is_zero() and image.degree == 4


def test_cochain_differential_squares_to_zero():
    rng = random.Random(9)
    for P, W in PAIRS:
        n = P.nvars
        for _ in range(30):
            k = rng.randint(0, n)
            x = rand_cochain_element(rng, n, k, W.rank, max_degree=3, terms=2)
            assert cochain_differential(P, W, cochain_differential(P, W, x)).is_zero()


def test_cochain_differential_matches_oracle_on_catalog_bases():
    # every cochain basis vector up to weight 3 of both catalogs
    pairs = {label: (P, W) for label, P, W, _ in chain_catalog()}
    pairs.update({label: (P, W) for label, P, W, _, _ in graded_catalog()})
    checked = 0
    for P, W in pairs.values():
        for k in range(P.nvars + 1):
            for w in range(-k, 4):
                for entry in slice_basis(W, "cochain", k, w):
                    x = element_from_basis(W, "cochain", k, entry)
                    assert cochain_differential(P, W, x) == cochain_differential_oracle(P, W, x)
                    checked += 1
    assert checked == 2994


def test_cochain_differential_matches_oracle_on_random_elements():
    # multi-term, multi-section elements of every degree, including rank-2
    # modules with nonzero brackets (so3_rank2, quadratic_rank2, symplectic_rank2)
    rng = random.Random(13)
    for P, W in PAIRS:
        n = P.nvars
        elements = [
            rand_cochain_element(rng, n, k, W.rank, max_degree=3, terms=3)
            for k in range(n + 1) for _ in range(6)
        ]
        for x in elements:
            assert cochain_differential(P, W, x) == cochain_differential_oracle(P, W, x)
        assert any(
            sum(len(poly.terms) for c in x.components for poly in c.terms.values()) > 1
            for x in elements
        )
        if W.rank > 1:
            assert any(all(not c.is_zero() for c in x.components) for x in elements)


def test_interior_chain_cochain_lemma():
    # iota_X bnd - (-1)^k bnd^W iota_X = iota_{delta_W X} on scalar forms
    rng = random.Random(11)
    from catalog import rand_form

    for P, W in PAIRS:
        n = P.nvars
        for _ in range(25):
            k = rng.randint(0, n)
            q = rng.randint(0, n)
            X = rand_cochain_element(rng, n, k, W.rank, max_degree=2, terms=2)
            omega = rand_form(rng, n, q, max_degree=2, terms=2)
            lhs = interior_product(X, P.koszul_differential(omega)) - chain_differential(
                P, W, interior_product(X, omega)
            ).scale((-1) ** k)
            rhs = interior_product(cochain_differential(P, W, X), omega)
            assert lhs == rhs


def test_twisted_differential_identities():
    # delta_{W_phi} = delta_W - (phi ^ -)   and   bnd^{W_phi} = bnd^W + id (x) iota_phi
    rng = random.Random(13)
    for P, W in PAIRS[:5]:
        n = P.nvars
        mu = VolumeForm()
        phi = P.modular_vector_field(mu)
        twisted = twist(W, P, phi)
        for _ in range(20):
            k = rng.randint(0, n)
            X = rand_cochain_element(rng, n, k, W.rank, max_degree=2, terms=2)
            correction = ModuleCochainElement([phi.wedge(c) for c in X.components])
            assert cochain_differential(P, twisted, X) == (
                cochain_differential(P, W, X) - correction
            )
            q = rng.randint(0, n)
            y = rand_chain_element(rng, n, q, W.rank, max_degree=2, terms=2)
            correction2 = ModuleChainElement([interior_product(phi, c) for c in y.components])
            assert chain_differential(P, twisted, y) == (
                chain_differential(P, W, y) + correction2
            )


def test_differentials_are_first_order_in_the_coefficient():
    # d(fX) = f dX + X_f ^ X  and  bnd(f w) = f bnd(w) - iota_{X_f} w, componentwise,
    # the rule ``basis_image`` builds its columns by
    rng = random.Random(17)
    cases = 0
    for _, P, W, _ in chain_catalog():
        n = P.nvars
        for degree in range(n + 1):
            for _ in range(2):
                f = rand_poly(rng, n, max_degree=3)
                X_f = P.hamiltonian(f)
                X = rand_cochain_element(rng, n, degree, W.rank, max_degree=3)
                symbol = ModuleCochainElement([X_f.wedge(c) for c in X.components])
                assert cochain_differential(P, W, X.scale(f)) == (
                    cochain_differential(P, W, X).scale(f) + symbol)
                y = rand_chain_element(rng, n, degree, W.rank, max_degree=3)
                symbol = ModuleChainElement([interior_product(X_f, c) for c in y.components])
                assert chain_differential(P, W, y.scale(f)) == (
                    chain_differential(P, W, y).scale(f) - symbol)
                cases += 1
    assert cases == 60


# ----------------------------------------------------------------------
# duality maps


def _iota_mu(mu, X):
    """The contraction X |-> iota_X(mu) from the generic ``interior_product``."""
    return interior_product(X, mu.form(X.nvars))


def _triangle(mu, X):
    """``blacktriangle`` from its definition, (-1)^(k(k+1)/2) iota_X(mu)."""
    k = X.degree
    return _iota_mu(mu, X).scale(-1 if (k * (k + 1) // 2) % 2 else 1)


def test_blacktriangle_is_the_signed_contraction():
    rng = random.Random(15)
    for mu in (VolumeForm(), VolumeForm(Fraction(-5, 3))):
        for n, rank in [(2, 1), (2, 2), (3, 2), (4, 1)]:
            for k in range(n + 1):
                for _ in range(3):
                    X = rand_cochain_element(rng, n, k, rank)
                    assert blacktriangle(mu, X) == _triangle(mu, X)


def test_blacktriangle_signs():
    mu = VolumeForm()
    x1 = single(1, 0, MultiVector(2, 1, {(0,): p2("1")}))
    assert blacktriangle(mu, x1) == single(1, 0, Form(2, 1, {(1,): p2("-1")}))
    x0 = single(1, 0, MultiVector(2, 0, {(): p2("x")}))
    assert blacktriangle(mu, x0) == single(1, 0, Form(2, 2, {(0, 1): p2("x")}))


def test_blacktriangle_basis_is_a_bijection_of_slice_bases():
    # (k, w) onto (n-k, w+n), one to one, with nonzero coefficients: the map is invertible
    for n, rank in [(2, 1), (2, 2), (3, 2), (4, 1)]:
        W = PoissonModule.trivial(n, rank)
        for mu in (VolumeForm(), VolumeForm(Fraction(-5, 3))):
            for k in range(n + 1):
                for w in range(-k, 3):
                    images = [blacktriangle_basis(mu, n, e)
                              for e in slice_basis(W, "cochain", k, w)]
                    assert images and all(coeff for _, coeff in images)
                    targets = [target for target, _ in images]
                    assert len(set(targets)) == len(targets)
                    assert set(targets) == set(slice_basis(W, "chain", n - k, w + n))


def test_duality_square_on_random_elements():
    # bnd^{W_-phi} (black k) = (black k+1) delta_W, the proof-form equivalent
    rng = random.Random(17)
    for P, W in PAIRS[:5]:
        n = P.nvars
        mu = VolumeForm()
        phi = P.modular_vector_field(mu)
        twisted = twist(W, P, -phi)
        for _ in range(20):
            k = rng.randint(0, n)
            X = rand_cochain_element(rng, n, k, W.rank, max_degree=3, terms=2)
            lhs = chain_differential(P, twisted, blacktriangle(mu, X))
            rhs = blacktriangle(mu, cochain_differential(P, W, X))
            assert lhs == rhs
            # and the plain contraction form with the explicit (-1)^(k-1) sign
            sign = 1 if (k - 1) % 2 == 0 else -1
            lhs_iota = chain_differential(P, twisted, _iota_mu(mu, X))
            rhs_iota = _iota_mu(mu, cochain_differential(P, W, X)).scale(sign)
            assert lhs_iota == rhs_iota


# ----------------------------------------------------------------------
# graded slices


def _line_over_zero(b_x, b_y):
    """Rank-1 module on R^2 with {e, x} = b_x e and {e, y} = b_y e; any such
    line is flat for the zero structure."""
    return PoissonModule(2, 1, (((p2(b_x),),), ((p2(b_y),),)), structure=zero2())


def test_graded_shift_values():
    assert graded_weight_shift(symplectic2(), PoissonModule.trivial(2, 1)) == -2
    assert graded_weight_shift(quadratic2(), quadratic_rank2(quadratic2())) == 0
    assert graded_weight_shift(so3(), PoissonModule.trivial(3, 2)) == -1
    assert graded_weight_shift(zero2(), PoissonModule.trivial(2, 1)) == 0
    # a zero bivector leaves the shift to the bracket degree m: m - 1
    assert graded_weight_shift(zero2(), _line_over_zero("x^2", "0")) == 1


# The messages below reach DualityReport.graded_note and the CLI's exit-2 text.
def _refusal(structure, module):
    with pytest.raises(GradedModeError) as err:
        graded_weight_shift(structure, module)
    return str(err.value)


def test_graded_mode_rejects_nonhomogeneous_bivector():
    message = "polynomial x1^2*x2 + 1 is not homogeneous"
    assert _refusal(generic2(), PoissonModule.trivial(2, 1)) == message
    # the bivector is checked before the brackets
    assert _refusal(generic2(), _line_over_zero("1 + x", "0")) == message


def test_graded_mode_rejects_mismatched_bracket_degree():
    P = so3()
    assert _refusal(P, so3_rank2(P)) == (  # degree-1 entries, expected 0
        "bracket entries have degree 1, expected 0 for a bivector of degree 1"
    )


@pytest.mark.parametrize(
    "structure,module,message",
    [
        # Jacobian structure of f = x^2 + z: {x,y} = 1, {y,z} = 2x
        (PoissonStructure(bivector(3, {(0, 1): p3("1"), (1, 2): p3("2*x")})),
         PoissonModule.trivial(3, 1), "bivector coefficients have mixed degrees"),
        (zero2(), _line_over_zero("1 + x", "0"), "polynomial x1 + 1 is not homogeneous"),
        (zero2(), _line_over_zero("x", "y^2"), "bracket entries have mixed homogeneous degrees"),
    ],
    ids=["mixed-bivector", "nonhomogeneous-bracket", "mixed-brackets"],
)
def test_graded_mode_rejects_mixed_or_nonhomogeneous_data(structure, module, message):
    assert _refusal(structure, module) == message


def test_slice_basis_dimensions():
    # r * C(n,k) * C(p+n-1, n-1) with p the coefficient degree
    W = PoissonModule.trivial(3, 2)
    basis = slice_basis(W, "cochain", 2, 1)  # p = w + k = 3
    assert len(basis) == 2 * 3 * 10
    basis = slice_basis(W, "chain", 1, 3)  # p = w - q = 2
    assert len(basis) == 2 * 3 * 6
    assert slice_basis(W, "chain", 1, 0) == []  # negative coefficient degree
    assert slice_basis(W, "cochain", 4, 0) == []  # degree beyond n


def test_slice_basis_deterministic_and_matches_elements():
    W = PoissonModule.trivial(2, 2)
    basis = slice_basis(W, "cochain", 1, 1)
    assert basis == slice_basis(W, "cochain", 1, 1)
    element = element_from_basis(W, "cochain", 1, basis[0])
    assert element.components[basis[0].section].coefficient(basis[0].indices) == (
        Poly.monomial(2, basis[0].exponents)
    )


def test_assemble_slice_zero_structure():
    # coefficient degree w + k = 3: C(2,1) tuples * 4 monomials
    piece = assemble_slice(zero2(), PoissonModule.trivial(2, 1), "cochain", 1, 2)
    assert len(piece.domain_basis) == 2 * 4
    assert all(all(c == 0 for c in row) for row in piece.matrix)


def test_assemble_slice_symplectic_weight_one_functions():
    # delta^0 on span{x, y} has rank 2
    piece = assemble_slice(symplectic2(), PoissonModule.trivial(2, 1), "cochain", 0, 1)
    assert len(piece.domain_basis) == 2
    assert len(piece.codomain_basis) == 2
    from poishom import matrix_rank

    assert matrix_rank(sparse_rows(piece.matrix)) == 2


def test_assemble_slice_deterministic():
    P = quadratic2()
    W = quadratic_rank2(P)
    a = assemble_slice(P, W, "chain", 1, 3)
    b = assemble_slice(P, W, "chain", 1, 3)
    assert a.matrix == b.matrix and a.domain_basis == b.domain_basis


def test_assemble_slice_rejects_image_outside_the_codomain_slice(monkeypatch):
    stray = BasisElement(0, (0,), (5, 0))
    monkeypatch.setattr("poishom.complexes.basis_image", lambda *args: {stray: Fraction(1)})
    entry = slice_basis(PoissonModule.trivial(2, 1), "cochain", 0, 1)[0]
    message = f"image of {entry} leaves the expected slice at {stray}"
    with pytest.raises(GradedModeError, match=re.escape(message)):
        assemble_slice(symplectic2(), PoissonModule.trivial(2, 1), "cochain", 0, 1)


def _rebuild(module, kind, degree, image):
    """The object-level element with the basis coefficients ``image``, or None."""
    parts = [element_from_basis(module, kind, degree, key).scale(c) for key, c in image.items()]
    return sum(parts[1:], parts[0]) if parts else None


def _kernel_cases():
    """(structure, module) pairs for the slice columns: both catalogs, the
    so(3) adjoint module (nonzero constant brackets), the line R^1 with a
    trivial and a rank-1 module and the shipped trivial-module inputs, each
    module also twisted by the opposite modular field exactly as
    ``verify_duality`` twists it."""
    root = Path(__file__).resolve().parent.parent
    triples = [(P, W, mu) for _, P, W, mu in chain_catalog()]
    triples += [(P, W, mu) for _, P, W, mu, _ in graded_catalog()]
    triples.append((so3(), so3_adjoint(so3()), VolumeForm()))
    line = line1()
    triples += [(line, PoissonModule.trivial(1, 1), VolumeForm()),
                (line, line_rank1(line, -2, 3), VolumeForm())]
    for path in [root / "problems" / "bianchi5.json",
                 *sorted((root / "bench" / "inputs").glob("*.json"))]:
        spec = load(str(path))
        P = PoissonStructure(spec.bivector)
        m = spec.module
        triples.append((P, PoissonModule(m.nvars, m.rank, m.brackets, structure=P), spec.volume))
    for P, W, mu in triples:
        yield P, W
        yield P, twist(W, P, -P.modular_vector_field(mu))


def test_basis_maps_match_object_level_on_catalog():
    # every catalog basis vector up to weight 3, the cochain differential and
    # blacktriangle's columns, against the object-level references (the cochain side
    # against the coordinate-tuple oracle, not the function under test)
    for _, P, W, _ in chain_catalog():
        n = P.nvars
        for k in range(n + 1):
            for w in range(-n, 4):
                for entry in slice_basis(W, "cochain", k, w):
                    element = element_from_basis(W, "cochain", k, entry)
                    expected = cochain_differential_oracle(P, W, element)
                    image = basis_image(P, W, "cochain", k, entry)
                    assert all(image.values())
                    rebuilt = _rebuild(W, "cochain", k + 1, image)
                    assert expected.is_zero() if rebuilt is None else rebuilt == expected
                    for mu in (VolumeForm(), VolumeForm(Fraction(-3, 2))):
                        target, coeff = blacktriangle_basis(mu, n, entry)
                        assert _triangle(mu, element) == element_from_basis(
                            W, "chain", n - k, target
                        ).scale(coeff)
    # both kinds of columns, built by the first-order rule, against the
    # object-level references (the chain side against the Koszul-operator
    # differential, the cochain side against the oracle), at every degree and
    # coefficient degree 0..3
    for P, W in _kernel_cases():
        for k in range(P.nvars + 1):
            for coeff_degree in range(4):
                for entry in slice_basis(W, "cochain", k, coeff_degree - k):
                    element = element_from_basis(W, "cochain", k, entry)
                    expected = cochain_differential_oracle(P, W, element)
                    image = basis_image(P, W, "cochain", k, entry)
                    assert all(image.values())
                    rebuilt = _rebuild(W, "cochain", k + 1, image)
                    assert expected.is_zero() if rebuilt is None else rebuilt == expected
        for q in range(P.nvars + 1):
            for coeff_degree in range(4):
                for entry in slice_basis(W, "chain", q, q + coeff_degree):
                    expected = chain_differential(P, W, element_from_basis(W, "chain", q, entry))
                    image = basis_image(P, W, "chain", q, entry)
                    assert all(image.values())
                    rebuilt = _rebuild(W, "chain", q - 1, image)
                    assert expected.is_zero() if rebuilt is None else rebuilt == expected


def test_chain_basis_image_keeps_the_gates():
    W = quadratic_rank2(quadratic2())
    entry = slice_basis(W, "chain", 1, 2)[0]
    with pytest.raises(PoishomError, match="not known to be flat"):
        basis_image(symplectic2(), W, "chain", 1, entry)
    with pytest.raises(DimensionError):
        basis_image(so3(), PoissonModule.trivial(2, 1), "chain", 1, entry)
    with pytest.raises(DimensionError):
        basis_image(quadratic2(), W, "chain", 2, entry)


def test_cochain_basis_image_keeps_the_gates():
    P = quadratic2()
    W = quadratic_rank2(P)
    entry = slice_basis(W, "cochain", 1, 1)[-1]
    assert basis_image(P, W, "cochain", 1, entry)  # memoised on P
    # equal bracket data, so the same memo key, but not known to be flat
    unchecked = PoissonModule(2, 2, W.brackets)
    assert unchecked == W and unchecked.structure is None
    with pytest.raises(PoishomError, match="not known to be flat"):
        basis_image(P, unchecked, "cochain", 1, entry)
    with pytest.raises(PoishomError, match="not known to be flat"):
        basis_image(symplectic2(), W, "cochain", 1, entry)
    with pytest.raises(DimensionError):
        basis_image(so3(), PoissonModule.trivial(2, 1), "cochain", 1, entry)
    with pytest.raises(DimensionError):
        basis_image(P, W, "cochain", 2, entry)
    for exponents in ((1,), (1, 0, 0)):
        with pytest.raises(DimensionError):
            basis_image(P, W, "cochain", 1, entry._replace(exponents=exponents))


@pytest.mark.parametrize("kind", ["cochain", "chain"])
def test_columns_call_the_reference_once_per_section_and_tuple(monkeypatch, kind):
    reference = cochain_differential if kind == "cochain" else chain_differential
    calls = []

    def counted(*args):
        calls.append(args[2])
        return reference(*args)

    monkeypatch.setattr(f"poishom.complexes.{kind}_differential", counted)
    mode = "cohomology" if kind == "cochain" else "homology"
    W = quadratic_rank2(quadratic2())

    def run(P, max_weight):
        calls.clear()
        betti_table(P, W, mode, max_weight)
        return Counter(element.degree for element in calls)

    P = quadratic2()
    first = run(P, 4)
    assert first and all(first[k] <= W.rank * math.comb(2, k) for k in first)
    for element in calls:  # one constant basis vector e_a (x) I each
        [(_, poly)] = [item for c in element.components for item in c.terms.items()]
        assert poly == Poly.constant(2, 1)
    assert run(quadratic2(), 2) == first  # none per column
    assert run(P, 4) == Counter()  # the same structure keeps its tables


def test_basis_image_refuses_an_unknown_kind():
    P, W = so3(), PoissonModule.trivial(3, 1)
    entry = slice_basis(W, "cochain", 2, 0)[0]
    for kind in ("cochains", "homology", ""):
        with pytest.raises(ValueError, match=f"unknown kind {kind!r}"):
            basis_image(P, W, kind, 2, entry)


def test_differentials_reject_rank_mismatch():
    from poishom import DimensionError

    P = quadratic2()
    W = quadratic_rank2(P)  # rank 2
    x = rand_chain_element(random.Random(0), 2, 1, 1)
    with pytest.raises(DimensionError):
        chain_differential(P, W, x)


def test_differentials_reject_unverified_module():
    from poishom import PoishomError

    P = symplectic2()
    W = PoissonModule(2, 1, (((p2("y"),),), ((p2("0"),),)))  # flat but unverified
    x = rand_chain_element(random.Random(0), 2, 1, 1)
    with pytest.raises(PoishomError, match="not known to be flat"):
        chain_differential(P, W, x)


def test_differentials_reject_module_checked_for_another_structure():
    # W is flat for the quadratic structure but not for the symplectic one;
    # there the cochain differential would square to -x Dx^Dy on e1 (x) x
    from poishom import PoishomError, flatness_defect

    P = symplectic2()
    W = quadratic_rank2(quadratic2())
    assert flatness_defect(W, P) is not None
    x = ModuleCochainElement.single(2, 0, MultiVector(2, 0, {(): p2("x")}))
    with pytest.raises(PoishomError, match="not known to be flat"):
        cochain_differential(P, W, x)
    with pytest.raises(PoishomError, match="not known to be flat"):
        chain_differential(P, W, rand_chain_element(random.Random(0), 2, 1, 2))
    with pytest.raises(PoishomError, match="not known to be flat"):
        twist(W, P, MultiVector.zero(2, 1))
    equal = quadratic2()  # equal to W.structure, but another object
    assert equal is not W.structure and equal == W.structure
    assert cochain_differential(equal, W, cochain_differential(equal, W, x)).is_zero()
    assert twist(W, equal, MultiVector.zero(2, 1)).structure is equal
