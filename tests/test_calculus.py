import random
from itertools import combinations

import pytest

from poishom import (
    DimensionError,
    Form,
    ModuleChainElement,
    ModuleCochainElement,
    MultiVector,
    Poly,
    interior_product,
)
from poishom.calculus import wedge_indices

from catalog import (
    decomposable,
    evaluate_oracle,
    p2,
    rand_chain_element,
    rand_cochain_element,
    rand_form,
    rand_multivector,
    rand_poly,
    shuffle_interior_oracle,
)


SUBSETS5 = [idx for k in range(6) for idx in combinations(range(5), k)]


def dx(i, n=2):
    return Form(n, 1, {(i,): Poly.constant(n, 1)})


def Dx(i, n=2):
    return MultiVector(n, 1, {(i,): Poly.constant(n, 1)})


# ----------------------------------------------------------------------
# the shuffle-sign rule


def test_wedge_indices_is_the_bubble_sort_parity():
    # every pair of increasing subsets of range(5): disjoint pairs merge with
    # the parity of the swaps a bubble sort of left + right makes
    for left in SUBSETS5:
        for right in SUBSETS5:
            got = wedge_indices(left, right)
            if set(left) & set(right):
                assert got is None
                continue
            seq, swaps = list(left + right), 0
            for end in range(len(seq) - 1, 0, -1):
                for t in range(end):
                    if seq[t] > seq[t + 1]:
                        seq[t], seq[t + 1] = seq[t + 1], seq[t]
                        swaps += 1
            assert got == ((-1) ** swaps, tuple(seq))


def test_interior_product_sign_is_the_subset_shuffle_sign():
    # Dx_J contracts dx_I to (-1)**sum(p_t - t) dx_(I-J), p_t the positions
    # of the entries of J inside I, and to zero unless J lies inside I
    n = 5
    one = Poly.constant(n, 1)
    for idx_i in SUBSETS5:
        omega = Form(n, len(idx_i), {idx_i: one})
        for idx_j in SUBSETS5:
            got = interior_product(MultiVector(n, len(idx_j), {idx_j: one}), omega)
            if not set(idx_j) <= set(idx_i):
                assert got.is_zero()
                continue
            positions = [idx_i.index(j) for j in idx_j]
            sign = (-1) ** sum(p - t for t, p in enumerate(positions))
            rest = tuple(i for i in idx_i if i not in idx_j)
            assert got == Form(n, len(rest), {rest: one.scale(sign)})


# ----------------------------------------------------------------------
# wedge


def test_wedge_basis():
    assert dx(0).wedge(dx(1)) == Form(2, 2, {(0, 1): Poly.constant(2, 1)})


def test_wedge_alternation():
    assert dx(0).wedge(dx(0)).is_zero()


def test_wedge_transposition_sign():
    # (x dy) ^ (y dx) = -xy dx^dy
    a = dx(1).scale(p2("x"))
    b = dx(0).scale(p2("y"))
    assert a.wedge(b) == Form(2, 2, {(0, 1): p2("-x*y")})


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(3)
    for _ in range(60):
        qa, qb, qc = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        a, b, c = (rand_form(rng, 3, q) for q in (qa, qb, qc))
        assert a.wedge(b) == b.wedge(a).scale((-1) ** (qa * qb))
        assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)


def test_wedge_beyond_top_degree_is_zero():
    a = rand_form(random.Random(1), 2, 1)
    assert a.wedge(a.wedge(a)).is_zero()


def test_wedge_nvars_mismatch():
    with pytest.raises(DimensionError):
        dx(0, 2).wedge(dx(0, 3))


# ----------------------------------------------------------------------
# exterior derivative


def test_d_product_rule_on_function():
    f = Form(2, 0, {(): p2("x*y")})
    assert f.d() == Form(2, 1, {(0,): p2("y"), (1,): p2("x")})


def test_d_with_sign_fix():
    # d(y dx) = dy^dx = -dx^dy
    assert dx(0).scale(p2("y")).d() == Form(2, 2, {(0, 1): p2("-1")})


def test_d_of_constant_coefficient_form():
    assert dx(0).d().is_zero()


def test_d_squared_zero_random():
    rng = random.Random(5)
    for _ in range(100):
        q = rng.randint(0, 3)
        omega = rand_form(rng, 3, q)
        assert omega.d().d().is_zero()


def test_d_of_top_form_is_zero_of_degree_n_plus_1():
    top = Form(2, 2, {(0, 1): p2("x")})
    result = top.d()
    assert result.is_zero() and result.degree == 3


def test_zeros_of_different_degree_differ():
    assert Form.zero(2, 0) != Form.zero(2, 1)
    assert Form.zero(2, 3) == dx(0).wedge(dx(1)).d()
    with pytest.raises(DimensionError):
        Form.zero(2, 0) + Form.zero(2, 1)


def test_d_graded_leibniz_random():
    rng = random.Random(7)
    for _ in range(100):
        qa, qb = rng.randint(0, 2), rng.randint(0, 2)
        a, b = rand_form(rng, 3, qa), rand_form(rng, 3, qb)
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b) + a.wedge(b.d()).scale((-1) ** qa)
        assert lhs == rhs


# ----------------------------------------------------------------------
# interior product


def test_interior_basis_contractions():
    omega = dx(0).wedge(dx(1))
    assert interior_product(Dx(0), omega) == dx(1)
    assert interior_product(Dx(1), omega) == -dx(0)  # shuffle sign
    assert interior_product(MultiVector(2, 2, {(0, 1): Poly.constant(2, 1)}), omega) == (
        Form(2, 0, {(): Poly.constant(2, 1)})
    )


def test_interior_degree_zero_is_multiplication():
    field = MultiVector(2, 0, {(): p2("x")})
    omega = dx(1).scale(p2("y"))
    assert interior_product(field, omega) == dx(1).scale(p2("x*y"))


def test_interior_undershoot_is_zero_of_degree_q_minus_k():
    field = MultiVector(2, 2, {(0, 1): Poly.constant(2, 1)})
    result = interior_product(field, dx(0))
    assert result.is_zero() and result.degree == -1


def test_interior_matches_shuffle_oracle_on_decomposables():
    # pins the index-tuple algorithm to the defining shuffle formula
    rng = random.Random(9)
    for _ in range(120):
        n = rng.choice([2, 3])
        q = rng.randint(0, n)
        k = rng.randint(0, n)
        f0 = rand_poly(rng, n, 2, 2)
        fs = [rand_poly(rng, n, 2, 2) for _ in range(q)]
        field = rand_multivector(rng, n, k, max_degree=2, terms=2)
        got = interior_product(field, decomposable(f0, fs))
        want = shuffle_interior_oracle(field, f0, fs)
        assert got == want


def test_interior_module_valued_matches_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = 2
        q = rng.randint(0, 2)
        k = rng.randint(0, 2)
        f0 = rand_poly(rng, n, 2, 2)
        fs = [rand_poly(rng, n, 2, 2) for _ in range(q)]
        field = rand_cochain_element(rng, n, k, 2, max_degree=2, terms=2)
        got = interior_product(field, decomposable(f0, fs))
        want = shuffle_interior_oracle(field, f0, fs)
        assert got == want


def test_interior_is_derivation_for_vector_fields():
    rng = random.Random(13)
    for _ in range(80):
        qa, qb = rng.randint(0, 2), rng.randint(0, 2)
        a, b = rand_form(rng, 3, qa), rand_form(rng, 3, qb)
        v = rand_multivector(rng, 3, 1)
        lhs = interior_product(v, a.wedge(b))
        rhs = interior_product(v, a).wedge(b) + a.wedge(interior_product(v, b)).scale(
            (-1) ** qa
        )
        assert lhs == rhs


def test_interior_graded_commutation_with_scalar_field():
    # iota_X iota_Y = (-1)^{k l} (id (x) iota_Y) iota_X for module-valued X
    rng = random.Random(15)
    for _ in range(80):
        n = 3
        k, l, q = rng.randint(0, n), rng.randint(0, n), rng.randint(0, n)
        X = rand_cochain_element(rng, n, k, 2, max_degree=2, terms=2)
        Y = rand_multivector(rng, n, l, max_degree=2, terms=2)
        omega = rand_form(rng, n, q, max_degree=2, terms=2)
        lhs = interior_product(X, interior_product(Y, omega))
        inner = interior_product(X, omega)
        rhs = ModuleChainElement(
            [interior_product(Y, c) for c in inner.components]
        ).scale((-1) ** (k * l))
        assert lhs == rhs


# ----------------------------------------------------------------------
# evaluation


def test_evaluate_basis_and_antisymmetry():
    field = MultiVector(2, 2, {(0, 1): Poly.constant(2, 1)})
    assert field.evaluate(p2("x"), p2("y")) == p2("1")
    assert field.evaluate(p2("y"), p2("x")) == p2("-1")


def test_evaluate_with_coefficient():
    field = MultiVector(2, 2, {(0, 1): p2("x")})
    assert field.evaluate(p2("x^2"), p2("y")) == p2("2*x^2")


def test_evaluate_arity_mismatch():
    with pytest.raises(DimensionError):
        Dx(0).evaluate(p2("x"), p2("y"))


def test_evaluate_skew_and_derivation_in_each_slot():
    rng = random.Random(17)
    for _ in range(60):
        X = rand_multivector(rng, 3, 2, max_degree=2, terms=2)
        f, g, h = (rand_poly(rng, 3, 2, 2) for _ in range(3))
        assert X.evaluate(f, g) == -X.evaluate(g, f)
        assert X.evaluate(f * g, h) == f * X.evaluate(g, h) + g * X.evaluate(f, h)


def test_evaluate_matches_leibniz_oracle():
    # evaluate takes its sign from the wedge df_1 ^ ... ^ df_k; the oracle
    # signs each permutation of the Leibniz determinant by its own parity.
    # Each argument is a distinct coordinate plus noise, so that most
    # Jacobians are nonzero; the second and third trials put a zero and a
    # constant among the arguments.
    rng = random.Random(23)
    nonzero = 0
    for n in range(1, 5):
        for k in range(n + 1):
            for trial in range(10):
                fs = [Poly.variable(n, i) + rand_poly(rng, n, 3, 3)
                      for i in rng.sample(range(n), k)]
                if k and trial == 1:
                    fs[rng.randrange(k)] = Poly.zero(n)
                if k and trial == 2:
                    fs[rng.randrange(k)] = Poly.constant(n, rng.randint(1, 3))
                field = rand_multivector(rng, n, k, max_degree=2, terms=3)
                got = field.evaluate(*fs)
                assert got == evaluate_oracle(field, *fs)
                nonzero += k >= 2 and not got.is_zero()
                element = rand_cochain_element(rng, n, k, 2, max_degree=2, terms=3)
                assert element.evaluate(*fs) == evaluate_oracle(element, *fs)
    assert nonzero >= 25  # values of degree >= 2 that carry a sign


def test_evaluate_agrees_with_full_interior_contraction():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.choice([2, 3])
        k = rng.randint(1, n)
        X = rand_multivector(rng, n, k, max_degree=2, terms=2)
        fs = [rand_poly(rng, n, 2, 2) for _ in range(k)]
        full = interior_product(X, decomposable(Poly.constant(n, 1), fs))
        assert full.degree == 0 or full.is_zero()
        assert full.coefficient(()) == X.evaluate(*fs)


# ----------------------------------------------------------------------
# module elements


def test_module_element_mixed_degree_rejected():
    with pytest.raises(DimensionError):
        ModuleChainElement([dx(0), dx(0).wedge(dx(1))])


def test_module_element_zero_component_of_other_degree_rejected():
    with pytest.raises(DimensionError):
        ModuleChainElement([Form.zero(2, 0), dx(0)])


def test_module_element_algebra():
    rng = random.Random(21)
    a = rand_chain_element(rng, 2, 1, 2)
    b = rand_chain_element(rng, 2, 1, 2)
    assert (a + b) - b == a
    assert (a - a).is_zero()
    assert a.scale(p2("x")).components[0] == a.components[0].scale(p2("x"))


def test_cochain_element_evaluate_componentwise():
    element = ModuleCochainElement([Dx(0), Dx(1)])
    values = element.evaluate(p2("x*y"))
    assert values == (p2("y"), p2("x"))
