import random
from fractions import Fraction

import pytest

from poishom import (
    Form,
    JacobiError,
    ModularFieldError,
    MultiVector,
    PoissonStructure,
    Poly,
    VolumeForm,
    interior_product,
    lie_derivative,
)

from catalog import (
    bianchi5,
    bracket_oracle,
    differential,
    generic2,
    heisenberg3,
    nonjacobi3,
    p2,
    p3,
    quadratic2,
    rand_form,
    rand_poly,
    so3,
    symplectic2,
    zero2,
)


def field2(*texts):
    return MultiVector(2, 1, {(i,): p2(t) for i, t in enumerate(texts) if not p2(t).is_zero()})


# ----------------------------------------------------------------------
# bracket and Jacobi


@pytest.mark.parametrize(
    "make", [symplectic2, quadratic2, generic2, zero2, so3, heisenberg3, bianchi5]
)
def test_bracket_matches_oracle(make):
    P = make()
    n = P.nvars
    rng = random.Random(11)
    specials = [Poly.zero(n), Poly.constant(n, 3), Poly.variable(n, n - 1)]
    pool = specials + [rand_poly(rng, n) for _ in range(12)]
    for f in pool:
        for g in pool:
            assert P.bracket(f, g) == bracket_oracle(P, f, g)


def test_bracket_constant_symplectic():
    assert symplectic2().bracket(p2("x"), p2("y")) == p2("1")


def test_bracket_of_anything_with_itself():
    P = quadratic2()
    rng = random.Random(1)
    for _ in range(30):
        f = rand_poly(rng, 2)
        assert P.bracket(f, f).is_zero()


def test_bracket_quadratic():
    assert quadratic2().bracket(p2("x"), p2("y")) == p2("x*y")


def test_bracket_bilinear_antisymmetric_leibniz():
    P = so3()
    rng = random.Random(3)
    for _ in range(100):
        f, g, h = (rand_poly(rng, 3, 3, 2) for _ in range(3))
        assert P.bracket(f, g) == -P.bracket(g, f)
        assert P.bracket(f * g, h) == f * P.bracket(g, h) + g * P.bracket(f, h)
        assert P.bracket(f + g, h) == P.bracket(f, h) + P.bracket(g, h)


def test_so3_passes_jacobi():
    assert PoissonStructure(so3().bivector) == so3()  # the gate raises on failure


def test_nonjacobi_witness_and_jacobiator():
    with pytest.raises(JacobiError) as info:
        PoissonStructure(nonjacobi3())
    i, j, k, jac = info.value.witness
    assert (i, j, k) == (0, 1, 2)
    assert jac == p3("1")


def test_jacobi_error_raised_eagerly():
    bad = MultiVector(3, 2, {(0, 1): p3("y"), (1, 2): p3("1")})
    with pytest.raises(JacobiError):
        PoissonStructure(bad)


def test_zero_structure_is_poisson():
    assert zero2().bivector.is_zero()  # built through the Jacobi gate


def test_jacobi_holds_on_random_functions_when_verified():
    # coordinate triples determine the jacobiator
    P = so3()
    rng = random.Random(5)
    for _ in range(50):
        f, g, h = (rand_poly(rng, 3, 3, 2) for _ in range(3))
        br = P.bracket
        assert (br(br(f, g), h) + br(br(g, h), f) + br(br(h, f), g)).is_zero()


# ----------------------------------------------------------------------
# sharp / Hamiltonian


def test_hamiltonian_constant_symplectic():
    P = symplectic2()
    assert P.hamiltonian(p2("x")) == field2("0", "-1")
    assert P.hamiltonian(p2("5")).is_zero()


def test_hamiltonian_quadratic():
    assert quadratic2().hamiltonian(p2("x")) == field2("0", "-x*y")


def test_sharp_pairing_identity():
    rng = random.Random(7)
    for P in (quadratic2(), so3()):
        n = P.nvars
        for _ in range(40):
            alpha = rand_form(rng, n, 1, max_degree=2, terms=2)
            g = rand_poly(rng, n, 2, 2)
            dg = differential(g)
            # pi#(alpha)(dg) = pi(alpha, dg), via full contractions
            lhs = P.sharp(alpha).evaluate(g)
            rhs = interior_product(P.bivector, alpha.wedge(dg)).coefficient(())
            assert lhs == rhs


def test_hamiltonian_derivation_is_right_bracket():
    rng = random.Random(9)
    for P in (symplectic2(), quadratic2(), so3()):
        n = P.nvars
        for _ in range(40):
            f, g = rand_poly(rng, n, 3, 2), rand_poly(rng, n, 3, 2)
            assert P.hamiltonian(f).evaluate(g) == P.bracket(g, f)


# ----------------------------------------------------------------------
# Koszul differential


def test_koszul_examples():
    P = symplectic2()
    omega = Form(2, 2, {(0, 1): p2("x")})
    assert P.koszul_differential(omega) == Form(2, 1, {(0,): p2("-1")})
    assert P.koszul_differential(Form(2, 0, {(): p2("x*y + x")})).is_zero()
    Q = quadratic2()
    top = Form(2, 2, {(0, 1): p2("1")})
    assert Q.koszul_differential(top) == Form(2, 1, {(0,): p2("-y"), (1,): p2("-x")})


def test_koszul_squares_to_zero():
    rng = random.Random(11)
    for P in (symplectic2(), quadratic2(), so3(), generic2(), zero2()):
        n = P.nvars
        for _ in range(40):
            q = rng.randint(0, n)
            omega = rand_form(rng, n, q)
            assert P.koszul_differential(P.koszul_differential(omega)).is_zero()


# ----------------------------------------------------------------------
# modular vector field


def test_modular_field_symplectic_is_zero():
    assert symplectic2().modular_vector_field(VolumeForm()).is_zero()


def test_modular_field_zero_structure():
    assert zero2().modular_vector_field(VolumeForm()).is_zero()


def test_modular_field_quadratic():
    phi = quadratic2().modular_vector_field(VolumeForm())
    assert phi == field2("-x", "y")


def test_modular_field_so3_unimodular():
    assert so3().modular_vector_field(VolumeForm()).is_zero()


def test_modular_field_independent_of_volume_scale():
    P = quadratic2()
    assert P.modular_vector_field(VolumeForm(Fraction(7, 3))) == P.modular_vector_field(
        VolumeForm()
    )


def test_modular_cross_check_failure_is_typed(monkeypatch):
    # make the Lie-derivative side disagree: it now reads 2 mu on every coordinate
    monkeypatch.setattr("poishom.poisson.lie_derivative", lambda field, omega: omega.scale(2))
    mu = VolumeForm(Fraction(3))
    with pytest.raises(ModularFieldError, match='"coordinate": "x1"') as info:
        so3().modular_vector_field(mu)
    i, lhs, rhs = info.value.witness
    assert i == 0
    assert lhs == mu.form(3).scale(2)
    assert rhs.is_zero()  # so(3) is unimodular: phi(x) mu = 0


@pytest.mark.parametrize("make", [symplectic2, quadratic2, so3, generic2])
def test_modular_field_satisfies_both_definitions(make):
    P = make()
    n = P.nvars
    mu = VolumeForm(Fraction(2))
    mu_form = mu.form(n)
    phi = P.modular_vector_field(mu)
    # contraction definition: bnd(mu) = iota_phi(mu)
    assert P.koszul_differential(mu_form) == interior_product(phi, mu_form)
    # Lie derivative definition on all coordinates
    for i in range(n):
        x_i = Poly.variable(n, i)
        lhs = lie_derivative(P.hamiltonian(x_i), mu_form)
        assert lhs == mu_form.scale(phi.evaluate(x_i))


def test_modular_field_is_poisson_vector_field():
    for make in (symplectic2, quadratic2, so3, generic2):
        P = make()
        assert P.poisson_field_defect(P.modular_vector_field(VolumeForm())) is None


# ----------------------------------------------------------------------
# Poisson vector fields


def test_constant_field_on_constant_structure_is_poisson():
    assert symplectic2().poisson_field_defect(field2("1", "0")) is None


def test_euler_like_field_fails_with_witness():
    P = symplectic2()
    phi = field2("x", "0")
    assert P.poisson_field_defect(phi) is not None
    i, j, defect = P.poisson_field_defect(phi)
    assert (i, j) == (0, 1)
    assert defect == p2("-1")  # phi{x,y} - {phi x,y} - {x,phi y} = 0 - 1


def test_hamiltonian_fields_are_poisson():
    rng = random.Random(13)
    for make in (symplectic2, quadratic2, so3):
        P = make()
        for _ in range(20):
            f = rand_poly(rng, P.nvars, 3, 2)
            assert P.poisson_field_defect(P.hamiltonian(f)) is None


def test_volume_form_requires_nonzero_coefficient():
    with pytest.raises(ValueError):
        VolumeForm(0)
