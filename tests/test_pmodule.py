import random

import pytest

from poishom import (
    FlatnessError,
    MultiVector,
    PoishomError,
    PoissonFieldError,
    PoissonModule,
    Poly,
    VolumeForm,
    elw_connection,
    flatness_defect,
    twist,
)
from poishom.pmodule import bracket_vector

from catalog import (
    bianchi5,
    bianchi5_rank2,
    generic2,
    module_bracket_oracle,
    p2,
    p3,
    quadratic2,
    quadratic_rank2,
    rand_poly,
    so3,
    so3_adjoint,
    so3_rank2,
    symplectic2,
    symplectic_rank2,
    zero2,
)


def rank1(structure, *texts):
    n = structure.nvars
    parse = p2 if n == 2 else p3
    return PoissonModule(n, 1, tuple(((parse(t),),) for t in texts))


# ----------------------------------------------------------------------
# module bracket


def test_trivial_module_bracket_is_scalar_bracket():
    P = symplectic2()
    W = PoissonModule.trivial(2, 1)
    assert bracket_vector(W, P, (p2("x"),), p2("y")) == (p2("1"),)


def test_bracket_with_constant_vanishes():
    P = quadratic2()
    W = quadratic_rank2(P)
    w = (p2("x+y"), p2("x*y"))
    assert bracket_vector(W, P, w, p2("7")) == (p2("0"), p2("0"))


def test_bracket_leibniz_in_function_slot():
    # rank-1, B_x = (x), B_y = (0): {e, x^2} = 2x * (x e) = 2x^2 e
    # (bracket_vector itself needs no flatness; only the differentials do)
    P = symplectic2()
    W = rank1(P, "x", "0")
    assert bracket_vector(W, P, (p2("1"),), p2("x^2")) == (p2("2*x^2"),)


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("make, rank_module", [
    (so3, so3_adjoint), (bianchi5, bianchi5_rank2), (symplectic2, symplectic_rank2),
], ids=["so3_adjoint", "bianchi5_rank2", "symplectic_rank2"])
def test_bracket_vector_matches_defining_formula(make, rank_module, twisted):
    # {w,f}_W against {g_b,f} + sum_a g_a sum_i df/dx_i B_i[a][b] read off the
    # matrices; the modules are not symmetric, so a transposed field fails
    P = make()
    W = rank_module(P)
    if twisted:
        W = twist(W, P, -P.modular_vector_field(VolumeForm()))
    n, r = P.nvars, W.rank
    for a in range(r):
        e_a = tuple(Poly.constant(n, int(b == a)) for b in range(r))
        for i, x_i in enumerate(P.coordinates):
            assert bracket_vector(W, P, e_a, x_i) == W.brackets[i][a]
    rng = random.Random(23)
    for _ in range(30):
        vec = tuple(rand_poly(rng, n, 3, 2) for _ in range(r))
        f = rand_poly(rng, n, 3, 2)
        assert bracket_vector(W, P, vec, f) == module_bracket_oracle(P, W, vec, f)


def test_bracket_axioms_random():
    rng = random.Random(1)
    P = quadratic2()
    W = quadratic_rank2(P)
    for _ in range(60):
        g = tuple(rand_poly(rng, 2, 3, 2) for _ in range(2))
        a, b = rand_poly(rng, 2, 3, 2), rand_poly(rng, 2, 3, 2)
        # axiom (2): {wa, b} = {w,b}a + w{a,b}
        lhs = bracket_vector(W, P, tuple(x * a for x in g), b)
        scalar = P.bracket(a, b)
        rhs = tuple(
            u * a + x * scalar for u, x in zip(bracket_vector(W, P, g, b), g)
        )
        assert lhs == rhs
        # axiom (3): {w, ab} = {w,a}b + {w,b}a
        lhs = bracket_vector(W, P, g, a * b)
        ra = bracket_vector(W, P, g, a)
        rb = bracket_vector(W, P, g, b)
        assert lhs == tuple(u * b + v * a for u, v in zip(ra, rb))


def test_right_lie_module_axiom_random_when_flat():
    rng = random.Random(3)
    for P, W in [
        (quadratic2(), quadratic_rank2(quadratic2())),
        (so3(), so3_rank2(so3())),
        (symplectic2(), symplectic_rank2(symplectic2())),
    ]:
        for _ in range(40):
            g = tuple(rand_poly(rng, P.nvars, 3, 2) for _ in range(W.rank))
            a, b = rand_poly(rng, P.nvars, 3, 2), rand_poly(rng, P.nvars, 3, 2)
            lhs = bracket_vector(W, P, bracket_vector(W, P, g, a), b)
            rhs = bracket_vector(W, P, bracket_vector(W, P, g, b), a)
            target = bracket_vector(W, P, g, P.bracket(a, b))
            assert tuple(u - v for u, v in zip(lhs, rhs)) == target


# ----------------------------------------------------------------------
# flatness


def test_trivial_module_flat_for_constant_bracket():
    assert flatness_defect(PoissonModule.trivial(2, 1), symplectic2()) is None


def test_flat_example_b_x_equals_y():
    P = symplectic2()
    assert flatness_defect(rank1(P, "y", "0"), P) is None


def test_non_flat_example_with_witness():
    P = symplectic2()
    W = rank1(P, "x", "0")
    assert flatness_defect(W, P) is not None
    a, i, j, disc = flatness_defect(W, P)
    assert (a, i, j) == (0, 0, 1)
    assert disc == (p2("-1"),)  # {e,{x,y}} - {{e,x},y} + {{e,y},x} = -e


def test_flatness_gate_raises_with_witness():
    P = symplectic2()
    W = rank1(P, "x", "0")
    with pytest.raises(FlatnessError) as info:
        PoissonModule(2, 1, W.brackets, structure=P)
    assert info.value.witness == flatness_defect(W, P)


def test_catalog_modules_are_flat():
    for P, W in [
        (symplectic2(), symplectic_rank2(symplectic2())),
        (quadratic2(), quadratic_rank2(quadratic2())),
        (so3(), so3_rank2(so3())),
    ]:
        assert W.structure == P and flatness_defect(W, P) is None


def test_zero_structure_flat_iff_matrices_commute():
    P = zero2()
    commuting = PoissonModule(
        2, 2, (
            ((p2("0"), p2("1")), (p2("0"), p2("0"))),
            ((p2("0"), p2("1")), (p2("0"), p2("0"))),
        )
    )
    assert flatness_defect(commuting, P) is None
    noncommuting = PoissonModule(
        2, 2, (
            ((p2("0"), p2("1")), (p2("0"), p2("0"))),
            ((p2("0"), p2("0")), (p2("1"), p2("0"))),
        )
    )
    assert flatness_defect(noncommuting, P) is not None


# ----------------------------------------------------------------------
# connection dictionary


def test_connection_round_trip_and_sign():
    rng = random.Random(5)
    for _ in range(20):
        gammas = tuple(
            tuple(tuple(rand_poly(rng, 2, 2, 2) for _ in range(2)) for _ in range(2))
            for _ in range(2)
        )
        W = PoissonModule.from_connection(2, 2, gammas)
        assert W.brackets == tuple(
            tuple(tuple(-entry for entry in row) for row in m) for m in gammas
        )
    W = PoissonModule.from_connection(2, 1, (((p2("x"),),), ((p2("0"),),)))
    assert W.brackets[0][0][0] == p2("-x")


def test_zero_connection_is_trivial_module():
    zero = (((p2("0"),),), ((p2("0"),),))
    assert PoissonModule.from_connection(2, 1, zero) == PoissonModule.trivial(2, 1)


# ----------------------------------------------------------------------
# twisting


def test_twist_by_zero_field_is_identity():
    P = quadratic2()
    W = quadratic_rank2(P)
    assert twist(W, P, MultiVector.zero(2, 1)) == W


def test_twist_of_trivial_by_modular_quadratic():
    P = quadratic2()
    phi = P.modular_vector_field(VolumeForm())
    T = twist(PoissonModule.trivial(2, 1), P, phi)
    assert T.brackets[0][0][0] == p2("-x")
    assert T.brackets[1][0][0] == p2("y")


def test_double_twist_is_identity():
    P = quadratic2()
    phi = P.modular_vector_field(VolumeForm())
    for W in (PoissonModule.trivial(2, 1), quadratic_rank2(P)):
        assert twist(twist(W, P, phi), P, -phi) == W


def test_equal_modules_hash_alike():
    # the hash is stored at construction; it must follow the bracket data
    # whatever path built the module and whichever structure it records
    P = quadratic2()
    W = quadratic_rank2(P)
    phi = P.modular_vector_field(VolumeForm())
    negated = tuple(tuple(tuple(-entry for entry in row) for row in m) for m in W.brackets)
    built = (PoissonModule(2, 2, W.brackets), twist(twist(W, P, phi), P, -phi),
             PoissonModule.from_connection(2, 2, negated))
    assert all(other == W and hash(other) == hash(W) for other in built)
    assert len({W, *built}) == 1
    assert hash(elw_connection(P, VolumeForm())) == hash(
        twist(PoissonModule.trivial(2, 1), P, phi))


def test_twist_requires_poisson_field():
    P = symplectic2()
    euler = MultiVector(2, 1, {(0,): p2("x")})
    with pytest.raises(PoissonFieldError):
        twist(PoissonModule.trivial(2, 1), P, euler)


def test_twist_requires_flat_module():
    P = symplectic2()
    W = rank1(P, "x", "0")  # not flat, so never through the flatness gate
    with pytest.raises(PoishomError, match="not known to be flat"):
        twist(W, P, MultiVector.zero(2, 1))


def test_twist_preserves_flatness_random():
    rng = random.Random(7)
    for P, W in [
        (quadratic2(), quadratic_rank2(quadratic2())),
        (so3(), so3_rank2(so3())),
        (generic2(), PoissonModule.trivial(2, 2)),
    ]:
        for _ in range(10):
            f = rand_poly(rng, P.nvars, 3, 2)
            phi = P.hamiltonian(f)
            twisted = twist(W, P, phi)
            assert flatness_defect(twisted, P) is None


# ----------------------------------------------------------------------
# the canonical top-form connection


def test_elw_symplectic_is_trivial():
    P = symplectic2()
    E = elw_connection(P, VolumeForm())
    assert E == PoissonModule.trivial(2, 1)


def test_elw_zero_structure_is_trivial():
    P = zero2()
    assert elw_connection(P, VolumeForm()) == PoissonModule.trivial(2, 1)


def test_elw_quadratic_matrices():
    E = elw_connection(quadratic2(), VolumeForm())
    assert E.brackets[0][0][0] == p2("-x")
    assert E.brackets[1][0][0] == p2("y")


def test_elw_equals_twist_of_trivial_by_modular():
    for make in (symplectic2, quadratic2, so3, generic2):
        P = make()
        mu = VolumeForm(2)
        phi = P.modular_vector_field(mu)
        assert elw_connection(P, mu) == twist(
            PoissonModule.trivial(P.nvars, 1), P, phi
        )
