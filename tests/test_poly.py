import random
from fractions import Fraction

import pytest

from poishom import DimensionError, ParseError, Poly
from poishom.poly import (
    MAX_PARSE_DEGREE,
    MAX_PARSE_DIGITS,
    MAX_PARSE_NESTING,
    MAX_PARSE_TERMS,
    monomials_of_degree,
)

from catalog import XY, eval_poly, p2, rand_point, rand_poly


def test_parse_simple_product():
    assert p2("x*y") == Poly(2, {(1, 1): 1})


def test_parse_zero_is_empty_map():
    assert p2("0").terms == {}
    assert p2("0").is_zero()


def test_parse_binomial_square_expansion():
    # (x+y)^2 - x^2 - y^2 = 2xy, derived by hand
    assert p2("(x+y)^2 - x^2 - y^2") == Poly(2, {(1, 1): 2})


def test_parse_rational_coefficients_and_signs():
    q = p2("-3/4*x + 1/2 - y^2")
    assert q.coefficient((1, 0)) == Fraction(-3, 4)
    assert q.coefficient((0, 0)) == Fraction(1, 2)
    assert q.coefficient((0, 2)) == -1


@pytest.mark.parametrize(
    "text,pos_hint",
    [("x +", 3), ("2x", 1), ("x^", 2), ("(x", 2), ("x & y", 2), ("1/0", 2)],
)
def test_parse_syntax_error_reports_position(text, pos_hint):
    with pytest.raises(ParseError) as err:
        p2(text)
    assert err.value.position >= 0


def test_parse_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable 'z'"):
        p2("x + z")


def test_parse_degree_cap():
    top = MAX_PARSE_DEGREE
    assert p2(f"x^{top}") == Poly.monomial(2, (top, 0))
    assert p2(f"x^{top // 2}*y^{top - top // 2}").homogeneous_degree() == top
    for text in [f"x^{top + 1}", f"(2)^{top + 1}", f"x^{top}*y", f"(x*y)^{top // 2 + 1}",
                 f"x*(x+y)^{top}"]:
        with pytest.raises(ParseError, match="exceeds the limit"):
            p2(text)


def test_parse_nesting_cap():
    top = MAX_PARSE_NESTING
    assert p2("(" * top + "x" + ")" * top + "^2") == p2("x^2")
    for depth in (top + 1, 2000):  # 2000 levels overflowed the interpreter stack
        with pytest.raises(ParseError, match=f"nesting depth {top + 1} exceeds the limit"):
            p2("(" * depth + "x" + ")" * depth)


def test_parse_digit_cap():
    top = MAX_PARSE_DIGITS
    assert p2("9" * top + "*x") == p2("x").scale(int("9" * top))
    for text, position in [("9" * 5000 + "*x", 0), ("x^" + "9" * 5000, 2),
                           ("1/" + "7" * (top + 1), 2)]:
        # 5,000 digits is past the interpreter's default int() limit of 4,300
        with pytest.raises(ParseError, match=r"digit count \d+ exceeds the limit") as info:
            p2(text)
        assert info.value.position == position
    with pytest.raises(ParseError, match="expected a number"):
        p2("x^\u00b2")  # a digit that is not a decimal digit, so int() refuses it


def test_parse_term_cap():
    # predicted terms: C(t+e-1, e) for a t-term base to the power e, t1*t2 for
    # a product; both exact for sums of distinct variables
    names = list("abcdefghij")
    base = "(" + "+".join(names) + ")"
    assert MAX_PARSE_TERMS == 1000
    assert len(Poly.parse(f"{base}^4", names).terms) == 715
    assert len(Poly.parse(f"{base}^2*{base}", names).terms) == 220
    assert Poly.parse(f"({base}^2)^1", names) == Poly.parse(f"{base}*{base}", names)
    for text in [f"{base}^5", f"{base}^2*{base}^2", f"{base}*{base}*{base}*{base}"]:
        with pytest.raises(ParseError, match="term count .* exceeds the limit"):
            Poly.parse(text, names)


def test_pow_matches_repeated_product():
    rng = random.Random(4)
    for _ in range(10):
        f = rand_poly(rng, 2, max_degree=2, terms=3)
        acc = Poly.constant(2, 1)
        for e in range(7):
            assert f**e == acc
            acc = acc * f


def test_add_inverse_and_scale_zero():
    x = p2("x")
    assert (x + (-x)).is_zero()
    assert x.scale(0).is_zero()


def test_mul_known_product():
    assert p2("x+y") * p2("x-y") == p2("x^2 - y^2")


def test_mismatched_nvars_rejected():
    with pytest.raises(DimensionError):
        p2("x") + Poly.parse("x", ["x", "y", "z"])


def test_partial_power_rule_and_constants():
    assert p2("x^2*y").partial(0) == p2("2*x*y")
    assert p2("x").partial(1).is_zero()
    assert p2("(x+y)^3").partial(0) == p2("3*x^2 + 6*x*y + 3*y^2")


def test_partial_index_range():
    with pytest.raises(DimensionError):
        p2("x").partial(2)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (rand_poly(rng, 2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_mul_agrees_with_evaluation_oracle():
    # the evaluation homomorphism is an independent check of the product
    rng = random.Random(9)
    for _ in range(100):
        a, b = rand_poly(rng, 3), rand_poly(rng, 3)
        point = rand_point(rng, 3)
        assert eval_poly(a * b, point) == eval_poly(a, point) * eval_poly(b, point)


def test_leibniz_rule_random():
    rng = random.Random(11)
    for _ in range(100):
        a, b = rand_poly(rng, 3), rand_poly(rng, 3)
        i = rng.randrange(3)
        assert (a * b).partial(i) == a * b.partial(i) + b * a.partial(i)


def test_mixed_partials_commute():
    rng = random.Random(13)
    for _ in range(100):
        a = rand_poly(rng, 3)
        i, j = rng.randrange(3), rng.randrange(3)
        assert a.partial(i).partial(j) == a.partial(j).partial(i)


def test_print_parse_round_trip():
    rng = random.Random(15)
    for _ in range(200):
        q = rand_poly(rng, 2)
        assert Poly.parse(q.text(XY), XY) == q
    # and the rendering is canonical text: parse-print fixpoint
    for text in ["0", "1", "-x", "x^2 - 2*x + 1", "3/4*x*y^2 + 1/2"]:
        assert p2(text).text(XY) == text


def test_print_uses_graded_lex_order():
    assert p2("1 + x^2 + y + x*y").text(XY) == "x^2 + x*y + y + 1"


def test_monomials_of_degree_count_and_order():
    monos = monomials_of_degree(3, 4)
    assert len(monos) == 15  # C(4+2, 2)
    assert monos[0] == (4, 0, 0) and monos[-1] == (0, 0, 4)
    assert monos == sorted(monos, reverse=True)


def test_no_zero_coefficients_stored():
    q = p2("x") + p2("-x") + p2("y")
    assert all(c != 0 for c in q.terms.values())
    assert (0, 0) not in q.terms


def test_integral_fractions_and_ints_are_one_representation():
    # arithmetic keeps a Fraction with denominator 1 as it is; such a
    # polynomial must be indistinguishable from its all-int twin
    rng = random.Random(12)
    for _ in range(60):
        f, g = rand_poly(rng, 3), rand_poly(rng, 3)
        ff, gf = (Poly._raw(3, {e: Fraction(c, 1) for e, c in p.terms.items()}) for p in (f, g))
        assert all(type(c) is int for p in (f, g) for c in p.terms.values())
        assert all(type(c) is Fraction for p in (ff, gf) for c in p.terms.values())
        assert Poly(3, ff.terms).terms == f.terms  # the constructor normalises
        assert all(type(c) is int for c in Poly(3, ff.terms).terms.values())
        pairs = [(f, ff), (g, gf), (f + g, ff + gf), (f + g, f + gf), (f * g, ff * gf),
                 (f * g, f * gf), (f.scale(-3), ff.scale(Fraction(-3, 1))),
                 (f.scale(2), ff.scale(2)), (f.partial(1), ff.partial(1))]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and a.text() == b.text()


def test_non_integral_coefficients_stay_exact_fractions():
    half = Poly.constant(2, Fraction(1, 2))
    assert type(half.coefficient((0, 0))) is Fraction and half.coefficient((0, 0)) == Fraction(1, 2)
    assert (half * p2("x")).coefficient((1, 0)) == Fraction(1, 2)
    assert (half * half).coefficient((0, 0)) == Fraction(1, 4)
    assert half.scale(2) == Poly.constant(2, 1)
    assert p2("1/2*x").partial(0) == half
    assert Poly.constant(2, Fraction(4, 2)).terms == {(0, 0): 2}
    assert type(Poly.constant(2, True).coefficient((0, 0))) is int
    assert type(Poly.variable(2, 0).coefficient((1, 0))) is int
    assert type(p2("x").coefficient((0, 1))) is int
    with pytest.raises(TypeError, match="coefficient must be an int or Fraction"):
        Poly.constant(2, 0.5)
