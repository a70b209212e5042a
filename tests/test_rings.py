"""Polynomial core: construction, arithmetic, text grammar, transforms.

Expected values in this file are hand-expanded; they pin conventions
(term order in printing, sign handling, substitution semantics) that the
rest of the engine relies on.
"""

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from detsing.errors import (
    BadParameters,
    DuplicateVariable,
    ParseError,
    RingMismatch,
    UnknownVariable,
    ZeroPolynomial,
)
from detsing.fields import QQ, PrimeField, field_from_name
from detsing.rings import Polynomial, Ring, Substitution, embed, grevlex_key, ring


@pytest.fixture
def R3():
    return ring("x_1_1 x_1_2 x_2_2")


def test_ring_rejects_duplicate_names():
    with pytest.raises(DuplicateVariable):
        ring("x x")


@pytest.mark.parametrize("field", ["Q", None, PrimeField])
def test_ring_refuses_a_non_field(field):
    with pytest.raises(BadParameters):
        ring("x y", field)


def test_ring_value_equality():
    assert ring("a b") == ring(["a", "b"])
    assert ring("a b") != ring("b a")
    assert ring("a b") != ring("a b", PrimeField(5))


def test_basic_arithmetic(R3):
    x11, x12, x22 = R3.vars()
    det = x11 * x22 - x12 ** 2
    assert det.total_degree() == 2
    assert det.num_terms() == 2
    assert (det - det).is_zero()
    assert (x11 + x12) * (x11 - x12) == x11 ** 2 - x12 ** 2
    assert 2 * x11 - x11 == x11
    assert (x11 * 0).is_zero()


def test_pow_binomial():
    R = ring("x y")
    x, y = R.vars()
    f = (x + y) ** 5
    # binomial coefficients 1 5 10 10 5 1
    assert f.terms[(5, 0)] == 1
    assert f.terms[(3, 2)] == 10
    assert f.terms[(1, 4)] == 5
    assert (x + y) ** 0 == R.one()


def test_ring_mismatch_raises(R3):
    other = ring("a b c")
    with pytest.raises(RingMismatch):
        R3.var("x_1_1") + other.var("a")


def test_grevlex_print_order(R3):
    # Same degree: the monomial avoiding the last variable is larger.
    det = R3.parse("x_1_1*x_2_2 - x_1_2^2")
    assert det.format() == "-x_1_2^2 + x_1_1*x_2_2"
    assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))
    # Degree dominates.
    f = R3.parse("x_1_1^3 + x_2_2")
    assert f.format() == "x_1_1^3 + x_2_2"


def test_format_parse_round_trip_frozen(R3):
    cases = [
        "0",
        "1",
        "-1",
        "5/3",
        "x_1_2",
        "-x_1_2^2 + x_1_1*x_2_2",
        "2*x_1_1^2*x_1_2 - 5/3*x_2_2 + 7",
    ]
    for text in cases:
        f = R3.parse(text)
        assert f.format() == text
        assert R3.parse(f.format()) == f


def test_parse_is_whitespace_insensitive(R3):
    assert R3.parse("x_1_1*x_2_2-x_1_2^2") == R3.parse(" x_1_1 * x_2_2  -  x_1_2 ^ 2 ")
    assert R3.parse("+x_1_2") == R3.var("x_1_2")


def test_parse_errors(R3):
    with pytest.raises(UnknownVariable):
        R3.parse("q + 1")
    # a denominator that vanishes in the field
    with pytest.raises(ParseError):
        Ring(["x"], PrimeField(7)).parse("1/14*x")


@pytest.mark.parametrize("text", [
    "x*2", "2^3*x", "2*3*x", "x*1/2", "2^0", "(x)", "x y", "x^", "1/0",
    "", "-", "x +", "* x", "x + - y", "1 2", "x^-1", "x**2", "2/x", "x & 2", 5, None,
])
def test_parse_refuses_text_outside_the_grammar(text):
    # the grammar has one leading coefficient per term and integer powers
    # of variables only; nothing else parses
    with pytest.raises(ParseError):
        ring("x y").parse(text)


PARSE_NAMES = ("x", "y_1", "Z2")


@st.composite
def grammar_text(draw):
    """Random text in the module grammar, with the polynomial it denotes
    built from Ring.var, + and *.  Spaces surround operators at random; a
    leading '+', repeated names, '^1', '1*', '0*', unreduced fractions and
    repeated monomials all occur."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    R = Ring(PARSE_NAMES, field)
    space = st.sampled_from(["", " ", "  "])

    def op(symbol):
        return draw(space) + symbol + draw(space)

    text, expected = draw(space), R.zero()
    for t in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["+", "-"] if t else ["", "+", "-"]))
        text += op(sign) if sign else ""
        factors, value = [], R.one()
        if draw(st.booleans()):
            num = draw(st.integers(0, 12))
            den = draw(st.one_of(st.none(), st.integers(1, 6)))
            factors.append(str(num) if den is None else f"{num}{op('/')}{den}")
            value = value * (num if den is None else Fraction(num, den))
        for _ in range(draw(st.integers(0 if factors else 1, 4))):
            name = draw(st.sampled_from(PARSE_NAMES))
            e = draw(st.one_of(st.none(), st.integers(0, 3)))
            factors.append(name if e is None else f"{name}{op('^')}{e}")
            value = value * (R.var(name) if e is None else R.var(name) ** e)
        text += op("*").join(factors)
        expected = expected - value if sign == "-" else expected + value
    return R, text + draw(space), expected


@settings(max_examples=150, deadline=None)
@given(grammar_text())
def test_parse_matches_the_grammar_hypothesis(case):
    R, text, expected = case
    assert R.parse(text) == expected


def test_prime_field_coefficients():
    F7 = PrimeField(7)
    R = ring("x", F7)
    f = R.parse("3/2*x")
    # 2^-1 = 4 mod 7, 3*4 = 12 = 5
    assert f == R.parse("5*x")
    assert f.format() == "5*x"
    assert R.parse(f.format()) == f
    g = R.parse("6*x") + R.parse("x")
    assert g.is_zero()


def test_field_from_name_round_trip():
    assert field_from_name("Q") == QQ
    assert field_from_name("Fp:11") == PrimeField(11)
    with pytest.raises(BadParameters):
        field_from_name("Fp:6")
    with pytest.raises(BadParameters):
        field_from_name("R")


@pytest.mark.parametrize("spec", [7, 5.0, None, b"Q", ["Q"]])
def test_field_spec_that_is_not_a_string_is_refused(spec):
    with pytest.raises(BadParameters):
        field_from_name(spec)
    with pytest.raises(BadParameters):
        Ring.from_json({"field": spec, "vars": ["x"]})


@pytest.mark.parametrize("p", [7.0, 2.0, True, "7", Fraction(7)])
def test_prime_field_refuses_a_characteristic_that_is_not_an_int(p):
    with pytest.raises(BadParameters):
        PrimeField(p)


def test_substitution_frozen_example():
    # det B_2 under the first diagonal blow-up chart:
    # x_1_1 -> a, x_1_2 -> a*b, x_2_2 -> a*c
    src = ring("x_1_1 x_1_2 x_2_2")
    dst = ring("a b c")
    sub = Substitution(src, dst, {"x_1_1": "a", "x_1_2": "a*b", "x_2_2": "a*c"})
    f = src.parse("x_1_1*x_2_2 - x_1_2^2")
    g = sub(f)
    assert g == dst.parse("a^2*c - a^2*b^2")
    # homomorphism on a product, frozen by hand
    h = sub(src.parse("x_1_1") * src.parse("x_1_2"))
    assert h == dst.parse("a^2*b")


def test_substitution_requires_full_cover():
    src = ring("x y")
    dst = ring("u")
    with pytest.raises(UnknownVariable):
        Substitution(src, dst, {"x": "u"})  # y has no image and no namesake
    with pytest.raises(UnknownVariable):
        Substitution(src, dst, {"z": "u"})


def test_substitution_rings_share_a_field():
    # coefficients carry over unconverted, so the fields must agree
    with pytest.raises(RingMismatch):
        Substitution(ring("x"), ring("x", PrimeField(5)), {})


def test_substitution_compose():
    A = ring("x")
    B = ring("u")
    C = ring("t")
    s1 = Substitution(A, B, {"x": "u^2"})
    s2 = Substitution(B, C, {"u": "t + 1"})
    both = s1.then(s2)
    f = A.parse("x + 3")
    assert both(f) == C.parse("t^2 + 2*t + 4")


def test_order_at_and_factor_out():
    R = ring("a b c")
    f = R.parse("a^2*c - a^2*b^2")
    assert f.order_at("a") == 2
    assert f.order_at(["a", "b"]) == 2
    assert f.order_at(["b"]) == 0
    k, g = f.factor_out("a")
    assert k == 2
    assert g == R.parse("c - b^2")
    k2, g2 = g.factor_out("a")
    assert k2 == 0 and g2 == g
    with pytest.raises(ZeroPolynomial):
        R.zero().order_at("a")
    with pytest.raises(ZeroPolynomial):
        R.zero().factor_out("a")


def test_is_homogeneous():
    R = ring("x y z")
    assert R.parse("x*y - z^2").is_homogeneous()
    assert not R.parse("x^2 - y^3").is_homogeneous()
    # restricted grading: weight 1 on x only
    assert not R.parse("x^2 - y^3").is_homogeneous(in_vars=["x"])
    assert R.parse("x^2*y - x^2*z^3").is_homogeneous(in_vars=["x"])
    assert R.zero().is_homogeneous()
    assert R.parse("y^3 + y*z^2").is_homogeneous(in_vars=["x"])  # degree 0 in x


def test_embed_by_name():
    small = ring("x z")
    big = ring("w x y z")
    f = small.parse("x*z - 2")
    g = embed(f, big)
    assert g == big.parse("x*z - 2")
    with pytest.raises(UnknownVariable):
        embed(small.parse("x"), ring("a b"))
    # coefficients carry over unconverted, so the fields must agree
    with pytest.raises(RingMismatch):
        embed(f, ring("w x y z", PrimeField(7)))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_inexact_coefficients_refused(field):
    x = ring("x", field).var("x")
    for value in (0.5, 1.5, "2/3"):
        with pytest.raises(TypeError):
            field.of(value)
        with pytest.raises(TypeError):
            x * value
        with pytest.raises(TypeError):
            x + value
        with pytest.raises(TypeError):
            value - x
    assert field.reduce(field.of(Fraction(3, 2)) * 2) == field.of(3)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_bool_coefficients_refused(field):
    R = ring("x", field)
    x = R.var("x")
    for value in (True, False):
        with pytest.raises(TypeError):
            field.of(value)
        with pytest.raises(TypeError):
            R.const(value)
        with pytest.raises(TypeError):
            x * value
        with pytest.raises(TypeError):
            x + value
        assert R.const(int(value)) != value
    assert field.of(1) == 1 and R.const(1) == 1


def test_equality_with_exact_constants():
    R = ring("x")
    S = ring("x", PrimeField(7))
    assert R.one() == Fraction(1) and R.one() == 1
    assert R.const(Fraction(1, 2)) == Fraction(1, 2)
    assert R.const(4) != Fraction(1, 2)
    # 1/2 is 4 in F_7, as in S.const(4) * 2 == 1
    assert S.const(4) == Fraction(1, 2) and Fraction(1, 2) == S.const(4)
    assert S.const(8) == 1 and S.zero() == 0
    assert R.var("x") != 1 and R.zero() != Fraction(1, 2)
    # values outside the field compare unequal and raise nothing
    for P in (R, S):
        assert not P.one() == 1.0
        assert P.one() != 1.0
        assert P.one() != "1"
    assert S.one() != Fraction(1, 7)


def test_ring_json_round_trip():
    R = ring("x y", PrimeField(5))
    assert Ring.from_json(R.to_json()) == R


def test_polynomial_hash_consistency(R3):
    f = R3.parse("x_1_1*x_2_2 - x_1_2^2")
    g = R3.parse("-x_1_2^2 + x_1_1*x_2_2")
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1


def test_variables_and_degree_views(R3):
    f = R3.parse("x_1_1*x_2_2^3 + 1")
    assert f.variables() == ("x_1_1", "x_2_2")
    assert f.degree_in("x_2_2") == 3
    assert f.degree_in("x_1_2") == 0
    assert R3.zero().total_degree() == -1
    assert f.constant_coefficient() == Fraction(1)
