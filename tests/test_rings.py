"""Polynomial core: construction, arithmetic, text grammar, transforms.

Expected values in this file are hand-expanded; they pin conventions
(term order in printing, sign handling, substitution semantics) that the
rest of the engine relies on.
"""

import random
import sys
import time

import pytest
import sympy
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
from detsing import fields
from detsing.fields import QQ, PrimeField, field_from_name
from detsing.rings import (
    Polynomial,
    Ring,
    Substitution,
    _Overflow,
    _Packing,
    decode_terms,
    embed,
    encode_terms,
    encoded_count,
    exact_div,
    grevlex_key,
    ring,
    ring_bytes,
)

from .oracles import oracle_embed, oracle_substitute


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


@pytest.mark.parametrize("name", [["x"], {"x": 1}, {"x"}, ("x",), 1, None])
def test_names_that_are_not_strings_are_unknown_variables(name):
    # an unhashable name must not escape as a bare TypeError
    R = ring("x y")
    f = R.parse("x*y + x")
    calls = (R.var, f.degree_in, f.factor_out, lambda n: f.order_at([n]), lambda n: f.is_homogeneous([n]))
    for call in calls:
        with pytest.raises(UnknownVariable):
            call(name)


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


def trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_primality_matches_trial_division():
    assert [p for p in range(5000) if fields._is_prime(p)] == [p for p in range(5000) if trial_division_is_prime(p)]
    rng = random.Random(7)
    for p in [rng.randrange(10 ** 9, 10 ** 10) for _ in range(300)]:
        assert fields._is_prime(p) == trial_division_is_prime(p), p
    # up to the range the bases decide, sympy's test is the reference
    for p in [rng.randrange(10 ** 10, fields._PRIME_LIMIT) | 1 for _ in range(300)]:
        assert fields._is_prime(p) == sympy.isprime(p), p


def test_prime_field_decides_a_large_spec_at_once():
    start = time.perf_counter()
    assert field_from_name("Fp:2305843009213693951") == PrimeField(2 ** 61 - 1)
    assert field_from_name("Fp:" + "0" * 50 + "7") == PrimeField(7)
    # a Carmichael number; the least strong pseudoprimes to the bases 2;
    # 2, 3; 2, 3, 5; 2, 3, 5, 7 and 2 to 31; and the least strong pseudoprime
    # to all twelve bases, which only the range refuses; then primes past
    # that range
    for p in (561, 2047, 1373653, 25326001, 3215031751, 3825123056546413051, fields._PRIME_LIMIT, 2 ** 89 - 1,
              10 ** 29 + 319):
        with pytest.raises(BadParameters):
            PrimeField(p)
        with pytest.raises(BadParameters):
            field_from_name(f"Fp:{p}")
    for spec in ("Fp:" + "7" * 100000, "GF(" + "1" * 5000 + ")", "Fp:\u00b2"):
        with pytest.raises(BadParameters):
            field_from_name(spec)
    assert time.perf_counter() - start < 0.5


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
def test_embed_matches_the_frozen_loop(field):
    # random ring pairs over shared names, in any order: the same terms in
    # the same stored order, or UnknownVariable naming the same variable
    rng = random.Random(20261022)
    names = "a b c d e".split()
    raised = 0
    for _ in range(300):
        source = Ring(rng.sample(names, rng.randint(0, 4)), field)
        target = Ring(rng.sample(names, rng.randint(0, 5)), field)
        f = _random_poly(rng, source, max_terms=4, max_exp=2)
        try:
            want = oracle_embed(f, target)
        except UnknownVariable as frozen:
            with pytest.raises(UnknownVariable) as caught:
                embed(f, target)
            assert str(caught.value) == str(frozen)
            raised += 1
            continue
        got = embed(f, target)
        assert got.ring is target or got is f
        assert got == want and list(got.terms.items()) == list(want.terms.items())
    assert 50 < raised < 250


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


@pytest.mark.parametrize(
    "data",
    [{"field": "Q", "vars": "xy"}, {"field": "Q", "vars": None},
     {"field": "Q"}, {"vars": ["x"]}, ["Q", ["x"]], None, "Q"],
)
def test_ring_json_of_the_wrong_shape_is_refused(data):
    with pytest.raises(BadParameters):
        Ring.from_json(data)


@pytest.mark.parametrize("names", [["x", "2y"], [1, 2], ["x", None]])
def test_ring_json_with_bad_names_is_a_parse_error(names):
    with pytest.raises(ParseError):
        Ring.from_json({"field": "Q", "vars": names})


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


# Each entry point refuses an argument of the wrong type with BadParameters,
# or a polynomial of another ring with RingMismatch, never with a bare
# AttributeError.


def test_exact_div_refuses_a_non_polynomial():
    x = ring("x").var("x")
    with pytest.raises(BadParameters):
        exact_div(x, 3)
    with pytest.raises(BadParameters):
        exact_div(3, x)
    with pytest.raises(RingMismatch):
        exact_div(x, ring("y").var("y"))


def test_embed_refuses_a_non_polynomial_or_a_non_ring():
    R = ring("x y")
    with pytest.raises(BadParameters):
        embed(3, R)
    with pytest.raises(BadParameters):
        embed(R.var("x"), "R")


@pytest.mark.parametrize("names", ["xy", None, 3], ids=repr)
def test_ring_class_refuses_a_string_or_a_non_collection_of_names(names):
    # a string would be read as names of one letter: the variables x and y
    with pytest.raises(BadParameters):
        Ring(names)


@pytest.mark.parametrize("names", [None, 3], ids=repr)
def test_ring_refuses_a_non_collection_of_names(names):
    with pytest.raises(BadParameters):
        ring(names)
    assert ring("x y").names == ring(["x", "y"]).names == ("x", "y")


@pytest.mark.parametrize("images", [None, [("x", "y")], "x"], ids=repr)
def test_substitution_refuses_images_that_are_not_a_dict(images):
    R = ring("x y")
    with pytest.raises(BadParameters):
        Substitution(R, R, images)


def test_substitution_refuses_a_non_polynomial_image_or_a_non_ring():
    R, S = ring("x y"), ring("x y z")
    with pytest.raises(BadParameters):
        Substitution(R, S, {"x": 3})
    with pytest.raises(BadParameters):
        Substitution(R, "S", {})
    with pytest.raises(RingMismatch):
        Substitution(R, S, {"x": R.var("x")})


def test_substitution_refuses_an_argument_that_is_not_a_polynomial():
    R = ring("x y")
    sub = Substitution(R, R, {})
    for bad in (3, "x", None, (R.var("x"),)):
        with pytest.raises(BadParameters):
            sub(bad)
    with pytest.raises(RingMismatch):
        sub(ring("x y z").var("x"))


@pytest.mark.parametrize("later", [3, None, "x", {}], ids=repr)
def test_substitution_composes_only_with_a_substitution(later):
    R = ring("x y")
    with pytest.raises(BadParameters):
        Substitution(R, R, {}).then(later)
    # a substitution between other rings is a mismatch, not a bad parameter
    with pytest.raises(RingMismatch):
        Substitution(R, R, {}).then(Substitution(ring("x y z"), R, {"z": "x"}))


# --- the substitution kernel against the frozen loop -----------------------


def _same_terms(sub, f):
    """sub(f) equals the frozen loop's result, its terms in the same stored
    order, which the cache keys of ``rings.encode_terms`` read."""
    got, want = sub(f), oracle_substitute(sub, f)
    assert got == want and list(got.terms.items()) == list(want.terms.items())
    return got


def _random_poly(rng, R, max_terms=5, max_exp=3):
    """Random polynomial, small int coefficients, exponents up to max_exp."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in R.names)
        terms[mono] = terms.get(mono, 0) + rng.randint(-9, 9)
    return Polynomial._reduced(R, terms)


def _random_image(rng, S):
    """One image in S: a target variable y, 2*y or -y when S has
    variables, else (and also then) a constant, zero or a polynomial."""
    kinds = ["const", "zero", "poly"] + (["rename"] * 3 + ["double", "negated"] if S.names else [])
    kind = rng.choice(kinds)
    if kind == "rename":
        return S.var(rng.choice(S.names))
    if kind in ("double", "negated"):
        return S.var(rng.choice(S.names)) * (2 if kind == "double" else -1)
    if kind == "const":
        return S.const(rng.randint(1, 9))
    return S.zero() if kind == "zero" else _random_poly(rng, S, max_terms=3, max_exp=2)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("target_vars", [0, 1, 2, 3])
def test_substitution_matches_the_frozen_loop(field, target_vars):
    # itemgetter gives a scalar for one index and refuses none, so the
    # target rings of 0 and 1 variables take the gather's other branch
    rng = random.Random(f"substitution/{field!r}/{target_vars}")
    S = Ring(["u", "v", "w"][:target_vars], field)
    for _ in range(40):
        R = Ring(["x", "y", "z", "t"][:rng.randint(1, 4)], field)
        sub = Substitution(R, S, {n: _random_image(rng, S) for n in R.names})
        for _ in range(4):
            _same_terms(sub, _random_poly(rng, R))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_substitution_corner_images(field):
    R, S = Ring(["x", "y", "z"], field), Ring(["u", "v"], field)
    f = R.parse("x^3*y^2*z + 2*x*y^3 - x^2*z^2 + 5*y + 1")
    # two sources renamed to one target: the second is multiplied in
    both = Substitution(R, S, {"x": "u", "y": "u", "z": "v"})
    assert _same_terms(both, R.parse("x^2*y")) == S.parse("u^3")
    _same_terms(both, f)
    # 2*u and -u are not renames; an odd power of -u keeps its sign
    scaled = Substitution(R, S, {"x": "2*u", "y": "-u", "z": "v"})
    assert _same_terms(scaled, R.parse("x*y^3")) == S.parse("-2*u^4")
    _same_terms(scaled, f)
    # constant and zero images
    flat = Substitution(R, S, {"x": "3", "y": "0", "z": "u"})
    assert _same_terms(flat, f) == S.parse("-9*u^2 + 1")
    # multi-term images met at exponent 2 and 3
    dense = Substitution(R, S, {"x": "u + v", "y": "u - 2*v + 1", "z": "u*v"})
    assert _same_terms(dense, R.parse("x^3")) == S.parse("u^3 + 3*u^2*v + 3*u*v^2 + v^3")
    _same_terms(dense, f)
    # a rename into a target variable of another position
    swapped = Substitution(R, S, {"x": "v", "y": "u", "z": "u + v"})
    assert _same_terms(swapped, R.parse("x^2*y")) == S.parse("u*v^2")
    _same_terms(swapped, f)


# --- exact byte strings ----------------------------------------------------

_ENCODED_FIELDS = [QQ, PrimeField(7), PrimeField(1000003)]


@st.composite
def _polynomial_lists(draw):
    """A ring of 0-3 variables over one of the fields, and a list of its
    polynomials: exponents up to past two bytes, coefficients that are
    large ints and Fractions over Q, any element over F_p."""
    field = draw(st.sampled_from(_ENCODED_FIELDS))
    R = ring(["a", "b", "c"][:draw(st.integers(0, 3))], field)
    exponent = st.one_of(st.integers(0, 3), st.integers(250, 260), st.integers(0, 70000))
    if field == QQ:
        coeff = st.one_of(st.integers(-10 ** 30, 10 ** 30), st.fractions().filter(bool))
    else:
        coeff = st.integers(1, field.char - 1)
    term = st.tuples(st.tuples(*[exponent] * R.nvars), coeff)
    polys = draw(st.lists(st.lists(term, max_size=4), max_size=4))
    return R, [Polynomial._reduced(R, dict(terms)) for terms in polys]


@settings(max_examples=300, deadline=None)
@given(_polynomial_lists())
def test_encoded_terms_decode_to_the_same_polynomials(case):
    R, polys = case
    data = encode_terms(polys)
    back = decode_terms(R, data)
    assert back == tuple(polys) and encoded_count(data) == len(polys)
    # each keeps its stored term order and its coefficients' types
    assert [list(p.terms.items()) for p in back] == [list(p.terms.items()) for p in polys]
    assert [list(map(type, p.terms.values())) for p in back] == [list(map(type, p.terms.values())) for p in polys]


def test_encoded_terms_differ_where_one_byte_per_exponent_would_not():
    R = ring("x y")
    x, y = R.vars()
    polys = [x ** 256, R.one(), x ** 257, x, x ** 65536, y ** 256, x * y ** 0,
             R.const(Fraction(1, 2)) * x, R.const(2) * x, R.const(-2) * x]
    encoded = {encode_terms([f]) for f in polys}
    assert len(encoded) == len(set(polys)) == len(polys) - 1
    assert encode_terms([x, y]) != encode_terms([y, x]) != encode_terms([x * y])
    assert ring_bytes(ring("x y")) != ring_bytes(ring("x y", PrimeField(7))) != ring_bytes(ring("xy"))


# --- the grevlex byte codec of the packing -----------------------------------


def _weights_pack(pk, a):
    """The packing's defining formula: C + sum(a_i * weights[i])."""
    return pk.C + sum(e * w for e, w in zip(a, pk.weights))


def _weights_unpack(pk, p):
    return tuple((p ^ pk.C) >> s & (1 << pk.width) - 1 for s in pk.slots)


@st.composite
def _grevlex_packings_and_monomials(draw):
    """A grevlex packing of 0-40 variables at width 8 to 128, and monomials
    of degree at most its M: all zero, one exponent at M, degree M spread
    over the variables, or any degree."""
    n = draw(st.integers(0, 40))
    pk = _Packing(("grevlex", n), draw(st.sampled_from([8, 16, 32, 64, 128])))
    monomials = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.sampled_from([0, pk.M]) | st.integers(0, pk.M)) if n else 0
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=max(n - 1, 0), max_size=max(n - 1, 0))))
        monomials.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))[:n])
    return pk, monomials


@settings(max_examples=400, deadline=None)
@given(_grevlex_packings_and_monomials())
def test_grevlex_codec_gives_the_weights_ints(case):
    pk, monomials = case
    for a in monomials:
        assert sum(a) <= pk.M
        p = pk.pack(a)
        assert p == _weights_pack(pk, a)
        assert pk.unpack(p) == _weights_unpack(pk, p) == a
    assert pk.pack_terms(dict.fromkeys(monomials, 1)) == {_weights_pack(pk, a): 1 for a in monomials}


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_grevlex_codec_at_the_largest_field_value(width, n):
    pk = _Packing(("grevlex", n), width)
    # the byte codec serves the grevlex packings of whole-byte widths, the
    # array widths on little-endian hosts only
    assert ("_grevlex_codec" in pk.pack.__qualname__) == (
        width == 8 or sys.byteorder == "little" and width <= 64)
    M = pk.M
    edges = [(0,) * n] + [(0,) * i + (M,) + (0,) * (n - 1 - i) for i in range(n)]
    edges.append(tuple(M // n + (i < M % n) for i in range(n)))
    for a in edges:
        assert pk.pack(a) == _weights_pack(pk, a) and pk.unpack(pk.pack(a)) == a
    # degree M + 1 does not pack, in one variable or spread over several
    for a in [(M + 1,) + (0,) * (n - 1), (M,) + (1,) * (n > 1) + (0,) * (n - 2)]:
        if sum(a) > M:
            with pytest.raises(_Overflow):
                pk.pack_terms({a: 1, (0,) * n: 1})


@pytest.mark.parametrize("width", [16, 32, 64])
def test_big_endian_hosts_keep_the_weights_at_array_widths(monkeypatch, width):
    monkeypatch.setattr(sys, "byteorder", "big")
    pk = _Packing(("grevlex", 5), width)
    assert "_grevlex_codec" not in pk.pack.__qualname__
    a = (1, 0, 3, 2, 0)
    assert pk.pack(a) == _weights_pack(pk, a) and pk.unpack(pk.pack(a)) == a
    assert "_grevlex_codec" in _Packing(("grevlex", 5), 8).pack.__qualname__


@pytest.mark.parametrize("width", [8, 16, 32, 64])
@pytest.mark.parametrize("spec", [("lex", 5), ("elim", 5, (1, 3)), ("elim", 5, ()), ("grevlex", 0)])
def test_other_packings_keep_the_weights(spec, width):
    pk = _Packing(spec, width)
    assert "_grevlex_codec" not in pk.pack.__qualname__
    rng = random.Random(f"{spec}/{width}")
    for _ in range(50):
        a = tuple(rng.randint(0, 3) for _ in range(spec[1]))
        assert pk.pack(a) == _weights_pack(pk, a) and pk.unpack(pk.pack(a)) == a
