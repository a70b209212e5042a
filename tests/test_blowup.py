"""Chart construction and transforms under coordinate-subspace blow-ups."""

import random

import pytest
import sympy

from detsing.blowup import (
    Center,
    ChartMap,
    charts,
    make_chart,
    strict_transform_ideal,
    strict_transform_poly,
    total_transform,
)
from detsing.errors import (
    BadParameters,
    NonHomogeneousGenerators,
    NotInCenter,
    RingMismatch,
    UnknownVariable,
    ZeroPolynomial,
)
from detsing.groebner import groebner
from detsing.matrices import Ideal, determinant, generic_skew, generic_sym, minors_ideal
from detsing.fields import QQ, PrimeField
from detsing.rings import Polynomial, Ring, ring

from .oracles import oracle_chart_substitution, oracle_substitute, to_sympy


@pytest.fixture
def origin3():
    R = ring("x y z")
    return Center(R, ["x", "y", "z"])


def test_center_validation():
    R = ring("x y z")
    with pytest.raises(BadParameters):
        Center(R, [])
    with pytest.raises(UnknownVariable):
        Center(R, ["x", "w"])
    # duplicates collapse, order is the ring's
    assert Center(R, ["z", "x", "z"]).names == ("x", "z")


@pytest.mark.parametrize("name", [[1], {"x"}, 1, None, b"x", ("x",)], ids=repr)
def test_center_refuses_a_name_that_is_not_a_string(name):
    # an unhashable name included: each is checked before duplicates collapse
    R = ring("x y z")
    with pytest.raises(BadParameters):
        Center(R, [name])
    with pytest.raises(BadParameters):
        Center(R, ["x", name, "x"])


def test_center_names_an_unknown_variable_after_known_ones():
    R = ring("x y z")
    with pytest.raises(UnknownVariable):
        Center(R, ["z", "y", "xp"])
    assert Center(R, ("z", "y", "y")).names == ("y", "z")


def test_chart_substitution_rule():
    B2 = generic_sym(2)
    c = Center(B2.ring, B2.ring.names)
    ch = make_chart(c, "x_1_1")
    assert ch.to_json() == {
        "center_vars": ["x_1_1", "x_1_2", "x_2_2"],
        "chart_var": "x_1_1",
        "substitution": {
            "x_1_1": "x_1_1p",
            "x_1_2": "x_1_1p*x_1_2p",
            "x_2_2": "x_1_1p*x_2_2p",
        },
        "exceptional_var": "x_1_1p",
    }
    with pytest.raises(NotInCenter):
        make_chart(Center(B2.ring, ["x_1_1"]), "x_1_2")


def test_single_variable_center_is_identity_like():
    R = ring("x y")
    ch = make_chart(Center(R, ["x"]), "x")
    f = R.parse("x^2*y + y^3")
    assert str(total_transform(f, ch)) == "xp^2*yp + yp^3"
    assert ch.exceptional_var == "xp"


def test_chart_enumeration_order(origin3):
    assert [c.chart_var for c in charts(origin3)] == ["x", "y", "z"]


def test_total_transform_det_sym2():
    B2 = generic_sym(2)
    ch = make_chart(Center(B2.ring, B2.ring.names), "x_1_1")
    total = total_transform(determinant(B2), ch)
    T = ch.target
    assert total == T.parse("x_1_1p^2*x_2_2p - x_1_1p^2*x_1_2p^2")
    assert total_transform(B2.ring.one(), ch) == T.one()
    assert str(total_transform(B2.ring.var("x_1_2"), ch)) == "x_1_1p*x_1_2p"
    with pytest.raises(RingMismatch):
        total_transform(ring("q").var("q"), ch)


def test_strict_transform_det_sym2():
    B2 = generic_sym(2)
    ch = make_chart(Center(B2.ring, B2.ring.names), "x_1_1")
    k, f = strict_transform_poly(determinant(B2), ch)
    assert k == 2
    assert str(f) == "-x_1_2p^2 + x_2_2p"
    with pytest.raises(ZeroPolynomial):
        strict_transform_poly(B2.ring.zero(), ch)


def test_strict_transform_det_skew4_is_square():
    A4 = generic_skew(4)
    ch = make_chart(Center(A4.ring, A4.ring.names), "x_1_2")
    k, f = strict_transform_poly(determinant(A4), ch)
    assert k == 4
    g = ch.target.parse("x_3_4p - x_1_3p*x_2_4p + x_1_4p*x_2_3p")
    assert f == g * g


def test_homogeneous_degree_equals_exponent(origin3):
    R = origin3.ring
    x, y, z = R.vars()
    ch = make_chart(origin3, "y")
    for f, d in [(x ** 3 - 2 * z ** 3, 3), (x * y - z ** 2, 2), ((x + y + z) ** 4, 4)]:
        assert f.is_homogeneous(in_vars=origin3.names)
        assert strict_transform_poly(f, ch)[0] == d


def test_strict_transform_of_center_is_unit(origin3):
    I = Ideal(origin3.ring, [origin3.ring.var(n) for n in origin3.names])
    for ch in charts(origin3):
        st = strict_transform_ideal(I, ch)
        assert ch.target.one() in st.gens


def test_strict_transform_minors_sym3_matches_reduced_entries():
    B3 = generic_sym(3)
    ch = make_chart(Center(B3.ring, B3.ring.names), "x_1_1")
    st = strict_transform_ideal(minors_ideal(B3, 2), ch)
    T = ch.target
    reduced = [
        T.parse("x_2_2p - x_1_2p^2"),
        T.parse("x_2_3p - x_1_2p*x_1_3p"),
        T.parse("x_3_3p - x_1_3p^2"),
    ]
    assert groebner(st).polys == groebner(reduced).polys


def test_inhomogeneous_generators_rejected(origin3):
    R = origin3.ring
    I = Ideal(R, [R.parse("x^2 - y^3"), R.parse("x^2 - z^5")])
    with pytest.raises(NonHomogeneousGenerators):
        strict_transform_ideal(I, make_chart(origin3, "z"))


def test_strict_transforms_need_not_generate(origin3):
    """Generator-wise strict transforms can miss elements of the transform.

    h = g2 - g1 lies in the source ideal, but its strict transform escapes
    the ideal spanned by the generators' strict transforms in the z-chart.
    """
    R = origin3.ring
    g1, g2 = R.parse("x^2 - y^3"), R.parse("x^2 - z^5")
    h = g2 - g1
    assert h == R.parse("y^3 - z^5")
    assert groebner([g1, g2]).contains(h)

    ch = make_chart(origin3, "z")
    k1, g1p = strict_transform_poly(g1, ch)
    k2, g2p = strict_transform_poly(g2, ch)
    kh, hp = strict_transform_poly(h, ch)
    T = ch.target
    assert (k1, g1p) == (2, T.parse("xp^2 - yp^3*zp"))
    assert (k2, g2p) == (2, T.parse("xp^2 - zp^3"))
    assert (kh, hp) == (3, T.parse("yp^3 - zp^2"))
    assert not groebner([g1p, g2p]).contains(hp)


def test_chart_gluing_on_overlap():
    # both charts pull f back to the same function; check through sympy
    # rationals by undoing the chart substitutions
    R = ring("x y z")
    c = Center(R, ["x", "y"])
    f = R.parse("x^3 + x*y*z - y^2 + z^4")
    chx, chy = make_chart(c, "x"), make_chart(c, "y")
    x, y, z = sympy.symbols("x y z")
    gx = to_sympy(total_transform(f, chx), sympy.symbols("xp yp zp"))
    gy = to_sympy(total_transform(f, chy), sympy.symbols("xp yp zp"))
    fs = to_sympy(f, (x, y, z))
    xp, yp, zp = sympy.symbols("xp yp zp")
    assert sympy.simplify(gx.subs({xp: x, yp: y / x, zp: z}) - fs) == 0
    assert sympy.simplify(gy.subs({xp: x / y, yp: y, zp: z}) - fs) == 0
    # chart-to-chart: xp = xq*yq, yp = 1/xq on the overlap
    xq, yq, zq = sympy.symbols("xq yq zq")
    glued = gx.subs({xp: xq * yq, yp: 1 / xq, zp: zq})
    gy_q = gy.subs({xp: xq, yp: yq, zp: zq})
    assert sympy.simplify(glued - gy_q) == 0


def test_mixed_center_keeps_outside_variables():
    R = ring("x y z")
    ch = make_chart(Center(R, ["x", "y"]), "x")
    assert str(total_transform(R.parse("z*y + x"), ch)) == "xp*yp*zp + xp"
    k, f = strict_transform_poly(R.parse("z*y + x"), ch)
    assert (k, str(f)) == (1, "yp*zp + 1")


# Each entry point refuses an argument of the wrong type with BadParameters,
# never with a bare AttributeError.


def test_strict_transform_poly_refuses_a_non_polynomial(origin3):
    with pytest.raises(BadParameters):
        strict_transform_poly(3, make_chart(origin3, "x"))


def test_strict_transform_ideal_refuses_a_non_ideal(origin3):
    with pytest.raises(BadParameters):
        strict_transform_ideal([origin3.ring.var("x")], make_chart(origin3, "x"))


@pytest.mark.parametrize("build", [lambda c: make_chart(c, "x"), charts], ids=["make_chart", "charts"])
def test_charts_refuse_a_non_center(origin3, build):
    for center in ("x", ["x"], origin3.ring):
        with pytest.raises(BadParameters):
            build(center)


def test_total_transform_refuses_a_non_polynomial(origin3):
    chart = make_chart(origin3, "x")
    with pytest.raises(BadParameters):
        total_transform(3, chart)
    with pytest.raises(RingMismatch):
        total_transform(ring("a").var("a"), chart)


def test_center_refuses_a_non_ring():
    with pytest.raises(BadParameters):
        Center("R", ["x"])


def test_center_refuses_a_string_of_names():
    # a string would be read as names of one letter: the center of x and y
    with pytest.raises(BadParameters):
        Center(ring("xy x y"), "xy")


# Values that are not a ChartMap; each test also passes the center itself.
NOT_CHARTS = [3, None, "x"]


@pytest.mark.parametrize("chart", NOT_CHARTS)
def test_total_transform_refuses_a_non_chart(origin3, chart):
    with pytest.raises(BadParameters):
        total_transform(origin3.ring.var("x"), chart)
    with pytest.raises(BadParameters):
        total_transform(origin3.ring.var("x"), origin3)


@pytest.mark.parametrize("chart", NOT_CHARTS)
def test_strict_transform_poly_refuses_a_non_chart(origin3, chart):
    with pytest.raises(BadParameters):
        strict_transform_poly(origin3.ring.var("x"), chart)
    with pytest.raises(BadParameters):
        strict_transform_poly(origin3.ring.var("x"), origin3)


@pytest.mark.parametrize("chart", NOT_CHARTS)
def test_strict_transform_ideal_refuses_a_non_chart(origin3, chart):
    I = Ideal(origin3.ring, [origin3.ring.var("x")])
    with pytest.raises(BadParameters):
        strict_transform_ideal(I, chart)
    with pytest.raises(BadParameters):
        strict_transform_ideal(I, origin3)


# --- the chart's exponent rule against its substitution ---------------------


def _random_poly(rng, R, max_terms=6, max_exp=3):
    """Random polynomial, in general not homogeneous in any center."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in R.names)
        terms[mono] = terms.get(mono, 0) + rng.randint(-9, 9)
    return Polynomial._reduced(R, terms)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_chart_rule_matches_the_chart_substitution(field):
    # every center of one to all five variables, the proper subsets
    # included, and every chart of it; f is mostly not homogeneous in the
    # center, where a rule that drops a center variable from the degree
    # still agrees on some terms but not on all
    rng = random.Random(f"chart-rule/{field!r}")
    R = Ring(["a", "b", "c", "d", "e"], field)
    for size in range(1, 6):
        for _ in range(6):
            center = Center(R, rng.sample(R.names, size))
            for chart in charts(center):
                sub = oracle_chart_substitution(chart)
                for _ in range(3):
                    f = _random_poly(rng, R)
                    got = total_transform(f, chart)
                    want = sub(f)
                    assert got == want == oracle_substitute(sub, f)
                    assert list(got.terms.items()) == list(want.terms.items())
                    if f:
                        assert strict_transform_poly(f, chart) == want.factor_out(chart.exceptional_var)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_printed_chart_map_matches_the_chart_substitution(field):
    # every chart of random centers of one to all five variables: the chart
    # variable falls both before and after other center variables in ring
    # order, and non-center variables sit between them
    rng = random.Random(f"chart-json/{field!r}")
    R = Ring(["a", "b", "c", "d", "e"], field)
    before = after = 0
    for size in range(1, 6):
        for _ in range(8):
            center = Center(R, rng.sample(R.names, size))
            for chart in charts(center):
                sub = oracle_chart_substitution(chart)
                assert chart.target == sub.target
                assert chart.to_json() == {
                    "center_vars": list(center.names),
                    "chart_var": chart.chart_var,
                    "substitution": {n: image.format() for n, image in sub.images.items()},
                    "exceptional_var": sub.target.names[R.index[chart.chart_var]],
                }
                before += chart.chart_var != center.names[-1]
                after += chart.chart_var != center.names[0]
    assert before and after


def test_chart_rule_on_a_proper_center():
    R = ring("x y z w")
    chart = make_chart(Center(R, ["y", "w"]), "w")
    f = R.parse("x^2*y*w^3 + y^2 - z*w + 3")
    # y -> wp*yp, w -> wp, x and z renamed
    assert total_transform(f, chart) == chart.target.parse("xp^2*yp*wp^4 + yp^2*wp^2 - zp*wp + 3")
