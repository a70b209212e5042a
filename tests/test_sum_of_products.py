"""Differential tests: ``rings.sum_of_products`` and the determinant routes
built on it against the frozen loops in ``oracles`` (Bareiss numerators,
cofactor expansion and pfaffian expansion on Polynomial ``*``, ``+``, ``-``).

A sum of products is a unique polynomial, so every route must return the
same term map as its frozen loop, over Q and over prime fields. The edge
cases pin the packing bound: exponent sums up to 255 are packed, larger
ones are summed with Polynomial arithmetic.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsing.errors import RingMismatch
from detsing.fields import QQ, PrimeField
from detsing.matrices import (
    GenericMatrix,
    determinant,
    generic_skew,
    generic_sym,
    minors,
    minors_ideal,
    pfaffian,
    triangle,
)
from detsing.rings import Polynomial, ring, sum_of_products

from .oracles import FrozenMinorCache, frozen_bareiss, frozen_cofactor, frozen_pfaffian

FIELDS = (QQ, PrimeField(3), PrimeField(7), PrimeField(101))
FIELD_IDS = ("QQ", "F3", "F7", "F101")


def frozen_minor_gens(cache, r):
    """The generators of the r-minor ideal from a frozen expansion, over the
    (I, J) that ``minors_ideal`` takes (I <= J unless the matrix is general;
    test_triangle holds that to all pairs) in lexicographic order, zeros
    and sign duplicates dropped."""
    sets = list(combinations(range(cache.M.size), r))
    pairs = product(sets, repeat=2) if cache.M.kind == "general" else combinations_with_replacement(sets, 2)
    out, seen = [], set()
    for I, J in pairs:
        g = cache.minor(I, J)
        if g and g not in seen and -g not in seen:
            seen.add(g)
            out.append(g)
    return tuple(out)


def assert_routes_match_frozen(M, every_minor=False):
    """Both determinant routes, the pfaffian of an even skew matrix and the
    ideal of r-minors for every r equal the frozen loops' term maps; with
    every_minor, each single minor too."""
    assert determinant(M, "cofactor").terms == frozen_cofactor(M).terms
    assert determinant(M, "bareiss").terms == frozen_bareiss(M).terms
    if M.size % 2 == 0 and M.kind == "skew":
        assert pfaffian(M).terms == frozen_pfaffian(M).terms
    for r in range(1, M.size + 1):
        frozen = FrozenMinorCache(M)
        assert minors_ideal(M, r).gens == frozen_minor_gens(frozen, r)
        if every_minor:
            assert all(d.terms == frozen.minor(I, J).terms for I, J, d in minors(M, r))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize(
    "kind, m",
    [("sym", m) for m in range(1, 6)] + [("skew", m) for m in range(1, 8)],
)
def test_generic_routes_match_frozen_loops(kind, m, field):
    assert_routes_match_frozen((generic_sym if kind == "sym" else generic_skew)(m, field))


R_HYP = ring("x y z")


@st.composite
def small_matrices(draw):
    """A general, sym or skew matrix of size <= 4 whose entries have several
    terms, over one of the four fields (Fraction coefficients over Q)."""
    field = draw(st.sampled_from(FIELDS))
    R = ring(R_HYP.names, field)
    kind = draw(st.sampled_from(("general", "sym", "skew")))
    m = draw(st.integers(0, 4))
    coeff = st.integers(-5, 5)
    if field is QQ:
        coeff = coeff | st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def entry():
        items = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3), coeff), max_size=4))
        return sum((R.const(c) * Polynomial(R, {mono: 1}) for mono, c in items), R.zero())

    entries = {p: entry() for p in triangle(m, kind)}
    return GenericMatrix.from_triangle(R, m, entries, kind)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_small_matrices_match_frozen_loops(M):
    assert_routes_match_frozen(M, every_minor=True)


# --------------------------------------------------------------------------
# the kernel itself


def naive_sum(R, triples):
    return sum((f * g * c for c, f, g in triples), R.zero())


@st.composite
def triples(draw):
    """Triples with exponents up to 200, so that some sums pass 255."""
    field = draw(st.sampled_from(FIELDS))
    R = ring("x y", field)
    poly = st.lists(
        st.tuples(st.tuples(st.integers(0, 200), st.integers(0, 200)), st.integers(-4, 4)),
        max_size=3,
    ).map(lambda items: sum((R.const(c) * Polynomial(R, {m: 1}) for m, c in items), R.zero()))
    return R, draw(st.lists(st.tuples(st.integers(-3, 3), poly, poly), max_size=4))


@settings(max_examples=100, deadline=None)
@given(triples())
def test_sum_of_products_matches_polynomial_arithmetic(case):
    R, ts = case
    assert sum_of_products(R, ts).terms == naive_sum(R, ts).terms


@pytest.fixture
def no_polynomial_products(monkeypatch):
    """Fail any Polynomial multiplication: the kernel packed the whole sum."""

    def refuse(self, other):
        raise AssertionError("the sum fell back to Polynomial arithmetic")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr(Polynomial, "__rmul__", refuse)


def test_exponent_sum_255_is_packed(no_polynomial_products):
    R = ring("x y")
    x128 = R.parse("x^128")
    big = R.parse("x^127*y^3 + 2*x*y")
    expected = R.parse("x^255*y^3 + 2*x^129*y")
    assert sum_of_products(R, [(1, x128, big)]) == expected
    assert sum_of_products(R, [(1, big, x128)]) == expected


def test_exponent_sum_256_falls_back():
    R = ring("x y")
    for name in ("x", "y"):
        v128 = R.parse(f"{name}^128")
        assert sum_of_products(R, [(1, v128, v128)]) == R.parse(f"{name}^256")
        assert sum_of_products(R, [(-2, v128, R.parse(f"{name}^128 + x"))]) == R.parse(
            f"-2*{name}^256 - 2*x*{name}^128"
        )
    over = R.parse("x^300 + y")
    assert sum_of_products(R, [(1, over, R.parse("y"))]) == R.parse("x^300*y + y^2")


def test_zero_factors_are_skipped(no_polynomial_products):
    R = ring("x y")
    x200 = R.parse("x^200")
    assert sum_of_products(R, [(1, R.zero(), R.zero())]) == R.zero()
    assert sum_of_products(R, [(0, x200, x200), (1, R.zero(), x200)]) == R.zero()
    assert sum_of_products(R, []) == R.zero()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_ring_without_variables(field):
    R = ring([], field)
    two, five = R.const(2), R.const(5)
    assert sum_of_products(R, [(3, two, five), (-1, R.one(), R.const(30))]) == R.zero()
    assert sum_of_products(R, [(1, two, five), (1, R.one(), R.one())]) == R.const(11)


def test_sum_of_products_orders_variables_first_most_significant():
    R = ring("a b c")
    f = R.parse("a^2*b + 3*c")
    g = R.parse("b*c^4 - a")
    ts = [(1, f, g), (-5, g, R.parse("a*c"))]
    assert sum_of_products(R, ts).terms == naive_sum(R, ts).terms


def test_sum_of_products_refuses_bad_factors():
    R = ring("x y")
    x, y = R.parse("x"), R.parse("y")
    for c in (True, Fraction(1, 2), 1.0):
        with pytest.raises(TypeError):
            sum_of_products(R, [(c, x, y)])
    with pytest.raises(RingMismatch):
        sum_of_products(R, [(1, x, ring("x y z").parse("y"))])
    with pytest.raises(RingMismatch):
        sum_of_products(ring("x y", PrimeField(7)), [(1, x, y)])
