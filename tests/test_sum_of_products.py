"""Differential tests: ``rings.sum_of_products`` and the determinant routes
built on it against the frozen loops in ``oracles`` (Bareiss numerators,
cofactor expansion and pfaffian expansion on Polynomial ``*``, ``+``, ``-``).

A sum of products is a unique polynomial, so every route must return the
same term map as its frozen loop, over Q and over prime fields. The edge
cases pin the packing widths: a matrix is packed at the narrowest of 8,
16, 32, ... bits whose largest field value holds its degree bound 2*n*d,
and a ring without variables packs every monomial to the same int.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsing.fields import QQ, PrimeField
from detsing.matrices import (
    GenericMatrix,
    MinorCache,
    _packed_rows,
    determinant,
    generic_skew,
    generic_sym,
    minors,
    minors_ideal,
    pfaffian,
    triangle,
)
from detsing.rings import Polynomial, _packing_for, ring, sum_of_products

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


def wide_matrix(kind, m, d, field):
    """The m x m matrix of the kind with t^d * x_i_j + 1 at each triangle
    position (i, j), whose Bareiss numerators hold high powers of t."""
    positions = triangle(m, kind)
    R = ring(["t"] + [f"x_{i + 1}_{j + 1}" for i, j in positions], field)
    t = R.var("t")
    entries = {(i, j): t ** d * R.var(f"x_{i + 1}_{j + 1}") + 1 for i, j in positions}
    return GenericMatrix.from_triangle(R, m, entries, kind)


@pytest.mark.parametrize("field", (QQ, PrimeField(101)), ids=("QQ", "F101"))
@pytest.mark.parametrize("kind, m, d", [("general", 3, 10000), ("sym", 3, 10000), ("skew", 4, 6000)])
def test_routes_past_sixteen_bit_fields_match_frozen_loops(kind, m, d, field):
    # 2*m*(d+1) passes 32767, the largest field value at 16 bits, so the
    # matrix is packed at 32; m*(d+1) does not, and at 16 bits a Bareiss
    # numerator's t exponent would pass it
    M = wide_matrix(kind, m, d, field)
    assert 2 * m * (d + 1) > 32767 >= m * (d + 1)
    assert _packed_rows(M)[0].width == 32
    assert_routes_match_frozen(M)


# --------------------------------------------------------------------------
# the kernel itself


def naive_sum(R, triples):
    return sum((f * g * c for c, f, g in triples), R.zero())


def packed_sum(R, triples):
    """sum_of_products of the triples' factors, packed at the narrowest
    width that holds every product, unpacked."""
    degree = max((f.total_degree() + g.total_degree() for _, f, g in triples), default=0)
    pk = _packing_for(("grevlex", R.nvars), degree)
    packed = [(c, pk.pack_terms(f.terms), pk.pack_terms(g.terms)) for c, f, g in triples]
    return Polynomial(R, pk.unpack_terms(sum_of_products(pk, R.field, packed)))


@st.composite
def triples(draw):
    """Triples with exponents up to 20000, so that some products need
    32-bit fields."""
    field = draw(st.sampled_from(FIELDS))
    R = ring("x y", field)
    poly = st.lists(
        st.tuples(st.tuples(st.integers(0, 20000), st.integers(0, 20000)), st.integers(-4, 4)),
        max_size=3,
    ).map(lambda items: sum((R.const(c) * Polynomial(R, {m: 1}) for m, c in items), R.zero()))
    return R, draw(st.lists(st.tuples(st.integers(-3, 3), poly, poly), max_size=4))


@settings(max_examples=100, deadline=None)
@given(triples())
def test_sum_of_products_matches_polynomial_arithmetic(case):
    R, ts = case
    assert packed_sum(R, ts).terms == naive_sum(R, ts).terms


def test_products_past_sixteen_bit_fields():
    R = ring("x y")
    for name in ("x", "y"):
        half = R.parse(f"{name}^20000")
        assert packed_sum(R, [(1, half, half)]) == R.parse(f"{name}^40000")
        assert packed_sum(R, [(-2, half, R.parse(f"{name}^20000 + x"))]) == R.parse(
            f"-2*{name}^40000 - 2*x*{name}^20000"
        )
    # the narrowest width whose largest field value 2^(W-1) - 1 holds the degree
    widths = {d: _packing_for(("grevlex", 2), d).width for d in (0, 127, 128, 32767, 40000)}
    assert widths == {0: 8, 127: 8, 128: 16, 32767: 16, 40000: 32}


def test_zero_factors_are_skipped():
    R = ring("x y")
    x200 = R.parse("x^200")
    assert packed_sum(R, [(1, R.zero(), R.zero())]) == R.zero()
    assert packed_sum(R, [(0, x200, x200), (1, R.zero(), x200)]) == R.zero()
    assert packed_sum(R, []) == R.zero()


@pytest.mark.parametrize("c", [True, Fraction(1, 2), 1.0])
def test_sum_of_products_refuses_non_int_coefficients(c):
    R = ring("x y")
    with pytest.raises(TypeError):
        packed_sum(R, [(c, R.parse("x"), R.parse("y"))])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_ring_without_variables(field):
    R = ring([], field)
    two, five = R.const(2), R.const(5)
    assert packed_sum(R, [(3, two, five), (-1, R.one(), R.const(30))]) == R.zero()
    assert packed_sum(R, [(1, two, five), (1, R.one(), R.one())]) == R.const(11)
    # every routine on a matrix of constants: all monomials pack to one int
    for kind, m in (("general", 3), ("sym", 3), ("skew", 4)):
        entries = {p: R.const(3 * i - 5) for i, p in enumerate(triangle(m, kind))}
        assert_routes_match_frozen(GenericMatrix.from_triangle(R, m, entries, kind), every_minor=True)


# --------------------------------------------------------------------------
# one table, many requests


def generic_general(m, field):
    """The m x m matrix with its own variable x_i_j at every position."""
    positions = triangle(m, "general")
    R = ring([f"x_{i + 1}_{j + 1}" for i, j in positions], field)
    return GenericMatrix.from_triangle(R, m, {(i, j): R.var(f"x_{i + 1}_{j + 1}") for i, j in positions}, "general")


MAKERS = {"sym": generic_sym, "skew": generic_skew, "general": generic_general}


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("QQ", "F7"))
@pytest.mark.parametrize("kind, m", [(kind, m) for kind in MAKERS for m in range(1, 6)])
def test_one_table_answers_every_level_then_the_determinant(kind, m, field):
    # a table asked for the levels in any order, each twice, and then for
    # the determinant gives what a fresh table gives each request, in the
    # same generator order, and what the frozen expansion gives
    M = MAKERS[kind](m, field)
    levels = list(range(m + 1)) * 2
    random.Random(f"{kind}/{m}/{field.char}").shuffle(levels)
    table, frozen = MinorCache(M), FrozenMinorCache(M)
    for r in levels:
        assert table.ideal(r).gens == minors_ideal(M, r).gens == frozen_minor_gens(frozen, r)
    det = table.determinant()
    assert det.terms == determinant(M).terms == frozen_cofactor(M).terms
