"""Differential tests: the Gröbner kernel and exact division against the
frozen copies in ``oracles`` (the kernel before support masks, the complete
Gebauer-Moeller update, direct heap keys and heap division), and the pair
bookkeeping against the frozen update before its mask pretests and
deletion marks.

Reduced bases are unique, so the two kernels must return equal tuples;
normal forms against a reduced basis are unique too. The pair bookkeeping
must do more: pop the same live pairs in the same order.
"""

import heapq
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsing.fields import QQ, PrimeField
from detsing.groebner import _reduce_terms, elimination_order, grevlex_order, groebner, lex_order
from detsing.matrices import generic_skew, generic_sym, minors_ideal
from detsing.rings import Polynomial, Ring, embed, exact_div, m_divides, m_mask, ring

from .oracles import gm_oracle_groebner, oracle_exact_div, oracle_groebner, oracle_normal_form

engine = importlib.import_module("detsing.groebner")

FIELDS = (QQ, PrimeField(7), PrimeField(101))
FIELD_IDS = ("QQ", "F7", "F101")


def _orders(R):
    return {"grevlex": grevlex_order(R), "elim": elimination_order(R, [R.names[0]])}


def _random_poly(rng, R, max_terms=5, max_deg=3):
    f = R.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = R.one() * rng.randint(-9, 9)
        for _ in range(rng.randint(0, max_deg)):
            term = term * R.var(rng.choice(R.names))
        f = f + term
    return f


def _assert_same_kernel(gens, order, rng, normal_forms=4):
    basis = groebner(gens, order)
    assert basis.polys == oracle_groebner(gens, order)
    R = gens[0].ring
    for _ in range(normal_forms):
        f = _random_poly(rng, R)
        assert basis.reduce(f) == oracle_normal_form(f, basis.polys, order)


@pytest.mark.parametrize("order_name", ["grevlex", "elim"])
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize(
    "kind, m",
    [(k, m) for k in ("sym", "skew") for m in (2, 3, 4, 5)],
    ids=[f"{k}{m}" for k in ("sym", "skew") for m in (2, 3, 4, 5)],
)
def test_minor_ideals_match_frozen_kernel(kind, m, field, order_name):
    M = (generic_sym if kind == "sym" else generic_skew)(m, field)
    rng = random.Random(m)
    for j in range(1, m + 1):
        gens = minors_ideal(M, j).gens
        if gens:
            _assert_same_kernel(gens, _orders(M.ring)[order_name], rng)


def _cubics(field):
    x, y, z = ring("x y z", field).vars()
    return [x ** 3 - y * z ** 2, y ** 3 - x * z ** 2, z ** 3 - x ** 2 * y, x * y * z - 1]


def _with_inverse(gens, u):
    """I + <1 - t*u> in the ring with a fresh first variable t."""
    R = u.ring
    ext = Ring(["t"] + list(R.names), R.field)
    out = [embed(g, ext) for g in gens]
    out.append(ext.one() - ext.var("t") * embed(u, ext))
    return out


def _saturation_inputs(field):
    sym4 = generic_sym(4, field)
    skew5 = generic_skew(5, field)
    sym3 = generic_sym(3, field)
    return [
        _with_inverse(minors_ideal(sym4, 3).gens, sym4.ring.var("x_1_1")),
        _with_inverse(minors_ideal(sym4, 3).gens, minors_ideal(sym4, 2).gens[0]),
        _with_inverse(minors_ideal(skew5, 4).gens, skew5.ring.var("x_1_2")),
        _with_inverse(minors_ideal(sym3, 2).gens, sym3.ring.var("x_2_3")),
        _with_inverse(_cubics(field), _cubics(field)[0].ring.var("x")),
    ]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_cubics_and_saturations_match_frozen_kernel(field):
    rng = random.Random(5)
    for order in _orders(_cubics(field)[0].ring).values():
        _assert_same_kernel(_cubics(field), order, rng)
    for gens in _saturation_inputs(field):
        for order in _orders(gens[0].ring).values():
            _assert_same_kernel(gens, order, rng)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_random_ideals_match_frozen_kernel(field):
    rng = random.Random(20261018)
    for names in ("x y z", "a b c d"):
        R = ring(names, field)
        orders = dict(_orders(R), lex=lex_order(R))
        for _ in range(8):
            gens = [_random_poly(rng, R, max_deg=3) for _ in range(rng.randint(1, 4))]
            if all(g.is_zero() for g in gens):
                continue
            for order in orders.values():
                _assert_same_kernel(gens, order, rng)


def test_remainder_starts_with_its_leading_monomial():
    # groebner() takes the first key of each remainder as its leading
    # monomial, and GroebnerBasis takes the finished basis's as given.
    rng = random.Random(11)
    M = generic_sym(4)
    for order in _orders(M.ring).values():
        basis = groebner(minors_ideal(M, 3).gens, order)
        assert basis.leading_monomials() == [max(p.terms, key=order.key) for p in basis.polys]
        for _ in range(20):
            f = _random_poly(rng, M.ring, max_terms=8)
            rem = list(_reduce_terms(f.terms, basis._gens, order, M.ring.field, 10 ** 6))
            assert rem == sorted(rem, key=order.key, reverse=True)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_exact_division_matches_frozen_division(field):
    rng = random.Random(7)
    R = ring("x y z w", field)
    checked_raise = 0
    for _ in range(60):
        g = _random_poly(rng, R, max_terms=4)
        if g.is_zero():
            continue
        q = _random_poly(rng, R, max_terms=6)
        f = q * g
        assert exact_div(f, g) == oracle_exact_div(f, g) == q
        r = _random_poly(rng, R, max_terms=2, max_deg=2)
        bad = f + r
        try:
            expected = oracle_exact_div(bad, g)
        except ValueError:
            with pytest.raises(ValueError):
                exact_div(bad, g)
            checked_raise += 1
        else:
            assert exact_div(bad, g) == expected
    assert checked_raise >= 10


def _monomial_pairs():
    exps = st.integers(min_value=0, max_value=3)
    return st.integers(min_value=1, max_value=80).flatmap(
        lambda n: st.tuples(st.tuples(*[exps] * n), st.tuples(*[exps] * n))
    )


@settings(max_examples=300, deadline=None)
@given(_monomial_pairs())
def test_mask_never_rejects_a_divisor(pair):
    a, d = pair
    b = tuple(x + y for x, y in zip(a, d))
    for lo, hi in ((a, b), (a, d), (d, a)):
        if m_divides(lo, hi):
            assert not (m_mask(lo) & ~m_mask(hi))


def test_mask_sets_one_bit_per_variable():
    assert m_mask((0, 2, 0, 1)) == 0b1010
    assert m_mask((0,) * 70) == 0
    assert m_mask((1,) * 70) == (1 << 64) - 1


class _PopRecorder:
    """Stands in for the engine's heapq module and records each live pair
    that groebner() pops, as (priority, lcm, g.age, h.age). Pair entries are
    the heap's lists [priority, lcm, lcm mask, g, h], with g None once dead;
    the reducer's entries are tuples."""

    heappush = staticmethod(heapq.heappush)
    heapify = staticmethod(heapq.heapify)

    def __init__(self):
        self.popped = []
        self.dead = 0

    def heappop(self, heap):
        item = heapq.heappop(heap)
        if type(item) is list:
            priority, lcm, _, g, h = item
            if g is None:
                self.dead += 1
            else:
                self.popped.append((priority, lcm, g.age, h.age))
        return item


def _assert_same_traversal(gens, order):
    """groebner(gens, order) pops the live pairs the frozen update pops, in
    the same order, and ends with the same working and reduced bases.
    Returns the recorder."""
    recorder = _PopRecorder()
    engine.heapq = recorder
    try:
        basis = groebner(gens, order)
    finally:
        engine.heapq = heapq
    polys, lms, popped = gm_oracle_groebner(gens, order)
    assert recorder.popped == popped
    assert basis.leading_monomials() == lms
    assert basis.polys == polys
    return recorder


_TRAVERSAL_IDEALS = [("sym", m) for m in (2, 3, 4)] + [("skew", m) for m in (2, 3, 4, 5)]


@pytest.mark.parametrize("order_name", ["grevlex", "elim"])
@pytest.mark.parametrize("field", FIELDS[:2], ids=FIELD_IDS[:2])
@pytest.mark.parametrize(
    "kind, m", _TRAVERSAL_IDEALS, ids=[f"{k}{m}" for k, m in _TRAVERSAL_IDEALS]
)
def test_minor_ideals_keep_the_frozen_traversal(kind, m, field, order_name):
    M = (generic_sym if kind == "sym" else generic_skew)(m, field)
    for j in range(1, m + 1):
        gens = minors_ideal(M, j).gens
        if gens:
            _assert_same_traversal(gens, _orders(M.ring)[order_name])


def test_saturations_keep_the_frozen_traversal():
    # inputs whose traversals prune old pairs, so dead entries are popped
    dead = 0
    for gens in _saturation_inputs(QQ):
        for order in _orders(gens[0].ring).values():
            dead += _assert_same_traversal(gens, order).dead
    assert dead > 0


# inhomogeneous polynomials in x, y, z: up to three terms of degree <= 3
_TERMS = st.lists(
    st.tuples(
        st.integers(-4, 4).filter(bool),
        st.tuples(*[st.integers(0, 3)] * 3).filter(lambda mono: sum(mono) <= 3),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(FIELDS[:2]),
    st.sampled_from(["grevlex", "elim"]),
    st.lists(_TERMS, min_size=1, max_size=4),
)
def test_random_inhomogeneous_inputs_keep_the_frozen_traversal(field, order_name, raw):
    R = ring("x y z", field)
    gens = []
    for terms in raw:
        acc: dict = {}
        for c, mono in terms:
            acc[mono] = acc.get(mono, 0) + c
        gens.append(Polynomial._reduced(R, acc))
    _assert_same_traversal(gens, _orders(R)[order_name])


def test_pair_sharing_a_variable_past_the_mask_is_not_coprime():
    # The support mask sees the first 64 variables only: v1*v65 and v0*v65
    # have disjoint masks but share v65, so their pair must still be formed.
    # Treated as coprime, it would be dropped and the basis would miss v0 - v1.
    R = ring(" ".join(f"v{i}" for i in range(70)))
    v0, v1, v65 = R.var("v0"), R.var("v1"), R.var("v65")
    gens = [v0 * v65 - 1, v1 * v65 - 1]
    lms = [g.leading(grevlex_order(R).key)[0] for g in gens]
    assert not (m_mask(lms[0]) & m_mask(lms[1]))
    recorder = _assert_same_traversal(gens, grevlex_order(R))
    # seeds: v1*v65 - 1 is age 0, v0*v65 - 1 age 1
    assert (0, 1) in [(g_age, h_age) for *_, g_age, h_age in recorder.popped]
    assert set(groebner(gens).polys) == {v0 - v1, v1 * v65 - 1}
    assert groebner(gens).polys == oracle_groebner(gens, grevlex_order(R))
