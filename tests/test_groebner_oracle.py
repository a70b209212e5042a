"""Differential tests: the Gröbner kernel and exact division against the
frozen copies in ``oracles`` (the kernel before support masks, the complete
Gebauer-Moeller update, direct heap keys and heap division), and the pair
bookkeeping against the frozen update before its mask pretests and
deletion marks, and the packed lcm, divisibility test and support masks
of the pair update against the tuple lcm, divisibility and exponent
masks.

Reduced bases are unique, so the two kernels must return equal tuples;
normal forms against a reduced basis are unique too. The pair bookkeeping
must do more: pop the same live pairs in the same order.
"""

import heapq
import importlib
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsing import verify
from detsing.fields import QQ, PrimeField
from detsing.groebner import elimination_order, grevlex_order, groebner, lex_order
from detsing.matrices import Ideal, generic_skew, generic_sym, minors_ideal
from detsing.rings import Polynomial, Ring, embed, exact_div, ring

from .oracles import (
    _coprime,
    _frozen_key,
    _m_divides,
    _m_lcm,
    gm_oracle_groebner,
    oracle_exact_div,
    oracle_groebner,
    oracle_normal_form,
)

engine = importlib.import_module("detsing.groebner")
rings = importlib.import_module("detsing.rings")

FIELDS = (QQ, PrimeField(7), PrimeField(101))
FIELD_IDS = ("QQ", "F7", "F101")
SATURATION_FIELDS = (QQ, PrimeField(3), PrimeField(7), PrimeField(101))
SATURATION_FIELD_IDS = ("QQ", "F3", "F7", "F101")


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


def _saturation_pairs(field):
    """(generators of I, u) for saturations (I : u^∞)."""
    sym4 = generic_sym(4, field)
    skew5 = generic_skew(5, field)
    sym3 = generic_sym(3, field)
    return [
        (minors_ideal(sym4, 3).gens, sym4.ring.var("x_1_1")),
        (minors_ideal(sym4, 3).gens, minors_ideal(sym4, 2).gens[0]),
        (minors_ideal(skew5, 4).gens, skew5.ring.var("x_1_2")),
        (minors_ideal(sym3, 2).gens, sym3.ring.var("x_2_3")),
        (_cubics(field), _cubics(field)[0].ring.var("x")),
    ]


def _saturation_inputs(field):
    return [_with_inverse(gens, u) for gens, u in _saturation_pairs(field)]


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
    # monomial, and GroebnerBasis takes the finished basis's as given; a
    # remainder keeps its terms largest first when it is unpacked.
    rng = random.Random(11)
    M = generic_sym(4)
    for order in _orders(M.ring).values():
        basis = groebner(minors_ideal(M, 3).gens, order)
        key = _frozen_key(order.spec)
        assert basis.leading_monomials() == [max(p.terms, key=key) for p in basis.polys]
        for _ in range(20):
            f = _random_poly(rng, M.ring, max_terms=8)
            rem = list(basis.reduce(f).terms)
            assert rem == sorted(rem, key=key, reverse=True)


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


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_exact_division_past_sixteen_bit_fields(field):
    # degrees past 32767, the largest field value at 16 bits, are divided
    # at 32 bits; a non-multiple still raises
    x, y, z = ring("x y z", field).vars()
    g = x ** 20000 - 3 * y ** 5 * z + 1
    for q in (x ** 15000 * y - z ** 2, y ** 30000 + x * z, x ** 20000 + 2):
        f = q * g
        assert f.total_degree() > 32767
        assert exact_div(f, g) == oracle_exact_div(f, g) == q
        for bad in (f + x ** 20000 * y, f - z, f * x + y ** 40000):
            with pytest.raises(ValueError):
                oracle_exact_div(bad, g)
            with pytest.raises(ValueError):
                exact_div(bad, g)
    with pytest.raises(ValueError):
        exact_div(x ** 30000, x ** 40000)


def _ring_of(n):
    return ring(" ".join(f"v{i}" for i in range(n)))


def _exponent_mask(pk, a):
    """The support mask of exponent tuple a, on the packed layout of pk: the
    guard bit of the field that holds variable i, for each i that occurs."""
    return sum(1 << pk.slots[i] + pk.width - 1 for i, e in enumerate(a) if e)


def _blocks(order):
    """The variable blocks of an order whose degrees each have a field."""
    kind, n = order.spec[:2]
    if kind == "lex":
        return [(i,) for i in range(n)]
    front = order.spec[2] if kind == "elim" else ()
    return [b for b in (front, tuple(i for i in range(n) if i not in front)) if b]


def _monomial(rng, n, pool, M):
    """A monomial of degree <= M in n variables, most of it on the pool."""
    e = [0] * n
    d = rng.randint(0, M) if rng.random() < 0.9 else 0
    picks = [rng.choice(pool) if rng.random() < 0.8 else rng.randrange(n) for _ in range(rng.randint(1, 4))]
    cuts = sorted(rng.randint(0, d) for _ in picks[1:])
    for i, lo, hi in zip(picks, [0] + cuts, cuts + [d]):
        e[i] += hi - lo
    return tuple(e)


_PACKED_ORDERS = {
    "grevlex": grevlex_order,
    "elim1": lambda R: elimination_order(R, [R.names[-1]]),
    # a front block of several variables spread over the ring
    "elim": lambda R: elimination_order(R, R.names[1::7][:4] or R.names),
    "lex": lex_order,
}


@pytest.mark.parametrize("n", [1, 18, 28, 70, 130])
@pytest.mark.parametrize("width", [4, 8, 16])
@pytest.mark.parametrize("kind", list(_PACKED_ORDERS))
def test_packed_lcm_and_mask_match_the_tuple_ones(kind, width, n):
    # Pairs of monomials of degree <= M over a few shared variables, so
    # that lcms with a block degree past M, which must raise _Overflow,
    # and lcms that pack both occur.
    order = _PACKED_ORDERS[kind](_ring_of(n))
    pk = rings._Packing(order.spec, width)
    rng = random.Random(f"{kind}/{width}/{n}")
    blocks = _blocks(order)
    seen = {"packed": 0, "overflow": 0, "coprime": 0, "divides": 0}
    for _ in range(150):
        pool = rng.sample(range(n), rng.randint(1, min(n, 5)))
        a, b = (_monomial(rng, n, pool, pk.M) for _ in range(2))
        pa, pb = pk.pack(a), pk.pack(b)
        lcm = _m_lcm(a, b)
        if all(sum(lcm[i] for i in block) <= pk.M for block in blocks):
            assert pk.lcm(pa, pb) == pk.lcm(pb, pa) == pk.pack(lcm)
            assert pk.unpack(pk.lcm(pa, pb)) == lcm
            seen["packed"] += 1
        else:
            for x, y in ((pa, pb), (pb, pa)):
                with pytest.raises(rings._Overflow):
                    pk.lcm(x, y)
            seen["overflow"] += 1
        assert pk.lcm(pa, pa) == pa
        ma, mb = pk.mask(pa), pk.mask(pb)
        assert ma == _exponent_mask(pk, a) and mb == _exponent_mask(pk, b)
        assert (not (ma & mb)) == _coprime(a, b)
        seen["coprime"] += _coprime(a, b)
        # the guard-bit divisibility test of the pair update, and the mask
        # never rejects a divisor
        for lo, hi in ((a, b), (b, a), (a, lcm), (b, lcm)):
            if all(sum(hi[i] for i in block) <= pk.M for block in blocks):
                divides = (pk.pack(lo) - pk.pack(hi) + pk.K) & pk.GV == pk.GC
                assert divides == _m_divides(lo, hi)
                if divides:
                    assert not (pk.mask(pk.pack(lo)) & ~pk.mask(pk.pack(hi)))
                    seen["divides"] += lo != hi
    assert seen["packed"] >= 20 and seen["divides"] >= 20 and seen["coprime"] >= 5
    # an lcm of x^a and x^b is x^max(a, b), and lex bounds each exponent
    assert seen["overflow"] >= 10 or kind == "lex" or n == 1


def test_lcm_past_the_largest_field_value_overflows():
    # at 4 bits M is 7: x^4 and y^4 have an lcm of degree 8, in the one
    # grevlex block, in the front block of the first elimination order and
    # in the back block of the second
    R = ring("x y z w")
    x4, y4, z4 = (4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0)
    for order in (grevlex_order(R), elimination_order(R, ["x", "y"]), elimination_order(R, ["z", "w"])):
        pk = rings._Packing(order.spec, 4)
        with pytest.raises(rings._Overflow):
            pk.lcm(pk.pack(x4), pk.pack(y4))
    # a block order bounds each block alone: x^4 * z^4 packs
    pk = rings._Packing(elimination_order(R, ["x", "y"]).spec, 4)
    assert pk.unpack(pk.lcm(pk.pack(x4), pk.pack(z4))) == (4, 0, 4, 0)
    # lex bounds each exponent alone: no lcm of packed monomials passes M
    pk = rings._Packing(lex_order(R).spec, 4)
    assert pk.unpack(pk.lcm(pk.pack((7, 7, 7, 7)), pk.pack((1, 2, 3, 4)))) == (7, 7, 7, 7)


@st.composite
def _orders_and_monomial_pairs(draw):
    """An order of a ring of 1 to 6 variables (grevlex, lex, or an
    elimination order of a random front block, the empty one included), a
    packing width, and two monomials that fit it: total degree at most M."""
    n = draw(st.integers(min_value=1, max_value=6))
    R = _ring_of(n)
    kind = draw(st.sampled_from(["grevlex", "lex", "elim"]))
    if kind == "elim":
        front = draw(st.permutations(R.names))[:draw(st.integers(min_value=0, max_value=n))]
        order = elimination_order(R, front)
    else:
        order = grevlex_order(R) if kind == "grevlex" else lex_order(R)
    width = draw(st.sampled_from([8, 16]))
    # small exponents make ties in degree and in single fields common
    top = draw(st.sampled_from([2, ((1 << width - 1) - 1) // n]))
    exps = st.tuples(*[st.integers(min_value=0, max_value=top)] * n)
    return order, width, draw(exps), draw(exps)


@settings(max_examples=400, deadline=None)
@given(_orders_and_monomial_pairs())
def test_packed_order_is_the_reference_order(case):
    # The packing is the library's only definition of each order; the
    # frozen sort key is the independent one it must agree with.
    order, width, a, b = case
    pk = rings._Packing(order.spec, width)
    key = _frozen_key(order.spec)
    assert (pk.pack(a) < pk.pack(b)) == (key(a) < key(b))
    assert (pk.pack(a) == pk.pack(b)) == (a == b)


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
    pk = rings._Packing(grevlex_order(_ring_of(len(a))).spec, engine._WIDTH)
    mask = {m: pk.mask(pk.pack(m)) for m in (a, b, d)}
    for lo, hi in ((a, b), (a, d), (d, a)):
        if _m_divides(lo, hi):
            assert not (mask[lo] & ~mask[hi])


def test_mask_sets_one_bit_per_variable():
    pk = rings._Packing(grevlex_order(ring("x y z w")).spec, 16)
    # the fields, most significant first: deg, M - w, M - z, M - y, M - x
    assert pk.mask(pk.pack((0, 2, 0, 1))) == 1 << 4 * 16 - 1 | 1 << 2 * 16 - 1
    pk = rings._Packing(grevlex_order(_ring_of(70)).spec, 16)
    assert pk.mask(pk.pack((0,) * 70)) == 0
    everything = pk.mask(pk.pack((1,) * 70))
    assert bin(everything).count("1") == 70
    assert everything == pk.GV - (1 << 71 * 16 - 1)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 70, 130])
def test_masks_decide_coprimality_at_every_width(width):
    # Disjoint packed masks must mean coprime in any ring, also in wide
    # ones, where the pair update has no second, exponent-wise test.
    rng = random.Random(width)
    R = _ring_of(width)
    for order in (grevlex_order(R), elimination_order(R, [R.names[-1]])):
        pk = rings._Packing(order.spec, engine._WIDTH)
        for _ in range(150):
            a, b = (tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(width)) for _ in range(2))
            if rng.random() < 0.3:
                # sparse pairs, so that coprime ones occur at every width
                a = tuple(e if rng.random() < 0.1 else 0 for e in a)
                b = tuple(e if rng.random() < 0.1 else 0 for e in b)
            ma, mb = pk.mask(pk.pack(a)), pk.mask(pk.pack(b))
            assert (not (ma & mb)) == _coprime(a, b)
            assert ma == _exponent_mask(pk, a)
            ab = tuple(x + y for x, y in zip(a, b))
            for lo, hi in ((a, ab), (b, ab), (a, b)):
                if _m_divides(lo, hi):
                    assert not (pk.mask(pk.pack(lo)) & ~pk.mask(pk.pack(hi)))


class _PopRecorder:
    """Stands in for the engine's heapq module and records each live pair
    that groebner() pops, as (sugar, lcm, g.age, h.age), the lcm unpacked
    at the default width. Pair entries are the heap's lists [priority, g,
    h], with g None once dead and priority (sugar, packed lcm, g.age,
    h.age); the reducer's entries are ints."""

    heappush = staticmethod(heapq.heappush)
    heapify = staticmethod(heapq.heapify)

    def __init__(self, order):
        self.unpack = rings._Packing(order.spec, engine._WIDTH).unpack
        self.popped = []
        self.dead = 0

    def heappop(self, heap):
        item = heapq.heappop(heap)
        if type(item) is list:
            priority, g, h = item
            if g is None:
                self.dead += 1
            else:
                self.popped.append((priority[0], self.unpack(priority[1]), g.age, h.age))
        return item


def _assert_same_traversal(gens, order):
    """groebner(gens, order) pops the live pairs the frozen update pops, in
    the same order, and ends with the same working and reduced bases.
    Returns the recorder."""
    recorder = _PopRecorder(order)
    engine.heapq = recorder
    try:
        basis = groebner(gens, order)
    finally:
        engine.heapq = heapq
    polys, lms, popped, _ = gm_oracle_groebner(gens, order)
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


def _t_first_saturation(gens, u):
    """(I : u^∞) as saturate built it with t first: eliminate t from
    I + <1 - t*u> under the block order, keep the basis elements whose
    leading monomial has no t."""
    ext_gens = _with_inverse(gens, u)
    gb = groebner(ext_gens, elimination_order(ext_gens[0].ring, ["t"]))
    return tuple(embed(p, u.ring) for p, lm in zip(gb.polys, gb.leading_monomials()) if not lm[0])


def _reduce_calls(monkeypatch, run):
    """run()'s result and the sizes (terms, basis, remainder) of each
    _reduce_terms call it makes, in order."""
    calls = []
    reduce_terms = engine._reduce_terms

    def recorded(terms, basis, *rest):
        out = reduce_terms(terms, basis, *rest)
        calls.append((len(terms), len(basis), len(out)))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_reduce_terms", recorded)
        result = run()
    return result, calls


@pytest.mark.parametrize("field", SATURATION_FIELDS, ids=SATURATION_FIELD_IDS)
def test_saturation_keeps_the_t_first_traversal(field, monkeypatch):
    # saturate places t last; the block order compares the same exponents,
    # so it does the work of the t-first construction, call for call, and
    # the basis it hands to the cache has R's leading monomials.
    for gens, u in _saturation_pairs(field):
        frozen, frozen_calls = _reduce_calls(monkeypatch, lambda: _t_first_saturation(gens, u))
        out, calls = _reduce_calls(monkeypatch, lambda: verify.saturate(Ideal(u.ring, gens), u))
        assert calls == frozen_calls
        assert out.gens == frozen
        handed_over = verify.groebner_of(out)
        assert handed_over.leading_monomials() == groebner(frozen).leading_monomials()



def _f2_requests(field, monkeypatch):
    """The (generators, order) of each groebner() call that
    check_fact("F2", 4, l=2) makes from a cold basis cache."""
    asked = []

    def recording(gens, order=None, **caps):
        asked.append((list(gens), order or grevlex_order(gens[0].ring)))
        return groebner(gens, order, **caps)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "groebner", recording)
        patch.setattr(verify, "_GB_CACHE", OrderedDict())
        assert verify.check_fact("F2", 4, field, l=2)
    return asked


@pytest.mark.parametrize("field", FIELDS[:2], ids=FIELD_IDS[:2])
def test_packed_kernel_does_the_frozen_work(field, monkeypatch):
    # Every normal form of groebner() takes as many terms in, against a
    # basis as large, and leaves as many terms as the frozen tuple kernel's
    # does, call for call.
    jobs = _f2_requests(field, monkeypatch)
    for kind, m in _TRAVERSAL_IDEALS:
        M = (generic_sym if kind == "sym" else generic_skew)(m, field)
        jobs += [(minors_ideal(M, j).gens, grevlex_order(M.ring)) for j in range(1, m + 1)]
    for gens in _saturation_inputs(field):
        jobs += [(gens, order) for order in _orders(gens[0].ring).values()]
    for gens, order in jobs:
        if gens:
            _, calls = _reduce_calls(monkeypatch, lambda: groebner(gens, order))
            assert calls == gm_oracle_groebner(gens, order)[3]


@pytest.mark.parametrize("field", FIELDS[:2], ids=FIELD_IDS[:2])
def test_rabinowitsch_extensions_do_the_frozen_work(field, monkeypatch):
    # check_fact("F2", 4, l=2) now settles every 3-minor by its square, so
    # the extensions I + <1 - t*f> it used to build are run here directly.
    A = generic_skew(4, field)
    even, odd = minors_ideal(A, 4), minors_ideal(A, 3)
    for f in odd.gens:
        gens, _ = verify._rabinowitsch(even, f)
        _, calls = _reduce_calls(monkeypatch, lambda: groebner(gens))
        assert calls and calls == gm_oracle_groebner(gens, grevlex_order(gens[0].ring))[3]


def _widths(monkeypatch):
    """The list of widths of the packings the engine asks for from now on."""
    widths = []
    packing = engine._packing

    def recorded(spec, width):
        widths.append(width)
        return packing(spec, width)

    monkeypatch.setattr(engine, "_packing", recorded)
    return widths


@pytest.mark.parametrize("field", FIELDS[:2], ids=FIELD_IDS[:2])
def test_fields_too_narrow_are_redone_at_twice_the_width(field, monkeypatch):
    # At 4 bits a field holds at most 7, so the S-polynomials of these
    # ideals overflow and their calls are redone at 8 bits; the bases and
    # normal forms must not notice.
    monkeypatch.setattr(engine, "_WIDTH", 4)
    widths = _widths(monkeypatch)
    rng = random.Random(4)
    # binomials whose traversals pass 7 where one check alone sees it: in
    # a reduction step that raises the degree, in an S-polynomial
    R = ring("x y z", field)
    binomials = [["x*y^2 - x", "x*y^3 - y^6"], ["x^2*y^3 - x", "x^3*y^3 - y"],
                 ["x - y^4*z", "x^2*z - 1"], ["x - y^3", "x^3 - z"]]
    inputs = [_cubics(field)] + _saturation_inputs(field) + [list(map(R.parse, b)) for b in binomials]
    for kind, m in _TRAVERSAL_IDEALS:
        M = (generic_sym if kind == "sym" else generic_skew)(m, field)
        inputs += [minors_ideal(M, j).gens for j in range(1, m + 1)]
    for gens in filter(None, inputs):
        R = gens[0].ring
        for order in dict(_orders(R), lex=lex_order(R)).values():
            _assert_same_kernel(gens, order, rng, normal_forms=2)
    assert 4 in widths and 8 in widths


def test_degrees_past_the_default_width(monkeypatch):
    # 40000 passes the largest field value at the default width, so each
    # call starts again at twice the width
    widths = _widths(monkeypatch)
    x, y, z = ring("x y z").vars()
    gens = [x ** 40000 - y, x ** 39999 * z - 1, y ** 2 - z]
    for order in (grevlex_order(x.ring), elimination_order(x.ring, ["z"]), lex_order(x.ring)):
        basis = groebner(gens, order)
        assert basis.polys == oracle_groebner(gens, order)
        for f in (x * y ** 3 - z, y ** 3 + x * z):
            assert basis.reduce(f) == oracle_normal_form(f, basis.polys, order)
    # a basis packed at the default width repacks for a reduction that
    # does not fit it
    basis = groebner([x - y])
    assert basis.reduce(x ** 40000 * z) == y ** 40000 * z
    assert basis.reduce(x * z) == y * z
    assert set(widths) == {engine._WIDTH, 2 * engine._WIDTH}


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
    # v1*v65 and v0*v65 share v65, past the 64th variable: their masks must
    # intersect, so that their pair is formed. Treated as coprime, it would
    # be dropped and the basis would miss v0 - v1.
    R = ring(" ".join(f"v{i}" for i in range(70)))
    v0, v1, v65 = R.var("v0"), R.var("v1"), R.var("v65")
    gens = [v0 * v65 - 1, v1 * v65 - 1]
    lms = [g.leading()[0] for g in gens]
    pk = rings._Packing(grevlex_order(R).spec, engine._WIDTH)
    assert pk.mask(pk.pack(lms[0])) & pk.mask(pk.pack(lms[1]))
    recorder = _assert_same_traversal(gens, grevlex_order(R))
    # seeds: v1*v65 - 1 is age 0, v0*v65 - 1 age 1
    assert (0, 1) in [(g_age, h_age) for *_, g_age, h_age in recorder.popped]
    assert set(groebner(gens).polys) == {v0 - v1, v1 * v65 - 1}
    assert groebner(gens).polys == oracle_groebner(gens, grevlex_order(R))
