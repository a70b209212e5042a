"""Membership, equality, radicals, saturation, subspaces, standing facts."""

from collections import OrderedDict
from fractions import Fraction

import pytest

from detsing.blowup import Center, make_chart, strict_transform_ideal, strict_transform_poly
from detsing.errors import BadParameters, RingMismatch
from detsing.fields import QQ, PrimeField, field_name
from detsing.groebner import GroebnerBasis, groebner
from detsing.matrices import (
    Ideal,
    determinant,
    generic_skew,
    generic_sym,
    minors_ideal,
    pfaffian,
)
from detsing import matrices, verify
from detsing.resolution import (
    _basis_witness,
    _radical_identification_verdict,
    _rewrite_consistency_verdict,
    resolve_sym,
)
from detsing.rings import Polynomial, decode_terms, encode_terms, ring, ring_bytes
from detsing.verify import (
    check_embedded_resolution,
    check_fact,
    check_leaf,
    containment_witness,
    coordinate_subspace,
    decide_equal,
    equal_by_cover,
    groebner_of,
    ideal_contains,
    ideal_equal,
    radical_member,
    saturate,
    verdict,
)

from . import default_fields


@pytest.fixture
def R():
    return ring("x y z")


def test_ideal_contains_basics(R):
    x, y, z = R.vars()
    I = Ideal(R, [x ** 2 - y ** 3, x ** 2 - z ** 5])
    assert ideal_contains(I, y ** 3 - z ** 5)
    assert ideal_contains(I, R.zero())
    assert not ideal_contains(I, x)
    with pytest.raises(RingMismatch):
        ideal_contains(I, ring("q").var("q"))


def test_membership_counterexample_after_blowup(R):
    # strict transforms of the two generators do not span the transform of h
    T = ring("xp yp zp")
    Ip = Ideal(T, [T.parse("xp^2 - yp^3*zp"), T.parse("xp^2 - zp^3")])
    hp = T.parse("yp^3 - zp^2")
    assert not ideal_contains(Ip, hp)
    w = containment_witness(Ip, hp)
    assert w is not None and not w.is_zero()
    assert containment_witness(Ip, T.parse("xp^2 - yp^3*zp")) is None


def test_ideal_equal(R):
    x, y, z = R.vars()
    assert ideal_equal(Ideal(R, [x + y, y]), Ideal(R, [x, y]))
    assert not ideal_equal(Ideal(R, [x]), Ideal(R, [x ** 2]))
    assert ideal_equal(Ideal(R, [R.zero()]), Ideal(R, []))


def _forbid_groebner(monkeypatch):
    """Make every groebner() call of verify fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("groebner() called on a cache hit")
    monkeypatch.setattr(verify, "groebner", forbidden)


def test_groebner_of_caches(R, monkeypatch):
    I = Ideal(R, [R.var("x")])
    first = groebner_of(I)
    _forbid_groebner(monkeypatch)
    again = groebner_of(I)
    assert again.polys == first.polys
    assert again.leading_monomials() == first.leading_monomials()


def test_radical_membership(R):
    x, y, _ = R.vars()
    assert radical_member(x, Ideal(R, [x ** 2]))
    assert not radical_member(y, Ideal(R, [x]))
    assert radical_member(x + y, Ideal(R, [(x + y) ** 7]))
    # fresh-variable hygiene: a ring that already uses the name t
    Rt = ring("t u")
    t, u = Rt.vars()
    assert radical_member(t, Ideal(Rt, [t ** 3 * u]))is False
    assert radical_member(t * u, Ideal(Rt, [t ** 3 * u ** 2]))


def test_three_minors_in_radical_of_det():
    A4 = generic_skew(4)
    I = Ideal(A4.ring, [determinant(A4)])
    pf = pfaffian(A4)
    for mu in minors_ideal(A4, 3).gens:
        # each 3-minor is ±x_{i,j}·pf, so its square lies in ⟨det⟩
        assert radical_member(mu, I)
    assert not radical_member(A4.ring.var("x_1_2"), I)
    assert radical_member(pf, I)


def test_saturation(R):
    x, y, z = R.vars()
    eps = x  # any variable works as the unit
    assert ideal_equal(saturate(Ideal(R, [eps * y]), eps), Ideal(R, [y]))
    I = Ideal(R, [x * y - x * z])
    assert ideal_equal(saturate(I, x), Ideal(R, [y - z]))
    assert ideal_equal(saturate(I, R.one()), I)
    with pytest.raises(BadParameters):
        saturate(I, R.zero())
    # a unit from another ring is refused as such, even when it is zero
    for other in (ring("q").var("q"), ring("q").zero()):
        with pytest.raises(RingMismatch):
            saturate(I, other)
        with pytest.raises(RingMismatch):
            radical_member(other, I)
    # fresh-variable hygiene: a ring that already uses the name t
    Rt = ring("t u")
    t, u = Rt.vars()
    assert ideal_equal(saturate(Ideal(Rt, [t * u, t ** 2]), u), Ideal(Rt, [t]))


def test_saturation_clears_exceptional_powers(R):
    x, y, z = R.vars()
    I = Ideal(R, [x ** 3 * (y - z), x * y ** 2])
    S = saturate(I, x)
    assert ideal_equal(S, Ideal(R, [y - z, y ** 2]))


def _fresh_basis(I):
    # groebner refuses an empty generator list; the zero ideal's basis is ()
    return groebner(list(I.gens)).polys if I.gens else ()


def _offdiag_identity_ideals(m):
    """The strict transforms of the j-minors of the generic symmetric
    m-matrix in the x_1_2 chart, with that chart's unit eps."""
    B = generic_sym(m)
    ch = make_chart(Center(B.ring, B.ring.names), "x_1_2")
    a11, a22 = (strict_transform_poly(B.ring.var(n), ch)[1] for n in ("x_1_1", "x_2_2"))
    eps = ch.target.one() - a11 * a22
    return [strict_transform_ideal(minors_ideal(B, j), ch) for j in range(2, m + 1)], eps


@pytest.mark.parametrize("m", [3, 4])
def test_saturation_hands_over_its_reduced_basis(m):
    ideals, eps = _offdiag_identity_ideals(m)
    for I in ideals:
        S = saturate(I, eps)
        assert groebner_of(S).polys == _fresh_basis(S) == S.gens


def test_saturation_hand_over_unit_and_zero(R):
    x, y, _ = R.vars()
    unit = saturate(Ideal(R, [x * y]), x * y)
    assert groebner_of(unit).polys == _fresh_basis(unit) == (R.one(),)
    zero = saturate(Ideal(R, []), x)
    assert groebner_of(zero).polys == _fresh_basis(zero) == ()


def test_basis_cache_is_a_bounded_lru(R, monkeypatch):
    cache = OrderedDict()
    monkeypatch.setattr(verify, "_GB_CACHE", cache)
    x, y, _ = R.vars()
    ideals = [Ideal(R, [x ** k - y]) for k in range(1, 5)]
    keys = [verify._entry(I) for I in ideals]
    for I in ideals[:3]:
        groebner_of(I)
    # a budget of exactly these three entries; the fourth is as large
    held = sum(len(k) + len(v) for k, v in cache.items())
    monkeypatch.setattr(verify, "_GB_CACHE_BUDGET", held)
    first = groebner_of(ideals[0])  # a hit refreshes its entry
    groebner_of(ideals[3])  # evicts ideals[1], the least recently used
    assert list(cache) == [keys[2], keys[0], keys[3]]
    assert sum(len(k) + len(v) for k, v in cache.items()) == held
    _forbid_groebner(monkeypatch)
    assert groebner_of(ideals[0]).polys == first.polys
    monkeypatch.undo()
    # a saturation's hand-over is an insert like any other: the saturation
    # and then its basis, both most recently used
    monkeypatch.setattr(verify, "_GB_CACHE", cache)
    S = saturate(Ideal(R, [x * y]), x)
    assert list(cache)[-2:] == [verify._entry(Ideal(R, [x * y]), x), verify._entry(S)]
    _forbid_groebner(monkeypatch)
    assert groebner_of(S).polys == (y,)


# --- the cache's exact keys --------------------------------------------------


def _key_decodes_to(I):
    """The generators a basis key of I encodes, read back from the key."""
    key = verify._entry(I)
    head = b"G" + ring_bytes(I.ring)
    assert key.startswith(head)
    return decode_terms(I.ring, key[len(head):])


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(1000003)], ids=["Q", "F7", "F1000003"])
def test_cache_keys_encode_the_ideal_exactly(field):
    R = ring("x y z", field)
    x, y, z = R.vars()
    half = R.const(Fraction(1, 2)) if field == QQ else R.const(field.char - 1)
    gens = [x ** 256 * y - z, half * x ** 70000 + y ** 255, R.one()]
    for I in (Ideal(R, gens), Ideal(R, gens[::-1]), Ideal(R, []), Ideal(R, [R.zero()])):
        assert _key_decodes_to(I) == I.gens
    # an equal ring built again gives the same key; generator order is kept
    again = ring("x y z", field)
    assert verify._entry(Ideal(again, [again.parse(str(g)) for g in gens])) == verify._entry(Ideal(R, gens))
    assert verify._entry(Ideal(R, gens)) != verify._entry(Ideal(R, gens[::-1]))


def test_cache_keys_tell_apart_what_a_lossy_encoding_would_merge():
    # fields, exponents past one byte, Fraction coefficients, generator order
    ideals = []
    for field in (QQ, PrimeField(5), PrimeField(7)):
        R = ring("x y", field)
        x, y = R.vars()
        ideals += [Ideal(R, [x - y]), Ideal(R, [x ** 256 - y]), Ideal(R, [R.one() - y]),
                   Ideal(R, [x ** 257 - y]), Ideal(R, [x ** 2 - y]), Ideal(R, [x, y]), Ideal(R, [y, x])]
    for c in (Fraction(1, 2), Fraction(-1, 2), 2, Fraction(2, 1), Fraction(1, 3), 6):
        R = ring("x y")
        ideals.append(Ideal(R, [R.const(c) * R.var("x") - R.var("y")]))
    distinct = {}
    for I in ideals:
        distinct.setdefault(verify._entry(I), I)
    # equal keys only for equal ideals: Fraction(2, 1) is the int 2
    assert all(verify._entry(I) in distinct and distinct[verify._entry(I)] == I for I in ideals)
    assert len(distinct) == len(ideals) - 1
    # the saturation keys differ from every basis key and from each other
    R = ring("x y")
    x, y = R.vars()
    I = Ideal(R, [x * y])
    sat_keys = {verify._entry(I, x), verify._entry(I, y), verify._entry(Ideal(R, [x * y, x]), None)}
    assert len(sat_keys) == 3 and not sat_keys & set(distinct)


# the basis keys of (x*y - 2, y^3) and of the zero ideal in Q[x, y],
# F_7[x, y] and F_101[x, y]
FROZEN_IDEAL_KEYS = {
    "Q": (b"GQ|x,y|2|2,1,4|\x01\x01\x00\x001,-21,1,b|\x00\x03\x01", b"GQ|x,y|0|"),
    "Fp:7": (b"GFp:7|x,y|2|2,1,b|\x01\x01\x00\x00\x01\x051,1,b|\x00\x03\x01", b"GFp:7|x,y|0|"),
    "Fp:101": (b"GFp:101|x,y|2|2,1,b|\x01\x01\x00\x00\x01c1,1,b|\x00\x03\x01", b"GFp:101|x,y|0|"),
}


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101)], ids=["Q", "F7", "F101"])
def test_an_ideal_builds_its_frozen_key_once(monkeypatch, field):
    R = ring("x y", field)
    x, y = R.vars()
    I, zero = Ideal(R, [x * y - 2, y ** 3]), Ideal(R, [])
    assert (I.cache_id, zero.cache_id) == FROZEN_IDEAL_KEYS[field_name(field)]
    assert I.cache_id == b"G" + ring_bytes(R) + encode_terms(I.gens)
    # the key is kept by its ideal, and each ideal builds its own
    encoded = []
    monkeypatch.setattr(matrices, "encode_terms", lambda polys: encoded.append(polys) or encode_terms(polys))
    assert verify._entry(I) is I.cache_id and verify._entry(zero, x)[1:].startswith(zero.cache_id)
    assert encoded == []
    assert Ideal(R, [y ** 3]).cache_id == b"G" + ring_bytes(R) + encode_terms((y ** 3,)) and len(encoded) == 1


@pytest.mark.parametrize("warm", [False, True], ids=["miss", "hit"])
def test_a_saturation_carries_the_key_of_its_generators(monkeypatch, warm):
    monkeypatch.setattr(verify, "_GB_CACHE", OrderedDict())
    R = ring("x y z", PrimeField(7))
    x, y, z = R.vars()
    I = Ideal(R, [x * y, x * z])
    if warm:
        saturate(I, x)
    S = saturate(I, x)
    assert S.gens == groebner([y, z]).polys
    assert S.cache_id == Ideal(R, S.gens).cache_id
    # the saturation's basis is filed under that key, and not under I's
    assert verify._GB_CACHE[S.cache_id] == verify._basis_bytes(groebner(list(S.gens)))
    assert I.cache_id not in verify._GB_CACHE


def test_cached_bases_answer_for_their_own_ideal():
    # a hit returns the basis of the ideal asked about, never a neighbour's
    verify._GB_CACHE.clear()
    R = ring("x y", PrimeField(7))
    x, y = R.vars()
    asked = [Ideal(R, [x ** e - y, y ** 2]) for e in (0, 1, 255, 256, 257)]
    fresh = [groebner(list(I.gens)).polys for I in asked]
    for _ in range(2):
        assert [groebner_of(I).polys for I in asked] == fresh


def test_saturation_hit_makes_no_groebner_call(R, monkeypatch):
    x, y, z = R.vars()
    I = Ideal(R, [x ** 3 * (y - z), x * y ** 2])
    first = saturate(I, x)
    # the basis of the result may have been evicted; a hit enters it again
    del verify._GB_CACHE[verify._entry(first)]
    _forbid_groebner(monkeypatch)
    again = saturate(I, x)
    assert again == first
    assert list(verify._GB_CACHE)[-2:] == [verify._entry(I, x), verify._entry(first)]
    assert groebner_of(again).polys == again.gens


def test_cache_stays_within_its_byte_budget(R, monkeypatch):
    cache = OrderedDict()
    monkeypatch.setattr(verify, "_GB_CACHE", cache)
    monkeypatch.setattr(verify, "_GB_CACHE_BUDGET", 200)
    x, y, z = R.vars()
    for k in range(1, 30):
        I = Ideal(R, [x ** k - y * z, y ** k - z])
        groebner_of(I)
        saturate(I, x)
        held = sum(len(key) + len(value) for key, value in cache.items())
        assert held <= 200 and verify._held == [cache, held]
    # an entry larger than the budget is not kept
    big = Ideal(R, [sum((x ** i * y ** (9 - i) for i in range(10)), R.zero())] * 10)
    groebner_of(big)
    assert verify._entry(big) not in cache


# Every public entry point refuses what is not an Ideal or a Polynomial with
# BadParameters, through one shared check, rather than failing on a missing
# attribute.


def test_radical_member_refuses_a_non_polynomial_or_non_ideal(R):
    x = R.var("x")
    with pytest.raises(BadParameters):
        radical_member(5, Ideal(R, [x]))
    with pytest.raises(BadParameters):
        radical_member(x, [x])
    with pytest.raises(RingMismatch):
        radical_member(ring("q").var("q"), Ideal(R, [x]))


def test_ideal_contains_refuses_a_non_polynomial(R):
    with pytest.raises(BadParameters):
        ideal_contains(Ideal(R, [R.var("x")]), 3)


def test_containment_witness_refuses_a_non_polynomial(R):
    with pytest.raises(BadParameters):
        containment_witness(Ideal(R, [R.var("x")]), "x")


def test_ideal_equal_refuses_a_non_ideal(R):
    x = R.var("x")
    with pytest.raises(BadParameters):
        ideal_equal(Ideal(R, [x]), [x])
    with pytest.raises(BadParameters):
        ideal_equal(None, Ideal(R, [x]))


def test_saturate_refuses_a_non_polynomial(R):
    with pytest.raises(BadParameters):
        saturate(Ideal(R, [R.var("x")]), 2)


def test_ideal_refuses_non_polynomial_generators(R):
    x = R.var("x")
    with pytest.raises(BadParameters):
        Ideal(R, [3])
    with pytest.raises(BadParameters):
        Ideal(R, [x, "y"])
    with pytest.raises(RingMismatch):
        Ideal(R, [x, ring("q").var("q")])


def test_equal_by_cover_refuses_a_non_ideal_or_another_ring(R):
    x = R.var("x")
    with pytest.raises(BadParameters):
        verify.equal_by_cover([x], Ideal(R, [x]))
    with pytest.raises(RingMismatch):
        verify.equal_by_cover(Ideal(ring("q"), []), Ideal(R, []))


def test_coordinate_subspace_refuses_a_non_ideal():
    with pytest.raises(BadParameters):
        coordinate_subspace(3)


def test_ideal_refuses_a_non_collection_of_generators(R):
    with pytest.raises(BadParameters):
        Ideal(R, 3)


def test_coordinate_subspace(R):
    x, y, _ = R.vars()
    assert coordinate_subspace(Ideal(R, [y ** 2 - y ** 2, x])) == {"x"}
    assert coordinate_subspace(Ideal(R, [x + y, y])) == {"x", "y"}
    assert coordinate_subspace(Ideal(R, [x ** 2])) is None
    assert coordinate_subspace(Ideal(R, [x + 1])) is None
    assert coordinate_subspace(Ideal(R, [x - y])) is None
    assert coordinate_subspace(Ideal(R, [])) == set()


def test_subspace_after_minor_strict_transform():
    B3 = generic_sym(3)
    ch = make_chart(Center(B3.ring, B3.ring.names), "x_1_1")
    st = strict_transform_ideal(minors_ideal(B3, 2), ch)
    # not coordinates as written, but the certificate sees through reduction
    assert coordinate_subspace(st) is None  # xp_2_2 - xp_1_2^2 is no variable
    y34 = Ideal(ring("y_3_4 e"), [ring("y_3_4 e").var("y_3_4")])
    assert coordinate_subspace(y34) == {"y_3_4"}


def test_check_fact_f1_f3():
    for fld in default_fields():
        assert check_fact("F1", 3, fld)
        assert check_fact("F1", 5, fld)
        assert check_fact("F3", 2, fld)
        assert check_fact("F3", 4, fld)
    with pytest.raises(BadParameters):
        check_fact("F1", 4)
    with pytest.raises(BadParameters):
        check_fact("F3", 3)
    with pytest.raises(BadParameters):
        check_fact("zzz", 3)
    with pytest.raises(BadParameters):
        check_fact(3, 3)
    # sizes that name no matrix are refused, not answered
    for fact, m in (("F1", -3), ("F3", -2), ("F3", 0), ("F1", 3.0), ("F2", -4),
                    ("F1", True)):
        with pytest.raises(BadParameters):
            check_fact(fact, m, l=1)


@pytest.mark.parametrize("fact, m", [("F1", 3), ("F3", 4)])
def test_f1_and_f3_refuse_a_minor_level(fact, m):
    # l plays no part in F1 or F3, so a stray one is an error, not an input
    for l in (1, 0, "2"):
        with pytest.raises(BadParameters, match="no minor level"):
            check_fact(fact, m, l=l)
    assert check_fact(fact, m, l=None)


@pytest.mark.parametrize("field", ["Q", None, PrimeField])
def test_check_fact_refuses_a_non_field(field):
    with pytest.raises(BadParameters):
        check_fact("F1", 3, field)


def test_check_fact_f2_m4():
    assert check_fact("F2", 4, QQ, l=2)
    assert check_fact("Eq2l", 4, PrimeField(7), l=2)
    with pytest.raises(BadParameters):
        check_fact("F2", 4)
    with pytest.raises(BadParameters):
        check_fact("F2", 4, QQ, l=3)
    with pytest.raises(BadParameters):
        check_fact("F2", 4, QQ, l=True)


def test_verdict_shape():
    v = verdict("demo", {"m": 3}, True)
    assert v == {"check": "demo", "inputs": {"m": 3}, "pass": True}
    w = verdict("demo", {}, False, witness="x")
    assert w["witness"] == "x" and not w["pass"]


class _Leaf:
    def __init__(self, strict_ideal, units=(), exceptional=(), node_id="leaf"):
        self.strict_ideal = strict_ideal
        self.units = list(units)
        self.exceptional_names = list(exceptional)
        self.node_id = node_id


class _Report:
    def __init__(self, leaves, root_id="root"):
        self._leaves = leaves
        self.root_id = root_id

    def leaves(self):
        return list(self._leaves)


def test_check_embedded_resolution_shapes():
    from detsing.verify import check_embedded_resolution, check_leaf

    R2 = ring("y e")
    y, e = R2.vars()
    good = _Leaf(Ideal(R2, [y]), exceptional=["e"])
    assert check_leaf(good)["pass"]

    tangent = _Leaf(Ideal(R2, [y]), exceptional=["y"])  # meets its own divisor
    assert not check_leaf(tangent)["pass"]

    singular = _Leaf(Ideal(R2, [y ** 2]), exceptional=["e"])
    assert not check_leaf(singular)["pass"]

    empty = _Leaf(Ideal(R2, [y * e - 1, y]), exceptional=["e"])
    v = check_leaf(empty)
    assert v["pass"] and v["empty_in_chart"]

    # units get inverted before the subspace test
    eps_leaf = _Leaf(Ideal(R2, [(1 - e) * y]), units=[R2.one() - e], exceptional=["e"])
    assert check_leaf(eps_leaf)["pass"]

    report = _Report([good, empty])
    agg = check_embedded_resolution(report)
    assert agg["pass"] and len(agg["leaves"]) == 2
    bad = check_embedded_resolution(_Report([good, singular]))
    assert not bad["pass"]


def test_the_leaf_checks_refuse_what_is_not_a_leaf_or_a_report():
    interior = resolve_sym(3, 3, check="none").nodes[0]
    for bad in (3, None, interior, _Leaf(None), _Leaf([ring("y").var("y")])):
        with pytest.raises(BadParameters):
            check_leaf(bad)
    for bad in (3, None, [interior]):
        with pytest.raises(BadParameters):
            check_embedded_resolution(bad)
    with pytest.raises(BadParameters):
        check_embedded_resolution(_Report([interior]))


# --- one read of each cached basis per check ---------------------------------


def _count_decodes(monkeypatch):
    """A list that collects the body of every cached value verify decodes."""
    bodies = []

    def counted(ring_, data):
        bodies.append(data)
        return decode_terms(ring_, data)

    monkeypatch.setattr(verify, "decode_terms", counted)
    return bodies


def test_check_fact_f2_reads_each_cached_basis_once(monkeypatch):
    assert check_fact("F2", 5, l=2)
    bodies = _count_decodes(monkeypatch)
    assert check_fact("F2", 5, l=2)
    # the 4-minor and the 3-minor ideal: one read each, however many
    # generators they test
    assert len(bodies) == len(set(bodies)) <= 2


def test_radical_identification_reads_each_cached_basis_once(monkeypatch):
    A = generic_skew(5)
    first = _radical_identification_verdict(A, True)
    bodies = _count_decodes(monkeypatch)
    assert _radical_identification_verdict(A, True) == first
    assert first["pass"] and len(bodies) == len(set(bodies)) <= 2


def test_check_leaf_reads_its_saturated_basis_once(monkeypatch):
    report = resolve_sym(3, 3, all_charts=True, check="none")
    leaves = [check_leaf(leaf) for leaf in report.leaves()]
    bodies = _count_decodes(monkeypatch)
    assert [check_leaf(leaf) for leaf in report.leaves()] == leaves
    # a saturation hit reads its value, and the last one is the leaf's
    # basis; a leaf without units reads its basis once
    saturations = sum(len(leaf.units) for leaf in report.leaves())
    assert len(bodies) <= saturations + sum(not leaf.units for leaf in report.leaves())


def _stored_reversed(basis):
    """The cache value of the same basis with each element's terms stored in
    reverse order."""
    R = basis.ring
    polys = tuple(Polynomial(R, dict(reversed(p.terms.items()))) for p in basis.polys)
    return verify._basis_bytes(GroebnerBasis(R, basis.order, polys, basis.leading_monomials()))


def test_cover_compares_cached_bytes_then_decodes(R, monkeypatch):
    # a cache of its own: J is entered under bases that are not its own
    monkeypatch.setattr(verify, "_GB_CACHE", OrderedDict())
    x, y, z = R.vars()
    I = Ideal(R, [x ** 2 - y * z, x * y - z ** 2, y ** 2 - x * z])
    J = Ideal(R, [x * y - z ** 2, y ** 2 - x * z, x ** 2 - y * z])
    other = Ideal(R, [x ** 2 - y * z, x * y - z ** 2])
    G = groebner_of(I)
    # equal bytes: True with nothing decoded
    verify._remember(verify._entry(J), verify._GB_CACHE[verify._entry(I)])
    bodies = _count_decodes(monkeypatch)
    assert equal_by_cover(J, I) and bodies == []
    # the same basis stored in another term order: other bytes, equal bases
    value = _stored_reversed(G)
    assert value != verify._GB_CACHE[verify._entry(I)] and any(len(p.terms) > 1 for p in G.polys)
    verify._remember(verify._entry(J), value)
    assert equal_by_cover(J, I) and len(bodies) == 2
    # another ideal's basis cached under J decides False
    verify._remember(verify._entry(J), verify._basis_bytes(groebner(list(other.gens))))
    assert not equal_by_cover(J, I)


def test_basis_witness_size_is_the_same_on_a_hit_and_a_miss(R):
    x, y, z = R.vars()
    cubics = Ideal(R, [x ** a * y ** b * z ** (3 - a - b) for a in range(4) for b in range(4 - a)])
    for I in (Ideal(R, [x ** 3 - y, x * y - z, y ** 2]), cubics, Ideal(R, []), Ideal(R, [R.one(), x])):
        size = len(_fresh_basis(I))
        verify._GB_CACHE.pop(verify._entry(I), None)
        assert _basis_witness(I, False) == {"basis_size": size}
        assert verify._entry(I) in verify._GB_CACHE
        assert _basis_witness(I, False) == {"basis_size": size}
        full = _basis_witness(I, True)
        assert full["basis_size"] == size == len(full["basis"])


def test_ideal_equal_compares_cached_bytes_then_decodes(R, monkeypatch):
    monkeypatch.setattr(verify, "_GB_CACHE", OrderedDict())
    x, y, z = R.vars()
    I = Ideal(R, [x ** 2 - y * z, x * y - z ** 2, y ** 2 - x * z])
    J = Ideal(R, [x * y - z ** 2, y ** 2 - x * z, x ** 2 - y * z])
    G = groebner_of(I)
    verify._remember(verify._entry(J), verify._GB_CACHE[verify._entry(I)])
    bodies = _count_decodes(monkeypatch)
    assert ideal_equal(I, J) and bodies == []
    # the same basis stored in another term order: both are decoded
    verify._remember(verify._entry(J), _stored_reversed(G))
    assert ideal_equal(I, J) and len(bodies) == 2
    assert not ideal_equal(I, Ideal(R, [x ** 2 - y * z, x * y - z ** 2]))


def test_rewrite_consistency_reads_the_relations_basis_once(monkeypatch):
    report = resolve_sym(4, 4, check="none")
    child = report.node("root/X_1_2")
    assert child.relations
    first = _rewrite_consistency_verdict(child)
    bodies = _count_decodes(monkeypatch)
    assert _rewrite_consistency_verdict(child) == first
    assert first["pass"] and len(bodies) == 1


def test_decide_equal_reads_a_cached_saturation_before_the_cover(R, monkeypatch):
    x, y, z = R.vars()
    eps = R.one() - x * y
    J, I = Ideal(R, [eps * z, eps ** 2 * x]), Ideal(R, [z, x])
    I = saturate(I, eps)
    # J is not I, so the cover fails and the saturation decides
    assert decide_equal(J, I, eps) == (True, saturate(J, eps))
    forbidden = []
    monkeypatch.setattr(verify, "equal_by_cover", lambda *args: forbidden.append(args))
    assert decide_equal(J, I, eps) == (True, saturate(J, eps)) and forbidden == []
    assert decide_equal(I, I, None) == (True, I) and len(forbidden) == 1
    for bad in ((None, I, eps), (J, I, 3), (J, Ideal(ring("x y"), []), None)):
        with pytest.raises((BadParameters, RingMismatch)):
            decide_equal(*bad)


def test_check_fact_f2_packs_its_matrix_once(monkeypatch):
    # one minor table serves both minor levels
    packed = []
    real = matrices._packed_rows
    monkeypatch.setattr(matrices, "_packed_rows", lambda M: packed.append(M) or real(M))
    assert check_fact("F2", 5, l=2) and len(packed) == 1
