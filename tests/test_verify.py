"""Membership, equality, radicals, saturation, subspaces, standing facts."""

from collections import OrderedDict

import pytest

from detsing.blowup import Center, make_chart, strict_transform_ideal, strict_transform_poly
from detsing.errors import BadParameters, RingMismatch
from detsing.fields import QQ, PrimeField
from detsing.groebner import groebner
from detsing.matrices import (
    Ideal,
    determinant,
    generic_skew,
    generic_sym,
    minors_ideal,
    pfaffian,
)
from detsing import verify
from detsing.rings import ring
from detsing.verify import (
    check_fact,
    containment_witness,
    coordinate_subspace,
    default_fields,
    groebner_of,
    ideal_contains,
    ideal_equal,
    radical_member,
    saturate,
    verdict,
)


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


def test_groebner_of_caches(R):
    I = Ideal(R, [R.var("x")])
    assert groebner_of(I) is groebner_of(I)


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
    monkeypatch.setattr(verify, "_GB_CACHE_SIZE", 3)
    x, y, _ = R.vars()
    ideals = [Ideal(R, [x ** k - y]) for k in range(1, 5)]
    for I in ideals[:3]:
        groebner_of(I)
    first = groebner_of(ideals[0])  # a hit refreshes its entry
    groebner_of(ideals[3])  # evicts ideals[1], the least recently used
    assert list(cache) == [(ideals[2], None), (ideals[0], None), (ideals[3], None)]
    assert groebner_of(ideals[0]) is first
    # a saturation's hand-over is an insert like any other
    S = saturate(Ideal(R, [x * y]), x)
    assert list(cache) == [(ideals[3], None), (ideals[0], None), (S, None)]
    assert groebner_of(S).polys == (y,)


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
