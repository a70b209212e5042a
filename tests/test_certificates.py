"""The one-basis certificates of ``verify`` against the routes they shortcut.

``equal_by_cover(J, I)`` proves J = I from I's reduced basis alone, and
``radical_member`` answers True when f² lies in I before it builds the
Rabinowitsch basis. Both only ever shortcut a True answer, so the frozen
routes in ``oracles`` (both reduced bases, the Rabinowitsch basis alone)
must reach the same verdict on every input.
"""

import importlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsing import verify
from detsing.fields import QQ, PrimeField
from detsing.groebner import _seed_loop, groebner, seed_leading_monomials
from detsing.matrices import Ideal, generic_skew, generic_sym, minors_ideal
from detsing.resolution import resolve_skew, resolve_sym
from detsing.rings import Polynomial, ring
from detsing.verify import check_fact, equal_by_cover, groebner_of, ideal_contains, radical_member

from .oracles import oracle_center_identity_verdict, oracle_radical_member

engine = importlib.import_module("detsing.groebner")
resolution = importlib.import_module("detsing.resolution")

FIELDS = (QQ, PrimeField(7))


@pytest.fixture
def R():
    return ring("x y z")


@pytest.fixture(autouse=True)
def _cold_basis_cache():
    verify._GB_CACHE.clear()


# --- equal_by_cover ----------------------------------------------------------


def test_cover_proves_equal_ideals_and_caches_the_left_side(R):
    x, y, _ = R.vars()
    J, I = Ideal(R, [x + y, y]), Ideal(R, [x, y])
    assert equal_by_cover(J, I)
    # J's entry holds I's basis
    assert verify._GB_CACHE[verify._entry(J)] == verify._GB_CACHE[verify._entry(I)]
    # a cached left side is decided by the two cached bases
    assert equal_by_cover(J, I)
    assert equal_by_cover(Ideal(R, []), Ideal(R, [R.zero()]))


def test_without_the_membership_check_a_larger_ideal_would_pass(R):
    x, y, _ = R.vars()
    J, I = Ideal(R, [x + y]), Ideal(R, [x])
    # the cover alone holds: x + y leads with x, the leading monomial of I
    assert set(groebner_of(I).leading_monomials()) <= set(seed_leading_monomials(J.gens))
    assert not ideal_contains(I, x + y)
    assert not equal_by_cover(J, I)


def test_without_the_cover_check_a_smaller_ideal_would_pass(R):
    x, _, _ = R.vars()
    J, I = Ideal(R, [x ** 2]), Ideal(R, [x])
    # membership alone holds: x² ∈ ⟨x⟩
    assert ideal_contains(I, x ** 2)
    assert not equal_by_cover(J, I)
    assert J not in verify._GB_CACHE


def test_a_failed_cover_caches_nothing(R):
    x, y, _ = R.vars()
    for J, I in ((Ideal(R, [x ** 2]), Ideal(R, [x])), (Ideal(R, [x + y]), Ideal(R, [x]))):
        assert not equal_by_cover(J, I)
        assert verify._entry(J) not in verify._GB_CACHE


def test_seed_loop_finds_leading_monomials_the_generators_lack(R):
    x, y, _ = R.vars()
    # x² + y and x² lead with x²; the seed loop reduces one by the other,
    # which leaves y, the leading monomial the raw generators do not show
    gens = [x ** 2 + y, x ** 2]
    assert set(seed_leading_monomials(gens)) == {(2, 0, 0), (0, 1, 0)}
    assert equal_by_cover(Ideal(R, gens), Ideal(R, [x ** 2, y]))


def _decides_as_the_whole_loop(gens, wanted):
    full = seed_leading_monomials(gens)
    got = _seed_loop(gens, wanted)
    # a prefix of the whole loop's monomials, which covers wanted exactly
    # when the whole loop's do
    assert got == full[:len(got)]
    assert (set(wanted) <= set(got)) == (set(wanted) <= set(full))


def _wanted_sets(rng, full, nvars):
    """Monomial sets to test a seed loop against: all, none, a prefix, a
    shuffled sample, and each of those with a monomial the loop lacks."""
    sample = rng.sample(full, rng.randint(0, len(full)))
    sets = [full, [], full[:rng.randint(1, len(full))], sample]
    stray = tuple(rng.randint(0, 3) for _ in range(nvars))
    return sets + [s + [stray] for s in sets if stray not in full]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_seed_loop_stops_as_the_whole_loop_decides_on_minor_ideals(field):
    rng = random.Random(21)
    for maker in (generic_sym, generic_skew):
        for m in range(1, 6):
            M = maker(m, field)
            for j in range(1, m + 1):
                gens = minors_ideal(M, j).gens
                if not gens:
                    continue
                full = seed_leading_monomials(gens)
                for wanted in _wanted_sets(rng, full, M.ring.nvars):
                    _decides_as_the_whole_loop(gens, wanted)
                if m <= 4:
                    _decides_as_the_whole_loop(gens, groebner(gens).leading_monomials())


def test_seed_loop_stops_as_the_whole_loop_decides_on_random_ideals():
    rng = random.Random(2021)
    for field in FIELDS:
        R = ring("x y z", field)
        for _ in range(60):
            gens = [Polynomial._reduced(R, {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-3, 3)
                                            for _ in range(rng.randint(1, 4))})
                    for _ in range(rng.randint(1, 4))]
            if not any(gens):
                continue
            for wanted in _wanted_sets(rng, seed_leading_monomials(gens), 3):
                _decides_as_the_whole_loop(gens, wanted)
            _decides_as_the_whole_loop(gens, groebner(gens).leading_monomials())


def test_seed_loop_stops_once_the_wanted_monomials_appeared(monkeypatch):
    gens = minors_ideal(generic_skew(5), 2).gens
    first = seed_leading_monomials(gens)[:1]
    reduced = []
    reduce_terms = engine._reduce_terms

    def counting(*args):
        reduced.append(1)
        return reduce_terms(*args)

    monkeypatch.setattr(engine, "_reduce_terms", counting)
    assert _seed_loop(gens, first) == first
    assert len(reduced) == 1 < len(gens)


# inhomogeneous polynomials in x, y, z over 𝔽_7: up to three terms of degree <= 2
_POLY = st.lists(
    st.tuples(
        st.integers(1, 6),
        st.tuples(*[st.integers(0, 2)] * 3).filter(lambda mono: sum(mono) <= 2),
    ),
    min_size=1,
    max_size=3,
)
R7 = ring("x y z", PrimeField(7))


def _poly(raw):
    acc: dict = {}
    for c, mono in raw:
        acc[mono] = acc.get(mono, 0) + c
    return Polynomial._reduced(R7, acc)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(_POLY, min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), _POLY), max_size=3),
    st.integers(0, 3),
    st.lists(_POLY, max_size=1),
)
def test_cover_never_says_equal_where_the_reduced_bases_differ(raw_gens, raw_combos, keep, raw_extra):
    # J: some of I's generators, multiples of them, and at most one
    # polynomial that may lie outside I
    verify._GB_CACHE.clear()
    gens = [_poly(r) for r in raw_gens]
    J_gens = gens[:keep] + [gens[i % len(gens)] * _poly(c) for i, c in raw_combos]
    J_gens += [_poly(r) for r in raw_extra]
    J, I = Ideal(R7, J_gens), Ideal(R7, gens)
    if equal_by_cover(J, I):
        assert groebner(J.gens or [R7.zero()]).polys == groebner(gens).polys


def _sweep_trees():
    """(resolve, m, target, field, all_charts) of every tree of sym m <= 5 and
    skew m <= 6 over ℚ and 𝔽_7: all charts up to sym 4 and skew 5, one
    chart per orbit at sym 5 and skew 6, whose all-chart trees take about
    100 s through both routes."""
    for field in FIELDS:
        for m in range(1, 6):
            for r in range(1, m + 1):
                yield resolve_sym, m, r, field, m <= 4
        for m in range(2, 7):
            for l in range(1, m // 2 + 1):
                yield resolve_skew, m, l, field, m <= 5


def test_small_center_identities_match_the_both_bases_route(monkeypatch):
    # The verdict JSON, bases included, equals the both-bases route's,
    # whichever route decided it.
    live = resolution._center_identity_verdict
    seen = []

    def both(parent_matrix, red, tables, j, roles, include_bases):
        out = live(parent_matrix, red, tables, j, roles, include_bases)
        frozen = oracle_center_identity_verdict(parent_matrix, red, j, roles, include_bases)
        seen.append((json.dumps(out), json.dumps(frozen)))
        return out

    monkeypatch.setattr(resolution, "_center_identity_verdict", both)
    for resolve, m, r, field, all_charts in _sweep_trees():
        resolve(m, r, field, all_charts=all_charts, check="full")
    assert len(seen) > 500
    assert all(ours == frozen for ours, frozen in seen)


# --- radical membership: squares before Rabinowitsch -------------------------


def _ring_sizes_asked(monkeypatch, run):
    """run()'s result and the number of variables of each groebner() call."""
    sizes = []

    def recording(gens, order=None, **caps):
        sizes.append(gens[0].ring.nvars)
        return groebner(gens, order, **caps)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "groebner", recording)
        return run(), sizes


def test_a_square_in_the_ideal_needs_no_rabinowitsch_basis(R, monkeypatch):
    x, y, _ = R.vars()
    got, sizes = _ring_sizes_asked(monkeypatch, lambda: radical_member(x + y, Ideal(R, [(x + y) ** 2 * y, (x + y) ** 2])))
    assert got is True and sizes == [3]


def test_x_in_the_radical_of_x_cubed_falls_back_to_rabinowitsch(R, monkeypatch):
    x, _, _ = R.vars()
    I = Ideal(R, [x ** 3])
    got, sizes = _ring_sizes_asked(monkeypatch, lambda: radical_member(x, I))
    assert got is True and sizes == [3, 4]
    assert not ideal_contains(I, x * x)


def test_x_outside_the_radical_of_xy_is_decided_by_rabinowitsch(R, monkeypatch):
    x, y, _ = R.vars()
    got, sizes = _ring_sizes_asked(monkeypatch, lambda: radical_member(x, Ideal(R, [x * y])))
    assert got is False and sizes == [3, 4]


@settings(max_examples=120, deadline=None)
@given(_POLY, st.lists(_POLY, max_size=2), st.integers(0, 3), _POLY)
def test_radical_member_matches_the_rabinowitsch_route(raw_f, raw_gens, power, raw_h):
    # power >= 1 puts h·f^power into I, so f ∈ √I is True at least as often
    # through the square (power <= 2) as through the fallback (power 3)
    verify._GB_CACHE.clear()
    f = _poly(raw_f)
    gens = [_poly(r) for r in raw_gens]
    if power:
        gens.append(f ** power * _poly(raw_h))
    I = Ideal(R7, gens)
    assert radical_member(f, I) == oracle_radical_member(f, I)


def test_f2_m6_over_f7_is_decided_by_squares(monkeypatch):
    # each odd minor's square lies in the even-minor ideal, so no
    # Rabinowitsch basis is built; through those bases it took about 17 s
    got, sizes = _ring_sizes_asked(monkeypatch, lambda: check_fact("F2", 6, PrimeField(7), l=2))
    assert got is True and set(sizes) == {15}

