"""Determinants keyed by their matrix and route, so a warm check runs neither
determinant route.

``verify.determinant_of`` files each determinant in the basis cache under
b"D", the route and ``matrices.matrix_bytes``. The tests hold each cached
value to the uncached ``matrices.determinant``, each key to the one matrix
and route it names, and the warm checks to computing no determinant.
"""

import json
from collections import OrderedDict

import pytest

from detsing import matrices, verify
from detsing.errors import BadIndex, BadParameters
from detsing.fields import QQ, PrimeField
from detsing.matrices import GenericMatrix, MinorCache, determinant, generic_skew, generic_sym
from detsing.resolution import resolve_sym
from detsing.rings import ring
from detsing.verify import check_fact, determinant_of

FIELDS = [QQ, PrimeField(7)]
FIELD_IDS = ["QQ", "F7"]
ROUTES = ("cofactor", "bareiss")


def generic_general(m, field):
    R = ring([f"x_{i + 1}_{j + 1}" for i in range(m) for j in range(m)], field)
    return GenericMatrix(R, [[R.var(f"x_{i + 1}_{j + 1}") for j in range(m)] for i in range(m)])


@pytest.fixture
def cache(monkeypatch):
    """An empty basis cache for the test."""
    fresh = OrderedDict()
    monkeypatch.setattr(verify, "_GB_CACHE", fresh)
    return fresh


def det_key(M, method):
    """The key determinant_of files det M under, read from a cache that
    holds nothing else."""
    saved = verify._GB_CACHE
    verify._GB_CACHE = OrderedDict()
    try:
        determinant_of(M, method)
        (key,) = verify._GB_CACHE
    finally:
        verify._GB_CACHE = saved
    return key


def _counting(monkeypatch):
    """A list that grows at every run of either determinant route and at
    every minor the cofactor expansion computes."""
    calls = []
    bareiss, minor, cofactor = matrices._det_bareiss, MinorCache._minor, MinorCache.determinant
    monkeypatch.setattr(matrices, "_det_bareiss", lambda M: calls.append("bareiss") or bareiss(M))
    monkeypatch.setattr(MinorCache, "_minor", lambda self, I, J: calls.append("minor") or minor(self, I, J))
    monkeypatch.setattr(MinorCache, "determinant", lambda self: calls.append("cofactor") or cofactor(self))
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_each_route_equals_the_uncached_determinant_cold_and_warm(cache, field):
    mats = [maker(m, field) for m in range(1, 6) for maker in (generic_sym, generic_general)]
    mats += [generic_skew(m, field) for m in range(0, 6)]
    for M in mats:
        for method in ROUTES:
            expected = determinant(M, method)
            assert determinant_of(M, method) == expected  # cold
            assert determinant_of(M, method) == expected  # warm
        # a table given to the cofactor route changes nothing
        assert determinant_of(M, table=MinorCache(M)) == determinant(M)
    assert len(cache) == 2 * len(mats)


def test_keys_differ_when_the_route_the_size_the_kind_the_field_or_an_entry_differs(cache):
    A = generic_sym(3)
    assert det_key(A, "cofactor") != det_key(A, "bareiss")
    # skew sizes 0 and 1 share the ring and the empty triangle, not the value
    zero, one = generic_skew(0), generic_skew(1)
    assert zero.ring == one.ring
    assert det_key(zero, "cofactor") != det_key(one, "cofactor")
    assert [determinant_of(zero), determinant_of(one), determinant_of(zero)] == [1, 0, 1]
    # the kind: the same six entries on a 4x4 skew and a 3x3 sym triangle
    R = ring("a b c d e f")
    skew = GenericMatrix.from_triangle(R, 4, dict(zip([(i, j) for i in range(4) for j in range(i + 1, 4)],
                                                       R.vars())), "skew")
    sym = GenericMatrix.from_triangle(R, 3, dict(zip([(i, j) for i in range(3) for j in range(i, 3)],
                                                      R.vars())), "sym")
    assert det_key(skew, "cofactor") != det_key(sym, "cofactor")
    # the field: the same names and entries over Q, F_7 and F_5
    assert len({det_key(generic_sym(3, f), "bareiss") for f in (QQ, PrimeField(7), PrimeField(5))}) == 3
    # one entry, and one coefficient of one entry
    x12 = A.ring.var("x_1_2")
    keys = {det_key(A, "cofactor")}
    for change in (x12 + 1, 2 * x12, A.ring.var("x_1_3")):
        entries = {(i, j): A.entry(i, j) for i in range(3) for j in range(i, 3)}
        entries[0, 1] = change
        keys.add(det_key(GenericMatrix.from_triangle(A.ring, 3, entries, "sym"), "cofactor"))
    assert len(keys) == 4
    # a determinant key is no basis, saturation or minor-ideal key
    assert all(k[:1] == b"D" for k in keys)


def test_a_bad_matrix_or_route_is_refused_and_files_nothing(cache):
    with pytest.raises(BadParameters):
        determinant_of([[1]])
    with pytest.raises(BadIndex):
        determinant_of(generic_sym(2), "laplace")
    assert not cache


@pytest.mark.parametrize("fact, m", [("F1", 7), ("F3", 6)])
def test_a_warm_fact_runs_neither_determinant_route(monkeypatch, fact, m):
    assert check_fact(fact, m)
    calls = _counting(monkeypatch)
    assert check_fact(fact, m)
    assert calls == []


def test_each_fact_route_is_filed_under_its_own_key(cache):
    # F1 and F3 read both routes, so a cold check files one entry per route
    assert check_fact("F1", 5, PrimeField(7)) and check_fact("F3", 4, PrimeField(7))
    routes = sorted(key.partition(b",")[0] for key in cache if key[:1] == b"D")
    assert routes == [b"Dbareiss", b"Dbareiss", b"Dcofactor", b"Dcofactor"]


def test_a_warm_checked_resolve_computes_no_determinant(monkeypatch, cache):
    cold = resolve_sym(4, 3, all_charts=True, check="full")
    calls = _counting(monkeypatch)
    warm = resolve_sym(4, 3, all_charts=True, check="full")
    assert "bareiss" not in calls and "cofactor" not in calls
    for report in (cold, warm):
        del report.stats["seconds_total"], report.stats["seconds_verify"]
    assert cold.all_passed() and json.dumps(warm.to_json()) == json.dumps(cold.to_json())
