"""Minor ideals keyed by their matrix, computed only when read.

``MinorCache.ideal(r)`` returns a ``MinorIdeal``: its generators are
computed at their first read, and the basis cache files it under a key
built from the matrix (``cache_id``), so a warm check computes no minor.
The tests hold the key to the ideal it names, the laziness to the places
that must not see it, and the packed dropping of zero and sign-duplicate
minors to its frozen copy. Beside the audit of the matrix-keyed bases and
saturations, the determinants filed by the same kind of menu are held to
fresh ones (``verify.determinant_of``).
"""

import random
import sys

import pytest

from detsing import matrices, resolution, verify
from detsing.errors import BadIndex
from detsing.fields import QQ, PrimeField
from detsing.groebner import groebner
from detsing.matrices import GenericMatrix, Ideal, MinorCache, MinorIdeal, generic_skew, generic_sym, minors
from detsing.resolution import _formula_matrix, chart_identity, resolve_skew, resolve_sym
from detsing.verify import check_fact, check_lemma_counterexample
from detsing.rings import decode_terms, ring

from .oracles import frozen_dedup_generators

FIELDS = [QQ, PrimeField(7)]
FIELD_IDS = ["QQ", "F7"]


def generic_general(m, field):
    R = ring([f"x_{i + 1}_{j + 1}" for i in range(m) for j in range(m)], field)
    return GenericMatrix(R, [[R.var(f"x_{i + 1}_{j + 1}") for j in range(m)] for i in range(m)])


def pooled_general(m, field, seed):
    """A general matrix whose entries repeat a few polynomials, so that many
    minors coincide, cancel or differ only in sign."""
    R = ring("x y z", field)
    x, y, z = R.vars()
    pool = [R.zero(), x, -x, y, x + y, x - y, 2 * z, R.one()]
    rng = random.Random(f"{m}/{field.char}/{seed}")
    return GenericMatrix(R, [[rng.choice(pool) for _ in range(m)] for _ in range(m)])


def frozen_ideal_gens(M, r):
    """Every (I, J)-minor in lexicographic order, through the frozen
    dropping of zero and sign-duplicate generators."""
    return tuple(frozen_dedup_generators(d for _, _, d in minors(M, r)))


def chart_matrices(report):
    """A' and B (when there is one) of every chart of a built tree."""
    for node in report.nodes[1:]:
        red = node.reduction
        yield red.matrix
        if red.remaining:
            yield _formula_matrix(red)


# --- dropping zero and sign-duplicate minors on packed terms ---------------


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_packed_dedup_matches_the_frozen_one_on_small_matrices(field):
    mats = [maker(m, field) for m in range(1, 6) for maker in (generic_skew, generic_sym, generic_general)]
    mats += [pooled_general(m, field, seed) for m in range(1, 6) for seed in range(4)]
    dropped = 0
    for M in mats:
        for r in range(M.size + 1):
            got = MinorCache(M).ideal(r).gens
            assert got == frozen_ideal_gens(M, r)
            dropped += len(list(minors(M, r))) - len(got)
    assert dropped > 0


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("resolve, args", [(resolve_sym, (4, 3)), (resolve_skew, (5, 2))],
                         ids=["sym4/3", "skew5/2"])
def test_packed_dedup_matches_the_frozen_one_on_every_chart(resolve, args, field):
    report = resolve(*args, field, all_charts=True, check="none")
    seen = 0
    for M in chart_matrices(report):
        table = MinorCache(M)
        for r in range(M.size + 1):
            assert table.ideal(r).gens == frozen_ideal_gens(M, r)
            seen += 1
    assert seen > 20


# --- the matrix key ----------------------------------------------------------


def _recording(monkeypatch):
    """A list that collects every ideal MinorCache.ideal returns."""
    made = []
    real = MinorCache.ideal

    def ideal(self, r):
        made.append(real(self, r))
        return made[-1]

    monkeypatch.setattr(MinorCache, "ideal", ideal)
    return made


CHART_IDENTITY_MENU = (
    [("skew", m, r, None) for m in (4, 5, 6) for r in range(1, m + 1)]
    + [("sym", m, r, ct) for m in (3, 4, 5) for r in range(1, m + 1) for ct in ("diag", "offdiag")]
)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["QQ", "F101"])
def test_every_matrix_keyed_entry_is_the_basis_of_its_ideal(monkeypatch, field):
    # the chart identities of the library-mix menu, from a cold cache; then
    # every entry filed under a matrix key is held to a fresh computation
    # from the ideal's generators
    verify._GB_CACHE.clear()
    made = _recording(monkeypatch)
    for kind, m, r, ct in CHART_IDENTITY_MENU:
        assert chart_identity(kind, m, r, ct, field)["pass"]
    keyed = {I.cache_id: I for I in made if I._key is not None}
    entries = dict(verify._GB_CACHE)
    verify._GB_CACHE.clear()
    bases = saturations = 0
    for key, value in entries.items():
        if key in keyed:
            I = keyed[key]
            assert verify._basis_from(I.ring, value).polys == groebner(list(I.gens) or [I.ring.zero()]).polys
            bases += 1
        elif key[:2] == b"SM":
            I = next(I for k, I in keyed.items() if key[1:].startswith(k))
            (u,) = decode_terms(I.ring, key[1 + len(I.cache_id):])
            fresh = verify.groebner_of(verify.saturate(Ideal(I.ring, I.gens), u))
            assert verify._basis_from(I.ring, value).polys == fresh.polys
            saturations += 1
        else:
            assert key[:1] in b"GS"
    # every keyed ideal is filed, as a basis or as a saturation
    assert all(key in entries or any(k[1:].startswith(key) for k in entries) for key in keyed)
    assert bases > 30 and saturations > 5


FACT_MENU = [("F1", 3, None), ("F1", 5, None), ("F1", 7, None), ("F3", 2, None), ("F3", 4, None),
             ("F3", 6, None), ("F2", 4, 2), ("F2", 5, 2)]
RESOLVE_MENU = [(resolve_sym, (3, 3), True), (resolve_skew, (4, 2), True), (resolve_sym, (4, 4), False),
                (resolve_skew, (5, 2), False), (resolve_sym, (4, 3), True), (resolve_skew, (5, 2), True)]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_every_determinant_entry_is_the_determinant_of_its_matrix(monkeypatch, field):
    # the library-mix menu from a cold cache: chart identities, facts, the
    # lemma and checked resolves; then every entry filed under a
    # determinant key is held to a fresh determinant of its matrix by its
    # route
    verify._GB_CACHE.clear()
    seen = {}
    real = verify.matrix_bytes

    def recorded(M):
        seen[real(M)] = M
        return real(M)

    monkeypatch.setattr(verify, "matrix_bytes", recorded)
    for kind, m, r, ct in CHART_IDENTITY_MENU:
        assert chart_identity(kind, m, r, ct, field)["pass"]
    for fact, m, l in FACT_MENU:
        assert check_fact(fact, m, field, l=l)
    assert check_lemma_counterexample(field)["pass"]
    for resolve, args, all_charts in RESOLVE_MENU:
        assert resolve(*args, field, all_charts=all_charts).all_passed()
    entries = {key: value for key, value in verify._GB_CACHE.items() if key[:1] == b"D"}
    verify._GB_CACHE.clear()
    routes = set()
    for key, value in entries.items():
        route, _, rest = key[1:].partition(b",")
        M = seen[rest]
        (det,) = decode_terms(M.ring, value)
        assert det == matrices.determinant(M, route.decode())
        routes.add(route)
    assert routes == {b"cofactor", b"bareiss"} and len(entries) > 100


def test_keys_differ_when_the_kind_r_the_field_or_an_entry_differs():
    R = ring("a b c d e f")
    six = dict(zip([(i, j) for i in range(4) for j in range(i + 1, 4)], R.vars()))
    skew = GenericMatrix.from_triangle(R, 4, six, "skew")
    # the same six entries on the triangle of a 3x3 symmetric matrix
    sym = GenericMatrix.from_triangle(R, 3, dict(zip([(i, j) for i in range(3) for j in range(i, 3)], R.vars())),
                                      "sym")
    assert MinorCache(skew).ideal(2).cache_id != MinorCache(sym).ideal(2).cache_id
    # r
    table = MinorCache(generic_sym(3))
    assert len({table.ideal(r).cache_id for r in range(4)}) == 4
    # the field: the same names and entries over Q and F_7
    over = [MinorCache(generic_sym(3, field)).ideal(2).cache_id for field in (QQ, PrimeField(7), PrimeField(5))]
    assert len(set(over)) == 3
    # one entry, and one coefficient of one entry
    A = generic_sym(3)
    x12 = A.ring.var("x_1_2")
    keys = {MinorCache(A).ideal(2).cache_id}
    for change in (x12 + 1, 2 * x12, A.ring.var("x_1_3")):
        entries = {(i, j): A.entry(i, j) for i in range(3) for j in range(i, 3)}
        entries[0, 1] = change
        keys.add(MinorCache(GenericMatrix.from_triangle(A.ring, 3, entries, "sym")).ideal(2).cache_id)
    assert len(keys) == 4
    # a matrix key is no basis or saturation key
    assert all(k[:1] == b"M" for k in keys)


def test_equal_matrices_share_a_key_and_unequal_ideals_never_do():
    # tables of equal matrices built apart give one key; over a family of
    # small matrices, equal keys always name equal generator tuples
    assert MinorCache(generic_skew(5)).ideal(4).cache_id == MinorCache(generic_skew(5)).ideal(4).cache_id
    named = {}
    for field in FIELDS:
        for m in range(4):
            for seed in range(3):
                M = pooled_general(m, field, seed)
                for r in range(m + 1):
                    I = MinorCache(M).ideal(r)
                    assert named.setdefault(I.cache_id, I.gens) == I.gens


# the keys of the 1-minors of the generic symmetric 2x2 matrix over Q and of
# the 2-minors of the generic skew 3x3 matrix over F_7
FROZEN_MINOR_KEYS = [
    (generic_sym, 2, QQ, 1,
     b"M1,Q|x_1_1,x_1_2,x_2_2|sym2|3|1,1,b|\x01\x00\x00\x011,1,b|\x00\x01\x00\x011,1,b|\x00\x00\x01\x01"),
    (generic_skew, 3, PrimeField(7), 2,
     b"M2,Fp:7|x_1_2,x_1_3,x_2_3|skew3|3|1,1,b|\x01\x00\x00\x011,1,b|\x00\x01\x00\x011,1,b|\x00\x00\x01\x01"),
]


def test_minor_ideal_keys_are_frozen():
    for maker, m, field, r, key in FROZEN_MINOR_KEYS:
        assert MinorCache(maker(m, field)).ideal(r).cache_id == key
    # the size tells apart the skew sizes 0 and 1, whose triangles are empty
    assert matrices.matrix_bytes(generic_skew(0)) != matrices.matrix_bytes(generic_skew(1))


def _matrix_encodings(monkeypatch):
    """A list that collects every matrix whose bytes matrix_bytes encodes."""
    encoded = []
    real = matrices.encode_terms

    def counted(polys):
        caller = sys._getframe(1)
        if caller.f_code is matrices.matrix_bytes.__code__:
            encoded.append(caller.f_locals["M"])
        return real(polys)

    monkeypatch.setattr(matrices, "encode_terms", counted)
    return encoded


@pytest.mark.parametrize("run", [
    lambda: chart_identity("skew", 6, 4),
    lambda: resolve_sym(4, 4, all_charts=True, check="identities"),
], ids=["chart_identity-skew6/4", "sym4/4-identities"])
def test_a_warm_check_encodes_each_matrix_at_most_once(monkeypatch, run):
    run()
    encoded = _matrix_encodings(monkeypatch)
    run()
    # the list holds every matrix alive, so two objects never share an id
    ids = [id(M) for M in encoded]
    assert ids and len(ids) == len(set(ids))


def test_a_build_without_checks_encodes_no_matrix_and_no_ideal(monkeypatch):
    encoded = []
    monkeypatch.setattr(matrices, "encode_terms", encoded.append)
    assert len(resolve_sym(4, 4, all_charts=True, check="none").nodes) > 10 and encoded == []


# --- laziness ----------------------------------------------------------------


def _count_minors(monkeypatch):
    """A list that grows by one at every MinorCache._minor call."""
    calls = []
    real = MinorCache._minor

    def counted(self, I, J):
        calls.append((I, J))
        return real(self, I, J)

    monkeypatch.setattr(MinorCache, "_minor", counted)
    return calls


@pytest.mark.parametrize("args", [("skew", 6, 4), ("sym", 5, 3, "offdiag")], ids=["skew6/4", "sym5/3-offdiag"])
def test_a_warm_chart_identity_computes_no_minor(monkeypatch, args):
    first = chart_identity(*args)
    calls = _count_minors(monkeypatch)
    packed = []
    real = matrices._packed_rows
    monkeypatch.setattr(matrices, "_packed_rows", lambda M: packed.append(M) or real(M))
    assert chart_identity(*args) == first and first["pass"]
    assert calls == [] and packed == []


def test_a_minor_ideal_checks_its_size_at_once_and_computes_at_the_first_read(monkeypatch):
    A = generic_skew(5)
    table = MinorCache(A)
    with pytest.raises(BadIndex):
        table.ideal(99)
    calls = _count_minors(monkeypatch)
    I = table.ideal(4)
    assert I.cache_id and calls == [] and table._pk is None
    assert I == Ideal(A.ring, frozen_ideal_gens(A, 4)) and calls
    # the generators are kept and the table let go
    assert I._gens is not None and I._table is None


def test_a_build_without_checks_builds_no_key(monkeypatch):
    built = []
    real = MinorIdeal.cache_id.fget

    def counted(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(MinorIdeal, "cache_id", property(counted))
    monkeypatch.setattr(verify, "_entry", lambda *a: built.append(a))
    report = resolve_sym(4, 4, all_charts=True, check="none")
    assert len(report.nodes) > 10 and built == []


@pytest.mark.parametrize("resolve, args, all_charts", [
    (resolve_sym, (3, 3), True), (resolve_sym, (4, 4), True), (resolve_skew, (5, 2), True),
    (resolve_sym, (5, 5), False),
], ids=["sym3/3", "sym4/4", "skew5/2", "sym5/5"])
@pytest.mark.parametrize("check", ["none", "full"])
def test_every_strict_ideal_is_materialized_when_the_resolve_returns(resolve, args, all_charts, check):
    report = resolve(*args, all_charts=all_charts, check=check)
    leaves = report.leaves()
    lazy = [n.strict_ideal for n in leaves if isinstance(n.strict_ideal, MinorIdeal)]
    assert all(I._gens is not None and I._table is None for I in lazy)
    assert all(n.strict_ideal is not None for n in leaves)
    if args == (3, 3):
        # the 2x2 off-diagonal leaves keep their minor ideal itself
        assert lazy


def test_the_witness_counts_without_decoding(monkeypatch):
    A = generic_skew(4)
    sizes = [len(groebner(list(MinorCache(A).ideal(r).gens)).polys) for r in range(1, 5)]
    for r in range(1, 5):
        verify.groebner_of(MinorCache(A).ideal(r))
    decoded = []
    real = verify.decode_terms
    monkeypatch.setattr(verify, "decode_terms", lambda R, data: decoded.append(data) or real(R, data))
    assert [resolution._basis_witness(MinorCache(A).ideal(r), False)["basis_size"] for r in range(1, 5)] == sizes
    assert decoded == []
    assert [len(resolution._basis_witness(MinorCache(A).ideal(r), True)["basis"]) for r in range(1, 5)] == sizes
    assert len(decoded) == 4
