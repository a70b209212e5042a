"""Generic matrices over polynomial rings: determinants, pfaffians, minors.

Two independent determinant routes are kept on purpose. The cofactor route
shares sub-minors through a cache (which also powers bulk minor extraction);
Bareiss is fraction-free elimination with exact polynomial division. They
cross-check each other in the test suite and must never be merged: the
two algorithms share only the product kernel ``rings.sum_of_products``, in
which a Bareiss numerator, a cofactor expansion and a pfaffian expansion
are each one call. Each routine packs the matrix once (``_packed_rows``)
and stays packed, memos and Bareiss divisions included, until it returns.
The tests check the kernels against frozen copies of the loops they
replaced and against sympy. Both routes stay uncached, as the oracles of
those tests; ``verify.determinant_of`` caches each route's result under a
key of its own, built from ``matrix_bytes`` as an ideal of minors' is.

Conventions, all pinned by tests:
  * triangle(m, kind) lists the positions that determine a matrix: i < j
    for skew, i <= j for sym, all for general. Below it a sym matrix mirrors
    them, a skew one mirrors their negatives, and a skew diagonal is zero.
  * generic_skew(m) and generic_sym(m) put x_{i+1}_{j+1} at each (i, j).
  * pfaffian([[0, x], [-x, 0]]) = +x, with the first-row recursion
    pf(M) = sum_{j>1} (-1)^j m_{1j} pf(M without rows/cols 1, j).
  * minors are indexed by strictly increasing 0-based row/column tuples and
    enumerated in lexicographic (I, J) order.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from typing import Iterable

from .errors import BadIndex, BadParameters, CharTwoForbidden, NotSkew, OddSize, RingMismatch
from .fields import QQ, require_field
from .rings import (Polynomial, Ring, _exact_div_terms, _packing_for, encode_terms, json_list, require_polynomials,
                    require_ring, ring, ring_bytes, sum_of_products)


class GenericMatrix:
    """A square matrix of polynomials tagged with a shape kind.

    kind is one of "skew", "sym", "general"; the tagged symmetry is
    validated at construction so downstream shape shortcuts stay sound.
    """

    __slots__ = ("ring", "rows", "kind", "_bytes")

    def __init__(self, ring_: Ring, rows, kind: str = "general"):
        rows = tuple(tuple(row) for row in rows)
        m = len(rows)
        for row in rows:
            if len(row) != m:
                raise BadIndex("matrix is not square")
            for e in row:
                if not isinstance(e, Polynomial) or e.ring != ring_:
                    raise RingMismatch("entry not a polynomial of the given ring")
        if kind != "general":
            _require_mirror(rows, kind)
        self.ring = ring_
        self.rows = rows
        self.kind = kind
        self._bytes = None

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Polynomial:
        return self.rows[i][j]

    def variables(self) -> tuple:
        """Names occurring in the matrix (all in its triangle), in ring order."""
        used = set()
        for i, j in triangle(self.size, self.kind):
            used.update(self.rows[i][j].variables())
        return tuple(n for n in self.ring.names if n in used)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "m": self.size,
            "ring": self.ring.to_json(),
            "entries": [[e.format() for e in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GenericMatrix":
        rows = json_list(data, "entries")
        ring_ = Ring.from_json(data.get("ring"))
        if data.get("kind") not in ("skew", "sym", "general") or not all(type(r) is list for r in rows):
            raise BadParameters("a JSON matrix needs a known 'kind' and its 'entries' as lists of rows")
        return cls(ring_, [[ring_.parse(s) for s in row] for row in rows], data["kind"])

    @classmethod
    def from_triangle(cls, ring_: Ring, m: int, entries: dict, kind: str) -> "GenericMatrix":
        """The m x m matrix of the given kind with entries[i, j] at each
        triangle position (i, j): the lower triangle mirrors it, negated
        when skew, and a skew diagonal stays zero."""
        rows = [[ring_.zero()] * m for _ in range(m)]
        for (i, j), e in entries.items():
            rows[i][j] = e
            if kind != "general":
                rows[j][i] = -e if kind == "skew" else e
        return cls(ring_, rows, kind)

    def __eq__(self, other):
        return (
            isinstance(other, GenericMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"<{self.kind} {self.size}x{self.size} matrix over {self.ring!r}>"


def triangle(m: int, kind: str) -> list:
    """The positions (i, j) that determine an m x m matrix of the given
    kind, row by row: i < j for skew, i <= j for sym, all for general."""
    if kind == "general":
        return [(i, j) for i in range(m) for j in range(m)]
    return [(i, j) for i in range(m) for j in range(i + (kind == "skew"), m)]


def matrix_bytes(M: GenericMatrix) -> bytes:
    """M as bytes: its ring (rings.ring_bytes, field included), kind and
    size, then the terms of its triangle's entries (rings.encode_terms).
    Equal bytes are equal matrices; the size tells apart the skew sizes 0
    and 1, whose triangles are both empty. M, immutable by convention,
    keeps them from the first call on, for every key that names it."""
    _require_matrix(M)
    if M._bytes is None:
        entries = [M.rows[i][j] for i, j in triangle(M.size, M.kind)]
        M._bytes = b"%s%s%d|%s" % (ring_bytes(M.ring), M.kind.encode(), M.size, encode_terms(entries))
    return M._bytes


def _require_mirror(rows, kind):
    """Lower entries mirror upper ones (negated when skew); a skew diagonal is zero."""
    if kind not in ("skew", "sym"):
        raise BadIndex(f"unknown matrix kind {kind!r}")
    skew = kind == "skew"
    for i, j in triangle(len(rows), "sym"):
        if i == j:
            if skew and not rows[i][i].is_zero():
                raise NotSkew("nonzero diagonal entry")
        elif rows[j][i] != (-rows[i][j] if skew else rows[i][j]):
            if skew:
                raise NotSkew(f"entry ({j},{i}) is not the negative of ({i},{j})")
            raise BadIndex("matrix is not symmetric")


def _generic(kind, m, field, prefix, ring_) -> GenericMatrix:
    """prefix_{i+1}_{j+1} at each triangle position (i, j) of the kind."""
    if type(m) is not int or m < 0:
        raise BadParameters(f"matrix size must be an integer >= 0, got {m!r}")
    require_field(field)
    if kind == "skew" and field.char == 2:
        raise CharTwoForbidden("generic skew matrices need characteristic != 2")
    positions = triangle(m, kind)
    names = [f"{prefix}_{i + 1}_{j + 1}" for i, j in positions]
    if ring_ is None:
        ring_ = ring(names, field)
    entries = {p: ring_.var(n) for p, n in zip(positions, names)}
    return GenericMatrix.from_triangle(ring_, m, entries, kind)


def generic_skew(m: int, field=QQ, prefix: str = "x", ring_: Ring = None) -> GenericMatrix:
    """The generic skew-symmetric m x m matrix in variables prefix_i_j (i < j).

    An optional ambient ring may be supplied as long as it contains all the
    needed variable names (used by the resolution driver, whose rings carry
    extra bookkeeping coordinates).
    """
    return _generic("skew", m, field, prefix, ring_)


def generic_sym(m: int, field=QQ, prefix: str = "x", ring_: Ring = None) -> GenericMatrix:
    """The generic symmetric m x m matrix in variables prefix_i_j (i <= j)."""
    return _generic("sym", m, field, prefix, ring_)


def _check_index_set(idx, m: int) -> tuple:
    idx = tuple(idx)
    if any(isinstance(i, bool) or not isinstance(i, int) or i < 0 or i >= m for i in idx):
        raise BadIndex(f"index out of range for size {m}: {idx}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise BadIndex(f"index set must be strictly increasing: {idx}")
    return idx


def submatrix(M: GenericMatrix, rows: Iterable[int], cols: Iterable[int]) -> GenericMatrix:
    _require_matrix(M)
    rows = _check_index_set(rows, M.size)
    cols = _check_index_set(cols, M.size)
    if len(rows) != len(cols):
        raise BadIndex("row and column sets must have equal size")
    kind = M.kind if rows == cols else "general"
    return GenericMatrix(M.ring, [[M.rows[i][j] for j in cols] for i in rows], kind)


def _packed_rows(M: GenericMatrix):
    """M's grevlex packing and its rows of entries packed by it. Its fields
    hold degree 2*n*d, d the largest entry degree: that bounds every minor,
    pfaffian and Bareiss numerator of M, so no routine overflows."""
    d = max((e.total_degree() for row in M.rows for e in row), default=0)
    pk = _packing_for(("grevlex", M.ring.nvars), 2 * M.size * d)
    return pk, [[pk.pack_terms(e.terms) for e in row] for row in M.rows]


class MinorCache:
    """Shared cofactor expansion over one matrix: its table of minors.

    minor(I, J) is the determinant of the submatrix on strictly increasing
    index tuples I, J. All minors of all sizes share sub-results, so bulk
    extraction (ideal(r) for several r, determinant()) costs one pass over
    the subset lattice instead of one expansion per minor or per request.
    The shared sub-results stay packed; minor() unpacks only the one it
    returns. The rows are packed at the first minor asked for, so a table
    whose ideals are all found in the basis cache packs nothing. A caller
    keeps a table while it works on one matrix and then drops it: the table
    holds every minor it has computed.
    """

    def __init__(self, M: GenericMatrix):
        _require_matrix(M)
        self.M = M
        self._pk = None

    def _pack(self):
        """The packing of M's rows, packing them and starting the table on
        the first call."""
        if self._pk is None:
            self._pk, self._rows = _packed_rows(self.M)
            self._cache = {((), ()): {self._pk.C: self.M.ring.field.one}}
        return self._pk

    def minor(self, I: tuple, J: tuple) -> Polynomial:
        return Polynomial(self.M.ring, self._pack().unpack_terms(self._minor(I, J)))

    def determinant(self) -> Polynomial:
        full = tuple(range(self.M.size))
        return self.minor(full, full)

    def ideal(self, r: int) -> "Ideal":
        """The ideal of r-minors, with zero and sign-duplicate minors
        dropped. Its generators are computed at their first read and its
        cache key is the matrix's (see MinorIdeal); r is checked at once.
        """
        _index_sets(self.M, r)
        return MinorIdeal(self, r)

    def _ideal_gens(self, r: int) -> tuple:
        """The generators of ideal(r). A sym or skew matrix takes only
        I <= J: its (J, I)-minor is +-its (I, J)-minor, which comes first in
        lexicographic (I, J) order, so the generator tuple is the same as
        over all pairs."""
        sets = _index_sets(self.M, r)
        return self._distinct_minors(product(sets, repeat=2) if self.M.kind == "general"
                                     else combinations_with_replacement(sets, 2))

    def _distinct_minors(self, pairs) -> tuple:
        """The (I, J)-minors of the pairs, zero ones and sign duplicates (a
        minor and its negative generate the same ideal) dropped, first
        occurrences kept in order. A minor and its negative share their
        leading monomial and term count, so each minor is compared, on
        packed terms, only with the kept ones of that bucket; only the kept
        ones are unpacked."""
        pk, neg = self._pack(), self.M.ring.field.neg
        kept, buckets = [], {}
        for I, J in pairs:
            p = self._minor(I, J)
            if not p:
                continue
            lm = max(p)
            bucket = buckets.setdefault((lm, len(p)), [])
            c = p[lm]
            for q in bucket:
                if q[lm] == c and q == p or q[lm] == neg(c) and q == {m: neg(d) for m, d in p.items()}:
                    break
            else:
                bucket.append(p)
                kept.append(p)
        R = self.M.ring
        return tuple(Polynomial(R, pk.unpack_terms(p)) for p in kept)

    def _minor(self, I: tuple, J: tuple) -> dict:
        key = (I, J)
        got = self._cache.get(key)
        if got is not None:
            return got
        # expand along the last row of I; the sign (-1)^(k + t + 1) is for
        # the 1-based position (k, t + 1), and a 1x1 minor is its entry
        I_rest = I[:-1]
        k = len(I)
        row = self._rows[I[-1]]
        got = row[J[0]] if k == 1 else sum_of_products(self._pk, self.M.ring.field, [
            (-1 if (k + t) % 2 == 0 else 1, e, self._minor(I_rest, J[:t] + J[t + 1:]))
            for t, j in enumerate(J) if (e := row[j])
        ])
        self._cache[key] = got
        return got


def _require_matrix(M) -> None:
    if not isinstance(M, GenericMatrix):
        raise BadParameters(f"expected a GenericMatrix, got {type(M).__name__}")


def determinant(M: GenericMatrix, method: str = "cofactor") -> Polynomial:
    """Exact determinant. method is "cofactor" or "bareiss"; the two are
    independent implementations and agree (enforced by tests)."""
    _require_matrix(M)
    if method == "cofactor":
        return MinorCache(M).determinant()
    if method == "bareiss":
        return _det_bareiss(M)
    raise BadIndex(f"unknown determinant method {method!r}")


def _det_bareiss(M: GenericMatrix) -> Polynomial:
    """Fraction-free Bareiss elimination with exact polynomial division,
    on packed entries."""
    n = M.size
    R = M.ring
    if n == 0:
        return R.one()
    pk, rows = _packed_rows(M)
    field = R.field
    sign = 1
    for k in range(n - 1):
        if not rows[k][k]:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return R.zero()
        piv = rows[k][k]
        for i in range(k + 1, n):
            r_ik = rows[i][k]
            for j in range(k + 1, n):
                num = sum_of_products(pk, field, ((1, rows[i][j], piv), (-1, r_ik, rows[k][j])))
                # the first step divides by 1
                rows[i][j] = _exact_div_terms(pk, field, num, prev) if k and num else num
        prev = piv
    det = Polynomial(R, pk.unpack_terms(rows[n - 1][n - 1]))
    return -det if sign < 0 else det


def pfaffian(M: GenericMatrix) -> Polynomial:
    """Pfaffian of a skew-symmetric matrix of even size.

    Skew-symmetry is re-validated on the entries (NotSkew otherwise);
    OddSize for odd matrices. pf(M)^2 = det(M) is a test invariant.
    """
    _require_matrix(M)
    _require_mirror(M.rows, "skew")
    if M.size % 2:
        raise OddSize("the pfaffian needs an even-sized matrix")
    pk, rows = _packed_rows(M)
    field = M.ring.field
    memo: dict = {(): {pk.C: field.one}}

    def pf(idx: tuple) -> dict:
        got = memo.get(idx)
        if got is not None:
            return got
        row = rows[idx[0]]
        rest = idx[1:]
        got = sum_of_products(pk, field, [
            (-1 if t % 2 else 1, e, pf(rest[:t] + rest[t + 1:]))
            for t, j in enumerate(rest) if (e := row[j])
        ])
        memo[idx] = got
        return got

    return Polynomial(M.ring, pk.unpack_terms(pf(tuple(range(M.size)))))


def _index_sets(M: GenericMatrix, r: int) -> list:
    """The strictly increasing r-tuples of row (or column) indices of M,
    once M is known to be a matrix and r a size."""
    _require_matrix(M)
    if type(r) is not int:
        raise BadParameters(f"minor size must be an int, got {r!r}")
    if r < 0 or r > M.size:
        raise BadIndex(f"minor size {r} out of range for a {M.size}x{M.size} matrix")
    return list(combinations(range(M.size), r))


def minors(M: GenericMatrix, r: int) -> list:
    """All (I, J, det) for |I| = |J| = r in lexicographic (I, J) order."""
    sets = _index_sets(M, r)
    cache = MinorCache(M)
    return [(I, J, cache.minor(I, J)) for I, J in product(sets, repeat=2)]


class Ideal:
    """A finitely generated ideal: a ring plus an ordered generator tuple."""

    __slots__ = ("ring", "gens", "_key")

    def __init__(self, ring_: Ring, gens: Iterable[Polynomial]):
        self.ring = require_ring(ring_)
        self.gens = require_polynomials(ring_, gens)
        self._key = None

    @property
    def cache_id(self) -> bytes:
        """The ideal's key in verify's basis cache, built once, at its first
        read, as an ideal is immutable by convention: b"G", the ring
        (rings.ring_bytes), then the generators (rings.encode_terms)."""
        if self._key is None:
            self._key = b"G" + ring_bytes(self.ring) + encode_terms(self.gens)
        return self._key

    def contains_unit_generator(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.gens)

    def to_json(self) -> dict:
        return {"ring": self.ring.to_json(), "generators": [g.format() for g in self.gens]}

    @classmethod
    def from_json(cls, data: dict) -> "Ideal":
        gens = json_list(data, "generators")
        ring_ = Ring.from_json(data.get("ring"))
        return cls(ring_, tuple(ring_.parse(s) for s in gens))

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        shown = ", ".join(g.format() for g in self.gens[:3])
        more = ", ..." if len(self.gens) > 3 else ""
        return f"<ideal ({shown}{more})>"


class MinorIdeal(Ideal):
    """The ideal of r-minors of a table's matrix (MinorCache.ideal).

    Its generators are computed from the table at their first read (gens,
    iteration, ==, hash, repr, to_json), which then drops the table. Its
    basis-cache key, cache_id, is built once, at its first read, from the
    matrix instead: b"M", r, then matrix_bytes. The generator tuple is a
    function of those, so equal keys are equal ideals.
    """

    __slots__ = ("_table", "_M", "_r", "_gens")

    def __init__(self, table: MinorCache, r: int):
        self.ring = table.M.ring
        self._table, self._M, self._r = table, table.M, r
        self._gens = self._key = None

    @property
    def gens(self) -> tuple:
        if self._gens is None:
            self._gens = self._table._ideal_gens(self._r)
            self._table = None
        return self._gens

    @property
    def cache_id(self) -> bytes:
        if self._key is None:
            self._key = b"M%d," % self._r + matrix_bytes(self._M)
        return self._key


def require_ideal(I, *polys) -> None:
    """BadParameters unless I is an Ideal; then Ideal's check on polys."""
    if not isinstance(I, Ideal):
        raise BadParameters(f"expected an Ideal, got {type(I).__name__}")
    require_polynomials(I.ring, polys)


def minors_ideal(M: GenericMatrix, r: int) -> Ideal:
    """The ideal of r-minors of M (MinorCache.ideal), from a fresh table."""
    return MinorCache(M).ideal(r)


def principal_minors_ideal(M: GenericMatrix, r: int) -> Ideal:
    """Same, restricted to I = J (principal minors)."""
    sets = _index_sets(M, r)
    cache = MinorCache(M)
    return Ideal(M.ring, cache._distinct_minors((I, I) for I in sets))
