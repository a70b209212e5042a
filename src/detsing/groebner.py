"""Buchberger engine: monomial orders, normal forms, reduced bases.

The engine is deterministic end to end: generators are seeded in a sorted
order, pair selection breaks ties by insertion age, and the returned basis
is reduced, monic, and sorted. Resource caps (basis size, working term
count) raise ResourceLimit; they never produce a wrong answer.

Pair bookkeeping follows the classic Gebauer-Moeller update (chain and
coprimality criteria, plus pruning of old pairs whose lcm strictly contains
the new leading monomial). Pairs are selected by the sugar strategy. Each
pending pair carries the lcm and the sugar computed when it was formed, and
the working basis holds only live elements: retired ones are removed, and
the survivors keep their order.
"""

from __future__ import annotations

import heapq
import itertools
import os
from typing import Iterable

from .errors import BadParameters, ResourceLimit, RingMismatch
from .rings import Polynomial, Ring, grevlex_key, m_div, m_divides, m_lcm, m_mul

DEFAULT_MAX_BASIS = 2000
DEFAULT_MAX_TERMS = 200_000
_MAX_TERMS_ENV = os.environ.get("DETSING_MAX_TERMS")


def term_cap(max_terms: int = None) -> int:
    """The term cap of a call: max_terms when given, else the
    DETSING_MAX_TERMS environment variable (read at import), else
    DEFAULT_MAX_TERMS.

    A variable that is not a positive integer raises BadParameters here,
    at the first capped call, so that importing the package still succeeds.
    """
    if max_terms is not None:
        return max_terms
    if _MAX_TERMS_ENV is None:
        return DEFAULT_MAX_TERMS
    try:
        cap = int(_MAX_TERMS_ENV)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BadParameters(
            f"DETSING_MAX_TERMS must be a positive integer, got {_MAX_TERMS_ENV!r}"
        )
    return cap


class MonomialOrder:
    """A total order on exponent tuples given by a flat integer sort key.

    key(m) ascends with the order; heap_key is its negation (for min-heaps
    that must pop the largest monomial first).
    """

    __slots__ = ("spec", "key")

    def __init__(self, spec: tuple, key):
        self.spec = spec
        self.key = key

    def heap_key(self, m):
        return tuple(-x for x in self.key(m))

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"MonomialOrder{self.spec!r}"


def grevlex_order(ring_: Ring) -> MonomialOrder:
    return MonomialOrder(("grevlex", ring_.nvars), grevlex_key)


def lex_order(ring_: Ring) -> MonomialOrder:
    return MonomialOrder(("lex", ring_.nvars), tuple)


def elimination_order(ring_: Ring, front_names: Iterable[str]) -> MonomialOrder:
    """Block order eliminating front_names: grevlex on the front block,
    ties broken by grevlex on the rest. Any basis element free of the front
    block then generates the elimination ideal."""
    front = tuple(ring_.index[n] for n in front_names)
    front_set = set(front)
    back = tuple(i for i in range(ring_.nvars) if i not in front_set)

    def key(m):
        head = (sum(m[i] for i in front),) + tuple(-m[i] for i in reversed(front))
        tail = (sum(m[i] for i in back),) + tuple(-m[i] for i in reversed(back))
        return head + tail

    return MonomialOrder(("elim", ring_.nvars, front), key)


class _Gen:
    """A basis element: term dict plus cached leading data and sugar."""

    __slots__ = ("terms", "lm", "lc", "sugar", "age")

    def __init__(self, terms: dict, order: MonomialOrder, sugar: int, age: int):
        self.terms = terms
        self.lm = max(terms, key=order.key)
        self.lc = terms[self.lm]
        self.sugar = sugar
        self.age = age


def _reduce_terms(terms: dict, basis: list, order: MonomialOrder, field, max_terms: int) -> dict:
    """Full normal form of a term dict against the basis elements.

    Lazy max-heap over candidate monomials; every monomial introduced by a
    reduction step is strictly smaller than the one just cancelled, so each
    monomial is settled exactly once.
    """
    if not terms:
        return {}
    work = dict(terms)
    heap = [(order.heap_key(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict = {}
    reduce, div = field.reduce, field.div
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if c is None:
            continue
        reducer = None
        for g in basis:
            if m_divides(g.lm, m):
                reducer = g
                break
        if reducer is None:
            remainder[m] = c
            del work[m]
            continue
        shift = m_div(m, reducer.lm)
        coef = div(c, reducer.lc)
        for gm, gc in reducer.terms.items():
            tm = m_mul(gm, shift)
            cur = work.get(tm)
            if cur is None:
                val = reduce(-gc * coef)
                if val:
                    work[tm] = val
                    heapq.heappush(heap, (order.heap_key(tm), tm))
            else:
                val = reduce(cur - gc * coef)
                if val:
                    work[tm] = val
                else:
                    del work[tm]
        if len(work) + len(remainder) > max_terms:
            raise ResourceLimit(
                f"normal form exceeded the term cap ({max_terms}); "
                "raise max_terms (DETSING_MAX_TERMS) to continue",
                term_count=len(work) + len(remainder),
            )
    return remainder


def _spoly_terms(g1: _Gen, g2: _Gen, lcm, field) -> dict:
    """Term dict of the S-polynomial of g1 and g2, whose leading monomials
    have the given lcm."""
    s1 = m_div(lcm, g1.lm)
    s2 = m_div(lcm, g2.lm)
    reduce = field.reduce
    inv1 = field.inv(g1.lc)
    inv2 = field.inv(g2.lc)
    terms: dict = {}
    for m, c in g1.terms.items():
        terms[m_mul(m, s1)] = reduce(c * inv1)
    for m, c in g2.terms.items():
        tm = m_mul(m, s2)
        val = reduce(terms.get(tm, 0) - c * inv2)
        if val:
            terms[tm] = val
        else:
            del terms[tm]
    return terms


def _coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _update(G: list, pairs: list, h: _Gen, order: MonomialOrder):
    """Gebauer-Moeller installation of a new basis element h.

    Forms the filtered pairs (g, h), prunes old pairs whose lcm is a proper
    multiple of lm(h), removes the basis elements whose leading monomial
    became divisible by lm(h), and appends h. `pairs` is a heap of
    (priority, lcm, g, h) entries with priority (sugar, key(lcm), ages):
    the ages make every priority unique, so the pop order never depends on
    the heap layout.
    """
    # candidate new pairs, smallest lcm first
    cands = sorted((order.key(lcm := m_lcm(g.lm, h.lm)), g.age, lcm, g) for g in G)
    kept: list = []
    # ascending lcm order: any proper divisor of the current lcm was seen
    # already, so filtering against `kept` realizes the chain criterion
    for key, _, lcm, g in cands:
        if any(other != lcm and m_divides(other, lcm) for _, other, _ in kept):
            continue
        # Buchberger's coprimality criterion: the S-pair reduces to zero,
        # but the pair still participates in the filter above
        kept.append((key, lcm, g))
    # prune old pairs: drop (g1, g2) when lm(h) properly divides their lcm
    pairs[:] = [
        (priority, lcm, g1, g2) for priority, lcm, g1, g2 in pairs
        if not (m_divides(h.lm, lcm) and m_lcm(g1.lm, h.lm) != lcm and m_lcm(g2.lm, h.lm) != lcm)
    ]
    heapq.heapify(pairs)
    deg_h = sum(h.lm)
    for key, lcm, g in kept:
        if not _coprime(g.lm, h.lm):
            deg = sum(lcm)
            sugar = max(g.sugar + deg - sum(g.lm), h.sugar + deg - deg_h)
            heapq.heappush(pairs, ((sugar,) + key + (g.age, h.age), lcm, g, h))
    # retire basis elements made redundant by h
    G[:] = [g for g in G if not (m_divides(h.lm, g.lm) and g.lm != h.lm)]
    G.append(h)


class GroebnerBasis:
    """A reduced, monic Groebner basis bound to a ring and an order."""

    __slots__ = ("ring", "order", "polys", "_gens")

    def __init__(self, ring_: Ring, order: MonomialOrder, polys: tuple):
        self.ring = ring_
        self.order = order
        self.polys = polys
        self._gens = [
            _Gen(p.terms, order, p.total_degree(), i) for i, p in enumerate(polys)
        ]

    def reduce(self, f: Polynomial, max_terms: int = None) -> Polynomial:
        """Full normal form of f against the basis."""
        if f.ring != self.ring:
            raise RingMismatch("polynomial is not in the basis ring")
        terms = _reduce_terms(
            f.terms, self._gens, self.order, self.ring.field, term_cap(max_terms)
        )
        return Polynomial(self.ring, terms)

    def contains(self, f: Polynomial, max_terms: int = None) -> bool:
        return self.reduce(f, max_terms=max_terms).is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_one()

    def leading_monomials(self) -> list:
        return [g.lm for g in self._gens]

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return f"<groebner basis, {len(self.polys)} elements, {self.order!r}>"


def groebner(
    gens,
    order: MonomialOrder = None,
    *,
    max_basis: int = None,
    max_terms: int = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the given generators (list or Ideal).

    Raises ResourceLimit when the basis or any working polynomial outgrows
    its cap. The result is independent of generator order (tested).
    """
    max_basis = DEFAULT_MAX_BASIS if max_basis is None else max_basis
    max_terms = term_cap(max_terms)
    gen_list = list(gens.gens) if hasattr(gens, "gens") else list(gens)
    if not gen_list:
        raise ValueError("need at least one generator (possibly zero)")
    ring_ = gen_list[0].ring
    for g in gen_list:
        if g.ring != ring_:
            raise RingMismatch("generators live in different rings")
    if order is None:
        order = grevlex_order(ring_)
    field = ring_.field

    # deterministic seed order: by leading monomial, then term count, then text
    nonzero = [g for g in gen_list if not g.is_zero()]
    if not nonzero:
        # the zero ideal: empty basis, reduce() is the identity
        return GroebnerBasis(ring_, order, ())
    nonzero.sort(key=lambda g: (order.key(g.leading(order.key)[0]), g.num_terms(), g.format()))

    G: list = []
    pairs: list = []
    ages = itertools.count()
    for g in nonzero:
        reduced = _reduce_terms(g.terms, G, order, field, max_terms)
        if reduced:
            sugar = max(sum(m) for m in reduced)
            _update(G, pairs, _Gen(reduced, order, sugar, next(ages)), order)

    while pairs:
        if len(G) > max_basis:
            raise ResourceLimit(f"basis exceeded the size cap ({max_basis})", basis_size=len(G))
        priority, lcm, g1, g2 = heapq.heappop(pairs)
        reduced = _reduce_terms(_spoly_terms(g1, g2, lcm, field), G, order, field, max_terms)
        if reduced:
            _update(G, pairs, _Gen(reduced, order, priority[0], next(ages)), order)

    # Inter-reduce the survivors into the unique reduced basis. No leading
    # monomial divides another, so each element keeps its leading term, and
    # sorting G by it once puts the result in order.
    G.sort(key=lambda g: order.key(g.lm))
    polys = []
    for i, g in enumerate(G):
        terms = _reduce_terms(g.terms, G[:i] + G[i + 1:], order, field, max_terms)
        inv = field.inv(g.lc)
        polys.append(Polynomial(ring_, {m: field.reduce(c * inv) for m, c in terms.items()}))
    return GroebnerBasis(ring_, order, tuple(polys))


def normal_form(f: Polynomial, basis: GroebnerBasis, max_terms: int = None) -> Polynomial:
    return basis.reduce(f, max_terms=max_terms)
