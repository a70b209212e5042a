"""Buchberger engine: monomial orders, normal forms, reduced bases.

The engine is deterministic end to end: generators are seeded in a sorted
order, pair selection breaks ties by insertion age, and the returned basis
is reduced, monic, and sorted. Resource caps (basis size, working term
count) raise ResourceLimit; they never produce a wrong answer.

Pair bookkeeping follows the complete Gebauer-Moeller update (Gebauer &
Moeller, JSC 1988): the chain criterion, one pair per lcm, no pair for an
lcm that some coprime pair has, and pruning of old pairs whose lcm strictly
contains the new leading monomial. Pairs are selected by the sugar
strategy. Each pending pair carries the lcm and the sugar computed when it
was formed, and the working basis holds only live elements: retired ones
are removed, and the survivors keep their order. A pruned pair is not
removed from the heap: its entry is marked dead in place, and the pair loop
drops it when it is popped.

Support masks (Bachmann & Schoenemann, ISSAC '98) stand in front of the
exponent comparisons: a monomial whose support has a variable the other
lacks cannot divide it. The reducer scan, the chain filter, the pruning of
old pairs and the retiring of basis elements test masks before
divisibility, and disjoint masks decide coprimality. Masks see the first
64 variables only, so in wider rings the coprimality test also compares
exponents.
"""

from __future__ import annotations

import heapq
import itertools
import os
from operator import itemgetter, neg
from typing import Iterable

from .errors import BadParameters, ResourceLimit, RingMismatch
from .rings import (
    Polynomial,
    Ring,
    grevlex_heap_key,
    grevlex_key,
    m_div,
    m_divides,
    m_lcm,
    m_mask,
    m_mul,
)

DEFAULT_MAX_BASIS = 2000
DEFAULT_MAX_TERMS = 200_000
_MAX_TERMS_ENV = os.environ.get("DETSING_MAX_TERMS")


def _positive(name: str, value) -> int:
    """value when it is an int >= 1 and not a bool, else BadParameters."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise BadParameters(f"{name} must be a positive integer, got {value!r}")
    return value


def term_cap(max_terms: int = None) -> int:
    """The term cap of a call: max_terms when given, else the
    DETSING_MAX_TERMS environment variable (read at import), else
    DEFAULT_MAX_TERMS.

    A cap that is not a positive integer raises BadParameters; for the
    variable that happens here, at the first capped call, so that importing
    the package still succeeds.
    """
    if max_terms is not None:
        return _positive("max_terms", max_terms)
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

    key(m) ascends with the order; heap_key(m) is its negation, built
    directly, for min-heaps that must pop the largest monomial first.
    """

    __slots__ = ("spec", "key", "heap_key")

    def __init__(self, spec: tuple, key, heap_key):
        self.spec = spec
        self.key = key
        self.heap_key = heap_key

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"MonomialOrder{self.spec!r}"


def grevlex_order(ring_: Ring) -> MonomialOrder:
    return MonomialOrder(("grevlex", ring_.nvars), grevlex_key, grevlex_heap_key)


def lex_order(ring_: Ring) -> MonomialOrder:
    return MonomialOrder(("lex", ring_.nvars), tuple, lambda m: tuple(map(neg, m)))


def elimination_order(ring_: Ring, front_names: Iterable[str]) -> MonomialOrder:
    """Block order eliminating front_names: grevlex on the front block,
    ties broken by grevlex on the rest. Any basis element free of the front
    block then generates the elimination ideal."""
    front = tuple(ring_.index[n] for n in front_names)
    front_set = set(front)
    back = tuple(i for i in range(ring_.nvars) if i not in front_set)
    # each block reversed, as grevlex compares it; itemgetter of a single
    # index returns the item, and then the permutation is the identity
    perm = front[::-1] + back[::-1]
    permute = itemgetter(*perm) if len(perm) > 1 else tuple
    k = len(front)

    def key(m):
        v = permute(m)
        f, b = v[:k], v[k:]
        return (sum(f), *map(neg, f), sum(b), *map(neg, b))

    def heap_key(m):
        v = permute(m)
        f, b = v[:k], v[k:]
        return (-sum(f),) + f + (-sum(b),) + b

    return MonomialOrder(("elim", ring_.nvars, front), key, heap_key)


class _Gen:
    """A basis element: term dict plus its leading monomial, the leading
    coefficient, the support mask of the leading monomial, and sugar."""

    __slots__ = ("terms", "lm", "lc", "mask", "sugar", "age")

    def __init__(self, terms: dict, lm, sugar: int, age: int):
        self.terms = terms
        self.lm = lm
        self.lc = terms[lm]
        self.mask = m_mask(lm)
        self.sugar = sugar
        self.age = age


def _reduce_terms(terms: dict, basis: list, order: MonomialOrder, field, max_terms: int) -> dict:
    """Full normal form of a term dict against the basis elements.

    Lazy max-heap over candidate monomials; every monomial introduced by a
    reduction step is strictly smaller than the one just cancelled, so each
    monomial is settled exactly once, from the largest down: the first key
    of the remainder is its leading monomial.
    """
    if not terms:
        return {}
    work = dict(terms)
    heap_key = order.heap_key
    heap = [(heap_key(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict = {}
    reduce, div = field.reduce, field.div
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.get(m)
        if c is None:
            continue
        off = ~m_mask(m)
        for g in basis:
            if not (g.mask & off) and m_divides(g.lm, m):
                break
        else:
            remainder[m] = c
            del work[m]
            continue
        shift = m_div(m, g.lm)
        coef = div(c, g.lc)
        for gm, gc in g.terms.items():
            tm = m_mul(gm, shift)
            cur = work.get(tm)
            if cur is None:
                val = reduce(-gc * coef)
                if val:
                    work[tm] = val
                    heapq.heappush(heap, (heap_key(tm), tm))
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
    became divisible by lm(h), and appends h. Of the new pairs, the chain
    criterion drops those whose lcm is a proper multiple of another new
    pair's lcm; of those that share an lcm, only the one with the oldest g
    is kept, and none is kept when any of them is coprime. `pairs` is a
    heap of [priority, lcm, lcm mask, g, h] entries with priority (sugar,
    key(lcm), ages): the ages make every priority unique, so the pop order
    never depends on the heap layout. A pruned entry stays in the heap with
    g set to None, and groebner() skips it when it is popped.
    """
    hlm, hmask = h.lm, h.mask
    # the masks see the first 64 variables only; past them, disjoint masks
    # do not make two monomials coprime
    wide = len(hlm) > 64
    # candidate new pairs, smallest lcm first, pairs sharing an lcm adjacent
    cands = sorted((order.key(lcm := m_lcm(g.lm, hlm)), g.age, lcm, g) for g in G)
    # one [key, lcm, lcm mask, g] per distinct lcm, g None when a pair with
    # it is coprime
    kept: list = []
    # Ascending lcm order: any proper divisor of the current lcm was seen
    # already, so filtering against `kept` realizes the chain criterion.
    # Buchberger's coprimality criterion: a coprime pair's S-polynomial
    # reduces to zero and makes the other pairs with its lcm redundant, but
    # the lcm still takes part in the chain filter.
    for key, _, lcm, g in cands:
        coprime = not (g.mask & hmask) and (not wide or _coprime(g.lm, hlm))
        if kept and kept[-1][1] == lcm:
            if coprime:
                kept[-1][3] = None
            continue
        mask = g.mask | hmask
        off = ~mask
        for other in kept:
            if not (other[2] & off) and m_divides(other[1], lcm):
                break
        else:
            kept.append([key, lcm, mask, None if coprime else g])
    # prune old pairs: mark (g1, g2) dead when lm(h) properly divides their lcm
    for entry in pairs:
        if not (hmask & ~entry[2]) and entry[3] is not None:
            lcm = entry[1]
            if m_divides(hlm, lcm) and m_lcm(entry[3].lm, hlm) != lcm and m_lcm(entry[4].lm, hlm) != lcm:
                entry[3] = None
    deg_h = sum(hlm)
    for key, lcm, mask, g in kept:
        if g is not None:
            deg = sum(lcm)
            sugar = max(g.sugar + deg - sum(g.lm), h.sugar + deg - deg_h)
            heapq.heappush(pairs, [(sugar,) + key + (g.age, h.age), lcm, mask, g, h])
    # retire basis elements made redundant by h; h is reduced against G, so
    # lm(h) divides no lm in G without properly dividing it
    G[:] = [g for g in G if hmask & ~g.mask or not m_divides(hlm, g.lm)]
    G.append(h)


class GroebnerBasis:
    """A reduced, monic Groebner basis bound to a ring and an order."""

    __slots__ = ("ring", "order", "polys", "_gens")

    def __init__(self, ring_: Ring, order: MonomialOrder, polys: tuple, lms=None):
        """lms: the leading monomials of polys, when they are already known."""
        self.ring = ring_
        self.order = order
        self.polys = polys
        if lms is None:
            lms = [max(p.terms, key=order.key) for p in polys]
        # sugar and age steer pair selection only, which a finished basis has done
        self._gens = [_Gen(p.terms, lm, 0, 0) for p, lm in zip(polys, lms)]

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
    max_basis = DEFAULT_MAX_BASIS if max_basis is None else _positive("max_basis", max_basis)
    max_terms = term_cap(max_terms)
    gen_list = list(gens.gens) if hasattr(gens, "gens") else list(gens)
    if not gen_list:
        raise ValueError("need at least one generator (possibly zero)")
    ring_ = gen_list[0].ring if isinstance(gen_list[0], Polynomial) else None
    for g in gen_list:
        if not isinstance(g, Polynomial) or g.ring != ring_:
            raise RingMismatch("generators must be polynomials of one ring")
    if order is None:
        order = grevlex_order(ring_)
    field = ring_.field

    # deterministic seed order: by leading monomial, then term count, then
    # text; the text is printed only for runs that tie on the first two
    keyed = sorted(
        (((order.key(g.leading(order.key)[0]), g.num_terms()), g) for g in gen_list if g.terms),
        key=itemgetter(0),
    )
    if not keyed:
        # the zero ideal: empty basis, reduce() is the identity
        return GroebnerBasis(ring_, order, ())
    nonzero: list = []
    for _, run in itertools.groupby(keyed, key=itemgetter(0)):
        run = [g for _, g in run]
        nonzero += sorted(run, key=Polynomial.format) if len(run) > 1 else run

    G: list = []
    pairs: list = []
    ages = itertools.count()
    for g in nonzero:
        reduced = _reduce_terms(g.terms, G, order, field, max_terms)
        if reduced:
            sugar = max(sum(m) for m in reduced)
            _update(G, pairs, _Gen(reduced, next(iter(reduced)), sugar, next(ages)), order)

    while pairs:
        priority, lcm, _, g1, g2 = heapq.heappop(pairs)
        if g1 is None:
            continue
        if len(G) > max_basis:
            raise ResourceLimit(f"basis exceeded the size cap ({max_basis})", basis_size=len(G))
        reduced = _reduce_terms(_spoly_terms(g1, g2, lcm, field), G, order, field, max_terms)
        if reduced:
            _update(G, pairs, _Gen(reduced, next(iter(reduced)), priority[0], next(ages)), order)

    # Inter-reduce the survivors into the unique reduced basis. No leading
    # monomial divides another, so each element keeps its leading term, and
    # sorting G by it once puts the result in order.
    G.sort(key=lambda g: order.key(g.lm))
    polys = []
    for i, g in enumerate(G):
        terms = _reduce_terms(g.terms, G[:i] + G[i + 1:], order, field, max_terms)
        inv = field.inv(g.lc)
        polys.append(Polynomial(ring_, {m: field.reduce(c * inv) for m, c in terms.items()}))
    return GroebnerBasis(ring_, order, tuple(polys), [g.lm for g in G])


def normal_form(f: Polynomial, basis: GroebnerBasis, max_terms: int = None) -> Polynomial:
    return basis.reduce(f, max_terms=max_terms)
