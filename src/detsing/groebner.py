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

The whole kernel works on the packed monomials of ``rings._Packing``, on
which a product is one int addition and divisibility one guard-bit test.
The pair update takes lcms fieldwise on the packed ints, sorts its
candidates by them, and decides coprimality by packed support masks:
disjoint masks mean coprime. The seeds, each reduction step, each
candidate lcm and each new pair check that no field passes its largest
value; a failed check redoes the call at twice the width
(``_widening``), so no result depends on the width. groebner()
packs and sorts its seeds and unpacks its basis once; a GroebnerBasis
packs its elements at its first reduce().
"""

from __future__ import annotations

import heapq
import itertools
import os
from operator import attrgetter, itemgetter
from typing import Iterable

from .errors import BadParameters, DuplicateVariable, ResourceLimit, RingMismatch, UnknownVariable
from .rings import Polynomial, Ring, _Overflow, _Packing, _packing, as_tuple, require_polynomials, require_ring

DEFAULT_MAX_BASIS = 2000
DEFAULT_MAX_TERMS = 200_000
_MAX_TERMS_ENV = os.environ.get("DETSING_MAX_TERMS")
_WIDTH = 16  # bits per packed field at the first try


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
    """A monomial order, named by its spec: ("grevlex", n), ("lex", n) or
    ("elim", n, front indices), for a ring of n variables. The spec is the
    whole order: ``rings._Packing`` builds from it the packed ints that
    compare in the order, and the kernel compares only those."""

    __slots__ = ("spec",)

    def __init__(self, spec: tuple):
        self.spec = spec

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"MonomialOrder{self.spec!r}"


def grevlex_order(ring_: Ring) -> MonomialOrder:
    return MonomialOrder(("grevlex", require_ring(ring_).nvars))


def lex_order(ring_: Ring) -> MonomialOrder:
    return MonomialOrder(("lex", require_ring(ring_).nvars))


def elimination_order(ring_: Ring, front_names: Iterable[str]) -> MonomialOrder:
    """Block order eliminating front_names: grevlex on the front block,
    ties broken by grevlex on the rest. Any basis element free of the front
    block then generates the elimination ideal. A name outside the ring
    raises UnknownVariable, a repeated one DuplicateVariable, and anything
    but a collection of names (a string included) BadParameters."""
    require_ring(ring_)
    names = as_tuple(front_names, "front_names")
    for n in names:
        if not isinstance(n, str) or n not in ring_.index:
            raise UnknownVariable(f"{n!r} is not a variable of {ring_!r}")
    if len(set(names)) < len(names):
        raise DuplicateVariable(f"front_names names a variable twice: {names!r}")
    return MonomialOrder(("elim", ring_.nvars, tuple(ring_.index[n] for n in names)))


def _widening(spec: tuple, run, pk: _Packing = None):
    """run(pk), by default at the first width, and while it overflows,
    again at twice the width."""
    pk = pk or _packing(spec, _WIDTH)
    while True:
        try:
            return run(pk)
        except _Overflow:
            pk = _packing(spec, 2 * pk.width)


class _Gen:
    """A basis element: packed term dict, its packed leading monomial, the
    leading coefficient, the support mask of the leading monomial, sugar,
    age and room: a multiple of the element that cancels a monomial m packs
    exactly while deg(m) <= room."""

    __slots__ = ("terms", "plm", "lc", "mask", "room", "sugar", "age")

    def __init__(self, pk: _Packing, terms: dict, sugar: int, age: int):
        self.terms = terms
        self.plm = plm = max(terms)
        self.lc = terms[plm]
        self.mask = pk.mask(plm)
        self.room = pk.M - max(map(pk.deg, terms)) + pk.deg(plm)
        self.sugar = sugar
        self.age = age


def _reduce_terms(terms: dict, basis: list, pk: _Packing, field, max_terms: int) -> dict:
    """Full normal form of a packed term dict against the basis elements.

    Lazy max-heap (of negated ints) over candidate monomials; every monomial
    introduced by a reduction step is strictly smaller than the one just
    cancelled, so each monomial is settled exactly once, from the largest
    down: the first key of the remainder is its leading monomial.
    """
    if not terms:
        return {}
    work = dict(terms)
    heap = [-m for m in work]
    heapq.heapify(heap)
    remainder: dict = {}
    reduce, div = field.reduce, field.div
    deg, K, GV, GC = pk.deg, pk.K, pk.GV, pk.GC
    while heap:
        m = -heapq.heappop(heap)
        c = work.get(m)
        if c is None:
            continue
        lifted = K - m
        for g in basis:
            if (g.plm + lifted) & GV == GC:
                break
        else:
            remainder[m] = c
            del work[m]
            continue
        if deg(m) > g.room:
            raise _Overflow
        shift = m - g.plm
        coef = div(c, g.lc)
        for gm, gc in g.terms.items():
            tm = gm + shift
            cur = work.get(tm)
            if cur is None:
                val = reduce(-gc * coef)
                if val:
                    work[tm] = val
                    heapq.heappush(heap, -tm)
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


def _spoly_terms(g1: _Gen, g2: _Gen, lcm: int, field) -> dict:
    """Packed term dict of the S-polynomial of g1 and g2, whose leading
    monomials have the given packed lcm."""
    s1 = lcm - g1.plm
    s2 = lcm - g2.plm
    reduce = field.reduce
    inv1 = field.inv(g1.lc)
    inv2 = field.inv(g2.lc)
    terms: dict = {}
    for m, c in g1.terms.items():
        terms[m + s1] = reduce(c * inv1)
    for m, c in g2.terms.items():
        tm = m + s2
        val = reduce(terms.get(tm, 0) - c * inv2)
        if val:
            terms[tm] = val
        else:
            del terms[tm]
    return terms


def _update(G: list, pairs: list, h: _Gen, pk: _Packing, max_basis: int):
    """Gebauer-Moeller installation of a new basis element h.

    Forms the filtered pairs (g, h), prunes old pairs whose lcm is a proper
    multiple of lm(h), removes the basis elements whose leading monomial
    became divisible by lm(h), and appends h. Of the new pairs, the chain
    criterion drops those whose lcm is a proper multiple of another new
    pair's lcm; of those that share an lcm, only the one with the oldest g
    is kept, and none is kept when any of them is coprime. Every monomial
    here is packed. `pairs` is a heap of [priority, g, h] entries with
    priority (sugar, lcm, g.age, h.age): the ages make every priority
    unique, so the pop order never depends on the heap layout, and the
    S-polynomial reads its lcm from priority[1]. A pruned entry stays in
    the heap with g set to None, and groebner() skips it when it is popped.
    A candidate lcm or a kept pair's S-polynomial that would not pack
    raises _Overflow. The basis grows only here, so ResourceLimit is raised
    here when it then holds more than max_basis elements.
    """
    hlm, hmask = h.plm, h.mask
    lcm, K, GV, GC = pk.lcm, pk.K, pk.GV, pk.GC
    # candidate new pairs, smallest lcm first, pairs sharing an lcm adjacent
    cands = sorted([(lcm(g.plm, hlm), g.age, g) for g in G])
    # one [lcm, g] per distinct lcm, g None when a pair with it is coprime
    kept: list = []
    # Ascending lcm order: any proper divisor of the current lcm was seen
    # already, so filtering against `kept` realizes the chain criterion.
    # Buchberger's coprimality criterion: a coprime pair's S-polynomial
    # reduces to zero and makes the other pairs with its lcm redundant, but
    # the lcm still takes part in the chain filter.
    for m, _, g in cands:
        coprime = not (g.mask & hmask)
        if kept and kept[-1][0] == m:
            if coprime:
                kept[-1][1] = None
            continue
        lifted = K - m
        for other, _ in kept:
            if (other + lifted) & GV == GC:
                break
        else:
            kept.append([m, None if coprime else g])
    # prune old pairs: mark (g1, g2) dead when lm(h) properly divides their lcm
    lifted = hlm + K
    for entry in pairs:
        if entry[1] is not None:
            m = entry[0][1]
            if (lifted - m) & GV == GC and lcm(entry[1].plm, hlm) != m and lcm(entry[2].plm, hlm) != m:
                entry[1] = None
    deg = pk.deg
    deg_h = deg(hlm)
    for m, g in kept:
        if g is not None:
            d = deg(m)
            if d > g.room or d > h.room:
                raise _Overflow
            sugar = max(g.sugar + d - deg(g.plm), h.sugar + d - deg_h)
            heapq.heappush(pairs, [(sugar, m, g.age, h.age), g, h])
    # retire basis elements made redundant by h; h is reduced against G, so
    # lm(h) divides no lm in G without properly dividing it
    G[:] = [g for g in G if (lifted - g.plm) & GV != GC]
    G.append(h)
    if len(G) > max_basis:
        raise ResourceLimit(f"basis exceeded the size cap ({max_basis})", basis_size=len(G))


class GroebnerBasis:
    """A reduced, monic Groebner basis bound to a ring and an order."""

    __slots__ = ("ring", "order", "polys", "_lms", "_packed")

    def __init__(self, ring_: Ring, order: MonomialOrder, polys: tuple, lms: list):
        """lms: the leading monomials of polys, from the kernel or saturate()."""
        self.ring = ring_
        self.order = order
        self.polys = polys
        self._lms = lms
        # (packing, packed elements), made by the first reduce()
        self._packed = (None, None)

    def reduce(self, f: Polynomial, max_terms: int = None) -> Polynomial:
        """Full normal form of f against the basis."""
        require_polynomials(self.ring, [f])
        cap = term_cap(max_terms)

        def run(pk):
            held, gens = self._packed
            if held is not pk:
                # sugar and age steer only pair selection, which is done
                gens = [_Gen(pk, pk.pack_terms(p.terms), 0, 0) for p in self.polys]
                self._packed = (pk, gens)
            terms = _reduce_terms(pk.pack_terms(f.terms), gens, pk, self.ring.field, cap)
            return Polynomial(self.ring, pk.unpack_terms(terms))

        return _widening(self.order.spec, run, self._packed[0])

    def contains(self, f: Polynomial, max_terms: int = None) -> bool:
        return self.reduce(f, max_terms=max_terms).is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_one()

    def leading_monomials(self) -> list:
        return list(self._lms)

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
    its cap. The result is independent of generator order (tested). A
    generator that is not a polynomial, or an order that is not one of the
    three kinds above, raises BadParameters; generators of two rings, or an
    order of a ring of another size, RingMismatch.
    """
    max_basis = DEFAULT_MAX_BASIS if max_basis is None else _positive("max_basis", max_basis)
    max_terms = term_cap(max_terms)
    ring_, order, seeds = _seeds(gens, order)
    if not seeds:
        # the zero ideal: empty basis, reduce() is the identity
        return GroebnerBasis(ring_, order, (), [])
    return _widening(order.spec, lambda pk: _buchberger(ring_, order, seeds, pk, max_basis, max_terms))


def seed_leading_monomials(gens) -> list:
    """Grevlex leading monomials of groebner()'s seed loop alone: the
    generators in its seed order, each reduced against the earlier nonzero
    remainders, with no S-pairs. Each remainder lies in the ideal of gens."""
    return _seed_loop(gens, None)


def _seed_loop(gens, wanted):
    """The seed loop's leading monomials, in order. Given wanted, a
    collection of monomials, the loop stops once all of them have appeared:
    the remainders of a prefix of the seeds do not depend on where the loop
    stops, so set(wanted) <= set(result) decides as the whole loop does."""
    max_terms = term_cap()
    ring_, order, seeds = _seeds(gens, None)

    def run(pk):
        G: list = []
        missing = set(wanted or ())
        for terms in _packed_seeds(seeds, pk):
            if wanted is not None and not missing:
                break
            reduced = _reduce_terms(terms, G, pk, ring_.field, max_terms)
            if reduced:
                G.append(_Gen(pk, reduced, 0, 0))  # sugar and age steer only pairs
                missing.discard(pk.unpack(G[-1].plm))
        return [pk.unpack(g.plm) for g in G]

    return _widening(order.spec, run) if seeds else []


def _seeds(gens, order):
    """groebner()'s checks; then its ring, order and nonzero generators."""
    gen_list = require_polynomials(None, gens.gens if hasattr(gens, "gens") else gens)
    if not gen_list:
        raise BadParameters("need at least one generator (possibly zero)")
    ring_ = gen_list[0].ring
    if order is None:
        order = grevlex_order(ring_)
    elif not isinstance(order, MonomialOrder) or order.spec[0] not in ("grevlex", "elim", "lex"):
        raise BadParameters(f"order must be a grevlex, elimination or lex MonomialOrder, got {order!r}")
    elif order.spec[1] != ring_.nvars:
        raise RingMismatch(f"{order!r} is an order of {order.spec[1]} variables, not {ring_.nvars}")
    return ring_, order, [g for g in gen_list if g.terms]


def _packed_seeds(seeds: list, pk: _Packing) -> list:
    """The packed term dicts of the nonzero seeds in the deterministic seed
    order: by packed leading monomial, then term count, then text; the text
    is printed only for runs that tie on the first two."""
    packed = [pk.pack_terms(g.terms) for g in seeds]
    keyed = sorted(zip([(max(t), len(t)) for t in packed], packed, seeds), key=itemgetter(0))
    out: list = []
    for _, run in itertools.groupby(keyed, key=itemgetter(0)):
        run = list(run)
        if len(run) > 1:
            run.sort(key=lambda entry: entry[2].format())
        out += [terms for _, terms, _ in run]
    return out


def _buchberger(ring_: Ring, order: MonomialOrder, seeds: list, pk: _Packing, max_basis: int,
                max_terms: int) -> GroebnerBasis:
    """The reduced basis of the nonzero seeds, on packed monomials."""
    field = ring_.field
    G: list = []
    pairs: list = []
    ages = itertools.count()
    for terms in _packed_seeds(seeds, pk):
        reduced = _reduce_terms(terms, G, pk, field, max_terms)
        if reduced:
            _update(G, pairs, _Gen(pk, reduced, max(map(pk.deg, reduced)), next(ages)), pk, max_basis)

    while pairs:
        priority, g1, g2 = heapq.heappop(pairs)
        if g1 is None:
            continue
        reduced = _reduce_terms(_spoly_terms(g1, g2, priority[1], field), G, pk, field, max_terms)
        if reduced:
            _update(G, pairs, _Gen(pk, reduced, priority[0], next(ages)), pk, max_basis)

    # Inter-reduce the survivors into the unique reduced basis. No leading
    # monomial divides another, so each element keeps its leading term, and
    # sorting G by it once puts the result in order.
    G.sort(key=attrgetter("plm"))
    polys = []
    for i, g in enumerate(G):
        terms = _reduce_terms(g.terms, G[:i] + G[i + 1:], pk, field, max_terms)
        inv = field.inv(g.lc)
        polys.append(Polynomial(ring_, {pk.unpack(m): field.reduce(c * inv) for m, c in terms.items()}))
    return GroebnerBasis(ring_, order, tuple(polys), [pk.unpack(g.plm) for g in G])


def normal_form(f: Polynomial, basis: GroebnerBasis, max_terms: int = None) -> Polynomial:
    if not isinstance(basis, GroebnerBasis):
        raise BadParameters(f"expected a GroebnerBasis, got {type(basis).__name__}")
    return basis.reduce(f, max_terms=max_terms)
