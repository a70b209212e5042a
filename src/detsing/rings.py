"""Exact sparse multivariate polynomials over Q or F_p.

A polynomial is a canonical term map: dict from exponent tuple to nonzero
coefficient. Exponent tuples are dense (one slot per ring variable), which
keeps monomial arithmetic at tuple speed for the ring sizes that occur here
(up to a few dozen variables). The zero polynomial is the empty map.

Coefficients follow ``fields``: raw + - *, then ``field.reduce``. Sums of
products (multiplication, substitution, parsing) accumulate raw values in
one dict and reduce each coefficient once, in ``Polynomial._reduced``.
``sum_of_products`` forms a whole sum of products c*f*g that way, for the
determinant routes in ``matrices``. Inside it only, each monomial is packed
one byte per variable into an int, so a monomial product is one int
addition; packing is exact while no exponent sum passes 255, and a sum it
cannot prove within that bound is taken with Polynomial arithmetic.
A substitution expands each term factor by factor, which is cheap for the
chart tree's images: monomials, or polynomials met at power 1 or 2.

Printing and parsing share one text grammar:

  poly   := ['+'|'-'] term (('+'|'-') term)*
  term   := coeff | coeff '*' powers | powers
  powers := name ['^' int] ('*' name ['^' int])*
  coeff  := int | int '/' int
  name   := [A-Za-z][A-Za-z0-9_]*

The parser accepts exactly this grammar, with optional whitespace around
operators and at either end, and raises ParseError on anything else
(``x*2``, ``2^3``, ``(x)``, ``x y``). parse(format(f)) == f for every
polynomial.
Terms print in descending graded reverse lexicographic order, so output is
deterministic.
"""

from __future__ import annotations

import heapq
import re
from functools import reduce
from itertools import compress, repeat
from operator import add, le, neg, or_, sub
from typing import Iterable

from .errors import (
    DuplicateVariable,
    ParseError,
    RingMismatch,
    UnknownVariable,
    ZeroPolynomial,
)
from .fields import QQ, field_from_name, field_name, require_field

Monomial = tuple  # dense exponent vector, one entry per ring variable


def m_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def m_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b entrywise."""
    return all(map(le, a, b))


def m_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def m_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple([x if x > y else y for x, y in zip(a, b)])


_MASK_BITS = tuple(1 << i for i in range(64))


def m_mask(a: Monomial) -> int:
    """Support mask: bit i is set exactly when variable i occurs in a.

    m_divides(a, b) implies not (m_mask(a) & ~m_mask(b)), so a nonzero
    result rules out divisibility without comparing exponents, and two
    monomials are coprime exactly when their masks are disjoint. Rings of
    up to 64 variables read the bits from a table.
    """
    if len(a) <= 64:
        return sum(compress(_MASK_BITS, a))
    return sum(1 << i for i, e in enumerate(a) if e)


def grevlex_key(a: Monomial):
    """Sort key realizing graded reverse lex: higher key = larger monomial."""
    return (sum(a),) + tuple(map(neg, reversed(a)))


def grevlex_heap_key(a: Monomial):
    """The negation of grevlex_key, for min-heaps that pop the largest
    monomial first."""
    return (-sum(a),) + a[::-1]


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SIGN_RE = re.compile(r"\s*([-+])\s*")
_COEFF_RE = re.compile(r"([0-9]+)(?:\s*/\s*([0-9]+))?")
_POWER_RE = re.compile(rf"({_NAME_RE.pattern})(?:\s*\^\s*([0-9]+))?")


class Ring:
    """A polynomial ring: a coefficient field plus an ordered variable list.

    Rings compare by value (same field, same names in the same order), so
    independently constructed rings interoperate.
    """

    __slots__ = ("field", "names", "index", "_zero_mono")

    def __init__(self, names: Iterable[str], field=QQ):
        require_field(field)
        names = tuple(names)
        seen = set()
        for n in names:
            if not _NAME_RE.fullmatch(n):
                raise ParseError(f"bad variable name {n!r}")
            if n in seen:
                raise DuplicateVariable(f"variable {n!r} declared twice")
            seen.add(n)
        self.field = field
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self._zero_mono = (0,) * len(names)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value) -> "Polynomial":
        c = self.field.of(value)
        if c == self.field.zero:
            return Polynomial(self, {})
        return Polynomial(self, {self._zero_mono: c})

    def var(self, name: str) -> "Polynomial":
        i = self.index.get(name)
        if i is None:
            raise UnknownVariable(f"{name!r} is not a variable of {self!r}")
        z = self._zero_mono
        return Polynomial(self, {z[:i] + (1,) + z[i + 1:]: self.field.one})

    def vars(self) -> tuple:
        return tuple(self.var(n) for n in self.names)

    def parse(self, text: str) -> "Polynomial":
        return _parse(self, text)

    def to_json(self) -> dict:
        return {"field": field_name(self.field), "vars": list(self.names)}

    @classmethod
    def from_json(cls, data: dict) -> "Ring":
        return cls(data["vars"], field_from_name(data["field"]))

    def __eq__(self, other):
        return (
            self is other
            or (isinstance(other, Ring) and self.field == other.field and self.names == other.names)
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        shown = ",".join(self.names[:6]) + (",..." if len(self.names) > 6 else "")
        return f"Ring({self.field!r}; {shown})"


def ring(names: Iterable[str], field=QQ) -> Ring:
    """Build a polynomial ring. Accepts a list of names or one spaced string."""
    if isinstance(names, str):
        names = names.replace(",", " ").split()
    return Ring(names, field)


class Polynomial:
    """Immutable-by-convention sparse polynomial attached to a Ring."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: dict):
        # Invariant: every stored coefficient is a nonzero canonical field
        # element. Constructors that cannot guarantee it pass through _reduced.
        self.ring = ring
        self.terms = terms
        self._hash = None

    @staticmethod
    def _reduced(ring: Ring, raw: dict) -> "Polynomial":
        """The polynomial of a raw term map (sums of products of field
        elements): each coefficient reduced once, zeros dropped."""
        reduce = ring.field.reduce
        return Polynomial(ring, {m: r for m, c in raw.items() if (r := reduce(c))})

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.ring._zero_mono in self.terms)

    def is_one(self) -> bool:
        return self.terms.get(self.ring._zero_mono) == self.ring.field.one and len(self.terms) == 1

    def constant_coefficient(self):
        return self.terms.get(self.ring._zero_mono, self.ring.field.zero)

    def num_terms(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, name: str) -> int:
        i = self._var_index(name)
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def variables(self) -> tuple:
        """Names actually occurring, in ring order."""
        return tuple(compress(self.ring.names, map(any, zip(*self.terms))))

    def is_homogeneous(self, in_vars=None) -> bool:
        """Homogeneous in total degree, or in the degree restricted to
        in_vars (an iterable of names) when given. Zero counts as homogeneous."""
        if not self.terms:
            return True
        if in_vars is None:
            degs = {sum(m) for m in self.terms}
        else:
            idx = [self._var_index(n) for n in in_vars]
            degs = {sum(m[i] for i in idx) for m in self.terms}
        return len(degs) == 1

    def order_at(self, in_vars) -> int:
        """Vanishing order along the subspace {v = 0 for v in in_vars}:
        the minimum over terms of the degree in those variables."""
        if not self.terms:
            raise ZeroPolynomial("order_at is undefined for 0")
        if isinstance(in_vars, str):
            in_vars = (in_vars,)
        idx = [self._var_index(n) for n in in_vars]
        return min(sum(m[i] for i in idx) for m in self.terms)

    def factor_out(self, name: str):
        """Write self = v^k * g with k maximal; returns (k, g)."""
        if not self.terms:
            raise ZeroPolynomial("factor_out is undefined for 0")
        i = self._var_index(name)
        k = min(m[i] for m in self.terms)
        if k == 0:
            return 0, self
        terms = {m[:i] + (m[i] - k,) + m[i + 1:]: c for m, c in self.terms.items()}
        return k, Polynomial(self.ring, terms)

    def _var_index(self, name: str) -> int:
        i = self.ring.index.get(name)
        if i is None:
            raise UnknownVariable(f"{name!r} is not a variable of {self.ring!r}")
        return i

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            self._check_ring(other)
            return other
        try:
            return self.ring.const(other)
        except (TypeError, ValueError):
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        reduce = self.ring.field.reduce
        terms = dict(self.terms)
        get = terms.get
        for m, c in other.terms.items():
            s = reduce(get(m, 0) + c)
            if s:
                terms[m] = s
            else:
                del terms[m]
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict = {}
        get = acc.get
        small, large = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        large_items = list(large.items())
        for m1, c1 in small.items():
            for m2, c2 in large_items:
                m = m_mul(m1, m2)
                acc[m] = get(m, 0) + c1 * c2
        return Polynomial._reduced(self.ring, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, sub: "Substitution") -> "Polynomial":
        return sub(self)

    # -- ordering-aware views -------------------------------------------------

    def sorted_terms(self, key=grevlex_key) -> list:
        """Terms as (monomial, coeff), descending under the given order key."""
        return sorted(self.terms.items(), key=lambda item: key(item[0]), reverse=True)

    def leading(self, key=grevlex_key):
        """(monomial, coeff) of the leading term under the given order key."""
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        m = max(self.terms, key=key)
        return m, self.terms[m]

    # -- text -----------------------------------------------------------------

    def format(self) -> str:
        if not self.terms:
            return "0"
        field = self.ring.field
        names = self.ring.names
        pieces = []
        for mono, coeff in self.sorted_terms():
            if field.char == 0:
                negative = coeff < 0
                mag = -coeff if negative else coeff
                coeff_text = str(mag)
            else:
                negative = False
                coeff_text = str(coeff)
            factors = [
                (f"{names[i]}^{e}" if e > 1 else names[i])
                for i, e in enumerate(mono)
                if e
            ]
            if not factors:
                body = coeff_text
            elif coeff_text == "1":
                body = "*".join(factors)
            else:
                body = coeff_text + "*" + "*".join(factors)
            if not pieces:
                pieces.append(("-" if negative else "") + body)
            else:
                pieces.append(("- " if negative else "+ ") + body)
        return " ".join(pieces)

    __str__ = format

    def __repr__(self):
        return f"<poly {self.format()}>"

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            if self.ring is not other.ring and self.ring != other.ring:
                return False
            return self.terms == other.terms
        try:
            other = self.ring.const(other)
        except (TypeError, ZeroDivisionError):
            # no element of the field: a float, a string, 1/p over F_p
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.names, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)


class Substitution:
    """A ring homomorphism given by images of the source variables.

    Every source variable needs an image in the target ring; names omitted
    from `images` default to the same-named target variable when one exists.
    Both rings share one field: coefficients carry over unconverted.

    A variable at exponent e multiplies each partial term by its image's
    terms e times, and like monomials are collected only over the result.
    Work repeats only where repeated partial terms meet a further factor,
    e.g. from the third factor of a power of a multi-term image on; the
    result stays exact. The chart trees never get there: their images are
    monomials or polynomials met at power 1, and the squares of multi-term
    images at the empty leaves of trees like sym 6/3 repeat nothing.
    """

    __slots__ = ("source", "target", "images", "_image_list")

    def __init__(self, source: Ring, target: Ring, images: dict):
        if source.field != target.field:
            raise RingMismatch("source and target rings have different fields")
        self.source = source
        self.target = target
        resolved = {}
        for name, img in images.items():
            if name not in source.index:
                raise UnknownVariable(f"{name!r} is not a variable of the source ring")
            if isinstance(img, str):
                img = target.parse(img)
            if img.ring != target:
                raise RingMismatch(f"image of {name!r} lives in the wrong ring")
            resolved[name] = img
        for name in source.names:
            if name not in resolved:
                if name not in target.index:
                    raise UnknownVariable(
                        f"no image for {name!r} and the target ring has no variable of that name"
                    )
                resolved[name] = target.var(name)
        self.images = resolved
        self._image_list = [resolved[n] for n in source.names]

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.ring != self.source:
            raise RingMismatch("polynomial is not in the source ring")
        images = self._image_list
        acc: dict = {}
        get = acc.get
        for mono, coeff in f.terms.items():
            term = [(self.target._zero_mono, coeff)]
            for i, e in enumerate(mono):
                if not e:
                    continue
                for _ in range(e):
                    term = [(m_mul(m1, m2), c1 * c2)
                            for m1, c1 in term for m2, c2 in images[i].terms.items()]
            for m, c in term:
                acc[m] = get(m, 0) + c
        return Polynomial._reduced(self.target, acc)

    def then(self, later: "Substitution") -> "Substitution":
        """Composition: first self, then later."""
        if self.target != later.source:
            raise RingMismatch("substitutions do not compose")
        images = {n: later(self.images[n]) for n in self.source.names}
        return Substitution(self.source, later.target, images)

    def to_json(self) -> dict:
        return {n: self.images[n].format() for n in self.source.names}

    def __repr__(self):
        return f"<substitution {len(self.source.names)} vars -> {self.target!r}>"


def embed(f: Polynomial, target: Ring) -> Polynomial:
    """Reinterpret f in a ring over its field containing all its variables
    (by name)."""
    if f.ring.field != target.field:
        raise RingMismatch("embedding rings have different fields")
    if f.ring == target:
        return f
    positions = []
    for n in f.ring.names:
        j = target.index.get(n)
        if j is None:
            # Only names actually used by f matter.
            positions.append(None)
        else:
            positions.append(j)
    width = target.nvars
    terms = {}
    for mono, coeff in f.terms.items():
        out = [0] * width
        for i, e in enumerate(mono):
            if not e:
                continue
            j = positions[i]
            if j is None:
                raise UnknownVariable(
                    f"{f.ring.names[i]!r} does not exist in the target ring"
                )
            out[j] = e
        terms[tuple(out)] = coeff
    return Polynomial(target, terms)


def sum_of_products(ring_: Ring, triples) -> Polynomial:
    """The sum of c*f*g over (c, f, g) triples, c an int, f and g in ring_.

    Raw products of coefficients meet in one dict and each coefficient is
    reduced once. Monomials are packed one byte per variable, first
    variable most significant, and no byte may carry. The bytes of the OR
    of the larger factor's packed monomials bound its exponents; a monomial
    of the smaller factor passes at once when neither has a byte of 128 or
    more, else when its exponents plus those bounds stay at most 255. A
    failed check, or an exponent above 255, sends the whole sum to
    Polynomial arithmetic. Packed ints never leave this function.
    """
    triples = list(triples)
    n = ring_.nvars
    high = int.from_bytes(b"\x80" * n, "big")
    acc: dict = {}
    get = acc.get
    try:
        for c, f, g in triples:
            if type(c) is not int:
                raise TypeError(f"not an int coefficient: {c!r}")
            if f.ring is not ring_ and f.ring != ring_ or g.ring is not ring_ and g.ring != ring_:
                raise RingMismatch("factor not in the given ring")
            small, large = (f.terms, g.terms) if len(f.terms) <= len(g.terms) else (g.terms, f.terms)
            if not (c and small):
                continue
            packed = list(map(int.from_bytes, map(bytes, large), repeat("big")))
            top = reduce(or_, packed)
            large_items = list(zip(packed, large.values()))
            for m1, c1 in small.items():
                b1 = bytes(m1)
                p1 = int.from_bytes(b1, "big")
                if (p1 | top) & high and max(map(add, b1, top.to_bytes(n, "big"))) > 255:
                    raise ValueError("an exponent sum passes 255")
                c1 *= c
                for p2, c2 in large_items:
                    p = p1 + p2
                    acc[p] = get(p, 0) + c1 * c2
    except ValueError:
        return sum((f * g * c for c, f, g in triples), ring_.zero())
    reduce_ = ring_.field.reduce
    return Polynomial(ring_, {tuple(p.to_bytes(n, "big")): r for p, c in acc.items() if (r := reduce_(c))})


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when g divides f exactly; ValueError otherwise.

    Single-divisor reduction decides divisibility: if f = q*g then the
    leading term of g divides the leading term of f under any monomial
    order, and peeling it preserves divisibility. The remainder's terms sit
    in a lazy max-heap, as in the Groebner normal form: every monomial a
    peeling step introduces is smaller than the one it cancels, so each is
    settled once. The leading term of g cancels exactly and is skipped.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check_ring(g)
    ring_ = f.ring
    field = ring_.field
    reduce, div = field.reduce, field.div
    glm, glc = g.leading()
    g_tail = [(gm, gc) for gm, gc in g.terms.items() if gm != glm]
    quotient: dict = {}
    rest = dict(f.terms)
    heap = [(grevlex_heap_key(m), m) for m in rest]
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)[1]
        c = rest.pop(m, None)
        if c is None:
            continue
        if not m_divides(glm, m):
            raise ValueError("not an exact multiple")
        qm = m_div(m, glm)
        qc = div(c, glc)
        quotient[qm] = qc
        for gm, gc in g_tail:
            tm = m_mul(gm, qm)
            cur = rest.get(tm)
            if cur is None:
                # a product of nonzero field elements is nonzero
                rest[tm] = reduce(-gc * qc)
                heapq.heappush(heap, (grevlex_heap_key(tm), tm))
            else:
                s = reduce(cur - gc * qc)
                if s:
                    rest[tm] = s
                else:
                    del rest[tm]
    return Polynomial(ring_, quotient)


# -- parsing ------------------------------------------------------------------


def _parse(ring_: Ring, text: str) -> Polynomial:
    """One pass over the signed terms of ``text``: each term's coefficient
    and monomial are read directly, then summed raw and reduced once."""
    if not isinstance(text, str):
        raise ParseError(f"polynomial text must be a string, got {text!r}")
    field, index = ring_.field, ring_.index
    pieces = _SIGN_RE.split(text.strip())
    # term, sign, term, ...: a leading sign leaves an empty first term
    pieces = pieces[1:] if pieces[0] == "" and len(pieces) > 1 else ["+"] + pieces
    acc: dict = {}
    for sign, term in zip(pieces[::2], pieces[1::2]):
        factors = [f.strip() for f in term.split("*")]
        coeff = _COEFF_RE.fullmatch(factors[0])
        c = field.one
        if coeff:
            num, den = coeff.groups()
            c = field.of(int(num))
            if den is not None:
                d = field.of(int(den))
                if d == field.zero:
                    raise ParseError(f"zero denominator in {text!r}")
                c = field.div(c, d)
            del factors[0]
        exps = list(ring_._zero_mono)
        for factor in factors:
            power = _POWER_RE.fullmatch(factor)
            if power is None:
                raise ParseError(f"bad term {term!r} in {text!r}")
            name, e = power.groups()
            i = index.get(name)
            if i is None:
                raise UnknownVariable(f"{name!r} is not a variable of {ring_!r}")
            exps[i] += 1 if e is None else int(e)
        m = tuple(exps)
        acc[m] = acc.get(m, 0) + (c if sign == "+" else -c)
    return Polynomial._reduced(ring_, acc)
