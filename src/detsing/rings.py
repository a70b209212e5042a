"""Exact sparse multivariate polynomials over Q or F_p.

A polynomial is a canonical term map: dict from exponent tuple to nonzero
coefficient. Exponent tuples are dense (one slot per ring variable), which
keeps monomial arithmetic at tuple speed for the ring sizes that occur here
(up to a few dozen variables). The zero polynomial is the empty map.

Coefficients follow ``fields``: raw + - *, then ``field.reduce``. Sums of
products (multiplication, substitution, parsing) accumulate raw values in
one dict and reduce each coefficient once, in ``Polynomial._reduced``.

The Groebner kernel, ``sum_of_products`` (the sum of products c*f*g
behind the determinant routes) and ``_exact_div_terms`` (the division
behind Bareiss and ``exact_div``) work on one packed-int monomial layout,
``_Packing`` (Bachmann & Schoenemann, ISSAC '98). Packed ints never leave
them and the matrix routes; every other routine, ``Polynomial.__mul__``
and ``Substitution`` included, works on exponent tuples.

A substitution renames by one gather per term and multiplies in its other
images factor by factor; the chart trees meet those at power 1 or 2.

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
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import add, itemgetter, mul, neg
from typing import Iterable

from .errors import (
    BadParameters,
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


def grevlex_key(a: Monomial):
    """Sort key of the print order, graded reverse lex: higher key = larger
    monomial. Every order of the Groebner kernel is a _Packing instead."""
    return (sum(a),) + tuple(map(neg, reversed(a)))


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
        names = as_tuple(names, "a ring's variable names")
        seen = set()
        for n in names:
            if not isinstance(n, str) or not _NAME_RE.fullmatch(n):
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
        try:
            i = self.index.get(name)
        except TypeError:
            # an unhashable name is no variable
            i = None
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
        return cls(json_list(data, "vars"), field_from_name(data.get("field")))

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


def json_list(data, key: str) -> list:
    """data[key] when data is a JSON object and data[key] a list."""
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, list):
        raise BadParameters(f"expected a JSON object whose {key!r} is a list")
    return value


def as_tuple(value, what: str) -> tuple:
    """value as a tuple when it is an iterable other than a string; anything
    else raises BadParameters naming what it should be."""
    if not isinstance(value, str):
        try:
            items = iter(value)
        except TypeError:
            pass
        else:
            # a TypeError raised while iterating is the caller's own
            return tuple(items)
    raise BadParameters(f"{what} must be a collection, not {value!r}")


def require_ring(value) -> Ring:
    """value when it is a Ring, else BadParameters."""
    if not isinstance(value, Ring):
        raise BadParameters(f"expected a Ring, got {type(value).__name__}")
    return value


def require_polynomials(ring_, polys) -> tuple:
    """polys as a tuple when each is a Polynomial of ring_, or of the first
    one's ring when ring_ is None; anything else raises BadParameters, and a
    polynomial of another ring RingMismatch."""
    polys = as_tuple(polys, "polynomials")
    for f in polys:
        if not isinstance(f, Polynomial):
            raise BadParameters(f"expected a Polynomial, got {type(f).__name__}")
        if ring_ is None:
            ring_ = f.ring
        elif f.ring is not ring_ and f.ring != ring_:
            raise RingMismatch(f"a polynomial of {f.ring!r}, not of {ring_!r}")
    return polys


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
        try:
            i = self.ring.index.get(name)
        except TypeError:
            i = None
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

    def sorted_terms(self) -> list:
        """Terms as (monomial, coeff), descending in grevlex, the print order."""
        return sorted(self.terms.items(), key=lambda item: grevlex_key(item[0]), reverse=True)

    def leading(self):
        """(monomial, coeff) of the grevlex leading term."""
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        m = max(self.terms, key=grevlex_key)
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

    The first call builds a plan that later calls reuse. A source variable
    whose image is one target variable with coefficient one is a rename,
    unless an earlier source renames to that variable: one gather
    (``operator.itemgetter`` over the exponent tuple padded with a zero)
    moves a term's renamed exponents to their target positions. Every other
    variable at a nonzero exponent e then multiplies each partial term by
    its image's terms e times, and like monomials are collected only over
    the result. Work repeats only where repeated partial terms meet a
    further factor, e.g. from the third factor of a power of a multi-term
    image on; the result stays exact. The chart trees never get there:
    their images are monomials or polynomials met at power 1, and the
    squares of multi-term images at the empty leaves of trees like sym 6/3
    repeat nothing.
    """

    __slots__ = ("source", "target", "images", "_plan")

    def __init__(self, source: Ring, target: Ring, images: dict):
        if require_ring(source).field != require_ring(target).field:
            raise RingMismatch("source and target rings have different fields")
        if not isinstance(images, dict):
            raise BadParameters(f"a substitution's images form a dict, got {type(images).__name__}")
        self.source = source
        self.target = target
        resolved = {}
        for name, img in images.items():
            if name not in source.index:
                raise UnknownVariable(f"{name!r} is not a variable of the source ring")
            resolved[name] = target.parse(img) if isinstance(img, str) else img
        require_polynomials(target, resolved.values())
        for name in source.names:
            if name not in resolved:
                if name not in target.index:
                    raise UnknownVariable(
                        f"no image for {name!r} and the target ring has no variable of that name"
                    )
                resolved[name] = target.var(name)
        self.images = resolved
        self._plan = None

    def _make_plan(self) -> tuple:
        """(gather, image terms, flags): the plan of the class docstring."""
        one, n = self.target.field.one, self.source.nvars
        # each target position reads the padding zero unless a source renames to it
        order = [n] * self.target.nvars
        images, general = [], []
        for i, name in enumerate(self.source.names):
            items = list(self.images[name].terms.items())
            m, c = items[0] if len(items) == 1 else ((), None)
            renamed = c == one and sum(m) == 1 and order[m.index(1)] == n
            if renamed:
                order[m.index(1)] = i
            images.append(items)
            general.append(int(not renamed))
        self._plan = _gather(order), images, general
        return self._plan

    def __call__(self, f: Polynomial) -> Polynomial:
        if not isinstance(f, Polynomial) or f.ring is not self.source and f.ring != self.source:
            require_polynomials(self.source, [f])
        gather, images, general = self._plan or self._make_plan()
        acc: dict = {}
        get = acc.get
        for mono, coeff in f.terms.items():
            term = [(gather(mono + (0,)), coeff)]
            for e, items in compress(zip(mono, images), map(mul, mono, general)):
                for _ in range(e):
                    term = [(m_mul(m1, m2), c1 * c2) for m1, c1 in term for m2, c2 in items]
            for m, c in term:
                acc[m] = get(m, 0) + c
        return Polynomial._reduced(self.target, acc)

    def then(self, later: "Substitution") -> "Substitution":
        """Composition: first self, then later."""
        if not isinstance(later, Substitution):
            raise BadParameters(f"a substitution composes with a substitution, not {later!r}")
        if self.target is not later.source and self.target != later.source:
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
    require_polynomials(None, [f])
    if f.ring.field != require_ring(target).field:
        raise RingMismatch("embedding rings have different fields")
    if f.ring == target:
        return f
    names, n = f.ring.names, f.ring.nvars
    # only the names f uses must exist in the target
    lacking = [i for i, name in enumerate(names) if name not in target.index]
    lost = next((i for mono in f.terms for i in lacking if mono[i]), None)
    if lost is not None:
        raise UnknownVariable(f"{names[lost]!r} does not exist in the target ring")
    # each target position reads its name's exponent, or the padding zero
    gather = _gather([f.ring.index.get(name, n) for name in target.names])
    return Polynomial(target, {gather(mono + (0,)): coeff for mono, coeff in f.terms.items()})


def _gather(order: list):
    """The tuple of a sequence's entries at the indices in order."""
    # itemgetter returns a scalar for one index and takes no empty list
    return itemgetter(*order) if len(order) > 1 else lambda m: tuple([m[i] for i in order])


# -- packed monomials ---------------------------------------------------------


class _Overflow(Exception):
    """A packed field would pass its largest value M."""


class _Packing:
    """The packed monomials of one order spec at field width W.

    The spec is ("grevlex", n), ("lex", n) or ("elim", n, front indices),
    as ``groebner.MonomialOrder.spec`` gives it. The fields, most
    significant first, with M = 2^(W-1) - 1 the largest field value, are
    [deg, M - x_n, ..., M - x_1] for grevlex, the same per block for an
    elimination order (front block first, an empty block left out), and
    [x_1, ..., x_n] for lex, so the int order is the monomial order.

    Each field holds +1 or -1 times the exponent sum of some variables, plus
    M when negated: pack(a) = C + sum(a_i * weights[i]), so pack(a*b) =
    pack(a) + pack(b) - C. Packed a divides packed b exactly when
    (a - b + K) & GV == GC: K lifts each field of a - b into [0, 2^W), and
    a field's guard (top) bit is then set exactly when a's field is at
    least b's, if negated, or greater, if not. deg(p) adds up the fields
    that are not negated.

    p ^ C turns every M - x field into x, so each exponent field of p ^ C
    holds its exponent; unpack(p) reads them. In a grevlex packing variable
    i's field sits at shift i*W, below the degree field, so at W = 8, 16, 32
    or 64 pack and unpack go through bytes instead (_grevlex_codec) and give
    the same ints. Lex and elimination packings, other widths, the ring of
    no variables and, at 16 to 64 bits, big-endian hosts keep the weights.
    On the fields of p ^ C, lcm(a, b) takes the fieldwise max by guard-bit
    subtraction and then sums each block's exponent fields into its degree
    field with one multiplication by a ones vector; no sum carries, as a
    block degree of an lcm is at most 2M < 2^W, and one above M raises
    _Overflow. mask(p) sets the guard bit of each exponent field whose
    variable occurs in p: disjoint masks mean coprime, and a | b implies
    not (mask(a) & ~mask(b)).
    """

    __slots__ = ("spec", "width", "M", "C", "K", "GV", "GC", "weights", "slots", "deg", "lcm", "mask",
                 "pack", "unpack")

    def __init__(self, spec: tuple, width: int):
        kind, n = spec[:2]
        M = self.M = (1 << width - 1) - 1
        fm = (1 << width) - 1
        self.spec, self.width = spec, width
        # (sign, variables, degree field?), most significant first
        if kind == "lex":
            fields = [(1, (i,), False) for i in range(n)]
        else:
            front = spec[2] if kind == "elim" else ()
            blocks = [b for b in (front, tuple(i for i in range(n) if i not in front)) if b]
            fields = [f for b in blocks for f in [(1, b, True)] + [(-1, (i,), False) for i in b[::-1]]]
        # slots: the shift of each variable's exponent field
        self.weights, self.slots, shifts = [0] * n, [None] * n, []
        # E holds M in every exponent field, and none in the degree fields
        C = K = GV = GC = E = 0
        # per block: (its exponent fields' mask, ones vector, degree field)
        sums = []
        for j, (sign, block, degree) in enumerate(reversed(fields)):
            s, guard = j * width, 1 << (j + 1) * width - 1
            for i in block:
                self.weights[i] += sign << s
            if degree:
                # the block's exponent fields are the len(block) just below
                low = s - len(block) * width
                sums.append((E >> low << low, sum(1 << k * width for k in range(1, len(block) + 1)), fm << s))
            else:
                self.slots[block[0]] = s
                E += M << s
            K += M + (sign < 0) << s
            GV += guard
            if sign < 0:
                C += M << s
                GC += guard
            else:
                shifts.append(s)
        self.C, self.K, self.GV, self.GC = C, K, GV, GC
        top, W1 = (len(fields) - 1) * width, width - 1
        # for grevlex the degree is the top field
        self.deg = (lambda p: p >> top) if shifts == [top] else (lambda p: sum([p >> s & fm for s in shifts]))

        def lcm(a: int, b: int) -> int:
            a ^= C
            b ^= C
            # t has a field's guard bit where a's field is at least b's;
            # (t << 1) - (t >> W1) fills those fields with ones
            t = ((a | GV) - b) & GV
            v = (b ^ (a ^ b) & ((t << 1) - (t >> W1))) & E
            for exps, ones, field in sums:
                v |= (v & exps) * ones & field
            if v & GV:
                raise _Overflow
            return v ^ C

        self.lcm = lcm
        self.mask = lambda p: ((p ^ C) & E) + E & GV
        # arrays hold native-order items; other hosts keep the weights
        if kind == "grevlex" and n and (width == 8 or sys.byteorder == "little" and width in _ARRAY_CODES):
            self.pack, self.unpack = _grevlex_codec(n, width, C, top)
        else:
            weights, slots = self.weights, self.slots
            self.pack = lambda a: sum(map(mul, a, weights), C)
            self.unpack = lambda p: tuple([(p ^ C) >> s & fm for s in slots])

    def pack_terms(self, terms: dict) -> dict:
        """Packed copy of a term dict; _Overflow when a degree passes M."""
        if max(map(sum, terms), default=0) > self.M:
            raise _Overflow
        return dict(zip(map(self.pack, terms), terms.values()))

    def unpack_terms(self, terms: dict) -> dict:
        """The term dict of a packed one."""
        return dict(zip(map(self.unpack, terms), terms.values()))


# the array type code of each field width above 8 bits
_ARRAY_CODES = {array(code).itemsize * 8: code for code in "QLIH"}


def _grevlex_codec(n: int, width: int, C: int, top: int):
    """pack and unpack of the grevlex packing of n >= 1 variables at width
    8, or at 16, 32 or 64 on a little-endian host. The exponent fields,
    below the degree field at top, read as the little-endian width-bit
    fields of a: pack(a) = C + (deg(a) << top) minus those fields as an
    int, and unpack(p) reads the first n fields of p ^ C."""
    from_bytes, size, low = int.from_bytes, (n + 1) * width // 8, n * width // 8
    if width == 8:
        return (lambda a: C + (sum(a) << top) - from_bytes(bytes(a), "little"),
                lambda p: tuple((p ^ C).to_bytes(size, "little")[:n]))
    code = _ARRAY_CODES[width]
    return (lambda a: C + (sum(a) << top) - from_bytes(array(code, a), "little"),
            lambda p: tuple(array(code, (p ^ C).to_bytes(size, "little")[:low])))


# one packing per (spec, width): building one costs tens of microseconds, and
# the matrix routes ask for one per call; specs are few, and the bound only
# keeps a long-lived caller from growing the cache
_packing = lru_cache(maxsize=256)(_Packing)


def _packing_for(spec: tuple, degree: int) -> _Packing:
    """The narrowest packing of spec, from 8 bits up by doubling, whose
    fields hold every monomial of total degree at most degree. A caller
    that knows its degree bound takes the narrowest ints; the Groebner
    kernel starts at ``groebner._WIDTH`` instead, as each redo costs it a
    whole call."""
    width = 8
    while (1 << width - 1) - 1 < degree:
        width *= 2
    return _packing(spec, width)


def sum_of_products(pk: _Packing, field, triples) -> dict:
    """The sum of c*f*g over (c, f, g) triples: c an int, f and g term
    dicts packed by pk, over the given field, whose products pk holds.

    A monomial product is p1 + p2 - C. Raw products of coefficients meet
    in one dict and each coefficient is reduced once; the result is a
    packed term dict.
    """
    C = pk.C
    acc: dict = {}
    get = acc.get
    for c, f, g in triples:
        if type(c) is not int:
            raise TypeError(f"not an int coefficient: {c!r}")
        small, large = (f, g) if len(f) <= len(g) else (g, f)
        if not (c and small):
            continue
        large_items = list(large.items())
        for m1, c1 in small.items():
            m1 -= C
            c1 *= c
            for m2, c2 in large_items:
                p = m1 + m2
                acc[p] = get(p, 0) + c1 * c2
    reduce = field.reduce
    return {p: r for p, c in acc.items() if (r := reduce(c))}


def _exact_div_terms(pk: _Packing, field, f: dict, g: dict) -> dict:
    """Quotient f/g of term dicts packed by a grevlex pk, g nonzero, when g
    divides f exactly; ValueError otherwise.

    Single-divisor reduction decides divisibility: if f = q*g then the
    leading term of g divides the leading term of f, and peeling it
    preserves divisibility. The remainder's terms sit in a lazy max-heap of
    negated ints, as in the Groebner reducer: every monomial a peeling step
    introduces is smaller than the one it cancels, so each is settled
    once, and none has a degree above deg(f), so pk holds them all when it
    holds f and g. The leading term of g cancels exactly and is skipped.
    """
    reduce, div = field.reduce, field.div
    glm = max(g)
    glc = g[glm]
    # glm divides m exactly when (lifted - m) & GV == GC
    lifted, GV, GC = glm + pk.K, pk.GV, pk.GC
    # the quotient monomial of m is m - glm + C, a tail term's product m + shift
    qshift = pk.C - glm
    tail = [(gm - glm, gc) for gm, gc in g.items() if gm != glm]
    quotient: dict = {}
    rest = dict(f)
    heap = [-m for m in rest]
    heapq.heapify(heap)
    while heap:
        m = -heapq.heappop(heap)
        c = rest.pop(m, None)
        if c is None:
            continue
        if (lifted - m) & GV != GC:
            raise ValueError("not an exact multiple")
        qc = div(c, glc)
        quotient[m + qshift] = qc
        for shift, gc in tail:
            tm = m + shift
            cur = rest.get(tm)
            if cur is None:
                # a product of nonzero field elements is nonzero
                rest[tm] = reduce(-gc * qc)
                heapq.heappush(heap, -tm)
            else:
                s = reduce(cur - gc * qc)
                if s:
                    rest[tm] = s
                else:
                    del rest[tm]
    return quotient


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when g divides f exactly; ValueError otherwise. The
    division runs on f and g packed in grevlex (see _exact_div_terms)."""
    require_polynomials(None, [f, g])
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring_ = f.ring
    pk = _packing_for(("grevlex", ring_.nvars), max(f.total_degree(), g.total_degree()))
    quotient = _exact_div_terms(pk, ring_.field, pk.pack_terms(f.terms), pk.pack_terms(g.terms))
    return Polynomial(ring_, pk.unpack_terms(quotient))


# -- exact byte strings -------------------------------------------------------


def ring_bytes(ring_: Ring) -> bytes:
    """The ring as bytes: field name and variable names, each ended by "|",
    which no field name or variable name contains."""
    return f"{field_name(ring_.field)}|{','.join(ring_.names)}|".encode()


def encode_terms(polys) -> bytes:
    """An exact byte string of the polynomials of one ring, each in its
    stored term order: decode_terms, given the ring, returns them.

    The count and "|", then per polynomial a header "terms,w,c|", its
    monomials as w bytes per exponent (w = 1 while every exponent is below
    256) and its coefficients: one byte each while every one is an int
    below 256 (c is "b"), else as c bytes of text, "," between them ("-3",
    "5/7"). The header fixes the length of each part, so no two sequences
    of polynomials share a string.
    """
    out = [b"%d|" % len(polys)]
    for f in polys:
        terms = f.terms
        try:
            monos, w = b"".join(map(bytes, terms)), 1
        except ValueError:
            w = (max(map(max, terms)).bit_length() + 7) // 8
            monos = b"".join([e.to_bytes(w, "little") for m in terms for e in m])
        try:
            coeffs, c = bytes(terms.values()), b"b"
        except (ValueError, TypeError):
            coeffs = ",".join(map(str, terms.values())).encode()
            c = b"%d" % len(coeffs)
        out.append(b"%d,%d,%s|%s%s" % (len(terms), w, c, monos, coeffs))
    return b"".join(out)


def encoded_count(data: bytes) -> int:
    """How many polynomials encode_terms wrote as data: its header's count."""
    return int(data[:data.index(b"|")])


def decode_terms(ring_: Ring, data: bytes) -> tuple:
    """The polynomials of ring_ that encode_terms wrote as data."""
    n = ring_.nvars
    pos = data.index(b"|") + 1
    polys = []
    for _ in range(encoded_count(data)):
        head = data.index(b"|", pos)
        count, w, c = data[pos:head].split(b",")
        count, w = int(count), int(w)
        pos = head + 1 + count * n * w
        flat = data[head + 1:pos]
        if w == 1:
            flat = tuple(flat)
        else:
            flat = tuple([int.from_bytes(flat[i:i + w], "little") for i in range(0, len(flat), w)])
        monos = [flat[i:i + n] for i in range(0, len(flat), n)] if n else [()] * count
        if c == b"b":
            coeffs = data[pos:pos + count]
            pos += count
        else:
            text = data[pos:pos + int(c)].decode()
            pos += int(c)
            coeffs = [Fraction(v) if "/" in v else int(v) for v in text.split(",")]
        polys.append(Polynomial(ring_, dict(zip(monos, coeffs))))
    return tuple(polys)


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
