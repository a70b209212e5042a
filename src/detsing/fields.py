"""Coefficient fields: the rationals and prime fields.

Elements are plain Python values: over Q an int when integral, else a
Fraction; ints in range(p) over F_p. Keeping elements unboxed matters;
coefficient ops sit in the innermost loops of multiplication and
normal-form reduction, and int arithmetic is far cheaper than Fraction's.

Callers combine elements with raw + - * and pass the result (a sum of
products may be reduced once at the end) through ``field.reduce``, which
maps a raw value to its canonical element: over Q an integral Fraction
becomes its int, over F_p it is ``a % p``. Only ``of``, ``inv``, ``div``
and ``neg`` are field-specific; ``of`` takes an int or a Fraction and
raises TypeError on anything else, a bool included.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParameters


def _exact(value):
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"not an exact coefficient: {value!r}")
    return value


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """The field Q. Elements are ints when integral, else fractions.Fraction
    with denominator > 1; the two compare and hash alike. Never int / int,
    which is a float."""

    char = 0
    zero = 0
    one = 1

    def of(self, value):
        return self.reduce(Fraction(_exact(value)))

    def reduce(self, a):
        return a.numerator if a.denominator == 1 else a

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.reduce(Fraction(1, a))

    def div(self, a, b):
        return self.reduce(Fraction(a, b))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(("field", 0))

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p, an int. Elements are ints in range(p)."""

    def __init__(self, p: int):
        if type(p) is not int or not _is_prime(p):
            raise BadParameters(f"not a prime: {p!r}")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def of(self, value):
        value = _exact(value)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        return value % self.p

    def reduce(self, a):
        return a % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def require_field(field):
    """Refuse, as BadParameters, a value that does not behave as a
    coefficient field: it needs an int ``char`` and the element operations
    ``of``, ``reduce``, ``neg``, ``inv`` and ``div``."""
    if type(getattr(field, "char", None)) is not int or not all(
        callable(getattr(field, op, None)) for op in ("of", "reduce", "neg", "inv", "div")
    ):
        raise BadParameters(f"not a coefficient field: {field!r}")


def field_from_name(name: str):
    """Parse a field spec as used by the CLI and JSON formats.

    "Q" (or "QQ") is the rationals; "Fp:7" (or "GF(7)") is a prime field.
    Anything else, a spec that is not a string included, raises
    BadParameters.
    """
    if not isinstance(name, str):
        raise BadParameters(f"a field spec must be a string, got {name!r}")
    text = name.strip()
    if text in ("Q", "QQ"):
        return QQ
    for prefix, suffix in (("Fp:", ""), ("GF(", ")"), ("F", "")):
        if text.startswith(prefix) and text.endswith(suffix) and len(text) > len(prefix) + len(suffix):
            body = text[len(prefix):len(text) - len(suffix)] if suffix else text[len(prefix):]
            if body.isdigit():
                return PrimeField(int(body))
    raise BadParameters(f"unrecognized field {name!r} (expected Q or Fp:<prime>)")


def field_name(field) -> str:
    return "Q" if field.char == 0 else f"Fp:{field.char}"
