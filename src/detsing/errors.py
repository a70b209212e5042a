"""Exception types shared across the engine.

Everything raised on purpose derives from DetsingError so callers can catch
one base class at the CLI boundary. ResourceLimit is the only "soft" failure:
it means a computation was cut off by a configured cap, never that an answer
was wrong.
"""


class DetsingError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateVariable(DetsingError):
    """A ring was declared with a repeated variable name."""


class RingMismatch(DetsingError):
    """Operands live in different rings (or over different fields)."""


class ParseError(DetsingError):
    """Polynomial text does not match the input grammar."""


class UnknownVariable(DetsingError):
    """A variable name is not declared in the relevant ring."""


class ZeroPolynomial(DetsingError):
    """The operation is undefined for the zero polynomial."""


class CharTwoForbidden(DetsingError):
    """Skew-symmetric constructions require characteristic != 2."""


class NotSkew(DetsingError):
    """The matrix is not skew-symmetric."""


class OddSize(DetsingError):
    """The pfaffian needs an even-sized matrix."""


class BadIndex(DetsingError):
    """Row or column index sets are out of range, repeated, or mis-sized."""


class NotInCenter(DetsingError):
    """The requested chart variable does not belong to the blow-up center."""


class BadParameters(DetsingError):
    """CLI or driver parameters are invalid (maps to exit code 2)."""


class SizeTooSmall(BadParameters):
    """The matrix is too small for the requested chart reduction."""


class NonHomogeneousGenerators(DetsingError):
    """Strict transform of an ideal needs generators homogeneous in the
    center variables; see the counterexample in the test suite."""


class ResourceLimit(DetsingError):
    """A Groebner computation exceeded a configured cap (basis size or term
    count). Carries enough context to re-run with a higher cap."""

    def __init__(self, message, *, basis_size=None, term_count=None):
        super().__init__(message)
        self.basis_size = basis_size
        self.term_count = term_count
