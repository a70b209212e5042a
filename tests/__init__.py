"""The test suite. Its shared helpers: the fields the standing facts are
checked over, and (in ``oracles``) the independent cross-check routes."""

from detsing.fields import QQ, PrimeField

DEFAULT_PRIMES = (3, 5, 7, 101)


def default_fields(primes=DEFAULT_PRIMES):
    return (QQ,) + tuple(PrimeField(p) for p in primes)
