"""The rationals as int-when-integral values, held to the frozen
all-Fraction field in ``oracles``.

Every operation runs twice on the same inputs: once over ``QQ`` and once
over ``FractionQQ``. An int equals the Fraction of the same value and
hashes alike, so the two term maps must compare equal, hash equal and
print the same text. The checks on the types ``QQ`` returns sit at the end.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsing.fields import QQ
from detsing.groebner import elimination_order, grevlex_order, groebner
from detsing.matrices import generic_skew, generic_sym, minors_ideal
from detsing.resolution import chart_identity
from detsing.rings import Substitution, exact_div, ring

from .oracles import FractionQQ

FQQ = FractionQQ()


def _random_poly(rng, R, max_terms=5, max_deg=3):
    """A random polynomial with int and non-integral Fraction coefficients;
    the same rng state gives the same polynomial over either field."""
    f = R.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = R.const(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))))
        for _ in range(rng.randint(0, max_deg)):
            term = term * R.var(rng.choice(R.names))
        f = f + term
    return f


def _is_canonical_qq(c):
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)


def _assert_same(f, g):
    """f over QQ and g over FractionQQ are the same polynomial."""
    assert f.ring.names == g.ring.names
    assert f.terms == g.terms
    assert hash(frozenset(f.terms.items())) == hash(frozenset(g.terms.items()))
    assert hash(f) == hash(g)
    assert f.format() == g.format()
    assert all(map(_is_canonical_qq, f.terms.values()))
    assert all(type(c) is Fraction and c != 0 for c in g.terms.values())


def _on_both(build, seed):
    """build(rng, field) run once per field from the same seed."""
    return build(random.Random(seed), QQ), build(random.Random(seed), FQQ)


@pytest.mark.parametrize("seed", range(12))
def test_arithmetic_matches_fraction_field(seed):
    def build(rng, field):
        R = ring("x y z", field)
        f, g = _random_poly(rng, R), _random_poly(rng, R)
        return [f + g, f - g, -f, f * g, f * f - g * g, f ** 0, f ** 2, g ** 3,
                f * Fraction(3, 2), f + 1, 2 - g, f * 0]

    for a, b in zip(*_on_both(build, seed)):
        _assert_same(a, b)


@pytest.mark.parametrize("seed", range(12))
def test_substitution_matches_fraction_field(seed):
    def build(rng, field):
        src = ring("a b c", field)
        dst = ring("u v", field)
        images = {n: _random_poly(rng, dst, max_terms=3, max_deg=2) for n in src.names}
        sub = Substitution(src, dst, images)
        back = Substitution(dst, src, {n: _random_poly(rng, src, max_terms=2, max_deg=1)
                                       for n in dst.names})
        f = _random_poly(rng, src, max_terms=6, max_deg=4)
        return [sub(f), sub.then(back)(f), back(sub(f))]

    for a, b in zip(*_on_both(build, seed)):
        _assert_same(a, b)


@pytest.mark.parametrize("seed", range(12))
def test_exact_division_matches_fraction_field(seed):
    def build(rng, field):
        R = ring("x y z w", field)
        g = _random_poly(rng, R, max_terms=4)
        q = _random_poly(rng, R, max_terms=6)
        return [q, exact_div(q * g, g)] if not g.is_zero() else []

    qq, fqq = _on_both(build, seed)
    for a, b in zip(qq, fqq):
        _assert_same(a, b)
    if qq:
        assert qq[0] == qq[1]


@pytest.mark.parametrize("order_name", ["grevlex", "elim"])
@pytest.mark.parametrize(
    "kind, m",
    [(k, m) for k in ("sym", "skew") for m in (2, 3, 4)],
    ids=[f"{k}{m}" for k in ("sym", "skew") for m in (2, 3, 4)],
)
def test_minor_ideal_bases_match_fraction_field(kind, m, order_name):
    def build(rng, field):
        M = (generic_sym if kind == "sym" else generic_skew)(m, field)
        R = M.ring
        order = grevlex_order(R) if order_name == "grevlex" else elimination_order(R, [R.names[0]])
        out = []
        for j in range(1, m + 1):
            gens = minors_ideal(M, j).gens
            if not gens:
                continue
            basis = groebner(gens, order)
            out.extend(basis.polys)
            out.extend(basis.reduce(_random_poly(rng, R)) for _ in range(3))
        return out

    qq, fqq = _on_both(build, m)
    assert len(qq) == len(fqq) > 0
    for a, b in zip(qq, fqq):
        _assert_same(a, b)


@pytest.mark.parametrize(
    "args",
    [("skew", 5, 4), ("sym", 4, 3, "offdiag")],
    ids=["skew5-4", "sym4-3-offdiag"],
)
def test_chart_identity_matches_fraction_field(args):
    qq = chart_identity(*args, field=QQ, include_bases=True)
    fqq = chart_identity(*args, field=FQQ, include_bases=True)
    assert qq["pass"]
    assert json.dumps(qq, sort_keys=True) == json.dumps(fqq, sort_keys=True)


# -- the types QQ returns -----------------------------------------------------

_EXACT = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=60),
    st.integers(-50, 50).map(lambda n: Fraction(n * 6, 6)),
)


def _assert_value(result, exact):
    assert type(result) is not float
    assert _is_canonical_qq(result) or (type(result) is int and result == 0)
    assert result == exact


@settings(max_examples=300, deadline=None)
@given(_EXACT, _EXACT)
def test_qq_returns_int_or_proper_fraction(a, b):
    fa, fb = Fraction(a), Fraction(b)
    _assert_value(QQ.of(a), fa)
    for raw, exact in ((a, fa), (a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb)):
        _assert_value(QQ.reduce(raw), exact)
        _assert_value(QQ.reduce(Fraction(raw)), exact)
    if a:
        _assert_value(QQ.inv(a), 1 / fa)
    if b:
        _assert_value(QQ.div(a, b), fa / fb)
        _assert_value(QQ.div(QQ.of(a), QQ.of(b)), fa / fb)


def test_qq_fixed_cases():
    R = ring("x")
    (half,) = R.parse("1/2*x").terms.values()
    assert type(half) is Fraction and half == Fraction(1, 2)
    (two,) = R.parse("4/2*x").terms.values()
    assert type(two) is int and two == 2
    (c,) = R.const(Fraction(4, 2)).terms.values()
    assert type(c) is int and c == 2
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.div(6, 3)) is int and QQ.div(6, 3) == 2
    assert QQ.zero == 0 and QQ.one == 1 and type(QQ.one) is int
