"""Randomized law suites: ring axioms, dual-route agreements, inclusions.

The seeded loops below are the package's bulk randomized coverage (well
over a thousand assertions per run); the hypothesis tests re-express the
central laws with shrinkable generators.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detsing.fields import QQ, PrimeField
from detsing.groebner import groebner
from detsing.matrices import (
    GenericMatrix,
    determinant,
    generic_skew,
    generic_sym,
    minors_ideal,
    pfaffian,
)
from detsing.rings import Ring, Substitution, exact_div, ring
from detsing.verify import check_fact, ideal_contains

from .oracles import macaulay_member, to_sympy

SEED = 20260817
FIELDS = (QQ, PrimeField(7), PrimeField(101))


def random_poly(rng, R, max_terms=5, max_deg=3):
    """Random sparse polynomial with small integer coefficients."""
    f = R.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = R.one() * rng.randint(-9, 9)
        for _ in range(rng.randint(0, max_deg)):
            term = term * R.var(rng.choice(R.names))
        f = f + term
    return f


def random_homogeneous(rng, R, degree, max_terms=4):
    """Random homogeneous polynomial of exactly the given degree (or zero)."""
    f = R.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = R.one() * rng.randint(-9, 9)
        for _ in range(degree):
            term = term * R.var(rng.choice(R.names))
        f = f + term
    return f


def generic_general(m):
    names = [f"z_{i}_{j}" for i in range(1, m + 1) for j in range(1, m + 1)]
    R = ring(" ".join(names))
    rows = [[R.var(f"z_{i}_{j}") for j in range(1, m + 1)] for i in range(1, m + 1)]
    return GenericMatrix(R, rows, "general")


# --------------------------------------------------------------------------
# polynomial arithmetic laws (>= 1000 randomized cases)


def test_ring_laws_randomized_bulk():
    cases = 0
    for field in FIELDS:
        R = Ring(["a", "b", "c"], field)
        rng = random.Random(SEED)
        for _ in range(60):
            f = random_poly(rng, R)
            g = random_poly(rng, R)
            h = random_poly(rng, R)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + R.zero() == f
            assert f * R.one() == f
            assert f - f == R.zero()
            assert (-f) + f == R.zero()
            cases += 9
    assert cases >= 1000


def test_format_parse_round_trip_randomized():
    for field in (QQ, PrimeField(101)):
        R = Ring(["x", "y", "z"], field)
        rng = random.Random(SEED)
        for _ in range(150):
            f = random_poly(rng, R, max_terms=6, max_deg=5)
            assert R.parse(f.format()) == f


def test_substitution_is_a_ring_homomorphism_randomized():
    for field in FIELDS:
        R = ring("a b c", field)
        S = ring("u v", field)
        rng = random.Random(SEED)
        for _ in range(60):
            images = {n: random_poly(rng, S, max_terms=3, max_deg=2) for n in R.names}
            sub = Substitution(R, S, images)
            f = random_poly(rng, R, max_terms=4, max_deg=3)
            g = random_poly(rng, R, max_terms=4, max_deg=3)
            assert sub(f + g) == sub(f) + sub(g)
            assert sub(f * g) == sub(f) * sub(g)
            assert sub(R.one()) == S.one()
            assert sub(R.zero()) == S.zero()


def assert_canonical(f):
    """Every stored monomial is a tuple of nvars non-negative ints, and every
    stored coefficient is a nonzero canonical element: over Q an int != 0
    or a Fraction with denominator > 1, over F_p an int in range(1, p)."""
    n = f.ring.nvars
    for m in f.terms:
        assert type(m) is tuple and len(m) == n
        assert all(type(e) is int and e >= 0 for e in m)
    p = f.ring.field.char
    for c in f.terms.values():
        if p == 0:
            assert (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)
        else:
            assert type(c) is int and 1 <= c < p


def test_coefficients_stay_canonical_randomized():
    for field in FIELDS:
        R = Ring(["a", "b", "c"], field)
        S = Ring(["u", "v"], field)
        rng = random.Random(SEED)
        for _ in range(40):
            f = random_poly(rng, R)
            g = random_poly(rng, R)
            images = {n: random_poly(rng, S, max_terms=3, max_deg=2) for n in R.names}
            results = [f + g, f - g, f * g, f ** 3, Substitution(R, S, images)(f)]
            if not g.is_zero():
                results.append(exact_div(f * g, g))
            for h in results:
                assert_canonical(h)


@pytest.mark.parametrize("field", FIELDS + (PrimeField(3),), ids=["QQ", "F7", "F101", "F3"])
def test_matrix_outputs_stay_canonical(field):
    """No packed int leaks out of the packed kernels behind the matrices."""
    R = Ring(["a", "b", "c"], field)
    rng = random.Random(SEED)
    for _ in range(20):
        f, g, h = (random_poly(rng, R) for _ in range(3))
        M = GenericMatrix(R, [[f, g, h], [g, h, f], [h, f, g]], "general")
        for method in ("cofactor", "bareiss"):
            assert_canonical(determinant(M, method))
    for M in (generic_sym(4, field), generic_skew(5, field), generic_skew(6, field)):
        outputs = [determinant(M, "cofactor"), determinant(M, "bareiss")]
        if M.kind == "skew" and M.size % 2 == 0:
            outputs.append(pfaffian(M))
        for r in range(1, M.size + 1):
            outputs.extend(minors_ideal(M, r).gens)
        for out in outputs:
            assert_canonical(out)


# --------------------------------------------------------------------------
# the same laws under hypothesis (shrinkable witnesses)

R_HYP = ring("x y z")


@st.composite
def hyp_polys(draw, R=R_HYP, max_size=5, max_exp=3):
    items = draw(
        st.lists(
            st.tuples(
                st.tuples(*(st.integers(0, max_exp) for _ in R.names)),
                st.integers(-20, 20),
            ),
            max_size=max_size,
        )
    )
    f = R.zero()
    for mono, c in items:
        term = R.const(c)
        for v, e in zip(R.vars(), mono):
            term = term * v ** e
        f = f + term
    return f


@settings(max_examples=150, deadline=None)
@given(hyp_polys(), hyp_polys(), hyp_polys())
def test_distributivity_and_associativity_hypothesis(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert (f + g) - g == f


@settings(max_examples=100, deadline=None)
@given(hyp_polys())
def test_parse_round_trip_hypothesis(f):
    assert R_HYP.parse(f.format()) == f


@st.composite
def chart_images(draw, T):
    """Images shaped like the chart tree's maps: a term (a monomial in
    blow-up charts), y + P or s*(y + P) + Q (rewrite to fresh coordinates)."""
    shape = draw(st.sampled_from(("monomial", "shift", "unit_shift")))
    if shape == "monomial":
        image = T.const(draw(st.sampled_from((1, 1, -1, 3))))
        for v in T.vars():
            image = image * v ** draw(st.integers(0, 2))
        return image
    y = T.var(draw(st.sampled_from(("u", "v", "w"))))
    image = y + draw(hyp_polys(T, max_size=3, max_exp=2))
    if shape == "unit_shift":
        image = T.var("s") * image + draw(hyp_polys(T, max_size=3, max_exp=2))
    return image


@st.composite
def chart_substitutions(draw):
    field = draw(st.sampled_from(FIELDS))
    R = ring("a b c", field)
    T = ring("u v w s", field)
    images = {n: draw(chart_images(T)) for n in R.names}
    return Substitution(R, T, images), draw(hyp_polys(R, max_size=4, max_exp=2))


def power_case(field, image, power):
    """a -> image raised to a fixed power, next to the other images."""
    R = ring("a b c", field)
    T = ring("u v w s", field)
    sub = Substitution(R, T, {"a": image, "b": "v", "c": "w + 1"})
    return sub, R.parse(f"a^{power}*b - 2*a*c + 1")


@settings(max_examples=60, deadline=None)
@given(chart_substitutions())
# a monomial image at a high power, multi-term images at powers 3 and 4,
# and over F_7 a seventh power whose middle terms collect to zero
@example(power_case(QQ, "3*u^2*v", 5))
@example(power_case(PrimeField(7), "u + 5*v*w - 2*s", 3))
@example(power_case(QQ, "1/2*u - v", 4))
@example(power_case(PrimeField(7), "u + 3*v", 7))
def test_substitution_matches_sympy_hypothesis(case):
    sub, f = case
    syms = sympy.symbols(list(sub.target.names))
    expected = to_sympy(f).subs(
        {sympy.Symbol(n): to_sympy(img, syms) for n, img in sub.images.items()},
        simultaneous=True,
    )
    diff = sympy.expand(to_sympy(sub(f), syms) - expected)
    p = sub.target.field.char
    if p == 0:
        assert diff == 0
    else:
        assert sympy.Poly(diff, *syms, modulus=p).is_zero


# --------------------------------------------------------------------------
# dual determinant routes agree up to size 6


def test_determinant_routes_agree_generic():
    for m in range(1, 7):
        B = generic_sym(m)
        assert determinant(B, "cofactor") == determinant(B, "bareiss")
    for m in range(2, 7):
        A = generic_skew(m)
        assert determinant(A, "cofactor") == determinant(A, "bareiss")


def test_determinant_routes_agree_random_entries():
    rng = random.Random(SEED)
    R = ring("p q r s")
    for size in (2, 3, 4, 5):
        for _ in range(6):
            rows = [
                [random_poly(rng, R, max_terms=2, max_deg=1) for _ in range(size)]
                for _ in range(size)
            ]
            M = GenericMatrix(R, rows, "general")
            assert determinant(M, "cofactor") == determinant(M, "bareiss")


def test_determinant_routes_agree_over_prime_field():
    for p in (3, 5, 101):
        B = generic_sym(4, PrimeField(p))
        A = generic_skew(5, PrimeField(p))
        assert determinant(B, "cofactor") == determinant(B, "bareiss")
        assert determinant(A, "cofactor") == determinant(A, "bareiss")


# --------------------------------------------------------------------------
# Buchberger membership vs the Macaulay-matrix oracle (bounded degree)


def test_groebner_membership_matches_macaulay_oracle():
    rng = random.Random(SEED)
    R = ring("x y z")
    checked = 0
    while checked < 100:
        gens = [
            random_homogeneous(rng, R, rng.randint(1, 3))
            for _ in range(rng.randint(2, 3))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = groebner(gens)
        for _ in range(4):
            if rng.random() < 0.5:
                # a definite member: homogeneous combination of generators
                d = max(g.total_degree() for g in gens) + rng.randint(0, 2)
                f = R.zero()
                for g in gens:
                    f = f + random_homogeneous(rng, R, d - g.total_degree(), 2) * g
            else:
                f = random_homogeneous(rng, R, rng.randint(1, 6))
            if f.is_zero() or f.total_degree() > 6:
                continue
            assert gb.contains(f) == macaulay_member(f, gens)
            checked += 1
    assert checked >= 100


# --------------------------------------------------------------------------
# minor-ideal inclusions (Laplace expansion, checked ideal-theoretically)


def test_minor_ideal_inclusions_sym_and_skew():
    for maker, first in ((generic_sym, 2), (generic_skew, 2)):
        for m in range(first, 6):
            M = maker(m)
            for r in range(2, m + 1):
                big = minors_ideal(M, r)
                small = minors_ideal(M, r - 1)
                assert all(ideal_contains(small, g) for g in big.gens)


def test_minor_ideal_inclusions_general():
    for m in (2, 3, 4, 5):
        M = generic_general(m)
        for r in range(2, m + 1):
            big = minors_ideal(M, r)
            small = minors_ideal(M, r - 1)
            assert all(ideal_contains(small, g) for g in big.gens)


# --------------------------------------------------------------------------
# standing facts at property scale (rationals; the acceptance gate sweeps
# the prime fields as well)


def test_odd_skew_determinants_vanish():
    for m in (3, 5, 7):
        assert check_fact("F1", m)


def test_even_skew_determinant_is_pfaffian_square():
    for m in (2, 4, 6):
        assert check_fact("F3", m)


def test_minor_radical_agreement_instance():
    assert check_fact("F2", 4, l=2)
