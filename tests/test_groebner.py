"""Groebner engine: orders, normal forms, reduced bases, caps.

The three-element basis below is hand-derived: starting from x^2 - y and
x*y - z, the only productive S-pair gives y^2 - x*z, and every further pair
reduces to zero. Random cases are cross-checked against sympy, and
membership against the exact linear-algebra oracle.
"""

import importlib
import random

import pytest
import sympy

from detsing.errors import BadParameters, DuplicateVariable, ResourceLimit, RingMismatch, UnknownVariable
from detsing.fields import PrimeField
from detsing.groebner import (
    GroebnerBasis,
    MonomialOrder,
    elimination_order,
    grevlex_order,
    groebner,
    lex_order,
    normal_form,
    seed_leading_monomials,
)
from detsing.matrices import generic_skew, generic_sym, minors_ideal
from detsing.rings import _packing, grevlex_key, ring

from .oracles import macaulay_member, to_sympy


@pytest.fixture
def R():
    return ring("x y z")


def test_variable_comparison_conventions(R):
    grev = _packing(grevlex_order(R).spec, 16).pack
    x_m, y_m, z_m = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert grev(x_m) > grev(y_m) > grev(z_m)
    lx = _packing(lex_order(R).spec, 16).pack
    assert lx((1, 0, 0)) > lx((0, 5, 5))
    assert grevlex_order(R) == grevlex_order(ring("a b c"))  # orders depend on arity only


def test_frozen_reduced_basis(R):
    x, y, z = R.vars()
    gb = groebner([x ** 2 - y, x * y - z])
    assert set(gb.polys) == {x ** 2 - y, x * y - z, y ** 2 - x * z}
    assert len(gb) == 3


def test_monomial_pair_already_a_basis(R):
    x, y, _ = R.vars()
    gb = groebner([x ** 2, x * y])
    assert set(gb.polys) == {x ** 2, x * y}


def test_linear_chain_under_lex(R):
    x, y, z = R.vars()
    gb = groebner([x - y, y - z], lex_order(R))
    assert set(gb.polys) == {x - z, y - z}


def test_unit_ideal_detection(R):
    x, _, _ = R.vars()
    gb = groebner([x, x + 1])
    assert gb.is_unit_ideal()
    assert gb.polys == (R.one(),)


def test_linear_interreduction(R):
    x, y, _ = R.vars()
    gb = groebner([x + y, x])
    assert set(gb.polys) == {x, y}


def test_zero_ideal(R):
    gb = groebner([R.zero()])
    assert len(gb) == 0
    assert gb.reduce(R.var("x")) == R.var("x")
    assert not gb.contains(R.var("x"))
    assert gb.contains(R.zero())


def test_normal_form_is_canonical(R):
    x, y, z = R.vars()
    gb = groebner([x ** 2 - y, x * y - z])
    f = x ** 3 + x * y + y
    # x^3 -> x*y -> z, x*y -> z, so f reduces to 2z + y
    assert normal_form(f, gb) == 2 * z + y
    assert gb.contains(x ** 2 - y)
    assert gb.contains((x ** 2 - y) * (x + 42) + (x * y - z) * y)
    assert not gb.contains(x)


def test_generator_order_invariance(R):
    x, y, z = R.vars()
    gens = [x * y - z ** 2, x ** 2 - y * z, y ** 2 - x * z, x + y + z]
    rng = random.Random(7)
    reference = groebner(gens).polys
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert groebner(shuffled).polys == reference


def test_elimination_order_extracts_elimination_ideal():
    Rt = ring("t x y")
    t, x, y = Rt.vars()
    gb = groebner([t * x - 1, t * y - x], elimination_order(Rt, ["t"]))
    free = [p for p in gb if p.degree_in("t") == 0]
    assert Rt.parse("x^2 - y") in free


def test_elimination_order_refuses_an_unknown_name():
    for names in (["z"], [["x"]], [0]):
        with pytest.raises(UnknownVariable):
            elimination_order(ring("x y"), names)


def test_elimination_order_refuses_a_string_of_names():
    # "xy" is not the names x and y
    with pytest.raises(BadParameters):
        elimination_order(ring("x y"), "xy")


def test_elimination_order_refuses_a_repeated_name():
    R = ring("x y")
    with pytest.raises(DuplicateVariable):
        elimination_order(R, ["x", "x"])
    assert elimination_order(R, iter(["x"])) == elimination_order(R, ["x"])


def test_ring_mismatch(R):
    x = R.var("x")
    gb = groebner([x])
    with pytest.raises(RingMismatch):
        gb.reduce(ring("a").var("a"))
    with pytest.raises(RingMismatch):
        groebner([x, ring("a").var("a")])


@pytest.mark.parametrize("build", [groebner, seed_leading_monomials])
def test_generator_that_is_not_a_polynomial_is_refused(R, build):
    x = R.var("x")
    for gens in ([x, 3], [3, x], ["x"]):
        with pytest.raises(BadParameters):
            build(gens)


def test_order_of_another_ring_is_refused(R):
    # the packed monomials are built from the order's ring size, so an
    # order of another ring must not run
    S = ring("x y z w")
    gens = [R.parse("x^2 - y"), R.parse("x*y - z")]
    for order in (grevlex_order(S), lex_order(S), elimination_order(S, ["w"]),
                  grevlex_order(ring("x y"))):
        with pytest.raises(RingMismatch):
            groebner(gens, order)
    assert groebner(gens, grevlex_order(ring("a b c"))).polys == groebner(gens).polys


@pytest.mark.parametrize(
    "order", ["grevlex", ("grevlex", 3), grevlex_key, 0, MonomialOrder(("weighted", 3))]
)
def test_order_that_is_not_a_monomial_order_is_refused(R, order):
    with pytest.raises(BadParameters):
        groebner([R.parse("x^2 - y")], order)


def test_prime_field_basis():
    R5 = ring("x y", PrimeField(5))
    x, y = R5.vars()
    gb = groebner([x ** 2 + 1, x * y + 4])
    # substitutionally: y = -x^-1*4 ... just pin containment behavior
    assert gb.contains((x ** 2 + 1) * y + (x * y + 4) * x)
    assert not gb.contains(x)


def test_resource_limits(R):
    x, y, z = R.vars()
    gens = [x ** 3 - y * z ** 2, y ** 3 - x * z ** 2, z ** 3 - x ** 2 * y, x * y * z - 1]
    with pytest.raises(ResourceLimit):
        groebner(gens, max_basis=2)
    with pytest.raises(ResourceLimit):
        groebner([(x + y + z) ** 2 - x, x * y - z], max_terms=3)
    gb = groebner([x ** 2 - y, x * y - z])
    with pytest.raises(ResourceLimit):
        gb.reduce((x + y + z) ** 5, max_terms=5)


@pytest.mark.parametrize(
    "cap, value",
    [("max_terms", 0), ("max_terms", 2.5), ("max_terms", -1), ("max_terms", "5"),
     ("max_terms", True), ("max_basis", 0), ("max_basis", True), ("max_basis", 2.5)],
)
def test_caps_must_be_positive_integers(R, cap, value):
    # the rule term_cap applies to DETSING_MAX_TERMS; a bad cap is bad input,
    # never a ResourceLimit or a basis computed under no cap
    x, y, _ = R.vars()
    gens = [x ** 2 - y, x * y - 1]
    with pytest.raises(BadParameters, match=cap):
        groebner(gens, **{cap: value})
    if cap == "max_terms":
        gb = groebner(gens)
        with pytest.raises(BadParameters, match=cap):
            gb.reduce(x ** 3, max_terms=value)
        with pytest.raises(BadParameters, match=cap):
            gb.contains(x ** 3, max_terms=value)


def _cubics():
    x, y, z = ring("x y z").vars()
    return [x ** 3 - y * z ** 2, y ** 3 - x * z ** 2, z ** 3 - x ** 2 * y, x * y * z - 1]


@pytest.mark.parametrize(
    "gens, max_basis, max_terms, reductions",
    [
        (lambda: minors_ideal(generic_sym(4), 3).gens, 10, 14, 36),
        (lambda: minors_ideal(generic_skew(5), 4).gens, 15, 15, 56),
        (lambda: minors_ideal(generic_sym(3, PrimeField(7)), 2).gens, 6, 2, 20),
        (_cubics, 6, 2, 25),
    ],
    ids=["sym4-3minors", "skew5-4minors", "sym3-2minors-F7", "cubics"],
)
def test_traversal_is_pinned(gens, max_basis, max_terms, reductions, monkeypatch):
    # The caps are checked along the traversal, so the smallest caps that
    # succeed change when the counted basis size changes; the number of
    # normal forms changes with the pair order (sugar matters only for the
    # inhomogeneous cubics) and with the pair criteria (the complete
    # Gebauer-Moeller update took skew5 from 58 to 56).
    gens = gens()
    groebner(gens, max_basis=max_basis)
    with pytest.raises(ResourceLimit):
        groebner(gens, max_basis=max_basis - 1)
    groebner(gens, max_terms=max_terms)
    with pytest.raises(ResourceLimit):
        groebner(gens, max_terms=max_terms - 1)
    engine = importlib.import_module("detsing.groebner")
    reduce_terms = engine._reduce_terms
    calls = []

    def counted(*args):
        calls.append(args)
        return reduce_terms(*args)

    monkeypatch.setattr(engine, "_reduce_terms", counted)
    groebner(gens)
    assert len(calls) == reductions


def test_basis_cap_is_checked_before_live_pairs_only(R):
    # The seed x kills the pair (x*y, x^2 - y) and forms two live pairs; the
    # second of them adds y. Only the dead entry is left then, and popping
    # it is not a step of the traversal, so the cap of 1, checked before
    # each live pair, is never exceeded at a check.
    x, y, z = R.vars()
    assert set(groebner([x * y, x * y * z - x, x ** 2 - y], max_basis=1).polys) == {x, y}


def _rand_poly(rng, R, deg, homogeneous=False):
    f = R.zero()
    names = R.names
    for _ in range(rng.randint(1, 4)):
        d = deg if homogeneous else rng.randint(0, deg)
        mono = R.one()
        for _ in range(d):
            mono = mono * R.var(rng.choice(names))
        f = f + rng.randint(-4, 4) * mono
    return f


def _as_sympy_poly_set(polys, syms):
    return {sympy.Poly(to_sympy(p, syms), *syms, domain="QQ").monic() for p in polys}


def test_random_bases_match_sympy():
    rng = random.Random(20260817)
    R3 = ring("x y z")
    syms = sympy.symbols(["x", "y", "z"])
    checked = 0
    for _ in range(12):
        gens = [_rand_poly(rng, R3, 2) for _ in range(rng.randint(1, 3))]
        if all(g.is_zero() for g in gens):
            continue
        mine = groebner(gens)
        exprs = [to_sympy(g, syms) for g in gens if not g.is_zero()]
        theirs = sympy.groebner(exprs, *syms, order="grevlex")
        assert _as_sympy_poly_set(mine.polys, syms) == _as_sympy_poly_set_from_exprs(
            theirs.exprs, syms
        )
        checked += 1
    assert checked >= 10


def _as_sympy_poly_set_from_exprs(exprs, syms):
    return {sympy.Poly(sympy.expand(e), *syms, domain="QQ").monic() for e in exprs}


def test_lex_bases_match_sympy():
    rng = random.Random(99)
    R2 = ring("x y")
    syms = sympy.symbols(["x", "y"])
    for _ in range(8):
        gens = [_rand_poly(rng, R2, 2) for _ in range(2)]
        if all(g.is_zero() for g in gens):
            continue
        mine = groebner(gens, lex_order(R2))
        exprs = [to_sympy(g, syms) for g in gens if not g.is_zero()]
        theirs = sympy.groebner(exprs, *syms, order="lex")
        assert _as_sympy_poly_set(mine.polys, syms) == _as_sympy_poly_set_from_exprs(
            theirs.exprs, syms
        )


def test_membership_agrees_with_macaulay_oracle():
    rng = random.Random(4242)
    R3 = ring("x y z")
    agree_member = agree_non = 0
    for _ in range(25):
        gens = [_rand_poly(rng, R3, 2, homogeneous=True) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = groebner(gens)
        if rng.random() < 0.5:
            # construct a member of degree 3
            f = R3.zero()
            for g in gens:
                f = f + _rand_poly(rng, R3, 3 - g.total_degree(), homogeneous=True) * g
        else:
            f = _rand_poly(rng, R3, 3, homogeneous=True)
        if f.is_zero() or not f.is_homogeneous():
            continue
        mine = gb.contains(f)
        oracle = macaulay_member(f, gens)
        assert mine == oracle
        if mine:
            agree_member += 1
        else:
            agree_non += 1
    # the comparison must have exercised both outcomes
    assert agree_member >= 3 and agree_non >= 3


def test_basis_object_views(R):
    x, y, _ = R.vars()
    gb = groebner([x ** 2 - y])
    assert list(gb) == [x ** 2 - y]
    assert gb.leading_monomials() == [(2, 0, 0)]


# Each entry point refuses an argument of the wrong type with BadParameters,
# or a polynomial of another ring with RingMismatch, never with a bare
# AttributeError, TypeError or ValueError.


def test_groebner_refuses_no_generators_or_a_non_collection():
    with pytest.raises(BadParameters):
        groebner([])
    with pytest.raises(BadParameters):
        groebner(5)


def test_basis_reduce_refuses_a_non_polynomial(R):
    with pytest.raises(BadParameters):
        groebner([R.var("x")]).reduce(3)


def test_basis_contains_refuses_a_non_polynomial(R):
    with pytest.raises(BadParameters):
        groebner([R.var("x")]).contains("x")


def test_normal_form_refuses_a_non_polynomial_or_a_non_basis(R):
    x = R.var("x")
    with pytest.raises(BadParameters):
        normal_form(None, groebner([x]))
    with pytest.raises(BadParameters):
        normal_form(x, None)


@pytest.mark.parametrize("build", [grevlex_order, lex_order])
def test_order_refuses_a_non_ring(build):
    with pytest.raises(BadParameters):
        build(3)


def test_elimination_order_refuses_a_non_collection_of_names(R):
    with pytest.raises(BadParameters):
        elimination_order(R, 3)
    with pytest.raises(BadParameters):
        elimination_order(3, ["x"])
