"""The printed resolution, checked end to end.

Every verdict of a report is local to one chart step. The report also
prints, at each node, the composed map π from the root coordinates
(``substitution``) and the exceptional multiplicities (``exceptional``),
and no verdict reads either. These tests read both back from the printed
JSON and check, at every leaf, the claim they make together. With X the
root matrix, t the target, e the product of the exceptional variables to
their multiplicities and R the leaf's relations:

    π*(I_t(X)) + R = e·J + R, after inverting the leaf's units,

where J is the residual-minors of the leaf's matrix at a regular leaf (the
1-minors when symmetric, the 2-minors when skew) and the printed strict
ideal at an empty one. A fresh variable w inverts the product u of the
units, and both sides, each with R and 1 − w·u, are compared by reduced
grevlex bases computed afresh with ``groebner``, not read from the
package's basis cache. The left side is read from a minor table of π(X).

Each mutation of the printed report below (one multiplicity raised or
lowered by one, the images of two root variables swapped) makes the claim
fail at every leaf it touches. A sign flipped in one image is no such
mutation: the flipped map can still satisfy the claim, for example through
an automorphism that fixes the minor ideal.
"""

import copy
from math import prod

import pytest

from detsing.fields import QQ, PrimeField
from detsing.groebner import groebner
from detsing.matrices import GenericMatrix, MinorCache, triangle
from detsing.resolution import resolve_skew, resolve_sym
from detsing.rings import Ring, embed

# the trees of the cli-resolve workload
CLI_TREES = [(resolve_sym, (3, 3), True), (resolve_sym, (4, 4), False), (resolve_skew, (5, 2), True),
             (resolve_sym, (4, 3), True), (resolve_skew, (6, 3), False), (resolve_sym, (5, 5), False)]
MUTATED_TREES = [(resolve_sym, (3, 3), True), (resolve_skew, (5, 2), True), (resolve_sym, (4, 4), False)]


def printed_leaves(resolve, args, all_charts, field):
    """The printed report of a check-none resolve, and each printed leaf
    with its node's ring, in which its polynomials are printed."""
    report = resolve(*args, field, all_charts=all_charts, check="none")
    printed = report.to_json()
    leaves = [(leaf, report.node(leaf["id"]).ring) for leaf in printed["nodes"] if leaf["terminal"]]
    assert leaves
    return printed, leaves


def claim_holds(printed, leaf, U):
    """π*(I_t(X)) + R = e·J + R after inverting the units, all read from
    the printed report and leaf, in the leaf's ring U."""
    root = printed["nodes"][0]
    X = GenericMatrix.from_json(root["matrix"])
    images = {name: U.parse(image) for name, image in leaf["substitution"].items()}
    pi_X = GenericMatrix.from_triangle(
        U, X.size, {(i, j): images[X.entry(i, j).variables()[0]] for i, j in triangle(X.size, X.kind)}, X.kind)
    lhs = MinorCache(pi_X).ideal(root["target"]).gens
    residual = leaf["target"] - leaf["stage"]
    if residual <= 0:
        J = [U.parse(g) for g in leaf["strict_ideal"]]
    else:
        assert leaf["terminal"] == "regular" and residual == (2 if leaf["kind"] == "skew" else 1)
        J = [embed(g, U) for g in MinorCache(GenericMatrix.from_json(leaf["matrix"])).ideal(residual).gens]
    e = prod((U.var(name) ** mult for name, mult in leaf["exceptional"]), start=U.one())
    w = "w"
    while w in U.index:
        w += "_"
    ext = Ring(list(U.names) + [w], U.field)
    u = prod((U.parse(unit) for unit in leaf["units"]), start=U.one())
    common = [embed(U.parse(g), ext) for g in leaf["relations"]] + [ext.one() - ext.var(w) * embed(u, ext)]
    left = groebner([embed(g, ext) for g in lhs] + common).polys
    right = groebner([embed(e * g, ext) for g in J] + common).polys
    return left == right


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F7"])
@pytest.mark.parametrize("resolve, args, all_charts", CLI_TREES,
                         ids=["sym3/3-all", "sym4/4", "skew5/2-all", "sym4/3-all", "skew6/3", "sym5/5"])
def test_every_printed_leaf_holds_the_resolution_claim(resolve, args, all_charts, field):
    printed, leaves = printed_leaves(resolve, args, all_charts, field)
    for leaf, U in leaves:
        assert claim_holds(printed, leaf, U), leaf["id"]


def multiplicity_mutants(leaf):
    """The leaf with one exceptional multiplicity raised or lowered by one,
    for each divisor."""
    for k in range(len(leaf["exceptional"])):
        for step in (1, -1):
            mutant = copy.deepcopy(leaf)
            mutant["exceptional"][k][1] += step
            yield mutant


@pytest.mark.parametrize("resolve, args, all_charts", MUTATED_TREES, ids=["sym3/3-all", "skew5/2-all", "sym4/4"])
def test_a_multiplicity_off_by_one_fails_the_claim(resolve, args, all_charts):
    printed, leaves = printed_leaves(resolve, args, all_charts, QQ)
    mutants = [(mutant, U) for leaf, U in leaves for mutant in multiplicity_mutants(leaf)]
    assert len(mutants) >= 2 * len(leaves)
    for mutant, U in mutants:
        assert not claim_holds(printed, mutant, U), (mutant["id"], mutant["exceptional"])


@pytest.mark.parametrize("resolve, args, all_charts", MUTATED_TREES, ids=["sym3/3-all", "skew5/2-all", "sym4/4"])
def test_two_swapped_root_images_fail_the_claim(resolve, args, all_charts):
    printed, leaves = printed_leaves(resolve, args, all_charts, QQ)
    first, second = list(printed["nodes"][0]["substitution"])[:2]
    for leaf, U in leaves:
        mutant = copy.deepcopy(leaf)
        images = mutant["substitution"]
        assert images[first] != images[second]
        images[first], images[second] = images[second], images[first]
        assert not claim_holds(printed, mutant, U), leaf["id"]
