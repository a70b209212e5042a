"""The triangle convention: a sym or skew matrix is determined by its upper
triangle, and every consumer reads only that triangle.

The full-matrix paths the triangle replaced are kept here as oracles:
deduplicating all (I, J) minors, transforming every entry of the parent
matrix, and scanning every exponent of every monomial.
"""

import importlib
import random
from types import SimpleNamespace

import pytest

from detsing.blowup import strict_transform_ideal, strict_transform_poly
from detsing.errors import BadIndex, NonHomogeneousGenerators, NotSkew
from detsing.fields import QQ, PrimeField
from detsing.matrices import (
    GenericMatrix,
    MinorCache,
    generic_skew,
    generic_sym,
    minors,
    minors_ideal,
    triangle,
)
from detsing.resolution import resolve_skew, resolve_sym
from detsing.rings import ring

from .oracles import frozen_dedup_generators

resolution = importlib.import_module("detsing.resolution")

FIELDS = [QQ, PrimeField(7)]
FIELD_IDS = ["QQ", "F7"]


def all_minors_ideal_gens(M, r):
    """The old construction: every (I, J)-minor, then sign dedup."""
    return tuple(frozen_dedup_generators(d for _, _, d in minors(M, r)))


def old_polynomial_variables(f):
    """The old scan: every exponent of every monomial."""
    used = [False] * f.ring.nvars
    for m in f.terms:
        for i, e in enumerate(m):
            if e:
                used[i] = True
    return tuple(n for i, n in enumerate(f.ring.names) if used[i])


def reductions(report):
    return [node.reduction for node in report.nodes if node.reduction is not None]


def parent_matrices_and_reductions(report):
    return [(report.node(node.parent_id).matrix, node.reduction)
            for node in report.nodes if node.reduction is not None]


# --------------------------------------------------------------------------
# triangle and the mirror builder


def test_triangle_positions():
    assert triangle(3, "skew") == [(0, 1), (0, 2), (1, 2)]
    assert triangle(3, "sym") == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert triangle(2, "general") == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert triangle(0, "sym") == [] and triangle(1, "skew") == []


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_from_triangle_mirrors_the_triangle(field):
    R = ring("a b c", field)
    a, b, c = R.vars()
    S = GenericMatrix.from_triangle(R, 2, {(0, 0): a, (0, 1): b, (1, 1): c}, "sym")
    assert S.rows == ((a, b), (b, c)) and S.kind == "sym"
    K = GenericMatrix.from_triangle(R, 3, {(0, 1): a, (1, 2): b * c}, "skew")
    zero = R.zero()
    assert K.rows == ((zero, a, zero), (-a, zero, b * c), (zero, -(b * c), zero))
    G = GenericMatrix.from_triangle(R, 2, {(1, 0): a, (0, 1): b}, "general")
    assert G.rows == ((zero, b), (a, zero))


@pytest.mark.parametrize("m", range(6))
def test_generic_matrices_match_the_explicit_layout(m):
    A, B = generic_skew(m), generic_sym(m)
    for i in range(m):
        for j in range(m):
            lo, hi = min(i, j) + 1, max(i, j) + 1
            v = B.ring.var(f"x_{lo}_{hi}")
            assert B.entry(i, j) == v
            if i == j:
                assert A.entry(i, j).is_zero()
            else:
                w = A.ring.var(f"x_{lo}_{hi}")
                assert A.entry(i, j) == (w if i < j else -w)


# --------------------------------------------------------------------------
# validation failure paths


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_asymmetric_sym_matrix_refused(field):
    R = ring("a b c d", field)
    a, b, c, d = R.vars()
    with pytest.raises(BadIndex, match="matrix is not symmetric"):
        GenericMatrix(R, [[a, b], [c, d]], "sym")


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_skew_with_nonzero_diagonal_refused(field):
    R = ring("a b", field)
    a, b = R.vars()
    with pytest.raises(NotSkew, match="nonzero diagonal entry"):
        GenericMatrix(R, [[R.zero(), a], [-a, b]], "skew")


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_skew_without_negated_mirror_refused(field):
    R = ring("a b", field)
    a, b = R.vars()
    zero = R.zero()
    with pytest.raises(NotSkew, match=r"entry \(1,0\) is not the negative of \(0,1\)"):
        GenericMatrix(R, [[zero, a], [a, zero]], "skew")
    # the checks run row by row: row 0's mirror fails before row 1's diagonal
    with pytest.raises(NotSkew, match=r"entry \(1,0\)"):
        GenericMatrix(R, [[zero, a], [b, b]], "skew")


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_unknown_kind_refused(field):
    R = ring("a", field)
    with pytest.raises(BadIndex, match="unknown matrix kind 'hermitian'"):
        GenericMatrix(R, [[R.var("a")]], "hermitian")


# --------------------------------------------------------------------------
# the minor ideals read only I <= J


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_minors_ideal_matches_all_pairs_on_generic_matrices(field):
    for M in [generic_sym(m, field) for m in range(6)] + [
        generic_skew(m, field) for m in range(7)
    ]:
        for r in range(M.size + 1):
            assert minors_ideal(M, r).gens == all_minors_ideal_gens(M, r), (M, r)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_minors_ideal_matches_all_pairs_on_formula_matrices(field):
    formula = {}
    for red in reductions(resolve_sym(4, 4, field, all_charts=True, check="none")):
        formula.setdefault(red.chart_type, red.formula_matrix)
    formula["skew"] = reductions(resolve_skew(5, 2, field, check="none"))[0].formula_matrix
    assert set(formula) == {"skew", "diag", "offdiag"}
    for M in formula.values():
        assert any(len(e.terms) > 1 for row in M.rows for e in row)
        for r in range(M.size + 1):
            assert minors_ideal(M, r).gens == all_minors_ideal_gens(M, r)


def test_minors_ideal_matches_all_pairs_on_a_general_matrix():
    rng = random.Random(20261018)
    for field in FIELDS:
        R = ring("u v w", field)
        rows = [[R.const(rng.randint(-2, 2)) + rng.choice(R.vars()) for _ in range(4)]
                for _ in range(4)]
        rows[1] = rows[0]  # repeated and zero minors exercise the dedup
        M = GenericMatrix(R, rows)
        for r in range(5):
            assert minors_ideal(M, r).gens == all_minors_ideal_gens(M, r)


# --------------------------------------------------------------------------
# the chart step transforms only the triangle


@pytest.mark.parametrize("resolve, kind, m, target", [
    (resolve_sym, "sym", 4, 4),
    (resolve_skew, "skew", 5, 2),
], ids=["sym4", "skew5"])
def test_primed_matrix_equals_entrywise_strict_transform(resolve, kind, m, target):
    pairs = parent_matrices_and_reductions(resolve(m, target, all_charts=True, check="none"))
    # every chart of the root is among them
    assert {red.position for parent, red in pairs if parent.size == m} == {
        (i + 1, j + 1) for i, j in triangle(m, kind)
    }
    for parent, red in pairs:
        T = red.ring
        expected = tuple(
            tuple(T.zero() if f.is_zero() else strict_transform_poly(f, red.chart)[1]
                  for f in row)
            for row in parent.rows
        )
        assert red.matrix.rows == expected


def old_strict_minors(parent, red, j):
    """The old left side: the generator-wise strict transform of the
    parent's j-minors."""
    return strict_transform_ideal(minors_ideal(parent, j), red.chart)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("resolve, m, target", [
    (resolve_sym, 4, 4),
    (resolve_sym, 5, 3),
    (resolve_skew, 5, 2),
    (resolve_skew, 6, 3),
], ids=["sym4_4", "sym5_3", "skew5_2", "skew6_3"])
def test_strict_minors_are_the_primed_minors(resolve, m, target, field):
    # the center identities and the empty leaves read the j-minors of A';
    # they are the old construction's generators, in the same order
    report = resolve(m, target, field, all_charts=True, check="none")
    for parent, red in parent_matrices_and_reductions(report):
        for j in range(1, parent.size + 1):
            got = resolution._strict_minors(red, j, MinorCache(red.matrix))
            assert got.gens == old_strict_minors(parent, red, j).gens
    # skew trees end in regular leaves only
    empty = [node for node in report.nodes if node.terminal_reason == "empty"]
    assert bool(empty) == (resolve is resolve_sym)
    for node in empty:
        parent = report.node(node.parent_id)
        old = old_strict_minors(parent.matrix, node.reduction, parent.residual).gens
        if node.rewrite is not None:
            old = tuple(node.rewrite(g) for g in old)
        assert node.strict_ideal.gens == old


def test_strict_minors_refuse_a_primed_matrix_that_holds_the_exceptional_variable():
    # only entries that are not homogeneous in the center variables leave e
    # in A'; its minors are then not the strict transforms
    report = resolve_sym(3, 3, check="none")
    parent, red = parent_matrices_and_reductions(report)[0]
    e = red.ring.var(red.chart.exceptional_var)
    bent = GenericMatrix.from_triangle(
        red.ring, parent.size, {(i, j): red.matrix.rows[i][j] * e for i, j in triangle(3, "sym")}, "sym")
    stub = SimpleNamespace(chart=red.chart, matrix=bent)
    for j in range(1, 4):
        with pytest.raises(NonHomogeneousGenerators):
            resolution._strict_minors(stub, j, MinorCache(bent))
        assert old_strict_minors(parent, red, j).gens != minors_ideal(bent, j).gens


# --------------------------------------------------------------------------
# variables


def test_matrix_variables_match_a_scan_of_every_entry():
    for parent, red in parent_matrices_and_reductions(
            resolve_sym(4, 4, all_charts=True, check="none")):
        for M in (parent, red.matrix, red.formula_matrix):
            if M is None:
                continue
            every = {n for row in M.rows for e in row for n in old_polynomial_variables(e)}
            assert M.variables() == tuple(n for n in M.ring.names if n in every)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_polynomial_variables_match_the_exponent_scan(field):
    rng = random.Random(7)
    R = ring("a b c d e", field)
    assert R.zero().variables() == () and R.const(3).variables() == ()
    for _ in range(200):
        f = R.zero()
        for _ in range(rng.randint(1, 4)):
            term = R.const(rng.randint(1, 5))
            for _ in range(rng.randint(0, 3)):
                term = term * rng.choice(R.vars())
            f = f + term
        assert f.variables() == old_polynomial_variables(f)
