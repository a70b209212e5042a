"""Chart-tree drivers: size-reducing chart maps and resolution reports."""

import importlib
import json
import sys
import weakref
from collections import Counter

import pytest

from detsing import matrices, resolution, verify

from detsing.errors import BadParameters, CharTwoForbidden, SizeTooSmall
from detsing.fields import PrimeField, QQ
from detsing.matrices import MinorCache, determinant, generic_skew, generic_sym
from detsing.resolution import (
    ChartNode,
    _rewrite_consistency_verdict,
    chart_identity,
    reduce_skew_chart,
    reduce_sym_diag_chart,
    reduce_sym_offdiag_chart,
    resolve_skew,
    resolve_sym,
)
from detsing.rings import Substitution


def fresh_root(kind, m, field=QQ, target=None):
    M = generic_skew(m, field) if kind == "skew" else generic_sym(m, field)
    return ChartNode(
        node_id="root",
        parent_id=None,
        depth=0,
        kind=kind,
        ring_=M.ring,
        matrix=M,
        stage=0,
        target=m if target is None else target,
        composed=Substitution(M.ring, M.ring, {}),
    )


def entries_upper(M):
    """Upper-triangle entries of a formula/child matrix, row-major."""
    rng = range(M.size)
    start = (lambda i: i + 1) if M.kind == "skew" else (lambda i: i)
    return [M.entry(i, j) for i in rng for j in rng if j >= start(i)]


# --------------------------------------------------------------------------
# skew chart reduction


def test_skew4_chart12_frozen_formula():
    child = reduce_skew_chart(fresh_root("skew", 4), (1, 2))
    assert child.node_id == "root/X_1_2"
    assert child.matrix_kind_and_size == ("skew", 2)
    assert child.matrix_variable_names() == ["y1_1_2"]

    # y34 = x34' + x14'x23' - x13'x24', written on the chart ring
    T = child.reduction.ring
    v = {n: T.var(n) for n in T.names}
    y34 = (
        v["x_3_4p"]
        + v["x_1_4p"] * v["x_2_3p"]
        - v["x_1_3p"] * v["x_2_4p"]
    )
    assert child.reduction.formula_matrix.entry(0, 1) == y34

    # the inverse change of variables solves for x34'
    assert child.rewrite.to_json()["x_3_4p"] == (
        "-x_1_4p*x_2_3p + x_1_3p*x_2_4p + y1_1_2"
    )
    # composed substitution = chart then rewrite: x34 -> e * (x34' image)
    assert child.composed.to_json()["x_3_4"] == (
        "-x_1_2p*x_1_4p*x_2_3p + x_1_2p*x_1_3p*x_2_4p + y1_1_2*x_1_2p"
    )
    assert child.exceptional_divisors == [("x_1_2p", 4)]
    assert child.units == []
    assert child.transcript  # row eliminations recorded


def test_skew5_chart12_formula_matrix():
    child = reduce_skew_chart(fresh_root("skew", 5), (1, 2))
    assert child.matrix_kind_and_size == ("skew", 3)
    assert child.matrix_variable_names() == ["y1_1_2", "y1_1_3", "y1_2_3"]

    T = child.reduction.ring
    v = {n: T.var(n) for n in T.names}

    def y(i, j):
        # y_ij = x'_ij - x'_2j x'_1i + x'_1j x'_2i for surviving rows 3..5
        return (
            v[f"x_{i}_{j}p"]
            - v[f"x_2_{j}p"] * v[f"x_1_{i}p"]
            + v[f"x_1_{j}p"] * v[f"x_2_{i}p"]
        )

    F = child.reduction.formula_matrix
    assert entries_upper(F) == [y(3, 4), y(3, 5), y(4, 5)]
    # skew mirror with sign
    assert F.entry(1, 0) == -y(3, 4)


def test_skew_chart_other_position_relabels():
    child = reduce_skew_chart(fresh_root("skew", 4), (2, 4))
    assert child.node_id == "root/X_2_4"
    # surviving rows {1, 3} relabel to the single fresh variable
    assert child.matrix_variable_names() == ["y1_1_2"]
    T = child.reduction.ring
    v = {n: T.var(n) for n in T.names}
    # pivots (k,l) = (2,4): y_13 = x'_13 - x'_43 x'_21 + x'_23 x'_41
    y13 = (
        v["x_1_3p"]
        - (-v["x_3_4p"]) * (-v["x_1_2p"])
        + v["x_2_3p"] * (-v["x_1_4p"])
    )
    assert child.reduction.formula_matrix.entry(0, 1) == y13


def test_skew_too_small_and_bad_positions():
    with pytest.raises(SizeTooSmall):
        reduce_skew_chart(fresh_root("skew", 2), (1, 2))
    root = fresh_root("skew", 4)
    for pos in [(2, 2), (3, 1), (0, 1), (1, 5)]:
        with pytest.raises(BadParameters):
            reduce_skew_chart(root, pos)
    with pytest.raises(BadParameters):
        reduce_skew_chart(fresh_root("sym", 4), (1, 2))


@pytest.mark.parametrize("reduce, position", [
    (reduce_skew_chart, (1, 2)),
    (reduce_sym_diag_chart, (1, 1)),
    (reduce_sym_offdiag_chart, (1, 2)),
], ids=["skew", "diag", "offdiag"])
def test_chart_reduction_refuses_a_non_node(reduce, position):
    with pytest.raises(BadParameters):
        reduce(None, position)
    with pytest.raises(BadParameters):
        reduce(fresh_root("sym", 4).matrix, position)


@pytest.mark.parametrize("position", [(1,), (1, 2, 3), (True, 2), (1, 2.0), "12", 12], ids=repr)
def test_chart_position_is_a_pair_of_ints(position):
    with pytest.raises(BadParameters):
        reduce_skew_chart(fresh_root("skew", 4), position)
    with pytest.raises(BadParameters):
        chart_identity("skew", 4, 2, position=position)


def test_size_too_small_is_a_bad_parameter():
    assert issubclass(SizeTooSmall, BadParameters)
    with pytest.raises(SizeTooSmall):
        chart_identity("skew", 2, 2)


# --------------------------------------------------------------------------
# symmetric chart reductions


def test_sym3_diag_chart_frozen_formulas():
    child = reduce_sym_diag_chart(fresh_root("sym", 3), (1, 1))
    assert child.node_id == "root/X_1_1"
    assert child.matrix_kind_and_size == ("sym", 2)
    assert child.matrix_variable_names() == ["y1_1_1", "y1_1_2", "y1_2_2"]

    T = child.reduction.ring
    v = {n: T.var(n) for n in T.names}
    y22 = v["x_2_2p"] - v["x_1_2p"] * v["x_1_2p"]
    y23 = v["x_2_3p"] - v["x_1_2p"] * v["x_1_3p"]
    y33 = v["x_3_3p"] - v["x_1_3p"] * v["x_1_3p"]
    assert entries_upper(child.reduction.formula_matrix) == [y22, y23, y33]

    assert child.rewrite.to_json()["x_2_2p"] == "x_1_2p^2 + y1_1_1"
    assert child.exceptional_divisors == [("x_1_1p", 3)]
    assert child.units == []


def test_sym2_diag_chart_single_variable():
    child = reduce_sym_diag_chart(fresh_root("sym", 2), (1, 1))
    assert child.matrix_kind_and_size == ("sym", 1)
    T = child.reduction.ring
    v = {n: T.var(n) for n in T.names}
    y22 = v["x_2_2p"] - v["x_1_2p"] * v["x_1_2p"]
    assert child.reduction.formula_matrix.entry(0, 0) == y22


def test_sym4_offdiag_chart_eps_formula():
    child = reduce_sym_offdiag_chart(fresh_root("sym", 4), (1, 2))
    assert child.node_id == "root/X_1_2"
    assert child.matrix_kind_and_size == ("sym", 2)
    assert child.matrix_variable_names() == ["y1_1_1", "y1_1_2", "y1_2_2"]

    T = child.reduction.ring
    v = {n: T.var(n) for n in T.names}
    eps = T.one() - v["x_1_1p"] * v["x_2_2p"]
    assert child.reduction.eps == eps

    def y(i, j):
        A = v[f"x_1_{i}p"] - v["x_1_1p"] * v[f"x_2_{i}p"]
        B = v[f"x_2_{j}p"] - v["x_2_2p"] * v[f"x_1_{j}p"]
        big = v[f"x_{min(i, j)}_{max(i, j)}p"] - v[f"x_2_{i}p"] * v[f"x_1_{j}p"]
        return eps * big - A * B

    assert entries_upper(child.reduction.formula_matrix) == [
        y(3, 3), y(3, 4), y(4, 4),
    ]
    # the formula is symmetric in (i, j) as a polynomial identity
    assert y(3, 4) == y(4, 3)

    # localization bookkeeping: eps invertible, inverse pinned by relation
    assert child.units == [eps.substitute(child.rewrite)]
    assert len(child.relations) == 1
    s = child.ring.var("s1")
    assert child.relations[0] == s * child.units[0] - child.ring.one()


def test_sym2_offdiag_chart_is_terminal():
    child = reduce_sym_offdiag_chart(fresh_root("sym", 2), (1, 2))
    assert child.matrix is None
    assert child.size == 0
    assert child.rewrite is None
    T = child.reduction.ring
    v = {n: T.var(n) for n in T.names}
    assert child.units == [T.one() - v["x_1_1p"] * v["x_2_2p"]]
    assert child.ring is T


def test_sym_bad_positions_and_kinds():
    root = fresh_root("sym", 3)
    with pytest.raises(BadParameters):
        reduce_sym_diag_chart(root, (1, 2))
    with pytest.raises(BadParameters):
        reduce_sym_offdiag_chart(root, (2, 2))
    with pytest.raises(BadParameters):
        reduce_sym_offdiag_chart(root, (3, 1))
    with pytest.raises(BadParameters):
        reduce_sym_diag_chart(fresh_root("skew", 4), (1, 1))
    with pytest.raises(SizeTooSmall):
        reduce_sym_diag_chart(fresh_root("sym", 1), (1, 1))


def test_size_and_stage_bookkeeping():
    for kind, m, reducer, pos, drop in [
        ("skew", 6, reduce_skew_chart, (1, 2), 2),
        ("sym", 4, reduce_sym_diag_chart, (2, 2), 1),
        ("sym", 4, reduce_sym_offdiag_chart, (1, 3), 2),
    ]:
        root = fresh_root(kind, m)
        child = reducer(root, pos)
        assert child.size == m - drop
        assert child.stage == root.stage + drop
        assert child.depth == root.depth + 1
        assert child.parent_id == root.node_id


@pytest.mark.parametrize("reduce, kind, m, position", [
    (reduce_skew_chart, "skew", 5, (1, 2)),
    (reduce_sym_diag_chart, "sym", 4, (2, 2)),
    (reduce_sym_offdiag_chart, "sym", 4, (1, 3)),
], ids=["skew", "diag", "offdiag"])
def test_rewrite_consistency_names_each_corrupted_entry(reduce, kind, m, position):
    # Corrupt the image of one core primed variable at a time: only the
    # y-formula of its own entry reads it, so the verdict must name exactly
    # that entry, for every entry of the upper triangle (diagonal included
    # in the symmetric charts).
    child = reduce(fresh_root(kind, m), position)
    red = child.reduction
    assert _rewrite_consistency_verdict(child)["pass"]
    rewrite, n = child.rewrite, child.size
    for a, b in [(a, b) for a in range(n) for b in range(a + (kind == "skew"), n)]:
        name = red.matrix.entry(red.remaining[a], red.remaining[b]).variables()[0]
        images = dict(rewrite.images)
        images[name] = images[name] + 1
        child.rewrite = Substitution(rewrite.source, rewrite.target, images)
        result = _rewrite_consistency_verdict(child)
        assert not result["pass"]
        assert result["witness"] == {"entries": [f"({a + 1},{b + 1})"]}


# --------------------------------------------------------------------------
# resolution drivers: frozen small trees


def test_resolve_sym_2_2_all_charts():
    rep = resolve_sym(2, 2, all_charts=True)
    assert [n.node_id for n in rep.nodes] == [
        "root", "root/X_1_1", "root/X_2_2", "root/X_1_2",
    ]
    assert rep.stats["leaves"] == 3
    assert rep.stats["max_depth"] == 1
    assert rep.all_passed()
    assert rep.embedded["pass"]

    for node_id in ("root/X_1_1", "root/X_2_2"):
        leaf = rep.node(node_id)
        assert leaf.terminal_reason == "regular"
        assert [g.format() for g in leaf.strict_ideal.gens] == ["y1_1_1"]
    off = rep.node("root/X_1_2")
    assert off.terminal_reason == "empty"
    assert off.matrix is None
    assert len(off.units) == 1


def test_resolve_sym_2_2_representative_orbits():
    rep = resolve_sym(2, 2)
    assert [(n.node_id, n.orbit_size) for n in rep.nodes] == [
        ("root", 1), ("root/X_1_1", 2), ("root/X_1_2", 1),
    ]
    assert rep.all_passed()


def test_resolve_sym_3_3_tree_shape():
    rep = resolve_sym(3, 3)
    shape = {
        n.node_id: (n.size, n.stage, n.terminal_reason) for n in rep.nodes
    }
    assert shape == {
        "root": (3, 0, None),
        "root/X_1_1": (2, 1, None),
        "root/X_1_2": (1, 2, "regular"),
        "root/X_1_1/X_1_1": (1, 2, "regular"),
        "root/X_1_1/X_1_2": (0, 3, "empty"),
    }
    assert rep.stats["max_depth"] == 2
    assert rep.all_passed()
    # off-diagonal charts terminate one level earlier than diagonal ones
    assert rep.node("root/X_1_2").depth == 1
    assert rep.node("root/X_1_1/X_1_1").depth == 2


def test_resolve_sym_3_3_all_charts_matches_representative_verdicts():
    rep = resolve_sym(3, 3, all_charts=True)
    assert rep.all_passed()
    root_children = [n for n in rep.nodes if n.parent_id == "root"]
    assert len(root_children) == 6  # 3 diagonal + 3 off-diagonal charts
    # the off-diagonal example chart: terminal with a regular transform
    n23 = rep.node("root/X_2_3")
    assert n23.terminal_reason == "regular"
    assert [g.format() for g in n23.strict_ideal.gens] == ["y1_1_1"]


def test_resolve_sym_4_3_next_center_identities():
    rep = resolve_sym(4, 3, check="identities")
    assert rep.all_passed()
    diag = rep.node("root/X_1_1")
    roles = {
        (v["inputs"]["j"], tuple(v["inputs"]["roles"]))
        for v in diag.verdicts
        if v["check"] == "center_identity"
    }
    assert (3, ("target",)) in roles
    assert (2, ("next_center",)) in roles
    off = rep.node("root/X_1_2")
    roles_off = {
        (v["inputs"]["j"], tuple(v["inputs"]["roles"]))
        for v in off.verdicts
        if v["check"] == "center_identity"
    }
    # r=3 with a 2-step drop: the j=2 center is skipped as empty here
    assert (3, ("target",)) in roles_off
    assert (2, ("skipped_center",)) in roles_off


def test_resolve_skew_4_2_all_charts():
    rep = resolve_skew(4, 2, all_charts=True)
    assert rep.stats["nodes"] == 7  # root + C(4,2) charts
    assert rep.stats["leaves"] == 6
    assert rep.all_passed()
    for leaf in rep.leaves():
        assert leaf.terminal_reason == "regular"
        assert [g.format() for g in leaf.strict_ideal.gens] == ["y1_1_2"]
        assert leaf.exceptional_names == [f"x_{leaf.node_id[7:8]}_{leaf.node_id[9:10]}p"]


def test_resolve_skew_4_2_verdict_kinds():
    rep = resolve_skew(4, 2)
    child = rep.node("root/X_1_2")
    assert child.orbit_size == 6
    kinds = [v["check"] for v in child.verdicts]
    assert kinds == [
        "center_strict_transform_empty",
        "det_identity",
        "rewrite_consistency",
        "center_identity",
        "center_radical_identification",
        "embedded_resolution_leaf",
    ]
    assert all(v["pass"] for v in child.verdicts)


def test_resolve_skew_trivial_target_is_root_only():
    rep = resolve_skew(5, 1)
    assert rep.stats == {
        "nodes": 1, "leaves": 1, "max_depth": 0,
        "seconds_total": rep.stats["seconds_total"],
        "seconds_verify": rep.stats["seconds_verify"],
    }
    root = rep.nodes[0]
    assert root.terminal_reason == "regular"
    assert len(root.strict_ideal.gens) == 10  # all matrix variables
    checks = [v["check"] for v in root.verdicts]
    assert "center_radical_identification" in checks
    assert rep.all_passed()


def test_resolve_skew_6_3_depth_two():
    rep = resolve_skew(6, 3, check="identities")
    assert [n.node_id for n in rep.nodes] == [
        "root", "root/X_1_2", "root/X_1_2/X_1_2",
    ]
    leaf = rep.node("root/X_1_2/X_1_2")
    assert leaf.matrix_kind_and_size == ("skew", 2)
    assert leaf.terminal_reason == "regular"
    assert rep.stats["max_depth"] == 2
    assert rep.all_passed()
    # exceptional record: first divisor renamed once, second fresh
    assert leaf.exceptional_names == ["x_1_2pp", "y1_1_2p"]
    assert dict(leaf.exceptional_divisors)["y1_1_2p"] == 4


def test_resolve_parameter_validation():
    with pytest.raises(BadParameters):
        resolve_skew(3, 2)
    with pytest.raises(BadParameters):
        resolve_skew(4, 0)
    with pytest.raises(BadParameters):
        resolve_sym(3, 4)
    with pytest.raises(BadParameters):
        resolve_sym(0, 0)
    with pytest.raises(BadParameters):
        resolve_sym(2, 2, check="everything")
    with pytest.raises(BadParameters):
        resolve_sym(True, True)
    with pytest.raises(BadParameters):
        resolve_skew(4, True)
    for bad_size in (-1, 2.0, "3", True):
        with pytest.raises(BadParameters):
            generic_skew(bad_size)
        with pytest.raises(BadParameters):
            generic_sym(bad_size)
    with pytest.raises(CharTwoForbidden):
        resolve_skew(4, 2, field=PrimeField(2))


def test_resolve_sym_over_prime_field():
    rep = resolve_sym(3, 3, field=PrimeField(7))
    assert rep.input["field"] == "Fp:7"
    assert rep.all_passed()


# --------------------------------------------------------------------------
# composed substitutions and leaf structure


def test_composed_substitution_identifies_strict_det():
    # one blow-up: sigma(det B_3) = e^3 * unit-free image of det(child)
    rep = resolve_sym(3, 3, check="none")
    child = rep.node("root/X_1_1")
    B3 = generic_sym(3)
    U = child.ring
    e = U.var("x_1_1p")
    lhs = child.composed(determinant(B3))
    rhs = e ** 3 * determinant(child.matrix)
    assert lhs == rhs


def test_composed_substitution_depth_two():
    rep = resolve_sym(3, 3, check="none")
    leaf = rep.node("root/X_1_1/X_1_1")
    B3 = generic_sym(3)
    U = leaf.ring
    lhs = leaf.composed(determinant(B3))
    rhs = U.var("x_1_1pp") ** 3 * U.var("y1_1_1p") ** 2 * U.var("y2_1_1")
    assert lhs == rhs


@pytest.mark.parametrize("resolve, m, size", [(resolve_sym, 4, 4), (resolve_skew, 6, 3)])
def test_fused_step_matches_chart_then_rewrite(resolve, m, size):
    # each child is reached by one map; it must agree with the chart map
    # followed by the rewrite, applied one after the other
    rep = resolve(m, size, all_charts=True, check="none")
    for child in rep.nodes[1:]:
        parent = rep.node(child.parent_id)
        maps = [child.chart.substitution] + ([child.rewrite] if child.rewrite else [])
        expected = parent.composed
        for sub in maps:
            expected = expected.then(sub)
        assert child.composed.target == expected.target
        assert child.composed.images == expected.images

        def pulled(f):
            for sub in maps:
                f = sub(f)
            return f

        assert child.units[:len(parent.units)] == [pulled(u) for u in parent.units]
        assert child.relations[:len(parent.relations)] == [pulled(g) for g in parent.relations]


def test_offdiag_composed_det_up_to_eps_relation():
    # sigma(det B_3) * eps^2 == e^2 * s^2-cleared det(child) modulo the
    # recorded inverse relation; verified here in the exact quotient-free
    # form: eps^(m-2) * sigma(det) == -e^m * det(formula matrix) pulled
    # through the rewrite, for m = 3 (det identity carries sign -1).
    rep = resolve_sym(3, 3, check="none")
    child = rep.node("root/X_1_2")
    red = child.reduction
    B3 = generic_sym(3)
    T = red.ring
    e = T.var("x_1_2p")
    eps = red.eps
    total = red.chart.substitution(determinant(B3))
    det_formula = determinant(red.formula_matrix)
    assert eps ** 0 * total == -(e ** 3) * det_formula


def test_report_json_shape_and_determinism():
    a = resolve_sym(2, 2).to_json()
    b = resolve_sym(2, 2).to_json()
    for js in (a, b):
        del js["stats"]["seconds_total"]
        del js["stats"]["seconds_verify"]
        for v in js["nodes"][0]["verdicts"]:
            v.get("witness", {}).pop("seconds", None)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    assert set(a) == {"input", "root", "nodes", "report_verdicts", "stats",
                      "embedded_resolution"}
    node = a["nodes"][1]
    assert set(node) == {
        "id", "parent", "depth", "kind", "size", "stage", "target",
        "orbit_size", "chart", "substitution", "rewrite", "transcript",
        "units", "relations", "exceptional", "matrix", "terminal",
        "strict_ideal", "verdicts",
    }
    assert node["chart"]["exceptional_var"] == "x_1_1p"
    assert a["input"] == {"kind": "sym", "m": 2, "r": 2, "field": "Q"}


def test_check_none_skips_verdicts():
    rep = resolve_sym(3, 3, check="none")
    assert all(not n.verdicts for n in rep.nodes)
    assert rep.embedded is None
    assert "embedded_resolution" not in rep.to_json()
    assert rep.all_passed()  # only the depth bound is recorded


def _forbid(monkeypatch, module, name):
    """Make every binding of module.name inside the package raise."""
    original = getattr(module, name)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{module.__name__}.{name} called")

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "detsing" or mod_name.startswith("detsing."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, forbidden)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("resolve, m, size", [(resolve_sym, 4, 3), (resolve_skew, 5, 2)],
                         ids=["sym4_3", "skew5_2"])
def test_construction_never_certifies(monkeypatch, resolve, m, size, field):
    # building a tree with check="none" computes no Groebner basis at all
    verify = importlib.import_module("detsing.verify")
    for module, name in ((importlib.import_module("detsing.groebner"), "groebner"),
                         (verify, "groebner_of"), (verify, "saturate")):
        _forbid(monkeypatch, module, name)
    rep = resolve(m, size, field, all_charts=True, check="none")
    assert len(rep.nodes) > 1 and rep.leaves()
    assert all(not n.verdicts for n in rep.nodes)
    assert rep.embedded is None
    # the same tree with a check reaches the forbidden calls
    with pytest.raises(AssertionError):
        resolve(m, size, field, all_charts=True, check="identities")


def test_full_check_includes_bases_identities_not():
    full = resolve_sym(2, 2, check="full")
    ident = resolve_sym(2, 2, check="identities")
    full_center = [
        v for n in full.nodes for v in n.verdicts
        if v["check"] == "center_identity"
    ]
    ident_center = [
        v for n in ident.nodes for v in n.verdicts
        if v["check"] == "center_identity"
    ]
    assert full_center and ident_center
    assert all("basis" in v["witness"]["lhs"] for v in full_center)
    assert all("basis" not in v["witness"]["lhs"] for v in ident_center)
    assert ident.embedded is None


def test_depth_bound_verdict():
    rep = resolve_sym(4, 4, check="none")
    (bound,) = rep.report_verdicts
    assert bound["check"] == "depth_bound"
    assert bound["inputs"] == {"max_depth": 3, "bound": 3}
    assert bound["pass"]

    rep = resolve_skew(6, 3, check="none")
    (bound,) = rep.report_verdicts
    assert bound["inputs"] == {"max_depth": 2, "bound": 2}
    assert bound["pass"]


# --------------------------------------------------------------------------
# standalone chart identities


def test_chart_identity_skew():
    v = chart_identity("skew", 4, 3)
    assert v["check"] == "center_identity"
    assert v["pass"]
    assert v["inputs"]["j"] == 3
    assert v["inputs"]["roles"] == ["standalone"]
    assert v["inputs"]["kind"] == "skew"


def test_chart_identity_sym_diag_and_offdiag():
    assert chart_identity("sym", 3, 2, "diag")["pass"]
    off = chart_identity("sym", 3, 2, "offdiag", position=(2, 3))
    assert off["pass"]
    assert off["inputs"]["chart"] == "X_2_3"
    assert "saturated_by" in off["inputs"]


def test_chart_identity_small_r_gives_unit_sides():
    # r - drop <= 0: both sides must collapse to the unit ideal
    assert chart_identity("sym", 2, 2, "offdiag")["pass"]
    assert chart_identity("sym", 3, 1, "diag")["pass"]
    assert chart_identity("skew", 4, 2)["pass"]


def test_chart_identity_over_prime_fields():
    for p in (3, 5, 7):
        assert chart_identity("skew", 4, 4, field=PrimeField(p))["pass"]
        assert chart_identity("sym", 3, 3, "diag", field=PrimeField(p))["pass"]


def test_chart_identity_validation():
    with pytest.raises(BadParameters):
        chart_identity("skew", 2, 2)
    with pytest.raises(BadParameters):
        chart_identity("sym", 3, 2)  # chart_type required
    with pytest.raises(BadParameters):
        chart_identity("sym", 3, 2, "skew")
    with pytest.raises(BadParameters):
        chart_identity("hermitian", 3, 2)
    with pytest.raises(BadParameters):
        chart_identity("skew", 4, 5)
    with pytest.raises(BadParameters):
        chart_identity("skew", 4, 0)
    with pytest.raises(BadParameters):
        chart_identity("sym", 3, True, "diag")


@pytest.mark.parametrize("field", ["Q", None, PrimeField])
@pytest.mark.parametrize("call", [
    lambda field: resolve_sym(2, 2, field),
    lambda field: resolve_skew(4, 2, field),
    lambda field: chart_identity("sym", 3, 2, "diag", field),
], ids=["resolve_sym", "resolve_skew", "chart_identity"])
def test_non_field_refused(call, field):
    with pytest.raises(BadParameters):
        call(field)


# --------------------------------------------------------------------------
# the certify pass: node-scoped minor tables, saturations before covers


def _digest(report):
    doc = report.to_json()
    for key in ("seconds_total", "seconds_verify"):
        del doc["stats"][key]
    return json.dumps(doc, sort_keys=True)


def test_certify_packs_each_matrix_once(monkeypatch):
    # from a cold cache, one table per node matrix serves all its children,
    # and one per primed and formula matrix serves all of a child's
    # verdicts; a warm repeat finds every minor ideal and determinant in
    # the cache and packs no matrix
    verify._GB_CACHE.clear()
    report = resolve_sym(4, 3, all_charts=True, check="none")
    packed = []
    real = matrices._packed_rows

    def counting(M):
        packed.append(M)
        return real(M)

    monkeypatch.setattr(matrices, "_packed_rows", counting)
    resolution._certify(report, True)
    counts = Counter(map(id, packed))
    expected = {id(n.matrix) for n in report.nodes if n.children}
    for node in report.nodes[1:]:
        expected |= {id(node.reduction.matrix), id(node.reduction.formula_matrix)} - {id(None)}
    assert set(counts) == expected and set(counts.values()) == {1}
    warm = resolve_sym(4, 3, all_charts=True, check="none")
    packed.clear()
    resolution._certify(warm, True)
    assert packed == []
    assert _digest(report) == _digest(warm) == _digest(resolve_sym(4, 3, all_charts=True, check="full"))


def test_no_minor_table_outlives_the_certify_pass(monkeypatch):
    tables = []

    class Recorded(MinorCache):
        def __init__(self, M):
            super().__init__(M)
            tables.append(weakref.ref(self))

    monkeypatch.setattr(resolution, "MinorCache", Recorded)
    monkeypatch.setattr(matrices, "MinorCache", Recorded)
    report = resolve_sym(4, 3, all_charts=True, check="full")
    assert report.all_passed() and len(tables) > 50
    assert [ref for ref in tables if ref() is not None] == []


def test_a_warm_repeat_decides_a_cached_saturation_without_a_cover(monkeypatch):
    verify._GB_CACHE.clear()
    cold = resolve_sym(4, 3, all_charts=True, check="full")
    seeds = []
    real_seed_loop = verify._seed_loop

    def counting(gens, lms):
        seeds.append(gens)
        return real_seed_loop(gens, lms)

    live = resolution._center_identity_verdict
    decided = []

    def watched(parent_matrix, red, tables, j, roles, include_bases):
        lhs = resolution._strict_minors(red, j, tables[0])
        cached = red.eps is not None and verify._entry(lhs, red.eps) in verify._GB_CACHE
        before = len(seeds)
        out = live(parent_matrix, red, tables, j, roles, include_bases)
        decided.append((cached, len(seeds) - before))
        return out

    monkeypatch.setattr(verify, "_seed_loop", counting)
    monkeypatch.setattr(resolution, "_center_identity_verdict", watched)
    warm = resolve_sym(4, 3, all_charts=True, check="full")
    assert _digest(warm) == _digest(cold)
    assert sum(cached for cached, _ in decided) >= 10
    assert [calls for cached, calls in decided if cached and calls] == []


# Groebner calls of a resolve from a cold cache, check full. A change in
# what the basis cache shares between checks moves these counts.
PINNED_GROEBNER_CALLS = [
    (resolve_sym, (3, 3), True, 39),
    (resolve_sym, (4, 4), False, 24),
    (resolve_sym, (5, 5), False, 45),
    (resolve_skew, (5, 2), True, 31),
]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F7"])
@pytest.mark.parametrize("resolve, args, all_charts, calls", PINNED_GROEBNER_CALLS,
                         ids=["sym3/3-all", "sym4/4", "sym5/5", "skew5/2-all"])
def test_a_cold_resolve_makes_the_pinned_groebner_calls(monkeypatch, resolve, args, all_charts, calls, field):
    verify._GB_CACHE.clear()
    made = []
    real = verify.groebner

    def counted(*a, **k):
        made.append(a)
        return real(*a, **k)

    monkeypatch.setattr(verify, "groebner", counted)
    report = resolve(*args, field, all_charts=all_charts, check="full")
    assert report.all_passed() and len(made) == calls
