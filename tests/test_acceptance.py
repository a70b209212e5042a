"""Acceptance gate: the eight headline criteria, one test each.

Every check is exact (integer/rational arithmetic; polynomial and ideal
equality on the nose) — the only tolerances are the pinned wall-clock
budgets below.  Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line,
written through pytest's capture so it shows in any run.
"""

import random
import time

from detsing.blowup import Center, make_chart, strict_transform_ideal, strict_transform_poly
from detsing.fields import QQ, PrimeField
from detsing.groebner import groebner
from detsing.matrices import (
    GenericMatrix,
    Ideal,
    determinant,
    generic_skew,
    generic_sym,
    minors,
    minors_ideal,
    pfaffian,
)
from detsing.resolution import chart_identity, resolve_skew, resolve_sym
from detsing.rings import Ring, exact_div, ring
from detsing.verify import (
    check_fact,
    check_lemma_counterexample,
    groebner_of,
    ideal_contains,
    ideal_equal,
    saturate,
)

from . import default_fields
from .oracles import macaulay_member

BUDGET_SECONDS = {1: 1.0, 2: 5.0, 3: 5.0, 4: 1.0, 5: 60.0, 6: 600.0, 7: 600.0, 8: 120.0}


def _gate(number, description, ok, started, capsys=None):
    elapsed = time.monotonic() - started
    budget = BUDGET_SECONDS[number]
    in_budget = elapsed < budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    line = (
        f"ACCEPTANCE {number}: {verdict} — {description} "
        f"({elapsed:.2f}s, budget {budget:.0f}s)"
    )
    if capsys is not None:
        with capsys.disabled():
            print(f"\n{line}")
    else:
        print(line)
    assert ok, f"criterion {number} failed: {description}"
    assert in_budget, f"criterion {number} exceeded its budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_smallest_cases_and_symmetric_2_resolution(capsys):
    t0 = time.monotonic()
    A2 = generic_skew(2)
    x12 = A2.ring.var("x_1_2")
    ok = determinant(A2) == x12 * x12

    B2 = generic_sym(2)
    v = {n: B2.ring.var(n) for n in B2.ring.names}
    ok = ok and determinant(B2) == v["x_1_1"] * v["x_2_2"] - v["x_1_2"] * v["x_1_2"]

    report = resolve_sym(2, 2, all_charts=True, check="full")
    leaf_checks = [vd for n in report.leaves() for vd in n.verdicts
                   if vd["check"] == "embedded_resolution_leaf"]
    ok = ok and len(leaf_checks) == 3 and all(vd["pass"] for vd in leaf_checks)
    ok = ok and all(vd["regular"] and vd["transversal"] for vd in leaf_checks)
    ok = ok and report.all_passed()
    _gate(1, "2x2 determinants and the symmetric rank-1 locus resolution", ok, t0, capsys)


def test_criterion_2_symmetric_3_charts(capsys):
    t0 = time.monotonic()
    B3 = generic_sym(3)
    center = Center(B3.ring, B3.ring.names)

    diag = make_chart(center, "x_1_1")
    T = diag.target
    v = {n: T.var(n) for n in T.names}
    y22 = v["x_2_2p"] - v["x_1_2p"] * v["x_1_2p"]
    y23 = v["x_2_3p"] - v["x_1_2p"] * v["x_1_3p"]
    y33 = v["x_3_3p"] - v["x_1_3p"] * v["x_1_3p"]
    reduced = GenericMatrix(T, [[y22, y23], [y23, y33]], "sym")
    _, strict_det = strict_transform_poly(determinant(B3), diag)
    ok = strict_det == determinant(reduced)

    st_minors = strict_transform_ideal(minors_ideal(B3, 2), diag)
    ok = ok and ideal_equal(st_minors, Ideal(T, [y22, y23, y33]))

    off = make_chart(center, "x_2_3")
    To = off.target
    eps = To.one() - To.var("x_2_2p") * To.var("x_3_3p")
    st_off = strict_transform_ideal(minors_ideal(B3, 2), off)
    ok = ok and groebner_of(saturate(st_off, eps)).is_unit_ideal()
    _gate(2, "symmetric 3x3: diagonal-chart identities and off-diagonal saturation", ok, t0, capsys)


def test_criterion_3_skew_4_chart(capsys):
    t0 = time.monotonic()
    A4 = generic_skew(4)
    chart = make_chart(Center(A4.ring, A4.ring.names), "x_1_2")
    T = chart.target
    v = {n: T.var(n) for n in T.names}
    y34 = v["x_3_4p"] + v["x_1_4p"] * v["x_2_3p"] - v["x_1_3p"] * v["x_2_4p"]

    order, strict_det = strict_transform_poly(determinant(A4), chart)
    ok = order == 4 and strict_det == y34 * y34

    minor = determinant(
        GenericMatrix(A4.ring, [[A4.rows[i][j] for j in (0, 1, 3)] for i in (0, 1, 2)], "general")
    )
    _, strict_minor = strict_transform_poly(minor, chart)
    ok = ok and (strict_minor == y34 or strict_minor == -y34)

    pf = pfaffian(A4)
    for rows, cols, three_minor in minors(A4, 3):
        if three_minor.is_zero():
            continue
        quotient = exact_div(three_minor, pf)
        mono, coeff = quotient.leading()
        ok = ok and quotient.num_terms() == 1 and sum(mono) == 1
        ok = ok and coeff in (QQ.one, QQ.neg(QQ.one))
        # the factor variable is indexed by the shared row/column pair
        shared = sorted(set(rows) & set(cols))
        expected = A4.ring.var(f"x_{shared[0] + 1}_{shared[1] + 1}")
        ok = ok and quotient in (expected, -expected)
    _gate(3, "skew 4x4 chart: strict determinant is the squared strict minor", ok, t0, capsys)


def test_criterion_4_strict_transform_counterexample(capsys):
    t0 = time.monotonic()
    result = check_lemma_counterexample(QQ)
    ok = (
        result["pass"]
        and result["witness"]["in_source_ideal"] is True
        and result["witness"]["normal_form"] is not None
    )
    _gate(4, "strict transforms of generators need not generate", ok, t0, capsys)


def test_criterion_5_standing_facts_over_all_fields(capsys):
    t0 = time.monotonic()
    ok = True
    for field in default_fields():
        for m in (3, 5, 7):
            ok = ok and check_fact("F1", m, field)
        for m in (2, 4, 6):
            ok = ok and check_fact("F3", m, field)
        ok = ok and check_fact("F2", 4, field, l=2)
    _gate(5, "F1/F3/F2 over Q and Fp (p in 3,5,7,101)", ok, t0, capsys)


def test_criterion_6_center_contraction_identities(capsys):
    t0 = time.monotonic()
    failures = []
    for m in (4, 5, 6):
        for r in range(3, m + 1):
            if not chart_identity("skew", m, r)["pass"]:
                failures.append(("skew", m, r))
    for m in (3, 4, 5):
        for r in range(1, m + 1):
            for chart_type in ("diag", "offdiag"):
                if not chart_identity("sym", m, r, chart_type)["pass"]:
                    failures.append(("sym", chart_type, m, r))
    description = "chart contraction identities (skew m 4-6 all r; sym m 3-5 all r, both charts)"
    if failures:
        description += f"; failing instances: {failures}"
    _gate(6, description, not failures, t0, capsys)


def test_criterion_7_end_to_end_resolutions(capsys):
    t0 = time.monotonic()
    ok = True
    for report in (resolve_sym(4, 4, check="full"), resolve_skew(6, 3, check="full")):
        ok = ok and report.all_passed() and report.embedded["pass"]
        leaves = report.leaves()
        ok = ok and leaves and all(
            vd["pass"]
            for n in leaves
            for vd in n.verdicts
            if vd["check"] == "embedded_resolution_leaf"
        )
        # every expanded chart certifies an empty (unit) center strict transform
        interior = [n for n in report.nodes if not n.is_leaf()]
        for node in interior:
            child_ids = node.children
            ok = ok and child_ids
            for cid in child_ids:
                checks = [
                    vd
                    for vd in report.node(cid).verdicts
                    if vd["check"] == "center_strict_transform_empty"
                ]
                ok = ok and len(checks) == 1 and checks[0]["pass"]
    _gate(7, "resolve_sym(4,4) and resolve_skew(6, l=3) fully verified", ok, t0, capsys)


def test_criterion_8_property_suites_compact(capsys):
    t0 = time.monotonic()
    rng = random.Random(1)
    ok = True

    # ring laws, >= 1000 exact cases
    cases = 0
    for field in (QQ, PrimeField(7)):
        R = Ring(["a", "b", "c"], field)
        while cases < (500 if field is QQ else 1000):
            def rand():
                f = R.zero()
                for _ in range(rng.randint(0, 5)):
                    term = R.one() * rng.randint(-9, 9)
                    for _ in range(rng.randint(0, 3)):
                        term = term * R.var(rng.choice(R.names))
                    f = f + term
                return f

            f, g, h = rand(), rand(), rand()
            ok = ok and f * (g + h) == f * g + f * h
            ok = ok and (f * g) * h == f * (g * h)
            ok = ok and f + g == g + f
            ok = ok and R.parse(f.format()) == f
            cases += 4

    # dual determinant routes up to size 6
    for m in range(2, 7):
        ok = ok and determinant(generic_sym(m), "cofactor") == determinant(generic_sym(m), "bareiss")
        ok = ok and determinant(generic_skew(m), "cofactor") == determinant(generic_skew(m), "bareiss")

    # Buchberger vs Macaulay-matrix membership, bounded degree
    R3 = ring("x y z")
    checked = 0
    while checked < 40:
        gens = []
        for _ in range(rng.randint(2, 3)):
            f = R3.zero()
            d = rng.randint(1, 3)
            for _ in range(rng.randint(1, 3)):
                term = R3.one() * rng.randint(-9, 9)
                for _ in range(d):
                    term = term * R3.var(rng.choice(R3.names))
                f = f + term
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        gb = groebner(gens)
        f = R3.zero()
        d = rng.randint(1, 5)
        for _ in range(rng.randint(1, 4)):
            term = R3.one() * rng.randint(-9, 9)
            for _ in range(d):
                term = term * R3.var(rng.choice(R3.names))
            f = f + term
        if f.is_zero():
            continue
        ok = ok and gb.contains(f) == macaulay_member(f, gens)
        checked += 1

    # Laplace inclusions for every generic matrix, m <= 5
    for maker in (generic_sym, generic_skew):
        for m in range(2, 6):
            M = maker(m)
            for r in range(2, m + 1):
                small = minors_ideal(M, r - 1)
                ok = ok and all(ideal_contains(small, g) for g in minors_ideal(M, r).gens)

    _gate(8, f"property suites ({cases} law cases, dual routes, oracles, inclusions)", ok, t0, capsys)
