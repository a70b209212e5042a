"""Command-line front end.

Three subcommands: ``resolve`` runs a resolution and emits the report
(JSON, or Markdown with --format md); ``verify`` runs a single named check
— a standing fact, a chart contraction identity, or the strict-transform
counterexample — and emits its verdict; ``examples`` replays the worked
small-size computations against stored golden outputs.

Exit codes: 0 when every requested verification passes, 1 when a
verification or golden comparison fails, 2 for invalid parameters, 3 when
a resource cap cuts a computation off.  The DETSING_MAX_TERMS environment
variable overrides the Gröbner term cap; a value that is not a positive
integer is an invalid parameter.
"""

import argparse
import json
import sys
from pathlib import Path

from .blowup import Center, make_chart, strict_transform_poly
from .errors import (
    BadParameters,
    CharTwoForbidden,
    DetsingError,
    ResourceLimit,
)
from .fields import QQ, field_from_name, field_name
from .groebner import term_cap
from .matrices import (
    GenericMatrix,
    determinant,
    generic_skew,
    generic_sym,
    minors,
    pfaffian,
    submatrix,
)
from .resolution import chart_identity, resolve_skew, resolve_sym
from .rings import exact_div
from .verify import check_fact, check_lemma_counterexample, verdict

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_PARAMETERS = 2
EXIT_RESOURCE_LIMIT = 3

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "examples.json"

# identity selectors: chart contraction checks by kind and chart type
IDENTITIES = {
    "to-show-Am": ("skew", None),
    "sym-diag": ("sym", "diag"),
    "sym-offdiag": ("sym", "offdiag"),
}


# --------------------------------------------------------------------------
# output helpers


def _emit(text: str, output):
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _markdown_table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    out.extend("| " + " | ".join(str(c) for c in row) + " |" for row in rows)
    return out


def render_markdown(report) -> str:
    """Human-readable view of a resolution report: input, stats, the chart
    tree, and a verdict summary."""
    inp = report.input
    size_param = f"l={inp['l']}" if "l" in inp else f"r={inp['r']}"
    lines = [
        f"# Resolution of the {inp['kind']} m={inp['m']} locus ({size_param}) "
        f"over {inp['field']}",
        "",
        "## Statistics",
        "",
    ]
    lines.extend(f"- {key}: {value}" for key, value in report.stats.items())
    lines += ["", "## Chart tree", ""]
    rows = []
    for node in report.nodes:
        exc = ", ".join(f"{n} (x{mult})" for n, mult in node.exceptional_divisors)
        strict = (
            ", ".join(g.format() for g in node.strict_ideal.gens)
            if node.strict_ideal is not None
            else ""
        )
        rows.append([
            f"`{node.node_id}`",
            f"{node.kind} {node.size}×{node.size}",
            f"{node.stage}/{node.target}",
            node.orbit_size,
            node.terminal_reason or "interior",
            exc or "—",
            f"`{strict}`" if strict else "—",
        ])
    lines.extend(_markdown_table(
        ["node", "matrix", "stage", "orbit", "state", "exceptional", "strict transform"],
        rows,
    ))
    lines += ["", "## Verdicts", ""]
    vrows = [
        [f"`{node.node_id}`", v["check"], "pass" if v["pass"] else "**FAIL**"]
        for node in report.nodes
        for v in node.verdicts
    ]
    vrows.extend(
        ["(report)", v["check"], "pass" if v["pass"] else "**FAIL**"]
        for v in report.report_verdicts
    )
    if report.embedded is not None:
        vrows.append([
            "(report)", report.embedded["check"],
            "pass" if report.embedded["pass"] else "**FAIL**",
        ])
    lines.extend(_markdown_table(["node", "check", "result"], vrows))
    lines += ["", f"All verdicts passed: **{report.all_passed()}**", ""]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# worked examples


def worked_examples(field=QQ):
    """Recompute the small worked computations; each item carries the name,
    the boolean verdict, and display strings (exact over Q)."""
    items = []

    def add(name, passed, **display):
        items.append({
            "name": name,
            "verdict": bool(passed),
            "display": {k: str(v) for k, v in display.items()},
        })

    A2 = generic_skew(2, field)
    det2 = determinant(A2)
    add("skew-2-determinant", det2 == A2.ring.parse("x_1_2^2"), det=det2.format())

    B2 = generic_sym(2, field)
    detB2 = determinant(B2)
    add(
        "sym-2-determinant",
        detB2 == B2.ring.parse("x_1_1*x_2_2 - x_1_2^2"),
        det=detB2.format(),
    )

    A4 = generic_skew(4, field)
    detA4 = determinant(A4)
    pf4 = pfaffian(A4)
    add(
        "skew-4-pfaffian-square",
        detA4 == pf4 * pf4 and determinant(A4, "bareiss") == pf4 * pf4,
        pfaffian=pf4.format(),
    )

    ok = True
    for _, _, minor in minors(A4, 3):
        if minor.is_zero():
            continue
        try:
            q = exact_div(minor, pf4)
        except ValueError:
            ok = False
            break
        lead = q.leading()
        if q.num_terms() != 1 or sum(lead[0]) != 1 or lead[1] not in (
            field.one, field.neg(field.one)
        ):
            ok = False
            break
    sample = determinant(submatrix(A4, (0, 1, 2), (0, 1, 3)))
    add(
        "skew-4-minor-factorization",
        ok,
        minor_123_124=sample.format(),
        quotient_by_pfaffian=exact_div(sample, pf4).format(),
    )

    chB2 = make_chart(Center(B2.ring, B2.ring.names), "x_1_1")
    order2, strict2 = strict_transform_poly(detB2, chB2)
    add(
        "sym-2-diag-chart-strict-determinant",
        order2 == 2 and strict2 == chB2.target.parse("x_2_2p - x_1_2p^2"),
        order=order2,
        strict=strict2.format(),
    )

    B3 = generic_sym(3, field)
    chB3 = make_chart(Center(B3.ring, B3.ring.names), "x_1_1")
    order3, strict3 = strict_transform_poly(determinant(B3), chB3)
    T3 = chB3.target
    y22 = T3.parse("x_2_2p - x_1_2p^2")
    y23 = T3.parse("x_2_3p - x_1_2p*x_1_3p")
    y33 = T3.parse("x_3_3p - x_1_3p^2")
    reduced = GenericMatrix(T3, [[y22, y23], [y23, y33]], "sym")
    add(
        "sym-3-diag-chart-strict-determinant",
        order3 == 3 and strict3 == determinant(reduced),
        order=order3,
        strict=strict3.format(),
    )

    diag_identity = chart_identity("sym", 3, 2, "diag", field)
    add("sym-3-diag-chart-minor-identity", diag_identity["pass"])

    offdiag = chart_identity("sym", 3, 2, "offdiag", field, position=(2, 3))
    add(
        "sym-3-offdiag-chart-saturation",
        offdiag["pass"],
        saturated_by=offdiag["inputs"]["saturated_by"],
    )

    chA4 = make_chart(Center(A4.ring, A4.ring.names), "x_1_2")
    order4, strict4 = strict_transform_poly(detA4, chA4)
    morder, mstrict = strict_transform_poly(sample, chA4)
    add(
        "skew-4-chart-strict-determinant",
        order4 == 4 and morder == 3 and strict4 == mstrict * mstrict,
        strict_det=strict4.format(),
        strict_minor=mstrict.format(),
    )

    lemma = check_lemma_counterexample(field)
    add(
        "strict-transform-counterexample",
        lemma["pass"],
        normal_form=lemma["witness"]["normal_form"],
    )

    add("skew-3-determinant-vanishes", check_fact("F1", 3, field))

    rep_sym = resolve_sym(2, 2, field, all_charts=True)
    add(
        "sym-2-resolution",
        rep_sym.all_passed(),
        nodes=rep_sym.stats["nodes"],
        leaves=rep_sym.stats["leaves"],
    )

    rep_skew = resolve_skew(4, 2, field, all_charts=True)
    add(
        "skew-4-resolution",
        rep_skew.all_passed(),
        nodes=rep_skew.stats["nodes"],
        leaves=rep_skew.stats["leaves"],
    )

    return items


def compare_examples(computed, golden, exact_display: bool):
    """Differences between recomputed examples and the stored goldens, as
    printable lines; empty means everything matched."""
    diffs = []
    by_name = {item["name"]: item for item in computed}
    for name, expected in golden.items():
        item = by_name.pop(name, None)
        if item is None:
            diffs.append(f"{name}: missing from the recomputed examples")
            continue
        if item["verdict"] != expected["verdict"]:
            diffs.append(
                f"{name}: verdict {item['verdict']} != expected {expected['verdict']}"
            )
        if exact_display and item["display"] != expected["display"]:
            for key in sorted(set(expected["display"]) | set(item["display"])):
                want = expected["display"].get(key)
                got = item["display"].get(key)
                if want != got:
                    diffs.append(f"{name}.{key}: got {got!r}, expected {want!r}")
    diffs.extend(f"{name}: not covered by the goldens" for name in by_name)
    return diffs


# --------------------------------------------------------------------------
# subcommand handlers


def cmd_resolve(args) -> int:
    field = field_from_name(args.field)
    if args.kind == "skew":
        if args.l is None:
            raise BadParameters("--kind skew needs --l (the minor level)")
        if args.r is not None:
            raise BadParameters("--r belongs to --kind sym; use --l for skew")
        report = resolve_skew(
            args.m, args.l, field,
            all_charts=args.all_charts, check=args.verify,
        )
    else:
        if args.r is None:
            raise BadParameters("--kind sym needs --r (the minor size)")
        if args.l is not None:
            raise BadParameters("--l belongs to --kind skew; use --r for sym")
        report = resolve_sym(
            args.m, args.r, field,
            all_charts=args.all_charts, check=args.verify,
        )
    if args.format == "md":
        text = render_markdown(report)
    else:
        text = json.dumps(report.to_json(), indent=2)
    _emit(text, args.output)
    return EXIT_OK if report.all_passed() else EXIT_FAIL


def cmd_verify(args) -> int:
    field = field_from_name(args.field)
    if args.lemma_counterexample:
        result = check_lemma_counterexample(field)
    elif args.fact is not None:
        if args.m is None:
            raise BadParameters("--fact needs --m")
        inputs = {"fact": args.fact, "m": args.m, "field": field_name(field)}
        if args.l is not None:
            inputs["l"] = args.l
        result = verdict(
            "fact", inputs, check_fact(args.fact, args.m, field, l=args.l)
        )
    else:
        if args.m is None or args.r is None:
            raise BadParameters("--identity needs --m and --r")
        kind, chart_type = IDENTITIES[args.identity]
        result = chart_identity(kind, args.m, args.r, chart_type, field)
    _emit(json.dumps(result, indent=2), args.output)
    return EXIT_OK if result["pass"] else EXIT_FAIL


def cmd_examples(args) -> int:
    field = field_from_name(args.field)
    if getattr(field, "p", None) == 2:
        raise CharTwoForbidden(
            "the worked examples include skew-symmetric computations; "
            "characteristic 2 is refused"
        )
    computed = worked_examples(field)
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    diffs = compare_examples(computed, golden, exact_display=field.char == 0)
    if args.output:
        payload = {item["name"]: {"verdict": item["verdict"], "display": item["display"]}
                   for item in computed}
        Path(args.output).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    for item in computed:
        status = "ok" if item["verdict"] else "FAIL"
        print(f"{status:4s} {item['name']}")
    if diffs:
        print(f"{len(diffs)} golden mismatch(es):", file=sys.stderr)
        for line in diffs:
            print(f"  {line}", file=sys.stderr)
        return EXIT_FAIL
    print(f"all {len(computed)} examples match the goldens over {field_name(field)}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detsing",
        description=(
            "Exact blow-up resolutions of generic symmetric and "
            "skew-symmetric determinantal loci, with machine-checked "
            "ideal identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    res = sub.add_parser("resolve", help="run a resolution and emit the report")
    res.add_argument("--kind", choices=("sym", "skew"), required=True)
    res.add_argument("--m", type=int, required=True, help="matrix size")
    res.add_argument("--r", type=int, help="minor size (sym)")
    res.add_argument("--l", type=int, help="minor level: resolve the 2l-minor locus (skew)")
    res.add_argument("--field", default="Q", help="Q or Fp:<prime> (default Q)")
    res.add_argument("--all-charts", action="store_true",
                     help="expand every chart instead of one per symmetry orbit")
    res.add_argument("--verify", choices=("none", "identities", "full"),
                     default="full",
                     help="verification level (full adds Gröbner bases and leaf checks)")
    res.add_argument("--format", choices=("json", "md"), default="json")
    res.add_argument("--output", help="write the report here instead of stdout")
    res.set_defaults(handler=cmd_resolve)

    ver = sub.add_parser("verify", help="run one named check and emit its verdict")
    what = ver.add_mutually_exclusive_group(required=True)
    what.add_argument("--fact", choices=("F1", "F2", "F3", "Eq2l"),
                      help="standing fact about generic skew matrices")
    what.add_argument("--identity", choices=sorted(IDENTITIES),
                      help="chart contraction identity")
    what.add_argument("--lemma-counterexample", action="store_true",
                      help="strict transforms of generators need not generate")
    ver.add_argument("--m", type=int, help="matrix size")
    ver.add_argument("--r", type=int, help="minor size (identities)")
    ver.add_argument("--l", type=int, help="minor level (facts F2/Eq2l)")
    ver.add_argument("--field", default="Q")
    ver.add_argument("--output")
    ver.set_defaults(handler=cmd_verify)

    ex = sub.add_parser("examples",
                        help="replay the worked examples against stored goldens")
    ex.add_argument("--field", default="Q",
                    help="field to recompute over; verdicts must match the goldens")
    ex.add_argument("--output", help="also write the recomputed results here")
    ex.set_defaults(handler=cmd_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        term_cap()  # a malformed DETSING_MAX_TERMS is bad input
        return args.handler(args)
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except (BadParameters, CharTwoForbidden) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMETERS
    except DetsingError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMETERS


if __name__ == "__main__":
    sys.exit(main())
