"""Command-line interface: subcommands, exit codes, schemas, goldens."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detsing
from detsing.cli import (
    EXIT_BAD_PARAMETERS,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_RESOURCE_LIMIT,
    GOLDEN_PATH,
    compare_examples,
    main,
    worked_examples,
)

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "detsing" / "schemas"


def child_env(**extra):
    """Environment for a child interpreter that imports the same detsing
    as this test session (pytest's `pythonpath` does not reach children)."""
    src = str(Path(detsing.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# --------------------------------------------------------------------------
# resolve


def test_resolve_json_validates_against_schema(capsys):
    code, payload = run_json(
        capsys, ["resolve", "--kind", "sym", "--m", "3", "--r", "3"]
    )
    assert code == EXIT_OK
    jsonschema.validate(payload, load_schema("report.schema.json"))
    assert payload["input"] == {"kind": "sym", "m": 3, "r": 3, "field": "Q"}
    assert payload["stats"]["nodes"] == 5
    assert "embedded_resolution" in payload


def test_resolve_skew_all_charts_schema(capsys):
    code, payload = run_json(
        capsys,
        ["resolve", "--kind", "skew", "--m", "4", "--l", "2", "--all-charts",
         "--verify", "identities"],
    )
    assert code == EXIT_OK
    jsonschema.validate(payload, load_schema("report.schema.json"))
    assert payload["stats"]["nodes"] == 7
    assert "embedded_resolution" not in payload


def test_resolve_verify_levels_control_payload(capsys):
    code, none = run_json(
        capsys,
        ["resolve", "--kind", "sym", "--m", "2", "--r", "2", "--verify", "none"],
    )
    assert code == EXIT_OK
    assert all(not node["verdicts"] for node in none["nodes"])

    code, full = run_json(
        capsys,
        ["resolve", "--kind", "sym", "--m", "2", "--r", "2", "--verify", "full"],
    )
    assert code == EXIT_OK
    center = [
        v
        for node in full["nodes"]
        for v in node["verdicts"]
        if v["check"] == "center_identity"
    ]
    assert center and all("basis" in v["witness"]["lhs"] for v in center)


def test_resolve_markdown_format(capsys):
    code = main(
        ["resolve", "--kind", "sym", "--m", "2", "--r", "2", "--format", "md",
         "--verify", "identities"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("# Resolution of the sym m=2 locus (r=2) over Q")
    assert "| `root/X_1_1` |" in out
    assert "All verdicts passed: **True**" in out


def test_resolve_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["resolve", "--kind", "skew", "--m", "4", "--l", "2",
         "--verify", "identities", "--output", str(target)]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    jsonschema.validate(payload, load_schema("report.schema.json"))


def test_resolve_parameter_errors(capsys):
    # skew needs 2l <= m
    assert main(["resolve", "--kind", "skew", "--m", "3", "--l", "2"]) == \
        EXIT_BAD_PARAMETERS
    # wrong size flag for the kind
    assert main(["resolve", "--kind", "sym", "--m", "3", "--l", "1"]) == \
        EXIT_BAD_PARAMETERS
    assert main(["resolve", "--kind", "skew", "--m", "4", "--r", "2"]) == \
        EXIT_BAD_PARAMETERS
    # characteristic 2 is refused for skew
    assert main(
        ["resolve", "--kind", "skew", "--m", "4", "--l", "2", "--field", "Fp:2"]
    ) == EXIT_BAD_PARAMETERS
    # unknown field spec
    assert main(
        ["resolve", "--kind", "sym", "--m", "2", "--r", "2", "--field", "R"]
    ) == EXIT_BAD_PARAMETERS
    capsys.readouterr()


# --------------------------------------------------------------------------
# verify


def test_verify_fact(capsys):
    code, payload = run_json(capsys, ["verify", "--fact", "F3", "--m", "4"])
    assert code == EXIT_OK
    jsonschema.validate(payload, load_schema("verdict.schema.json"))
    assert payload == {
        "check": "fact",
        "inputs": {"fact": "F3", "m": 4, "field": "Q"},
        "pass": True,
    }


def test_verify_fact_f2_needs_level(capsys):
    assert main(["verify", "--fact", "F2", "--m", "4"]) == EXIT_BAD_PARAMETERS
    capsys.readouterr()
    code, payload = run_json(
        capsys, ["verify", "--fact", "F2", "--m", "4", "--l", "2"]
    )
    assert code == EXIT_OK
    assert payload["inputs"]["l"] == 2


def test_verify_fact_f1_f3_refuse_a_level(capsys):
    # F1 and F3 take no minor level: a stray --l is an error, never an input
    # of a verdict
    for fact, m in (("F1", "3"), ("F3", "4")):
        assert main(["verify", "--fact", fact, "--m", m, "--l", "1"]) == EXIT_BAD_PARAMETERS
        captured = capsys.readouterr()
        assert captured.out == "" and "no minor level" in captured.err


def test_verify_fact_bad_parity(capsys):
    assert main(["verify", "--fact", "F1", "--m", "4"]) == EXIT_BAD_PARAMETERS
    capsys.readouterr()
    # a size that names no matrix gets an error, never a verdict
    for fact, m in (("F3", "-2"), ("F1", "-3")):
        assert main(["verify", "--fact", fact, "--m", m]) == EXIT_BAD_PARAMETERS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_verify_identity(capsys):
    code, payload = run_json(
        capsys, ["verify", "--identity", "to-show-Am", "--m", "4", "--r", "3"]
    )
    assert code == EXIT_OK
    jsonschema.validate(payload, load_schema("verdict.schema.json"))
    assert payload["check"] == "center_identity"
    assert payload["inputs"]["kind"] == "skew"

    code, payload = run_json(
        capsys,
        ["verify", "--identity", "sym-offdiag", "--m", "3", "--r", "2",
         "--field", "Fp:7"],
    )
    assert code == EXIT_OK
    assert payload["inputs"]["field"] == "Fp:7"

    assert main(["verify", "--identity", "sym-diag", "--m", "3"]) == \
        EXIT_BAD_PARAMETERS
    capsys.readouterr()


def test_verify_lemma_counterexample(capsys):
    code, payload = run_json(capsys, ["verify", "--lemma-counterexample"])
    assert code == EXIT_OK
    jsonschema.validate(payload, load_schema("verdict.schema.json"))
    assert payload["check"] == "strict_transform_counterexample"
    assert payload["witness"]["in_source_ideal"] is True
    assert payload["witness"]["normal_form"] == "yp^3 - zp^2"


def test_verify_selectors_are_exclusive(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--fact", "F3", "--lemma-counterexample"])
    assert err.value.code == 2
    capsys.readouterr()


# --------------------------------------------------------------------------
# examples


def test_examples_match_goldens(capsys):
    assert main(["examples"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all 13 examples match the goldens over Q" in out


def test_examples_prime_field_same_verdicts(capsys):
    assert main(["examples", "--field", "Fp:5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all 13 examples match the goldens over Fp:5" in out


def test_examples_char_two_refused(capsys):
    assert main(["examples", "--field", "Fp:2"]) == EXIT_BAD_PARAMETERS
    capsys.readouterr()


def test_examples_output_file(tmp_path, capsys):
    target = tmp_path / "examples.json"
    assert main(["examples", "--output", str(target)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads(target.read_text(encoding="utf-8"))
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert payload == golden


# An --output path that cannot be written is a bad parameter: exit 2 with one
# error line, not exit 1 (a failed verification) with a traceback.
@pytest.mark.parametrize("argv", [
    ["resolve", "--kind", "sym", "--m", "2", "--r", "2", "--verify", "none"],
    ["verify", "--fact", "F1", "--m", "3"],
    ["examples"],
], ids=["resolve", "verify", "examples"])
def test_unwritable_output_is_a_bad_parameter(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.json"
    assert main(argv + ["--output", str(target)]) == EXIT_BAD_PARAMETERS
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(target) in err[0]
    assert not target.exists()


def test_examples_golden_mismatch_exits_nonzero(tmp_path, capsys, monkeypatch):
    import detsing.cli as cli

    tampered = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    tampered["skew-2-determinant"]["display"]["det"] = "x_1_2^3"
    bad = tmp_path / "examples.json"
    bad.write_text(json.dumps(tampered), encoding="utf-8")
    monkeypatch.setattr(cli, "GOLDEN_PATH", bad)
    assert main(["examples"]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert "golden mismatch" in err
    assert "skew-2-determinant.det" in err


def test_compare_examples_reports_differences():
    computed = worked_examples()
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert compare_examples(computed, golden, exact_display=True) == []

    tampered = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    tampered["skew-2-determinant"]["display"]["det"] = "x_1_2^3"
    tampered["sym-2-determinant"]["verdict"] = False
    tampered["made-up-example"] = {"verdict": True, "display": {}}
    diffs = compare_examples(computed, tampered, exact_display=True)
    assert any("skew-2-determinant.det" in line for line in diffs)
    assert any("sym-2-determinant: verdict" in line for line in diffs)
    assert any("made-up-example: missing" in line for line in diffs)
    # display drift is tolerated over prime fields, verdicts are not
    diffs_fp = compare_examples(computed, tampered, exact_display=False)
    assert any("sym-2-determinant: verdict" in line for line in diffs_fp)
    assert not any("skew-2-determinant.det" in line for line in diffs_fp)


# --------------------------------------------------------------------------
# process-level behavior


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "detsing", "verify", "--fact", "F1", "--m", "3"],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=str(Path(__file__).resolve().parent.parent),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_term_cap_environment_override():
    def run(value, *args):
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env=child_env(DETSING_MAX_TERMS=value),
            cwd=str(Path(__file__).resolve().parent.parent),
        )

    proc = run("2", "-m", "detsing", "resolve", "--kind", "sym",
               "--m", "3", "--r", "3", "--verify", "identities")
    assert proc.returncode == EXIT_RESOURCE_LIMIT
    assert "resource limit" in proc.stderr
    assert "DETSING_MAX_TERMS" in proc.stderr

    # a malformed cap is bad input, even for a check that never reduces
    proc = run("abc", "-m", "detsing", "verify", "--fact", "F1", "--m", "3")
    assert proc.returncode == EXIT_BAD_PARAMETERS
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "DETSING_MAX_TERMS" in proc.stderr
    assert "Traceback" not in proc.stderr
    # and the package still imports
    assert run("abc", "-c", "import detsing").returncode == 0


# --------------------------------------------------------------------------
# fuzzing

# flag -> (values argparse accepts, values it refuses), or None for a
# switch; the handlers must refuse some accepted values themselves (sizes -1
# and 0, the fields Fp:2, Fp:4 and R)
SIZES = ([str(n) for n in range(-1, 5)], ["2.5", "x", ""])
FLAGS = {
    "--kind": (["sym", "skew"], ["herm"]),
    "--m": SIZES,
    "--r": SIZES,
    "--l": SIZES,
    "--field": (["Q", "QQ", "Fp:7", "GF(5)", "F3", "Fp:2", "Fp:4", "R", ""], []),
    "--verify": (["none", "identities", "full"], ["all"]),
    "--format": (["json", "md"], ["txt"]),
    "--fact": (["F1", "F2", "F3", "Eq2l"], ["F4"]),
    "--identity": (["to-show-Am", "sym-diag", "sym-offdiag"], ["skew"]),
    "--all-charts": None,
    "--lemma-counterexample": None,
}
# subcommand -> (leading flags, other flags); a tuple offers a choice, and
# a flag given as --flag=value takes no further value
SUBCOMMANDS = {
    "resolve": ([("--kind=sym --r", "--kind=skew --l"), "--m"],
                ["--field", "--all-charts", "--verify", "--format"]),
    "verify": ([("--fact", "--identity", "--lemma-counterexample"), "--m"],
               ["--r", "--l", "--field"]),
    "examples": ([], ["--field"]),
    "check": ([], []),
}


RARELY = st.sampled_from([False] * 9 + [True])


@st.composite
def cli_argv(draw):
    """A subcommand, each of its leading flags (most of the time), a random
    share of its other flags, and at most one stray flag; one value in ten
    is one that argparse refuses."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    leading, others = SUBCOMMANDS[command]
    flags = [
        part
        for flag in leading if draw(RARELY) is False
        for part in (draw(st.sampled_from(flag)) if isinstance(flag, tuple) else flag).split()
    ]
    others = draw(st.permutations(others))
    flags += others[:draw(st.integers(0, len(others)))]
    if draw(RARELY):
        flags.append(draw(st.sampled_from(sorted(FLAGS))))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if "=" not in flag and FLAGS[flag] is not None:
            good, bad = FLAGS[flag]
            argv.append(draw(st.sampled_from(bad if bad and draw(RARELY) else good)))
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_cli_fuzz_exits_cleanly(argv):
    # any argv drawn from the subcommands' own vocabulary ends with a known
    # exit code and an error message, never an uncaught exception
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_BAD_PARAMETERS, EXIT_RESOURCE_LIMIT), argv
    assert "Traceback" not in err.getvalue()
