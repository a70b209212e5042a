"""The benchmark's output gate, on its cheapest requests.

``perfbench/expected/`` freezes what every benchmark request returns (pass
flag, SHA-256 of the output without timings, node count; for cli-resolve
also the exit code).  The benchmark counts any difference as a failed
request; this test runs a subset chosen by cost so that such a difference
fails the test suite first.  The cli-resolve subset runs ``detsing.cli.main``
in-process on the request's command line, so it checks the rendered JSON
and Markdown reports that the benchmark reads from a fresh interpreter.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import detsing
from detsing import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def cheap(workload, req):
    """The requests of the subset: small chart-build trees, the library-mix
    resolves and lemma, chart identities with m <= 4."""
    if workload == "chart-build":
        return req.args[:3] in (("sym", 4, 4), ("skew", 6, 3))
    if req.call == "chart_identity":
        return req.args[1] <= 4
    return req.call in ("resolve", "lemma")


CASES = [
    (workload, req)
    for workload in ("chart-build", "library-mix")
    for req in workloads.Plan(workload, seed=0).all_requests()
    if cheap(workload, req)
]


# cli-resolve: the three cheapest templates, over ℚ and one prime, both formats
CLI_CASES = [
    req
    for req in workloads.Plan("cli-resolve", seed=0).all_requests()
    if req.args[:4] in (("sym", 3, 3, True), ("skew", 5, 2, True), ("sym", 4, 4, False))
    and req.field in ("Q", "Fp:7")
]


@pytest.fixture(scope="module")
def expected():
    return {
        workload: json.loads((PERFBENCH / "expected" / f"{workload}.json").read_text("utf-8"))
        for workload in ("chart-build", "library-mix", "cli-resolve")
    }


@pytest.mark.parametrize("workload, req", CASES, ids=[req.key for _, req in CASES])
def test_output_matches_frozen_expectation(expected, workload, req):
    observed = workloads.observe(req, workloads.execute(detsing, req))
    assert workloads.matches(observed, expected[workload][req.key]), observed


@pytest.mark.parametrize("req", CLI_CASES, ids=[req.key for req in CLI_CASES])
def test_cli_output_matches_frozen_expectation(expected, req, capsys):
    code = cli.main(workloads.cli_argv(req))
    observed = workloads.observe_cli(req, code, capsys.readouterr().out)
    assert workloads.matches(observed, expected["cli-resolve"][req.key]), observed
