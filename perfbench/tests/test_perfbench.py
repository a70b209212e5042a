"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from metrics import Outcome  # noqa: E402


def span(name, start, end, parent=-1, tag=None):
    return [name, start, end, parent, 0, tag]


# --- tail percentile ---------------------------------------------------------


def test_tail_is_highest_ladder_step_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert metrics.tail_latency(values) == (90, metrics.hd_percentile(values, 90), 10)
    p, value, beyond = metrics.tail_latency(list(range(1, 40)))
    assert (p, beyond) == (75, 10) and 29 < value < 30


def test_harrell_davis_weights_every_order_statistic():
    assert metrics.hd_percentile([7.0], 50) == 7.0
    assert metrics.hd_percentile([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)
    # symmetric weights around the median of a symmetric sample
    assert metrics.hd_percentile(list(range(11)), 50) == pytest.approx(5.0)
    # unlike an order statistic, it moves when values next to it move
    low = [1.0] * 10 + [2.0] * 11
    high = [1.0] * 10 + [2.0] * 10 + [3.0]
    assert metrics.hd_percentile(high, 50) > metrics.hd_percentile(low, 50)
    assert metrics.beta_cdf(2.5, 3.5, 0.3) == pytest.approx(0.29675298929566646)


def test_tail_needs_strictly_greater_samples():
    # 30 ties at the top: p90 and p75 land on the tie, nothing lies beyond
    values = [1.0] * 70 + [5.0] * 30
    p, value, beyond = metrics.tail_latency(values)
    assert (p, beyond) == (50, 30) and value == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_fixed_tail_percentile_follows_the_rule_in_two_rounds(workload):
    n = 2 * workloads.Plan(workload, 1).round_size
    p, _, beyond = metrics.tail_latency([float(i) for i in range(n)])
    assert p == workloads.WORKLOADS[workload].tail_percentile and beyond >= 10


def test_tail_falls_back_to_the_median_on_small_samples():
    p, value, beyond = metrics.tail_latency([3.0, 1.0, 2.0])
    assert (p, value, beyond) == (50, 2.0, 1)


# --- self time and cache hits --------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        span("parent", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),      # overlaps a
        span("c", 9.0, 12.0, parent=0),     # runs past the parent's end
        span("grandchild", 1.5, 2.0, parent=1),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2:] == [pytest.approx(3.0), pytest.approx(3.0), pytest.approx(0.5)]


def test_hit_ratio_counts_calls_without_a_direct_groebner_child():
    spans = [
        span("verify.groebner_of", 0, 5),           # miss: computes a basis
        span("groebner", 1, 4, parent=0),
        span("verify.groebner_of", 6, 7),           # hit
        span("verify.ideal_equal", 8, 20),
        span("verify.groebner_of", 9, 10, parent=3),  # hit
        span("verify.groebner_of", 11, 19, parent=3),  # miss
        span("groebner", 12, 18, parent=5),
    ]
    assert tracing.cache_hits(spans) == (2, 4)
    layer = tracing.layer_metrics([spans], {}, request_seconds=20.0)
    assert layer["verify.groebner_of.hit_ratio"] == (0.5, "ratio")
    assert layer["groebner.calls"] == (2, "count")


def test_layer_shares_split_self_time_by_module():
    spans = [
        span("resolution.resolve", 0.0, 8.0),
        span("groebner", 1.0, 5.0, parent=0, tag="fp"),
    ]
    layer = tracing.layer_metrics([spans], {}, request_seconds=10.0)
    assert layer["layer.groebner.share"][0] == pytest.approx(0.4)
    assert layer["layer.resolution.share"][0] == pytest.approx(0.4)
    assert layer["layer.untraced.share"][0] == pytest.approx(0.2)
    assert layer["groebner.fp.self_s"][0] == pytest.approx(4.0)
    assert layer["groebner.q.self_s"][0] == 0


# --- the correctness gate ------------------------------------------------------


@pytest.fixture(scope="module")
def detsing():
    return run.import_detsing()


def test_fail_share_counts_a_mismatched_expectation(detsing):
    good = workloads.Request("check_fact", ("F1", 3, None), "Q")
    bad = workloads.Request("check_fact", ("F1", 5, None), "Fp:7")
    expected = {
        good.key: workloads.observe(good, workloads.execute(detsing, good)),
        bad.key: {"pass": True, "digest": "0" * 64, "nodes": 0},
    }
    attempt = run.in_process_attempt(detsing, expected, tracer=None)
    outcomes = [attempt(good, 0), attempt(bad, 1)]
    assert [o.ok for o in outcomes] == [True, False]
    e2e, _ = metrics.end_to_end(outcomes, [0.1], peak_rss_mb=1.0)
    assert e2e["fail_share"] == (0.5, "share")


def test_exception_is_a_failed_request(detsing):
    req = workloads.Request("check_fact", ("F1", 4, None), "Q")  # F1 needs odd m
    outcome = run.in_process_attempt(detsing, {}, tracer=None)(req, 0)
    assert not outcome.ok and outcome.error.startswith("BadParameters")


def test_host_factor_scales_request_times_and_rates_only():
    outcomes = [Outcome("k @Q", "k", "Q", 0.4, True, 8),
                Outcome("k @Q", "k", "Q", 0.6, True, 12)]
    raw, _ = metrics.end_to_end(outcomes, [0.2], peak_rss_mb=5.0)
    half, _ = metrics.end_to_end(outcomes, [0.2], peak_rss_mb=5.0, host_factor=0.5)
    assert half["setup_s"] == raw["setup_s"]
    for name in ("latency_p50_s", "latency_tail_s"):
        assert half[name][0] == pytest.approx(raw[name][0] * 0.5)
    for name in ("req_per_s", "nodes_per_s"):
        assert half[name][0] == pytest.approx(raw[name][0] * 2)
    assert half["peak_rss_mb"] == raw["peak_rss_mb"]
    assert half["fail_share"] == raw["fail_share"]


@pytest.mark.parametrize("kind", sorted(hostspeed.REFERENCE_S))
def test_host_factor_is_reference_over_trimmed_mean_probe(kind):
    host = hostspeed.HostSpeed(kind)
    assert host.factor() == 1.0
    host.probe()
    assert len(host.samples) == 1
    ref = hostspeed.REFERENCE_S[kind]
    # a tenth of the probes at each end is left out: 0 and 100 here
    host.samples = [ref * 100] + [ref] * 4 + [ref * 2] * 4 + [0.0]
    assert host.factor() == pytest.approx(1 / 1.5)
    assert hostspeed.probe_work() == hostspeed.probe_work()


def test_cli_observation_ignores_timings():
    req = workloads.Request("cli", ("sym", 2, 2, False, "md"), "Q")
    a = workloads.observe_cli(req, 0, "# r\n- nodes: 3\n- seconds_total: 0.1\n"
                                      "All verdicts passed: **True**\n")
    b = workloads.observe_cli(req, 0, "# r\n- nodes: 3\n- seconds_total: 9.9\n"
                                      "All verdicts passed: **True**\n")
    assert a == b and a["nodes"] == 3 and a["pass"]
    assert not workloads.matches(a, dict(a, exit=1))


# --- tracing the real package ----------------------------------------------------


def test_tracer_wraps_every_binding_and_uninstalls(detsing):
    gb_module = sys.modules["detsing.groebner"]  # detsing.groebner is the function
    resolution = sys.modules["detsing.resolution"]
    rings = sys.modules["detsing.rings"]

    original_of = resolution.groebner_of
    original_reducer = resolution._REDUCERS["skew"]
    mul = rings.Polynomial.__mul__
    tracer = tracing.Tracer().install(detsing)
    try:
        assert resolution.groebner_of is not original_of
        assert resolution._REDUCERS["skew"] is not original_reducer
        assert detsing.verify.groebner_of is resolution.groebner_of
        assert rings.Polynomial.__mul__ is mul          # hot path left alone
        detsing.chart_identity("skew", 4, 4)            # outside a request
        assert tracer.spans == []
        tracer.request = 7
        detsing.resolve_skew(4, 2, detsing.PrimeField(5))
        tracer.request = None
    finally:
        tracer.uninstall()
    assert resolution.groebner_of is original_of
    assert resolution._REDUCERS["skew"] is original_reducer
    assert gb_module.groebner is detsing.groebner
    names = {s[0] for s in tracer.spans}
    assert {"resolution.resolve", "resolution.reduce_chart", "verify.groebner_of",
            "groebner", "verify.check_leaf"} <= names
    assert {s[4] for s in tracer.spans} == {7}
    assert {s[5] for s in tracer.spans if s[0] == "groebner"} == {"fp"}
    assert tracer.counts["groebner.basis_polys"] > 0


# --- plans ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_plan_is_seeded_and_round_mix_is_fixed(workload):
    a, b, c = (workloads.Plan(workload, s) for s in (1, 1, 2))
    assert a.round(3) == b.round(3)
    # the seed moves order, primes and (cli) formats, not the templates
    templates = sorted((r.call,) + r.args[:4] for r in a.round(0))
    assert templates == sorted((r.call,) + r.args[:4] for r in c.round(0))
    assert len(templates) == a.round_size


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_plan_request_has_a_frozen_expectation(workload):
    expected = run.load_expected(workload)
    plan = workloads.Plan(workload, 11)
    for r in range(4):
        assert all(req.key in expected for req in plan.round(r))


def test_request_mix_repeat_share():
    def o(key):
        return Outcome(key, key.split(" @")[0], key.split(" @")[1], 1.0, True, 0)

    mix = metrics.request_mix([o("a @Q"), o("a @Q"), o("a @Fp:3"), o("b @Q")])
    assert mix["repeat_share"] == 0.25
    assert mix["fields"] == {"Fp:3": 1, "Q": 3}


def test_reported_metric_names_match_the_benchmark_definition():
    import json

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    outcomes = [Outcome("k @Q", "k", "Q", 0.5, True, 3)]
    e2e, _ = metrics.end_to_end(outcomes, [0.1], peak_rss_mb=1.0)
    reported = {k: u for k, (_, u) in e2e.items() if k not in run.NOT_REPORTED}
    assert reported == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = tracing.layer_metrics([[span("groebner", 0, 1, tag="q")]], {}, 1.0)
    layer["trace.req_per_s"] = (1.0, "1/s")
    assert {k: u for k, (_, u) in layer.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
