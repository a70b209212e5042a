"""detsing benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload cli-resolve --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` only.  A run sets the program up several times in fresh
interpreters (``setup_s``), then issues whole rounds of seeded requests
until ``--seconds`` have passed, checking every output against the frozen
expectations in ``perfbench/expected/``.  It prints a readable summary and,
as the last line, one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Request timings are reported at a reference host speed, read from a fixed
probe timed between requests (``hostspeed.py``); the summary and the
record keep the raw timings beside them.
Each run also leaves a record (environment, request mix, tail details and,
when traced, the spans) under ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed
import metrics
import tracing
import workloads
from metrics import Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
OUT = BENCH / "out"

SETUP_SAMPLES = 11
CLI_TIMEOUT_S = 60
# a run stops mid-round this long after --seconds, so it exits in time
OVERRUN_S = 100
# printed in the summary but not in the result line: it reads 0 on a
# correct program, and the result's "failed" count carries it
NOT_REPORTED = ("fail_share",)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_detsing():
    """The package under ``src/``; refuses any other installed copy."""
    if not (SRC / "detsing" / "__init__.py").is_file():
        raise BenchError(f"no detsing sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import detsing

    where = Path(detsing.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"imported a detsing outside {SRC}: {where}")
    return detsing


def load_expected(workload):
    path = EXPECTED / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing frozen expectations {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def setup_once(workload, seed):
    """One set-up: import the package, load expectations, build the plan."""
    detsing = import_detsing()
    load_expected(workload)
    workloads.Plan(workload, seed).round(0)
    sys.stdout.write(detsing.__file__ + "\n")
    sys.stdout.flush()
    os._exit(0)


def measure_setup(workload, seed):
    """Set-up times of fresh interpreters, after one unmeasured warm-up
    that writes the bytecode caches."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-once",
            "--workload", workload, "--seed", str(seed)]
    samples, where = [], None
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=CLI_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        where = proc.stdout.strip()
        if i:
            samples.append(elapsed)
    if SRC.resolve() not in Path(where).resolve().parents:
        raise BenchError(f"set-up imported a detsing outside {SRC}: {where}")
    return samples, where


def fingerprint(detsing_file):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "load1": os.getloadavg()[0],
        "detsing": detsing_file,
    }


# --------------------------------------------------------------------------
# requests


def in_process_attempt(detsing, expected, tracer):
    def attempt(req, rid):
        if tracer is not None:
            tracer.request = rid
        t0 = time.perf_counter()
        try:
            result = workloads.execute(detsing, req)
        except Exception as exc:  # a failed request; the client goes on
            return Outcome(req.key, req.kind, req.field, time.perf_counter() - t0,
                           False, 0, f"{type(exc).__name__}: {exc}")
        finally:
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.request = None
        obs = workloads.observe(req, result)
        return judged(req, latency, obs, expected)

    return attempt


def cli_attempt(expected, span_sets):
    """A fresh ``python -m detsing`` per request; traced runs go through
    ``trace_cli.py`` instead and leave their spans in ``span_sets``."""
    def attempt(req, rid):
        argv = [sys.executable, "-m", "detsing", *workloads.cli_argv(req)]
        spans_path = None
        if span_sets is not None:
            spans_path = OUT / f"spans-{os.getpid()}-{rid}.json"
            argv = [sys.executable, str(BENCH / "trace_cli.py"), str(spans_path),
                    *workloads.cli_argv(req)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                                  cwd=ROOT, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Outcome(req.key, req.kind, req.field, time.perf_counter() - t0,
                           False, 0, "timed out")
        latency = time.perf_counter() - t0
        if spans_path is not None and spans_path.is_file():
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
            for span in trace["spans"]:
                span[4] = rid
            span_sets.append(trace)
        try:
            obs = workloads.observe_cli(req, proc.returncode, proc.stdout)
        except (ValueError, KeyError) as exc:
            return Outcome(req.key, req.kind, req.field, latency, False, 0,
                           f"unreadable output (exit {proc.returncode}): {exc}")
        return judged(req, latency, obs, expected)

    return attempt


def judged(req, latency, obs, expected):
    ok = workloads.matches(obs, expected.get(req.key))
    return Outcome(req.key, req.kind, req.field, latency, ok,
                   obs["nodes"] if ok else 0,
                   None if ok else "output differs from the frozen expectation")


def run_rounds(plan, seconds, attempt, host):
    """Closed loop, one client: whole rounds until ``seconds`` have passed,
    probing the host's speed between requests."""
    host.probe()
    start = time.perf_counter()
    outcomes = []
    r = 0
    while True:
        for req in plan.round(r):
            outcomes.append(attempt(req, len(outcomes)))
            host.tick()
            if time.perf_counter() - start > seconds + OVERRUN_S:
                return outcomes, r
        r += 1
        if time.perf_counter() - start >= seconds:
            return outcomes, r


# --------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-once", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(args):
    if "DETSING_MAX_TERMS" in os.environ:
        raise BenchError("DETSING_MAX_TERMS is set; it changes the program's "
                         "resource caps, so the run is refused")
    if not (SRC / "detsing" / "__init__.py").is_file():
        raise BenchError(f"no detsing sources under {SRC}")
    expected = load_expected(args.workload)
    setup_samples, detsing_file = measure_setup(args.workload, args.seed)
    env = fingerprint(detsing_file)
    OUT.mkdir(exist_ok=True)

    plan = workloads.Plan(args.workload, args.seed)
    tracer = span_sets = None
    in_process = args.workload in workloads.IN_PROCESS
    host = hostspeed.HostSpeed("in-process" if in_process else "fresh")
    if in_process:
        detsing = import_detsing()
        if args.trace:
            tracer = tracing.Tracer().install(detsing)
        attempt = in_process_attempt(detsing, expected, tracer)
        rss_who = resource.RUSAGE_SELF
    else:
        span_sets = [] if args.trace else None
        attempt = cli_attempt(expected, span_sets)
        rss_who = resource.RUSAGE_CHILDREN

    outcomes, rounds = run_rounds(plan, args.seconds, attempt, host)
    peak_rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024
    tail_p = workloads.WORKLOADS[args.workload].tail_percentile
    raw, _ = metrics.end_to_end(outcomes, setup_samples, peak_rss_mb, tail_p)
    e2e, tail = metrics.end_to_end(outcomes, setup_samples, peak_rss_mb, tail_p,
                                   host.factor())
    speed = host.summary()
    mix = metrics.request_mix(outcomes)
    failed = [o for o in outcomes if not o.ok]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "env": env, "mix": mix,
        "setup_samples": setup_samples, "tail": tail, "host": speed,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "end_to_end_raw": {k: v for k, (v, _) in raw.items()},
        "failures": [{"key": o.key, "error": o.error} for o in failed],
        "latencies": [[o.key, o.latency] for o in outcomes],
        "probes": host.samples,
    }
    layer = None
    if args.trace:
        if tracer is not None:
            tracer.uninstall()
            span_sets = [{"spans": tracer.spans, "counts": tracer.counts}]
        layer = tracing.layer_metrics(
            [s["spans"] for s in span_sets],
            sum((Counter(s["counts"]) for s in span_sets), Counter()),
            sum(o.latency for o in outcomes),
        )
        layer["trace.req_per_s"] = e2e["req_per_s"]
        reported = layer
        record["per_layer"] = {k: v for k, (v, _) in layer.items()}
        spans_out = OUT / f"{args.workload}-s{args.seed}-spans.json"
        spans_out.write_text(json.dumps(span_sets), encoding="utf-8")
    else:
        reported = {k: v for k, v in e2e.items() if k not in NOT_REPORTED}
    record_path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print_summary(args, rounds, env, mix, e2e, raw, tail, speed, setup_samples,
                  failed, layer)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))


def print_summary(args, rounds, env, mix, e2e, raw, tail, speed, setup_samples,
                  failed, layer):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  rounds {rounds}  requests {mix['requests']}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("mix fields " + " ".join(f"{k}={v}" for k, v in mix["fields"].items())
          + f"  kinds {len(mix['kinds'])}  repeat_share {mix['repeat_share']:.3f}")
    print(f"host: {speed['probes']} {speed['kind']} probes, trimmed mean "
          f"{speed['probe_mean_s']:.5f} s; "
          f"request timings below are scaled by {speed['factor']:.4f} to the "
          f"reference speed, raw in brackets")
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "latency_tail_s": f"p{tail['percentile']:g}, {tail['beyond']} of "
                          f"{tail['samples']} samples beyond"
                          + ("" if tail["beyond"] >= metrics.MIN_BEYOND
                             else " (too few for this percentile)"),
        "fail_share": f"{len(failed)} of {mix['requests']} failed",
        "peak_rss_mb": "max over child processes" if args.workload == "cli-resolve"
                       else "this process",
    }
    for name, (value, unit) in e2e.items():
        print(f"  {name:16s} {value:12.6g} {unit:6s} [{raw[name][0]:12.6g}] "
              f"{notes.get(name, '')}")
    for o in failed[:10]:
        print(f"  FAILED {o.key}: {o.error}")
    if layer is not None:
        for name, (value, unit) in layer.items():
            print(f"  {name:40s} {value:12.6g} {unit}")


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup_once:
            setup_once(args.workload, args.seed)
        run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
