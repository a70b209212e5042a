"""Write the frozen output expectations of every benchmark workload.

    python3 perfbench/freeze.py [WORKLOAD ...]

For every distinct request a workload can issue, records what a correct
run returns: the pass flag, a digest of the output with its ``seconds_*``
timings removed (reduced Gröbner bases are unique, so the digest is
exact) and the chart node count; for CLI requests also the exit code.
Run it only at a commit whose outputs are known to be right; the
benchmark counts any later difference as a failed request.
"""

import json
import subprocess
import sys

import run
import workloads


def freeze(workload):
    plan = workloads.Plan(workload, seed=0)
    out = {}
    if workload in workloads.IN_PROCESS:
        detsing = run.import_detsing()
        for req in plan.all_requests():
            out[req.key] = workloads.observe(req, workloads.execute(detsing, req))
    else:
        for req in plan.all_requests():
            proc = subprocess.run(
                [sys.executable, "-m", "detsing", *workloads.cli_argv(req)],
                capture_output=True, text=True, env=run.child_env(), cwd=run.ROOT,
                check=False,
            )
            out[req.key] = workloads.observe_cli(req, proc.returncode, proc.stdout)
    bad = [key for key, obs in out.items() if not obs["pass"] or obs.get("exit", 0)]
    if bad:
        raise SystemExit(f"{workload}: requests do not pass, not freezing: {bad}")
    run.EXPECTED.mkdir(exist_ok=True)
    path = run.EXPECTED / f"{workload}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{workload}: {len(out)} expectations -> {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        freeze(name)
