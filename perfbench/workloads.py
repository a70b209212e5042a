"""Workload plans, request execution and output checks.

A workload is a fixed menu of request templates with a per-round
multiplicity.  Every round issues each template that many times, so the
request mix of a run does not depend on where the clock stops, and the
seed shuffles the order within each round.  Fields follow one of two
rules:

- "alternate" (cli-resolve, chart-build): the copies of a template
  alternate between ℚ and 𝔽_p, and so does a single-copy template from one
  round to the next; the seed draws each prime.  Every round then holds
  the same request classes, which keeps the median and the tail inside
  one class.
- "rotate" (library-mix): all copies of a template in a round share one
  field, and the field steps through ℚ, 𝔽_3, 𝔽_5, 𝔽_7, 𝔽_101 from round
  to round.  The copies after the first are exact repeats (cache reads),
  and for the first five rounds every first copy is a first-time request
  (cache writes), so each round mixes reads and writes in the same
  proportion.  Here the seed moves only the order: which field a costly
  template meets in a run would otherwise swing the run's total.

Requests use the program's defaults for everything a template does not
name (notably ``workers``).
"""

import hashlib
import json
import random
import re
from typing import NamedTuple

PRIMES = (3, 5, 7, 101)
FIELDS = ("Q",) + tuple(f"Fp:{p}" for p in PRIMES)
FORMATS = ("json", "md")


class Request(NamedTuple):
    call: str    # resolve | build | chart_identity | check_fact | lemma | cli
    args: tuple
    field: str

    @property
    def kind(self):
        """The request without its field: what the mix counts."""
        return " ".join([self.call, *map(str, self.args)])

    @property
    def key(self):
        return f"{self.kind} @{self.field}"


def _resolve(kind, m, size, all_charts=False):
    return (kind, m, size, all_charts)


# (template args, copies per round).  The copies place the median and the
# tail percentile inside blocks of one template over ℚ (sym 4/4 and skew 5/2
# here; sym 4/4 and skew 6/3 in chart-build), away from the seeded primes
# and from the gaps between request classes.
CLI_RESOLVE = (
    (_resolve("sym", 3, 3, True), 6),
    (_resolve("sym", 4, 4), 8),
    (_resolve("skew", 5, 2, True), 6),
    (_resolve("sym", 4, 3, True), 2),
    (_resolve("skew", 6, 3), 1),
    (_resolve("sym", 5, 5), 1),
)

# chart-build runs its largest trees twice a round, once per field: a tree
# over ℚ costs about twice one over 𝔽_p, so a single copy alternating by
# round would tie the run's mix to the parity of its round count
CHART_BUILD = (
    (_resolve("sym", 5, 5, True), 2),
    (_resolve("skew", 7, 3, True), 2),
    (_resolve("skew", 6, 3, True), 10),
    (_resolve("sym", 4, 4, True), 12),
)

# (fact, m, l, copies): the copies of F1 at m=7 (Bareiss determinant) and
# F2 at m=5 (radical membership) fill the latency tail, and bring a round to
# about 15 s, so that a 25 s run ends after two rounds with room either side
FACTS = (("F1", 3, None, 1), ("F1", 5, None, 1), ("F1", 7, None, 4),
         ("F3", 2, None, 1), ("F3", 4, None, 1), ("F3", 6, None, 1),
         ("F2", 4, 2, 1), ("F2", 5, 2, 2))

# chart identities at the largest sizes run once per round, smaller ones
# three times
LIBRARY_MIX = (
    tuple((("chart_identity", "skew", m, r, None), 1 if m == 6 else 3)
          for m in (4, 5, 6) for r in range(1, m + 1))
    + tuple((("chart_identity", "sym", m, r, ct), 1 if m == 5 else 3)
            for m in (3, 4, 5) for r in range(1, m + 1) for ct in ("diag", "offdiag"))
    + tuple((("check_fact",) + fact[:3], fact[3]) for fact in FACTS)
    + ((("lemma",), 3),)
    + tuple((("resolve",) + args, 2)
            for args in (_resolve("sym", 3, 3, True), _resolve("skew", 4, 2, True),
                         _resolve("sym", 4, 4), _resolve("skew", 5, 2),
                         _resolve("sym", 4, 3, True), _resolve("skew", 5, 2, True)))
)


class Workload(NamedTuple):
    call: str          # None: each template carries its own call
    templates: tuple
    fields: str        # "alternate" or "rotate"
    tail_percentile: float


# The tail percentile is fixed per workload, so that runs with one round
# more or less report the same statistic: the highest of LADDER
# (metrics.py) with at least ten samples beyond it in two rounds, the
# shortest run at 25 s.
WORKLOADS = {
    "cli-resolve": Workload("cli", CLI_RESOLVE, "alternate", 75),
    "library-mix": Workload(None, LIBRARY_MIX, "rotate", 95),
    "chart-build": Workload("build", CHART_BUILD, "alternate", 75),
}

IN_PROCESS = ("library-mix", "chart-build")


class Plan:
    """Seeded request stream of one workload, generated round by round."""

    def __init__(self, workload, seed):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.call, self.templates, self.fields, _ = WORKLOADS[workload]
        self.round_size = sum(copies for _, copies in self.templates)

    def round(self, r):
        rng = random.Random(f"{self.workload}/{self.seed}/{r}")
        batch = []
        for t, (args, copies) in enumerate(self.templates):
            prime = rng.choice(PRIMES)
            for c in range(copies):
                if self.fields == "rotate":
                    field = FIELDS[(t + r) % len(FIELDS)]
                else:
                    field = "Q" if (t + r + c) % 2 == 0 else f"Fp:{prime}"
                if self.call == "cli":
                    # formats alternate by pairs of copies and by round, so
                    # both fields of a template get the same format mix
                    batch.append(self._request(args + (FORMATS[(c // 2 + r) % 2],), field))
                else:
                    batch.append(self._request(args, field))
        rng.shuffle(batch)
        return batch

    def _request(self, args, field):
        if self.call is None:
            return Request(args[0], args[1:], field)
        return Request(self.call, args, field)

    def all_requests(self):
        """Every distinct request the workload can issue (for freezing)."""
        out = []
        for args, _ in self.templates:
            for field in FIELDS:
                req = self._request(args, field)
                if self.call == "cli":
                    out.extend(Request("cli", req.args + (fmt,), field)
                               for fmt in FORMATS)
                else:
                    out.append(req)
        return out


# --------------------------------------------------------------------------
# execution


def execute(detsing, req):
    """Run one in-process request; returns the raw result object."""
    field = detsing.field_from_name(req.field)
    if req.call == "chart_identity":
        kind, m, r, chart_type = req.args
        return detsing.chart_identity(kind, m, r, chart_type, field)
    if req.call == "check_fact":
        fact, m, l = req.args
        return detsing.check_fact(fact, m, field, l=l)
    if req.call == "lemma":
        return detsing.check_lemma_counterexample(field)
    if req.call in ("resolve", "build"):
        kind, m, size, all_charts = req.args
        fn = detsing.resolve_sym if kind == "sym" else detsing.resolve_skew
        check = "full" if req.call == "resolve" else "none"
        return fn(m, size, field, all_charts=all_charts, check=check)
    raise ValueError(f"not an in-process request: {req.call}")


def cli_argv(req):
    """``detsing`` command-line arguments of a cli request."""
    kind, m, size, all_charts, fmt = req.args
    argv = ["resolve", "--kind", kind, "--m", str(m),
            "--r" if kind == "sym" else "--l", str(size),
            "--field", req.field, "--verify", "full", "--format", fmt]
    if all_charts:
        argv.append("--all-charts")
    return argv


# --------------------------------------------------------------------------
# observations and the correctness gate


def strip_seconds(doc):
    """The document without its ``seconds_*`` timings, at any depth."""
    if isinstance(doc, dict):
        return {k: strip_seconds(v) for k, v in doc.items() if not k.startswith("seconds_")}
    if isinstance(doc, list):
        return [strip_seconds(v) for v in doc]
    return doc


def digest_json(doc):
    text = json.dumps(strip_seconds(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_SECONDS_LINE = re.compile(r"^- seconds_\w+: .*$\n?", re.MULTILINE)
_NODES_LINE = re.compile(r"^- nodes: (\d+)$", re.MULTILINE)


def observe(req, result):
    """Observation of an in-process result: pass flag, digest, node count."""
    if req.call in ("resolve", "build"):
        return {"pass": result.all_passed(), "digest": digest_json(result.to_json()),
                "nodes": result.stats["nodes"]}
    if req.call == "check_fact":
        return {"pass": bool(result), "digest": digest_json({"pass": bool(result)}),
                "nodes": 0}
    return {"pass": result["pass"], "digest": digest_json(result), "nodes": 0}


def observe_cli(req, returncode, stdout):
    """Observation of a CLI run: exit code, pass flag, digest, node count."""
    fmt = req.args[-1]
    if fmt == "json":
        doc = json.loads(stdout)
        passed = (returncode == 0 and doc.get("embedded_resolution", {}).get("pass", False))
        return {"exit": returncode, "pass": bool(passed), "digest": digest_json(doc),
                "nodes": doc["stats"]["nodes"]}
    text = _SECONDS_LINE.sub("", stdout)
    nodes = _NODES_LINE.search(text)
    return {"exit": returncode, "pass": "All verdicts passed: **True**" in text,
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "nodes": int(nodes.group(1)) if nodes else 0}


def matches(observation, expectation):
    """The observation agrees with the frozen expectation on every field."""
    return expectation is not None and all(
        observation.get(k) == v for k, v in expectation.items()
    )
