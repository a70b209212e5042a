"""End-to-end metrics of one benchmark run."""

import math
import statistics
from typing import NamedTuple

# candidate tail percentiles, lowest first
LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10


class Outcome(NamedTuple):
    key: str
    kind: str
    field: str
    latency: float
    ok: bool
    nodes: int
    error: str = None


def percentile(values, p):
    """Linearly interpolated p-th percentile (the 'inclusive' method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _beta_fraction(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def hd_percentile(values, p):
    """Harrell-Davis estimate of the p-th percentile: a weighted mean of all
    order statistics, with Beta(q(n+1), (1-q)(n+1)) weights, q = p/100.
    Unlike a single order statistic it moves smoothly when the percentile
    falls between two groups of request costs."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    total, prev = 0.0, 0.0
    for i, x in enumerate(xs, 1):
        cdf = beta_cdf(a, b, i / n)
        total += (cdf - prev) * x
        prev = cdf
    return total


def tail_latency(values, p=None):
    """(percentile, value, samples beyond).  Without ``p``: the highest
    ladder percentile with at least MIN_BEYOND samples strictly above its
    order statistic, or the median when no ladder step qualifies.  The
    value is the Harrell-Davis estimate."""
    if p is not None:
        cut = percentile(values, p)
        return p, hd_percentile(values, p), sum(1 for v in values if v > cut)
    best = None
    for step in LADDER:
        found = tail_latency(values, step)
        if found[2] >= MIN_BEYOND or best is None:
            best = found
    return best


def end_to_end(outcomes, setup_samples, peak_rss_mb, tail_percentile=None,
               host_factor=1.0):
    """Metric name -> (value, unit), plus the tail details.  Request times
    are multiplied, and request rates divided, by ``host_factor``
    (hostspeed.py); set-up times are reported as measured."""
    latencies = [o.latency * host_factor for o in outcomes]
    busy = sum(latencies)
    completed = sum(1 for o in outcomes if o.ok)
    failed = len(outcomes) - completed
    resolve_nodes = sum(o.nodes for o in outcomes)
    resolve_busy = sum(lat for o, lat in zip(outcomes, latencies) if o.nodes)
    tail_p, tail_value, beyond = tail_latency(latencies, tail_percentile)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "req_per_s": (completed / busy, "1/s"),
        "latency_p50_s": (hd_percentile(latencies, 50), "s"),
        "latency_tail_s": (tail_value, "s"),
        "nodes_per_s": (resolve_nodes / resolve_busy if resolve_busy else 0.0, "1/s"),
        "fail_share": (failed / len(outcomes), "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    tail = {"percentile": tail_p, "samples": len(latencies), "beyond": beyond}
    return metrics, tail


def request_mix(outcomes):
    """Counts and summed latency per request kind, counts per field, and
    the share of requests whose exact key was already issued in the run."""
    kinds, kind_seconds, fields, seen = {}, {}, {}, set()
    repeats = 0
    for o in outcomes:
        kinds[o.kind] = kinds.get(o.kind, 0) + 1
        kind_seconds[o.kind] = kind_seconds.get(o.kind, 0.0) + o.latency
        fields[o.field] = fields.get(o.field, 0) + 1
        repeats += o.key in seen
        seen.add(o.key)
    return {
        "requests": len(outcomes),
        "kinds": dict(sorted(kinds.items())),
        "kind_seconds": dict(sorted(kind_seconds.items())),
        "fields": dict(sorted(fields.items())),
        "repeat_share": repeats / len(outcomes) if outcomes else 0.0,
    }
