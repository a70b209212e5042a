"""The host's speed, read from a fixed probe timed between requests.

    python3 perfbench/hostspeed.py      # the work of one "fresh" probe

The benchmark's host is a few cores of a shared machine whose speed changes
by tens of percent within minutes, and every request timing follows it.  A
run therefore times a fixed probe between requests, at most every
``PROBE_EVERY_S``, and reports request timings at a reference speed, at
which the probe takes ``REFERENCE_S``: a time is multiplied, and a rate
divided, by ``factor() = REFERENCE_S / mean probe time``.  The probe runs
the way the requests beside it run:

- ``"in-process"``: in the benchmark's process (library-mix, chart-build);
- ``"fresh"``: in a fresh interpreter that runs this file (cli-resolve,
  whose every request starts one).  Timed from the benchmark's process, an
  in-process probe followed cli-resolve's requests no better than their
  raw times did (IQR/median of req_per_s over six rounds: 0.21 raw, 0.16
  scaled in-process, 0.04 scaled fresh).

The probe's work is sparse polynomial products over ℚ and 𝔽_101 written
with the standard library only, the kind of loop detsing spends its time
in.  It uses nothing from detsing, so a change to the program moves the
reported numbers and a change of host speed does not.  The host switches
between a fast and a slow state within seconds (probe times cluster near two
values about 1.7x apart) and a run's timings follow the share of time spent
in each; the mean probe time follows that share, where the median would
jump from one cluster to the other.  The top and bottom tenth of the probes
are left out of the mean, against one-off stalls.
"""

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# the probe's mean time on a 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7
REFERENCE_S = {"in-process": 0.03, "fresh": 0.09}
PROBE_EVERY_S = 1.0
TRIM = 0.1
FRESH_TIMEOUT_S = 30


def _operand(seed, n_terms=56, n_vars=16):
    rng = random.Random(seed)
    return [(tuple(rng.randrange(3) for _ in range(n_vars)), rng.randrange(1, 30))
            for _ in range(n_terms)]


_LEFT, _RIGHT = _operand(1), _operand(2)


def probe_work():
    """One product of two 56-term polynomials in 16 variables over ℚ and
    one over 𝔽_101; returns the two term counts."""
    sizes = []
    for p in (0, 101):
        terms = {}
        for m1, c1 in _LEFT:
            c1 = Fraction(c1, 3) if p == 0 else c1
            for m2, c2 in _RIGHT:
                m = tuple(x + y for x, y in zip(m1, m2))
                if p == 0:
                    terms[m] = terms.get(m, 0) + c1 * c2
                else:
                    terms[m] = (terms.get(m, 0) + c1 * c2) % p
        sizes.append(len(terms))
    return tuple(sizes)


class HostSpeed:
    """Probe timings of one run, of one kind ("in-process" or "fresh")."""

    def __init__(self, kind):
        self.kind = kind
        self.samples = []
        self._last = None

    def probe(self):
        t0 = time.perf_counter()
        if self.kind == "fresh":
            subprocess.run([sys.executable, __file__], check=True,
                           stdout=subprocess.DEVNULL, timeout=FRESH_TIMEOUT_S)
        else:
            probe_work()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def tick(self):
        """Probe when PROBE_EVERY_S have passed since the last probe."""
        if self._last is None or time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def mean(self):
        """Mean probe time without the top and bottom TRIM of the probes."""
        xs = sorted(self.samples)
        cut = int(len(xs) * TRIM)
        return statistics.mean(xs[cut:len(xs) - cut])

    def factor(self):
        """Reference speed over this run's speed (1.0 without samples)."""
        if not self.samples:
            return 1.0
        return REFERENCE_S[self.kind] / self.mean()

    def summary(self):
        return {"kind": self.kind, "probes": len(self.samples),
                "probe_mean_s": self.mean() if self.samples else None,
                "factor": self.factor()}


if __name__ == "__main__":
    probe_work()
