"""``python -m detsing`` with span tracing, for traced cli-resolve runs.

    python3 perfbench/trace_cli.py SPANS.json resolve --kind sym --m 3 --r 3

Runs the detsing command line in this process with the benchmark's
wrappers installed and writes the spans and counts to SPANS.json.  The
package comes from PYTHONPATH, as for ``python -m detsing``.
"""

import json
import sys
from pathlib import Path

import detsing
import detsing.cli
import tracing


def main():
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer().install(detsing)
    tracer.request = 0
    try:
        return detsing.cli.main(argv)
    finally:
        tracer.request = None
        spans_path.write_text(
            json.dumps({"spans": tracer.spans, "counts": tracer.counts}), encoding="utf-8"
        )


if __name__ == "__main__":
    sys.exit(main())
