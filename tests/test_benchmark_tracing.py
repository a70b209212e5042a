"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/tracing.py`` rebinds detsing's functions from outside the
package; a deleted or moved name would otherwise drop its spans silently.
"""

import importlib
import importlib.util
from pathlib import Path

import detsing

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_rebinds_every_target():
    tracing = load_tracing()

    def module(name):
        return importlib.import_module(f"detsing.{name}")

    functions = {
        (mod_name, fname): getattr(module(mod_name), fname)
        for mod_name, names in tracing.FUNCTIONS.items()
        for fname in names
    }
    methods = {
        (mod_name, cls, meth): getattr(module(mod_name), cls).__dict__[meth]
        for mod_name, cls, meth in tracing.METHODS
    }
    tracer = tracing.Tracer()
    try:
        tracer.install(detsing)
        missing = [
            ".".join(target) for target, original in functions.items()
            if getattr(module(target[0]), target[1]) is original
        ] + [
            ".".join(target) for target, original in methods.items()
            if getattr(module(target[0]), target[1]).__dict__[target[2]] is original
        ]
        assert missing == []

        # the chart reducers are reached through the dispatch table
        tracer.request = 0
        detsing.resolve_sym(3, 3, check="none")
        tracer.request = None
        names = {span[0] for span in tracer.spans}
        assert {"resolution.resolve", "resolution.reduce_chart", "rings.substitution"} <= names

        # a checked tree reaches the Groebner layer through verify
        start = len(tracer.spans)
        tracer.request = 1
        detsing.resolve_sym(3, 3, all_charts=True)
        tracer.request = None
        names = {span[0] for span in tracer.spans[start:]}
        assert {"groebner", "verify.groebner_of", "verify.saturate"} <= names

        # F1 runs both determinant routes, whose Bareiss divides inside
        # matrices on packed ints
        start = len(tracer.spans)
        tracer.request = 2
        detsing.check_fact("F1", 5)
        tracer.request = None
        assert "matrices.determinant.bareiss" in {span[0] for span in tracer.spans[start:]}

        # the public exact division keeps its span
        start = len(tracer.spans)
        tracer.request = 3
        x, y = detsing.ring("x y").vars()
        assert detsing.exact_div(x * x - y * y, x + y) == x - y
        tracer.request = None
        assert "rings.exact_div" in {span[0] for span in tracer.spans[start:]}
    finally:
        tracer.uninstall()
    assert detsing.resolution._REDUCERS["diag"] is functions["resolution", "reduce_sym_diag_chart"]
