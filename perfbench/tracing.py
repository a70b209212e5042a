"""Span tracing for the detsing benchmark, kept outside the package.

``install()`` wraps the public functions of each detsing module at every
name the package looks them up by: module globals bound with
``from .x import y``, module-level dispatch tables such as
``resolution._REDUCERS``, and a few methods on their classes.  A wrapper
records a span only while a request is active, so the benchmark's own
output checks stay out of the trace.  Hot scalar paths (``Polynomial``
arithmetic, field operations) are deliberately left unwrapped.

A span is ``[name, start, end, parent, request, tag]``: ``parent`` is the
index of the enclosing span in the same thread (-1 at the top), ``tag``
carries the field kind of a Gröbner call ("q" or "fp").  Spans stay in
memory until the caller writes them out.
"""

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict

# module -> public functions wrapped under "<module>.<function>" unless
# SPAN_NAMES gives the span another name
FUNCTIONS = {
    "cli": ("main", "render_markdown"),
    "resolution": (
        "resolve_skew", "resolve_sym", "chart_identity",
        "reduce_skew_chart", "reduce_sym_diag_chart", "reduce_sym_offdiag_chart",
    ),
    "blowup": ("make_chart", "strict_transform_poly", "strict_transform_ideal",
               "total_transform"),
    "matrices": ("determinant", "pfaffian", "minors", "minors_ideal",
                 "generic_skew", "generic_sym"),
    "rings": ("exact_div", "embed"),
    "groebner": ("groebner", "normal_form"),
    "verify": (
        "groebner_of", "ideal_contains", "containment_witness", "ideal_equal",
        "radical_member", "saturate", "coordinate_subspace", "check_fact",
        "check_lemma_counterexample", "check_leaf", "check_embedded_resolution",
    ),
}

# (module, class, method) -> span name
METHODS = {
    ("rings", "Substitution", "__call__"): "rings.substitution",
    ("rings", "Substitution", "then"): "rings.substitution",
    ("groebner", "GroebnerBasis", "reduce"): "groebner.reduce",
    ("resolution", "ResolutionReport", "to_json"): "cli.render.to_json",
}

SPAN_NAMES = {
    "resolution.resolve_skew": "resolution.resolve",
    "resolution.resolve_sym": "resolution.resolve",
    "resolution.reduce_skew_chart": "resolution.reduce_chart",
    "resolution.reduce_sym_diag_chart": "resolution.reduce_chart",
    "resolution.reduce_sym_offdiag_chart": "resolution.reduce_chart",
    "cli.render_markdown": "cli.render.markdown",
    "groebner.groebner": "groebner",
}

LAYERS = ("cli", "resolution", "blowup", "matrices", "rings", "groebner", "verify")


def _determinant_name(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method", "cofactor")
    return f"matrices.determinant.{method}"


def _groebner_tag(args, kwargs):
    gens = args[0] if args else kwargs["gens"]
    gens = gens.gens if hasattr(gens, "gens") else gens
    for g in gens:
        return "q" if g.ring.field.char == 0 else "fp"
    return None


class Tracer:
    """In-memory span recorder; ``request`` is the id of the active request
    (None outside requests, when wrappers call straight through)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, namer=None, tagger=None, on_result=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = [
                name if namer is None else namer(args, kwargs),
                clock(), None, stack[-1] if stack else -1, self.request,
                None if tagger is None else tagger(args, kwargs),
            ]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.counts[f"{span[0]}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def install(self, package):
        """Wrap every target function at every binding inside ``package``
        (the imported detsing module)."""
        def module_of(mod_name):
            # not getattr(package, ...): ``detsing.groebner`` is the function
            return importlib.import_module(f"{package.__name__}.{mod_name}")

        for mod_name in FUNCTIONS:
            module_of(mod_name)
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(prefix))]
        for mod_name, names in FUNCTIONS.items():
            module = module_of(mod_name)
            for fname in names:
                original = getattr(module, fname)
                key = f"{mod_name}.{fname}"
                extra = {}
                if key == "matrices.determinant":
                    extra["namer"] = _determinant_name
                if key == "groebner.groebner":
                    extra["tagger"] = _groebner_tag
                    extra["on_result"] = _count_basis
                wrapper = self.wrap(SPAN_NAMES.get(key, key), original, **extra)
                self._rebind(modules, original, wrapper)
        for (mod_name, cls_name, meth), span_name in METHODS.items():
            cls = getattr(module_of(mod_name), cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(span_name, original))
            self._undo.append((setattr, cls, meth, original))
        return self

    def _rebind(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((setattr, module, attr, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._undo.append((dict.__setitem__, value, k, original))

    def uninstall(self):
        while self._undo:
            restore, obj, key, original = self._undo.pop()
            restore(obj, key, original)


def _count_basis(counts, basis):
    counts["groebner.basis_polys"] += len(basis.polys)


# --------------------------------------------------------------------------
# aggregation


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its children cover;
    overlapping children count once."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - _covered(span[1], span[2], children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def cache_hits(spans, name="verify.groebner_of", child="groebner"):
    """(hits, calls): a ``name`` call with no direct ``child`` span is a hit."""
    missed = {span[3] for span in spans if span[0] == child}
    calls = [i for i, span in enumerate(spans) if span[0] == name]
    return sum(1 for i in calls if i not in missed), len(calls)


def layer_metrics(span_sets, counts, request_seconds):
    """Per-layer metrics from one or more span lists (one per process).

    ``request_seconds`` is the summed latency of the traced requests; layer
    shares are self time over it, and ``layer.untraced.share`` is the rest
    (interpreter start and import for CLI requests, benchmark glue).
    """
    calls = Counter()
    self_s = Counter()
    total_s = Counter()
    field_self = Counter()
    hits = groebner_of_calls = 0
    for spans in span_sets:
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            calls[name] += 1
            self_s[name] += own
            total_s[name] += span[2] - span[1]
            if name == "groebner":
                field_self[span[5]] += own
        h, n = cache_hits(spans)
        hits += h
        groebner_of_calls += n

    layer_self = Counter()
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value

    def share(value):
        return value / request_seconds if request_seconds > 0 else 0.0

    out = {
        "groebner.calls": (calls["groebner"], "count"),
        "groebner.self_s": (self_s["groebner"], "s"),
        "groebner.q.self_s": (field_self["q"], "s"),
        "groebner.fp.self_s": (field_self["fp"], "s"),
        "groebner.basis_polys": (counts.get("groebner.basis_polys", 0), "count"),
        "groebner.resource_limits": (counts.get("groebner.raised.ResourceLimit", 0), "count"),
        "verify.groebner_of.calls": (groebner_of_calls, "count"),
        "verify.groebner_of.hit_ratio": (
            hits / groebner_of_calls if groebner_of_calls else 0.0, "ratio"),
        "verify.saturate.calls": (calls["verify.saturate"], "count"),
        "verify.saturate.self_s": (self_s["verify.saturate"], "s"),
        "verify.radical_member.self_s": (self_s["verify.radical_member"], "s"),
        "verify.ideal_equal.self_s": (self_s["verify.ideal_equal"], "s"),
        "verify.check_leaf.self_s": (self_s["verify.check_leaf"], "s"),
        "verify.check_fact.self_s": (self_s["verify.check_fact"], "s"),
        "matrices.determinant.cofactor.s": (total_s["matrices.determinant.cofactor"], "s"),
        "matrices.determinant.bareiss.s": (total_s["matrices.determinant.bareiss"], "s"),
        "matrices.pfaffian.s": (total_s["matrices.pfaffian"], "s"),
        "matrices.minors_ideal.self_s": (self_s["matrices.minors_ideal"], "s"),
        "rings.exact_div.self_s": (self_s["rings.exact_div"], "s"),
        "rings.substitution.calls": (calls["rings.substitution"], "count"),
        "rings.substitution.self_s": (self_s["rings.substitution"], "s"),
        "blowup.strict_transform_ideal.calls": (calls["blowup.strict_transform_ideal"], "count"),
        "blowup.strict_transform_ideal.self_s": (self_s["blowup.strict_transform_ideal"], "s"),
        "blowup.strict_transform_poly.self_s": (self_s["blowup.strict_transform_poly"], "s"),
        "resolution.reduce_chart.calls": (calls["resolution.reduce_chart"], "count"),
        "resolution.reduce_chart.self_s": (self_s["resolution.reduce_chart"], "s"),
        "resolution.resolve.self_s": (self_s["resolution.resolve"], "s"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "cli.render.s": (total_s["cli.render.markdown"] + total_s["cli.render.to_json"], "s"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.share"] = (share(layer_self[layer]), "share")
    out["layer.untraced.share"] = (
        share(max(0.0, request_seconds - sum(layer_self.values()))), "share")
    out["trace.spans"] = (sum(calls.values()), "count")
    return out
