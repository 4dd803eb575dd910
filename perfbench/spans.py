"""Spans around the public functions of each ``qcatkit`` layer.

The tracer wraps functions and methods from outside the package: it
rebinds every module-level binding of a wrapped function (the package
imports many of them with ``from .x import f``) and patches methods on
their class.  ``Budget.spend`` is patched to count every step charged to
any budget, so a span knows the steps taken while it was open.

Spans stay in memory as ``Span`` records; ``layer_metrics`` turns the
spans of one pass into the per-layer metrics, and ``write_spans`` writes
them out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time

# (span name, module, attribute, what to count besides time and steps)
FUNCTIONS = [
    ("simplicial.enumerate_maps", "qcatkit.simplicial", "enumerate_maps", "results"),
    ("simplicial.compose_maps", "qcatkit.simplicial", "compose_maps", None),
    ("simplicial.product", "qcatkit.simplicial", "product", None),
    ("mapping.mapping_space", "qcatkit.mapping", "mapping_space", None),
    ("mapping.kan_check", "qcatkit.mapping", "kan_check", None),
    ("nerve.nerve", "qcatkit.nerve", "nerve", None),
    ("nerve.is_quasicategory", "qcatkit.nerve", "is_quasicategory", None),
    ("nerve.require_quasicategory", "qcatkit.nerve", "require_quasicategory", None),
    ("nerve.ho", "qcatkit.nerve", "ho", None),
    ("cats.equivalence_inverse", "qcatkit.cats", "equivalence_inverse", None),
    ("cats.enumerate_functors", "qcatkit.cats", "enumerate_functors", "results"),
    ("cats.compose_functors", "qcatkit.cats", "compose_functors", None),
    ("prederivator.der_audit", "qcatkit.prederivator", "der_audit", None),
    ("prederivator.strict_rigidity_check", "qcatkit.prederivator",
     "strict_rigidity_check", None),
    ("prederivator.enumerate_strict_morphisms", "qcatkit.prederivator",
     "enumerate_strict_morphisms", "results"),
    ("prederivator.kan_extension_value", "qcatkit.prederivator", "kan_extension_value", None),
    ("prederivator.standard_sample", "qcatkit.prederivator", "standard_sample", None),
    ("enrichment.embedding_check", "qcatkit.enrichment", "embedding_check", None),
    ("enrichment.simplicial_hom", "qcatkit.enrichment", "simplicial_hom", None),
    ("delocalization.last_vertex_projection", "qcatkit.delocalization",
     "last_vertex_projection", None),
    ("delocalization.check_inverts_L", "qcatkit.delocalization", "check_inverts_L", None),
    ("whitehead.load_labeled_corpus", "qcatkit.whitehead", "load_labeled_corpus", None),
    ("whitehead.is_equivalence", "qcatkit.whitehead", "is_equivalence", None),
    ("whitehead.induced_prederivator_morphism", "qcatkit.whitehead",
     "induced_prederivator_morphism", None),
    ("whitehead.prederivator_equivalence", "qcatkit.whitehead",
     "prederivator_equivalence", None),
    ("whitehead.conservativity_experiment", "qcatkit.whitehead",
     "conservativity_experiment", None),
    ("whitehead.agreement_table", "qcatkit.whitehead", "agreement_table", None),
    # input builders called by the passes, traced so that coverage is complete
    ("corpus.corpus_ssets", "qcatkit.corpus", "corpus_ssets", None),
    ("corpus.corpus_quasicategories", "qcatkit.corpus", "corpus_quasicategories", None),
    ("corpus.face_mutations", "qcatkit.corpus", "face_mutations", None),
    ("corpus.der1_mutation", "qcatkit.corpus", "der1_mutation", None),
    ("corpus.der2_mutation", "qcatkit.corpus", "der2_mutation", None),
    ("corpus.der5_mutation", "qcatkit.corpus", "der5_mutation", None),
    ("corpus.der5prime_mutation", "qcatkit.corpus", "der5prime_mutation", None),
]

# (span name, module, class, method, what to count)
METHODS = [
    ("simplicial.TruncatedSSet.validate", "qcatkit.simplicial", "TruncatedSSet",
     "validate", None),
    ("mapping.Exponential", "qcatkit.mapping", "Exponential", "__init__", "exponential"),
    ("mapping.Exponential.locate", "qcatkit.mapping", "Exponential", "locate", None),
    ("mapping.Exponential.map_of", "qcatkit.mapping", "Exponential", "map_of", None),
    ("prederivator.eval", "qcatkit.prederivator", "Prederivator", "eval", None),
    ("prederivator.on_functor", "qcatkit.prederivator", "Prederivator", "on_functor", None),
    ("prederivator.on_nat", "qcatkit.prederivator", "Prederivator", "on_nat", None),
    ("prederivator.check_two_functoriality", "qcatkit.prederivator", "Prederivator",
     "check_two_functoriality", None),
]

# The memoized Prederivator entry points call these subclass hooks only on
# a cache miss; a call marks the entry point's open span as a miss.
HOOKS = {"_eval": "prederivator.eval", "_on_functor": "prederivator.on_functor",
         "_on_nat": "prederivator.on_nat"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "steps_in", "steps_out",
                 "results", "miss", "error", "nondeg_cells")

    def __init__(self, name, start, parent, pass_id, steps_in):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.pass_id = pass_id
        self.steps_in = steps_in
        self.steps_out = None
        self.results = None
        self.miss = False
        self.error = False
        self.nondeg_cells = None


class Tracer:
    """Open spans of the current pass, plus the finished passes."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # indices of open spans
        self.steps = 0
        self.pass_id = None
        self.passes: list = []

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent, self.pass_id, self.steps)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.steps_out = self.steps
        span.end = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def pass_span(self, pass_id):
        """Root span of one pass; its spans are appended to ``passes``."""
        self.pass_id = pass_id
        self.spans = []
        root = self.open("pass")
        try:
            yield
        finally:
            self.close(root)
            self.passes.append(self.spans)

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                tracer.close(span)
            if count == "results":
                span.results = len(out)
            elif count == "exponential":
                E = args[0]
                span.nondeg_cells = sum(len(E.sset.nondeg(n)) for n in range(E.k + 1))
            return out

        return traced

    def mark_miss(self, entry: str, hook):
        tracer = self

        @functools.wraps(hook)
        def marked(*args, **kwargs):
            if tracer.stack and tracer.spans[tracer.stack[-1]].name == entry:
                tracer.spans[tracer.stack[-1]].miss = True
            return hook(*args, **kwargs)

        return marked

    def install(self, extra_modules=()) -> None:
        """Wrap every listed function and method; irreversible for the process."""
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("qcatkit.")] + list(extra_modules)
        for name, mod_name, attr, count in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            traced = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        for name, mod_name, cls_name, attr, count in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr], count))
        prederivator = sys.modules["qcatkit.prederivator"].Prederivator
        for cls in _subclasses(prederivator):
            for hook, entry in HOOKS.items():
                if hook in cls.__dict__:
                    setattr(cls, hook, self.mark_miss(entry, cls.__dict__[hook]))
        from qcatkit.util import Budget
        spend = Budget.spend

        def counted_spend(budget, steps=1):
            self.steps += steps
            return spend(budget, steps)

        Budget.spend = counted_spend


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


# ---------------------------------------------------------------------------
# analysis


def self_costs(spans: list) -> list:
    """Per span: [self seconds, self steps], its own cost minus its children's.

    ``parent`` indexes the same list; spans of one thread nest, so the
    children of a span never overlap and their durations simply add up.
    """
    own = [[s.end - s.start, s.steps_out - s.steps_in] for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent][0] -= s.end - s.start
            own[s.parent][1] -= s.steps_out - s.steps_in
    return own


def _ratio(num, den) -> float:
    return num / den if den else 0.0


LAYER_METRICS = {
    "simplicial.enumerate_maps": ("calls", "self_s", "steps", "results", "results_per_step"),
    "simplicial.compose_maps": ("calls", "self_s"),
    "simplicial.product": ("self_s",),
    "simplicial.TruncatedSSet.validate": ("calls", "self_s", "steps"),
    "mapping.Exponential": ("calls", "self_s", "maps", "level2_maps", "nondeg_cells",
                            "nondeg_ratio"),
    "mapping.Exponential.locate": ("calls", "self_s"),
    "mapping.Exponential.map_of": ("calls", "self_s"),
    "mapping.mapping_space": ("calls", "self_s"),
    "mapping.kan_check": ("self_s", "steps"),
    "nerve.nerve": ("calls", "self_s"),
    "nerve.is_quasicategory": ("calls", "self_s", "steps"),
    "nerve.require_quasicategory": ("calls", "hit_ratio"),
    "nerve.ho": ("calls", "self_s"),
    "cats.equivalence_inverse": ("calls", "self_s"),
    "cats.enumerate_functors": ("calls", "self_s", "results"),
    "cats.compose_functors": ("calls", "self_s"),
    "prederivator.eval": ("calls", "hit_ratio", "self_s"),
    "prederivator.on_functor": ("calls", "hit_ratio", "self_s"),
    "prederivator.on_nat": ("calls", "hit_ratio", "self_s"),
    "prederivator.check_two_functoriality": ("self_s",),
    "prederivator.der_audit": ("self_s",),
    "prederivator.strict_rigidity_check": ("self_s",),
    "prederivator.enumerate_strict_morphisms": ("self_s", "results", "steps"),
    "prederivator.kan_extension_value": ("self_s", "steps"),
    "enrichment.embedding_check": ("self_s",),
    "enrichment.simplicial_hom": ("self_s",),
    "delocalization.last_vertex_projection": ("self_s",),
    "delocalization.check_inverts_L": ("self_s",),
    "whitehead.load_labeled_corpus": ("self_s",),
    "whitehead.is_equivalence": ("self_s",),
    "whitehead.induced_prederivator_morphism": ("self_s",),
    "whitehead.prederivator_equivalence": ("self_s",),
}
TRACE_METRICS = ("overhead_s", "unattributed_frac", "span_errors")

UNITS = {"wall_s": "s", "calls": "count", "self_s": "s", "steps": "count", "results": "count",
         "results_per_step": "1/step", "hit_ratio": "ratio", "maps": "count",
         "level2_maps": "count", "nondeg_cells": "count", "nondeg_ratio": "ratio",
         "overhead_s": "s", "unattributed_frac": "ratio", "span_errors": "count"}


def metric_names() -> list:
    """Every per-layer metric; ``pass.wall_s`` is the untraced pass time."""
    names = [f"{layer}.{m}" for layer, ms in LAYER_METRICS.items() for m in ms]
    return ["pass.wall_s"] + names + [f"trace.{m}" for m in TRACE_METRICS]


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass; ``spans[0]`` is the pass's root span.

    ``trace.overhead_s`` needs an untraced run and is left to the caller.
    """
    own = self_costs(spans)
    acc = {layer: dict.fromkeys(("calls", "self_s", "steps", "results", "misses",
                                 "nondeg_cells", "maps", "level2_maps", "checks"), 0)
           for layer in LAYER_METRICS}
    levels_seen: dict = {}
    for i, s in enumerate(spans):
        if s.name in acc:
            a = acc[s.name]
            a["calls"] += 1
            a["self_s"] += own[i][0]
            a["steps"] += own[i][1]
            a["results"] += s.results or 0
            a["misses"] += s.miss
            a["nondeg_cells"] += s.nondeg_cells or 0
        parent = spans[s.parent].name if s.parent is not None else None
        if parent == "mapping.Exponential" and s.name == "simplicial.enumerate_maps":
            # an exponential enumerates its levels 0..k in this order
            level = levels_seen.get(s.parent, 0)
            levels_seen[s.parent] = level + 1
            acc[parent]["maps"] += s.results
            if level == 2:
                acc[parent]["level2_maps"] += s.results
        elif parent == "nerve.require_quasicategory" and s.name == "nerve.is_quasicategory":
            acc[parent]["checks"] += 1
    out = {}
    for layer, wanted in LAYER_METRICS.items():
        a = acc[layer]
        hits = a["calls"] - a["checks"] - a["misses"]
        derived = dict(a, results_per_step=_ratio(a["results"], a["steps"]),
                       nondeg_ratio=_ratio(a["nondeg_cells"], a["maps"]),
                       hit_ratio=_ratio(hits, a["calls"]))
        for m in wanted:
            out[f"{layer}.{m}"] = derived[m]
    root = spans[0]
    out["trace.unattributed_frac"] = _ratio(own[0][0], root.end - root.start)
    out["trace.span_errors"] = sum(s.error for s in spans)
    return out


def write_spans(spans: list, path) -> None:
    """Gzipped JSON lines: the field names, then one array per span."""
    with gzip.open(path, "wt") as out:
        out.write(json.dumps(Span.__slots__) + "\n")
        for s in spans:
            out.write(json.dumps([getattr(s, k) for k in Span.__slots__]) + "\n")
