"""Spans and counters around the public functions of each ``orelco`` module.

The tracer replaces a named function in every ``orelco`` module namespace
that holds it, so calls made through ``from .words import dehn_solve`` in
another module are caught as well.  The library source is not changed.
Spans (name, start, end, parent, operation) stay in memory and are written
out once the run ends.  A span's self time is its duration minus the time
covered by its child spans; a layer's busy time is the time during which
at least one of its spans is open.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import sys
import time

LAYERS = ("pipeline", "words", "diagrams", "folding", "complexes", "covers",
          "orbicomplex", "harness")

# (home module, function, span name).  Chosen at the layer boundaries the
# per-layer metrics name; helpers called per letter or per dart (such as
# free_reduce) are left out because wrapping them would swamp the timings.
WRAPPED = (
    ("pipeline", "present_subgroup", "pipeline.present"),
    ("pipeline", "candidate_words", "pipeline.enum"),
    ("words", "dehn_solve", "words.dehn"),
    ("diagrams", "build_reduced_diagram", "diagrams.build"),
    ("folding", "fold", "folding.fold"),
    ("folding", "factor_unique", "folding.factor"),
    ("complexes", "collapse", "complexes.collapse"),
    ("complexes", "classify_map", "complexes.classify"),
    ("complexes", "compose", "complexes.compose"),
    ("covers", "find_exponent_n_quotient", "covers.find_quotient"),
    ("covers", "build_unwrapped_cover", "covers.build"),
    ("covers", "verify_cover", "covers.verify"),
    ("covers", "validate_quotient", "covers.validate"),
    ("orbicomplex", "check_orbi_immersion", "orbicomplex.check"),
    ("orbicomplex", "wcycles_audit", "orbicomplex.audit"),
    ("harness", "run_property_campaign", "harness.campaign"),
    ("harness", "random_irreducible_immersion", "harness.generate"),
    ("harness", "random_uniform_quotient", "harness.random_quotient"),
)
ITERATORS = {"pipeline.enum"}
OP_SPAN = "bench.op"


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# Observers turn a call's arguments and result into counters.  ``parent``
# is the enclosing span's name and ``dur`` the call's duration.


def _obs_dehn(tr, args, kwargs, result, parent, dur):
    steps = len(result.steps)
    tr.count("words.dehn.letters_in", len(_first(args, kwargs)))
    tr.count("words.dehn.steps", steps)
    tr.count("words.dehn.trivial", int(result.trivial))
    if parent == "diagrams.build":
        tr.count("diagrams.cells_in", steps)


def _obs_build(tr, args, kwargs, result, parent, dur):
    tr.count("diagrams.cells_out", len(result.diagram.cells))
    tr.count("diagrams.edges_out", len(result.diagram.skeleton.edges))
    x = args[1] if len(args) > 1 else kwargs["x"]
    tr.growth.append(((x.relator, x.branch_index), len(_first(args, kwargs)),
                      dur))


def _obs_fold(tr, args, kwargs, result, parent, dur):
    darts = sum(1 for entry in result.trace if entry[0] == "dart")
    tr.count("folding.edges_in", len(_first(args, kwargs).source.skeleton.edges))
    tr.count("folding.identifications", darts)
    tr.count("folding.cell_merges", len(result.trace) - darts)
    tr.count("folding.edges_out", len(result.folded.skeleton.edges))


def _obs_collapse(tr, args, kwargs, result, parent, dur):
    tr.count("complexes.cells_removed",
             len(_first(args, kwargs).cells) - len(result.cells))


def _obs_quotient(tr, args, kwargs, result, parent, dur):
    tr.count("covers.quotients", int(result is not None))


def _obs_campaign(tr, args, kwargs, result, parent, dur):
    passed, total = result.pass_counts.get("covers", (0, 0))
    rows = result.rows
    tr.count("harness.covers_passed", passed)
    tr.count("harness.covers_total", total)
    tr.count("harness.rows", len(rows))
    tr.count("harness.cell_rows", sum(1 for r in rows if r.cells > 0))
    tr.count("harness.single_vertex_rows",
             sum(1 for r in rows if r.vertices == 1))


def _obs_present(tr, args, kwargs, result, parent, dur):
    tr.count("pipeline.stages", result[0].stage)


OBSERVERS = {
    "words.dehn": _obs_dehn, "diagrams.build": _obs_build,
    "folding.fold": _obs_fold, "complexes.collapse": _obs_collapse,
    "covers.find_quotient": _obs_quotient,
    "harness.random_quotient": _obs_quotient,
    "harness.campaign": _obs_campaign, "pipeline.present": _obs_present,
}


class Tracer:
    """Spans, per-name call counts and times, per-layer busy time, and the
    observers' counters of one traced run."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.spans: list[tuple] = []        # (id, name, start, end, parent id, op)
        self.stack: list[list] = []         # open spans: [id, name, child time]
        self.next_id = 0
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.layer_depth: dict[str, int] = {}
        self.layer_busy: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.growth: list[tuple] = []   # (relator, word length, build time)
        self.missing: list[str] = []
        self._patches: list[tuple] = []     # (module, attr, original, wrapper)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str):
        frame = [self.next_id, name, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        layer = name.split(".", 1)[0]
        self.layer_depth[layer] = self.layer_depth.get(layer, 0) + 1
        return frame, time.perf_counter()

    def _close(self, frame, start: float) -> float:
        end = time.perf_counter()
        self.stack.pop()
        sid, name, child = frame
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append((sid, name, start, end,
                           parent[0] if parent else -1, self.op))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        layer = name.split(".", 1)[0]
        self.layer_depth[layer] -= 1
        if self.layer_depth[layer] == 0:
            self.layer_busy[layer] = self.layer_busy.get(layer, 0.0) + dur
        return dur

    def count(self, key, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        frame, start = self._open(name)
        try:
            yield
        finally:
            self._close(frame, start)

    # -- wrapping ---------------------------------------------------------

    def _wrap_function(self, fn, name: str):
        tracer = self
        observer = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame, start = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(frame, start)
            if observer is not None:
                parent = tracer.stack[-1][1] if tracer.stack else None
                try:
                    observer(tracer, args, kwargs, result, parent, dur)
                except (AttributeError, TypeError, IndexError, KeyError):
                    tracer.note_missing(f"{name} (result shape changed)")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_iterator(self, fn, name: str):
        tracer = self

        class _Iter:
            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                if not tracer.enabled:
                    return next(self.it)
                frame, start = tracer._open(name)
                try:
                    item = next(self.it)
                finally:
                    tracer._close(frame, start)
                tracer.count("pipeline.candidates", 1)
                return item

        def wrapper(*args, **kwargs):
            return _Iter(iter(fn(*args, **kwargs)))

        wrapper.__wrapped__ = fn
        return wrapper

    def note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def _find_patches(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "orelco"
                                         or key.startswith("orelco."))]
        for home, fname, name in WRAPPED:
            original = getattr(sys.modules.get(f"orelco.{home}"), fname, None)
            if not callable(original):
                self.note_missing(f"orelco.{home}.{fname}")
                continue
            make = self._wrap_iterator if name in ITERATORS else self._wrap_function
            wrapped = make(original, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapped))

    def install(self) -> None:
        """Replace every named function in each ``orelco`` namespace.  The
        namespaces are searched on the first install only, so installing
        around each repetition is cheap."""
        if not self._patches:
            self._find_patches()
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, name, start, end, parent, op in sorted(self.spans):
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{op}\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _slope(samples) -> float:
    """Least-squares slope of log(time) against log(length), each relator
    centred on its own means so that their different costs do not bias it."""
    groups: dict = {}
    for key, length, t in samples:
        if length > 0 and t > 0:
            groups.setdefault(key, []).append((math.log(length), math.log(t)))
    sxx = sxy = 0.0
    for pts in groups.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx else 0.0


# name -> (unit, better, is_timing).  Counters (is_timing False) must repeat
# exactly across runs with the same arguments.
def _metric_table():
    table = {}

    def add(name, unit, better, timing):
        table[name] = (unit, better, timing)

    for name in ("pipeline.candidates", "pipeline.stages"):
        add(name, "count", "lower", False)
    add("pipeline.enum_s", "s", "lower", True)
    add("pipeline.present.self_s", "s", "lower", True)
    add("words.dehn.calls", "count", "lower", False)
    add("words.dehn.s", "s", "lower", True)
    for name in ("words.dehn.letters_in", "words.dehn.steps",
                 "words.dehn.trivial"):
        add(name, "count", "lower", False)
    add("words.dehn.hit_ratio", "1", "higher", False)
    add("diagrams.build.calls", "count", "lower", False)
    add("diagrams.build.self_s", "s", "lower", True)
    for name in ("diagrams.cells_in", "diagrams.cells_out",
                 "diagrams.edges_out"):
        add(name, "count", "lower", False)
    add("diagrams.keep_ratio", "1", "lower", False)
    add("diagrams.growth_exponent", "1", "lower", True)
    add("folding.fold.calls", "count", "lower", False)
    add("folding.fold.self_s", "s", "lower", True)
    for name in ("folding.edges_in", "folding.identifications",
                 "folding.cell_merges", "folding.edges_out",
                 "folding.factor.calls"):
        add(name, "count", "lower", False)
    add("folding.factor.s", "s", "lower", True)
    add("complexes.collapse.calls", "count", "lower", False)
    add("complexes.collapse.s", "s", "lower", True)
    add("complexes.cells_removed", "count", "lower", False)
    add("complexes.classify.calls", "count", "lower", False)
    add("complexes.classify.s", "s", "lower", True)
    for name in ("covers.find_quotient.s", "covers.build.s", "covers.verify.s"):
        add(name, "s", "lower", True)
    add("covers.validate.calls", "count", "lower", False)
    add("covers.quotient_yield", "1", "higher", False)
    add("orbicomplex.check.calls", "count", "lower", False)
    add("orbicomplex.check.s", "s", "lower", True)
    add("orbicomplex.audit.calls", "count", "lower", False)
    add("orbicomplex.audit.s", "s", "lower", True)
    add("harness.generate.s", "s", "lower", True)
    add("harness.random_quotient.s", "s", "lower", True)
    add("harness.quotient_hit_ratio", "1", "higher", False)
    add("harness.cell_trial_share", "1", "higher", False)
    add("harness.single_vertex_share", "1", "lower", False)
    for layer in LAYERS:
        add(f"{layer}.calls", "count", "lower", False)
        add(f"{layer}.busy_s", "s", "lower", True)
        add(f"{layer}.self_s", "s", "lower", True)
        add(f"{layer}.self_share", "1", "lower", True)
    add("bench.self_share", "1", "lower", True)
    add("trace.spans", "count", "lower", False)
    add("trace.missing", "count", "lower", False)
    add("trace.wall_s", "s", "lower", True)
    add("trace.untraced_wall_s", "s", "lower", True)
    add("trace.overhead_s", "s", "lower", True)
    return table


METRICS = _metric_table()


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric by name; see ``METRICS`` for units."""
    calls, total, own, c = tr.calls, tr.total, tr.self_time, tr.counters

    def n(name):
        return calls.get(name, 0)

    v = {
        "pipeline.candidates": c.get("pipeline.candidates", 0),
        "pipeline.stages": c.get("pipeline.stages", 0),
        "pipeline.enum_s": total.get("pipeline.enum", 0.0),
        "pipeline.present.self_s": own.get("pipeline.present", 0.0),
        "words.dehn.calls": n("words.dehn"),
        "words.dehn.s": total.get("words.dehn", 0.0),
        "words.dehn.letters_in": c.get("words.dehn.letters_in", 0),
        "words.dehn.steps": c.get("words.dehn.steps", 0),
        "words.dehn.trivial": c.get("words.dehn.trivial", 0),
        "words.dehn.hit_ratio": _ratio(c.get("words.dehn.trivial", 0),
                                       n("words.dehn")),
        "diagrams.build.calls": n("diagrams.build"),
        "diagrams.build.self_s": own.get("diagrams.build", 0.0),
        "diagrams.cells_in": c.get("diagrams.cells_in", 0),
        "diagrams.cells_out": c.get("diagrams.cells_out", 0),
        "diagrams.keep_ratio": _ratio(c.get("diagrams.cells_out", 0),
                                      c.get("diagrams.cells_in", 0)),
        "diagrams.edges_out": c.get("diagrams.edges_out", 0),
        "diagrams.growth_exponent": _slope(tr.growth),
        "folding.fold.calls": n("folding.fold"),
        "folding.fold.self_s": own.get("folding.fold", 0.0),
        "folding.edges_in": c.get("folding.edges_in", 0),
        "folding.identifications": c.get("folding.identifications", 0),
        "folding.cell_merges": c.get("folding.cell_merges", 0),
        "folding.edges_out": c.get("folding.edges_out", 0),
        "folding.factor.calls": n("folding.factor"),
        "folding.factor.s": total.get("folding.factor", 0.0),
        "complexes.collapse.calls": n("complexes.collapse"),
        "complexes.collapse.s": total.get("complexes.collapse", 0.0),
        "complexes.cells_removed": c.get("complexes.cells_removed", 0),
        "complexes.classify.calls": n("complexes.classify"),
        "complexes.classify.s": total.get("complexes.classify", 0.0),
        "covers.find_quotient.s": total.get("covers.find_quotient", 0.0),
        "covers.build.s": total.get("covers.build", 0.0),
        "covers.verify.s": total.get("covers.verify", 0.0),
        "covers.validate.calls": n("covers.validate"),
        "covers.quotient_yield": _ratio(c.get("covers.quotients", 0),
                                        n("covers.validate")),
        "orbicomplex.check.calls": n("orbicomplex.check"),
        "orbicomplex.check.s": total.get("orbicomplex.check", 0.0),
        "orbicomplex.audit.calls": n("orbicomplex.audit"),
        "orbicomplex.audit.s": total.get("orbicomplex.audit", 0.0),
        "harness.generate.s": total.get("harness.generate", 0.0),
        "harness.random_quotient.s": total.get("harness.random_quotient", 0.0),
        "harness.quotient_hit_ratio": _ratio(c.get("harness.covers_passed", 0),
                                             c.get("harness.covers_total", 0)),
        "harness.cell_trial_share": _ratio(c.get("harness.cell_rows", 0),
                                           c.get("harness.rows", 0)),
        "harness.single_vertex_share": _ratio(
            c.get("harness.single_vertex_rows", 0), c.get("harness.rows", 0)),
    }
    op_time = total.get(OP_SPAN, 0.0)
    for layer in LAYERS:
        names = [k for k in calls if k.split(".", 1)[0] == layer]
        layer_self = sum((own[k] for k in names), 0.0)
        v[f"{layer}.calls"] = sum(calls[k] for k in names)
        v[f"{layer}.busy_s"] = tr.layer_busy.get(layer, 0.0)
        v[f"{layer}.self_s"] = layer_self
        v[f"{layer}.self_share"] = _ratio(layer_self, op_time)
    v["bench.self_share"] = _ratio(own.get(OP_SPAN, 0.0), op_time)
    v["trace.spans"] = len(tr.spans)
    v["trace.missing"] = len(tr.missing)
    v["trace.wall_s"] = traced_wall
    v["trace.untraced_wall_s"] = untraced_wall
    v["trace.overhead_s"] = traced_wall - untraced_wall
    return v
