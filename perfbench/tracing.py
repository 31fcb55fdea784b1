"""Spans around calls into kfsslab's public functions, and the per-layer
metrics computed from them.

Instrumentation works from outside the library: while an ``Instrumentation``
is active, every public function listed in ``_LAYERS`` is replaced, in each
module namespace that binds it, by a wrapper that records a span.  Leaving
the ``with`` block restores the original bindings, so an untraced call pays
nothing.  Spans are kept in memory and written out once, at the end.

A span's self time is its duration minus the durations of its direct
children.  Calls within one item run sequentially, so children never
overlap and the self times of an item's spans sum to the item's wall time.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

from kfsslab import cli, gadgets, model, riccati, solvers

_perf = time.perf_counter

# Span slots: name, start, end, parent index (-1 for a root), item id, attrs.
NAME, START, END, PARENT, ITEM, ATTRS = range(6)


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: int | None = None
        self.visited = 0
        # per item: models seen (kept alive so their ids stay unique) and
        # the (model, bits, metric) triples already evaluated
        self.models: dict[int, object] = {}
        self.evaluated: set = set()
        self.model_count = 0
        self.repeats = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _perf(), 0.0, parent, self.item, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[END] = _perf()
        span[ATTRS] = attrs
        self.stack.pop()

    def begin_item(self, item: int) -> None:
        self.item = item
        self.models = {}
        self.evaluated = set()

    def end_item(self) -> None:
        self.model_count += len(self.models)
        self.models = {}
        self.evaluated = set()
        self.item = None

    def note_evaluation(self, mdl, bits, metric) -> None:
        self.models[id(mdl)] = mdl
        key = (id(mdl), bits, metric)
        if key in self.evaluated:
            self.repeats += 1
        else:
            self.evaluated.add(key)

    def dump(self, path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[ITEM], s[ATTRS]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item", "attrs"],
                       "names": names, "spans": rows}, fh)


def _solve_attrs(rec, args, out):
    return {"iters": out.iterations, "infinite": int(not out.is_finite)}


def _exhaustive_attrs(rec, args, out):
    return {"feasible": out.evaluations - 1}


def _evaluate_attrs(rec, args, out):
    mdl, sel, metric = args[:3]
    rec.note_evaluation(mdl, sel.bits, metric)
    return None


# (layer span name, owners that bind the function, attribute, attrs hook)
_LAYERS = (
    ("riccati.solve_dare", (riccati,), "solve_dare", _solve_attrs),
    ("riccati.pbh", (riccati,), "is_detectable", None),
    ("riccati.stabilizable", (riccati,), "is_stabilizable_noise", None),
    ("riccati.posteriori", (riccati, solvers), "posteriori_from_priori", None),
    ("riccati.pinv", (riccati,), "pseudo_inverse_psd", None),
    ("model.restrict", (model, riccati, solvers), "restrict", None),
    ("model.indicator", (model, solvers), "complement", None),
    ("model.validate", (model, gadgets), "validate_model", None),
    ("solvers.evaluate", (solvers,), "evaluate_selection", _evaluate_attrs),
    ("solvers.driver", (solvers, gadgets), "greedy_select", None),
    ("solvers.driver", (solvers, gadgets), "greedy_attack", None),
    ("solvers.driver", (solvers, gadgets), "exhaustive_select", _exhaustive_attrs),
    ("solvers.driver", (solvers, gadgets), "exhaustive_attack", _exhaustive_attrs),
    ("gadgets.build", (gadgets,), "build_kfss_gadget", None),
    ("gadgets.build", (gadgets,), "build_kfsa_gadget", None),
    ("gadgets.build", (gadgets,), "build_example1", None),
    ("gadgets.build", (gadgets,), "build_example2", None),
    ("gadgets.decide", (gadgets,), "x3c_decide_via_kfss", None),
    ("gadgets.decide", (gadgets,), "x3c_decide_via_kfsa", None),
    ("gadgets.bruteforce", (gadgets,), "x3c_bruteforce", None),
    ("cli.main", (cli,), "main", None),
)

# indicator constructors are classmethods, patched on the class itself
_CLASSMETHODS = (
    ("model.indicator", model.SelectionVector, "from_support"),
    ("model.indicator", model.AttackVector, "from_support"),
)


def _traced(rec: Recorder, name: str, fn, attrs_of=None):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        attrs = None
        try:
            out = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs = attrs_of(rec, args, out)
            return out
        except Exception:
            attrs = {"failed": 1}
            raise
        finally:
            rec.close(idx, attrs)

    return wrapper


class Instrumentation:
    """Context manager that installs the span wrappers and removes them on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.saved: list[tuple[object, str, object]] = []
        self.patches: list[tuple[object, str, object]] = []
        for name, owners, attr, attrs_of in _LAYERS:
            wrapper = _traced(rec, name, getattr(owners[0], attr), attrs_of)
            self.patches += [(owner, attr, wrapper) for owner in owners]
        for name, cls, attr in _CLASSMETHODS:
            func = cls.__dict__[attr].__func__
            self.patches.append((cls, attr, classmethod(_traced(rec, name, func))))
        self.patches.append((solvers, "combinations", self._counting(solvers.combinations)))

    def _counting(self, combinations):
        rec = self.rec

        def counted(iterable, r):
            n = 0
            try:
                for combo in combinations(iterable, r):
                    n += 1
                    yield combo
            finally:
                rec.visited += n

        return counted

    def __enter__(self):
        for owner, attr, wrapper in self.patches:
            self.saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


def self_times(rec: Recorder) -> list[float]:
    """Self time of every span, in span order."""
    child = [0.0] * len(rec.spans)
    for s in rec.spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(rec.spans, child)]


def layer_table(rec: Recorder) -> dict[str, dict[str, float]]:
    """Calls, total seconds and self seconds per span name."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s, own in zip(rec.spans, self_times(rec)):
        row = table[s[NAME]]
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += own
    return dict(table)


def per_layer_metrics(rec: Recorder, overhead: float, scale: float) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}; see
    README.md for their meaning.

    ``overhead`` is the measured tracing overhead (traced / untraced time of
    the same items, minus 1); ``scale`` converts the span times to the
    reference speed (see speed.py).
    """
    table = layer_table(rec)

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    solves = [s for s in rec.spans if s[NAME] == "riccati.solve_dare"]
    attrs = Counter()
    finite_iters = []
    for s in solves:
        a = s[ATTRS] or {}
        attrs.update(a)
        if "iters" in a and not a["infinite"]:
            finite_iters.append(a["iters"])
    feasible = sum((s[ATTRS] or {}).get("feasible", 0) for s in rec.spans if s[NAME] == "solvers.driver")
    evaluate = row("solvers.evaluate")
    solve = row("riccati.solve_dare")
    stabilizable = row("riccati.stabilizable")

    cli_spans = [i for i, s in enumerate(rec.spans) if s[NAME] == "cli.main"]
    own = self_times(rec)
    cli_wall = sum(rec.spans[i][END] - rec.spans[i][START] for i in cli_spans)
    cli_compute = cli_wall - sum(own[i] for i in cli_spans)
    workers = 1 if cli_spans else 0
    items = [i for i, s in enumerate(rec.spans) if s[NAME] == "item"]
    item_wall = sum(rec.spans[i][END] - rec.spans[i][START] for i in items)

    values = {
        "riccati.solve_dare.calls": solve["calls"],
        "riccati.solve_dare.iters": attrs["iters"],
        "riccati.solve_dare.iters_p50": statistics.median(finite_iters) if finite_iters else 0,
        "riccati.solve_dare.iters_max": max(finite_iters, default=0),
        "riccati.solve_dare.self_s": solve["self_s"],
        "riccati.solve_dare.us_per_iter": 1e6 * solve["self_s"] / attrs["iters"] if attrs["iters"] else 0.0,
        "riccati.solve_dare.infinite": attrs["infinite"],
        "riccati.solve_dare.failed": attrs["failed"],
        "riccati.pbh.calls": row("riccati.pbh")["calls"],
        "riccati.pbh.s": row("riccati.pbh")["self_s"],
        "riccati.stabilizable.calls": stabilizable["calls"],
        "riccati.stabilizable.calls_per_model": stabilizable["calls"] / rec.model_count if rec.model_count else 0.0,
        "riccati.posteriori.calls": row("riccati.posteriori")["calls"],
        "riccati.posteriori.s": row("riccati.posteriori")["self_s"],
        "riccati.pinv.calls": row("riccati.pinv")["calls"],
        "riccati.pinv.s": row("riccati.pinv")["self_s"],
        "model.restrict.calls": row("model.restrict")["calls"],
        "model.restrict.s": row("model.restrict")["self_s"],
        "model.indicator.calls": row("model.indicator")["calls"],
        "model.indicator.s": row("model.indicator")["self_s"],
        "model.validate.calls": row("model.validate")["calls"],
        "model.validate.s": row("model.validate")["self_s"],
        "solvers.evaluate.calls": evaluate["calls"],
        "solvers.evaluate.self_s": evaluate["self_s"],
        "solvers.evaluate.repeat_frac": rec.repeats / evaluate["calls"] if evaluate["calls"] else 0.0,
        "solvers.driver.self_s": row("solvers.driver")["self_s"],
        "solvers.enum.visited": rec.visited,
        "solvers.enum.feasible": feasible,
        "solvers.enum.useful_frac": feasible / rec.visited if rec.visited else 0.0,
        "gadgets.build.calls": row("gadgets.build")["calls"],
        "gadgets.build.s": row("gadgets.build")["self_s"],
        "gadgets.bruteforce.s": row("gadgets.bruteforce")["self_s"],
        "cli.sweep.wall_s": cli_wall,
        "cli.sweep.compute_s": cli_compute,
        "cli.sweep.workers": workers,
        "cli.sweep.pool_efficiency": cli_compute / (workers * cli_wall) if cli_wall else 0.0,
        "trace.overhead_frac": overhead,
        "trace.unattributed_frac": sum(own[i] for i in items) / item_wall if item_wall else 0.0,
    }
    units = {name: _unit(name) for name in values}
    return {name: (value * scale if units[name] in ("s", "us") else value, units[name])
            for name, value in values.items()}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s") or last == "s":
        return "s"
    if last == "us_per_iter":
        return "us"
    if last.endswith("_frac") or last in ("pool_efficiency", "calls_per_model"):
        return "ratio"
    return "count"
