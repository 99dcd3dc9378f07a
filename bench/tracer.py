"""Spans around the public functions of each `bicyclic` layer, from outside `src/`.

`install` wraps every public function of the six layer modules and rebinds
the wrapper under every name that held the original in any `bicyclic`
module, because modules import functions by name (`families` calls its
own binding of `multiply`, not `element.multiply`).

Each call opens a frame.  On exit its duration goes to the parent frame's
child time, so a function's self time is its duration minus the time of
the calls it made into traced functions.  Ordinary calls are kept as spans
(name, start, end, parent).  Calls to the hot leaf functions below, which
run millions of times a round, are folded into one record per parent span
and name (count and total duration) so the trace stays small; their self
times are still accounted exactly.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("element", "symset", "families", "topology", "continuity", "cli")
HOT = frozenset({"symset.member", "symset.atom_member", "symset.atom_members", "symset.atom_disjoint"})
CELL_FUNCTIONS = ("continuity.check_shift_at", "continuity.check_joint_at")
IMAGE_FUNCTIONS = ("symset.left_image", "symset.right_image", "symset.product", "symset.union")


def _is_hot(name: str) -> bool:
    return name.startswith("element.") or name in HOT


class Tracer:
    """Frame stack, per-function totals, recorded spans and layer counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.stack = []  # frames: [name, start, child_time, span_index]
        self.spans = []  # [name, start, end, parent_span_index]
        self.folded = defaultdict(lambda: [0, 0.0])  # (span_index, name) -> [count, duration]
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.covered = 0.0  # total duration of top-level frames
        self.stats = Counter()  # counters read off arguments and results
        self.maxima = Counter()
        self.closure_keys = set()
        self.open = Counter()  # how many frames of a name are currently open
        self.record = True

    # -- frames -----------------------------------------------------------------

    def _parent_span(self) -> int:
        for frame in reversed(self.stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    def enter(self, name: str, hot: bool):
        index = -1
        if not hot and self.record:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._parent_span()])
        frame = [name, 0.0, 0.0, index]
        self.stack.append(frame)
        self.open[name] += 1
        frame[1] = self.clock()
        return frame

    def exit(self, frame):
        end = self.clock()
        name, start, child, index = frame
        self.stack.pop()
        self.open[name] -= 1
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.covered += duration
        if index >= 0:
            span = self.spans[index]
            span[1], span[2] = start, end
        elif self.record:
            folded = self.folded[(self._parent_span(), name)]
            folded[0] += 1
            folded[1] += duration

    def wrap(self, name: str, fn):
        hot = _is_hot(name)
        observe = _OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- read-out ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters so far; per-round figures are differences of two snapshots."""
        return {
            "calls": Counter(self.calls),
            "self_time": dict(self.self_time),
            "covered": self.covered,
            "stats": Counter(self.stats),
            "maxima": Counter(self.maxima),
            "closure_keys": len(self.closure_keys),
        }

    def write(self, path):
        """Write recorded spans, then folded hot calls, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps(["span", name, start, end, parent]) + "\n")
            for (parent, name), (count, duration) in sorted(self.folded.items()):
                out.write(json.dumps(["folded", name, parent, count, duration]) + "\n")


# --- observers: counters read off arguments and results ---------------------------


def _on_closure(tracer, args, kwargs, result):
    gens = tuple(args[0]) if args else tuple(kwargs["gens"])
    bound = args[1] if len(args) > 1 else kwargs["bound"]
    tracer.closure_keys.add((gens, bound))
    tracer.stats["closure.members"] += len(result.members)


def _on_cell(tracer, args, kwargs, result):
    kind = type(result).__name__
    key = {"ContinuousAt": "cells.continuous", "DiscontinuousAt": "cells.discontinuous"}
    tracer.stats[key.get(kind, "cells.refuted")] += 1


def _on_subset(tracer, args, kwargs, result):
    if any(tracer.open[name] for name in CELL_FUNCTIONS):
        tracer.stats["subset.in_cells"] += 1
    if result.holds:
        tracer.maxima["subset.covering_bound_max"] = max(
            tracer.maxima["subset.covering_bound_max"], result.covering_bound
        )


def _on_canonicalize(tracer, args, kwargs, result):
    size = len(args[0].atoms)
    tracer.maxima["canonicalize.atoms_in_max"] = max(tracer.maxima["canonicalize.atoms_in_max"], size)


def _on_image(tracer, args, kwargs, result):
    size = len(result.atoms)
    tracer.stats["atoms_out"] += size
    tracer.maxima["atoms_out_max"] = max(tracer.maxima["atoms_out_max"], size)


def _on_multiply(tracer, args, kwargs, result):
    if tracer.open["families.closure"]:
        tracer.stats["closure.products"] += 1


_OBSERVERS = {
    "families.closure": _on_closure,
    "symset.subset": _on_subset,
    "symset.canonicalize": _on_canonicalize,
    "element.multiply": _on_multiply,
    **{name: _on_cell for name in CELL_FUNCTIONS},
    **{name: _on_image for name in IMAGE_FUNCTIONS},
}


# --- installing the wrappers ---------------------------------------------------------


def install(tracer: Tracer) -> dict:
    """Wrap the public functions of every layer; returns {original: wrapper}."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"bicyclic.{layer}")
        for attr in getattr(module, "__all__", ("main",)):
            fn = getattr(module, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    _rebind(wrappers)
    return wrappers


def uninstall(wrappers: dict):
    _rebind({wrapper: original for original, wrapper in wrappers.items()})


def _rebind(mapping: dict):
    for module_name, module in list(sys.modules.items()):
        if module_name != "bicyclic" and not module_name.startswith("bicyclic."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in mapping:
                setattr(module, attr, mapping[value])


# --- per-layer metrics ------------------------------------------------------------------


def _delta(after: dict, before: dict) -> dict:
    return {
        "calls": after["calls"] - before["calls"],
        "self_time": {
            name: value - before["self_time"].get(name, 0.0) for name, value in after["self_time"].items()
        },
        "covered": after["covered"] - before["covered"],
        "stats": after["stats"] - before["stats"],
        "maxima": after["maxima"],
        "closure_keys": after["closure_keys"] - before["closure_keys"],
    }


def round_figures(before: dict, after: dict, wall_s: float) -> dict:
    """Per-layer figures of one traced round, keyed by metric name."""
    d = _delta(after, before)
    calls, self_time, stats, maxima = d["calls"], d["self_time"], d["stats"], d["maxima"]

    def layer_calls(layer):
        return sum(n for name, n in calls.items() if name.startswith(layer + "."))

    def layer_self(layer):
        return sum(t for name, t in self_time.items() if name.startswith(layer + "."))

    closure_calls = calls["families.closure"]
    members = stats["closure.members"]
    cells = sum(calls[name] for name in CELL_FUNCTIONS)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_calls(layer)
        out[f"{layer}.self_s"] = layer_self(layer)
    out.update(
        {
            "element.multiply.calls": calls["element.multiply"],
            "families.contains.calls": calls["families.contains"],
            "families.closure.calls": closure_calls,
            "families.closure.members": members,
            "families.closure.distinct_ratio": d["closure_keys"] / closure_calls if closure_calls else 0.0,
            "families.closure.products_per_member": stats["closure.products"] / members if members else 0.0,
            "symset.atoms_out": stats["atoms_out"],
            "symset.atoms_out_max": maxima["atoms_out_max"],
            "symset.canonicalize.calls": calls["symset.canonicalize"],
            "symset.canonicalize.self_s": self_time.get("symset.canonicalize", 0.0),
            "symset.canonicalize.atoms_in_max": maxima["canonicalize.atoms_in_max"],
            "symset.subset.calls": calls["symset.subset"],
            "symset.subset.covering_bound_max": maxima["subset.covering_bound_max"],
            "topology.basic_nbhd.calls": calls["topology.basic_nbhd"],
            "continuity.cells": cells,
            "continuity.cells.continuous": stats["cells.continuous"],
            "continuity.cells.discontinuous": stats["cells.discontinuous"],
            "continuity.subset_per_cell": stats["subset.in_cells"] / cells if cells else 0.0,
            "trace.wall_s": wall_s,
            "bench.self_s": wall_s - d["covered"],
        }
    )
    return out
