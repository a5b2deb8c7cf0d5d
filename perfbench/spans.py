"""Per-layer spans from outside the package.

The traced run wraps the public functions of each layer module at every
binding site: the defining module and every alias that another temperkit
module (or the package namespace) holds. A span opens only where a call
crosses into another layer; calls within one layer run inside the caller's
span. A layer's self time is its spans' time minus the child spans they
cover.

Layers are reached through sys.modules, because the function
temperkit.check shadows the module temperkit.check in the package
namespace. A layer or function that a later version removes simply
records nothing.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("generators", "model", "verify", "cones", "check", "serialize")


def _distinct_rays(cells) -> int:
    return len({ray for cell in cells for ray in cell.rays})


# exact counts read off a call's arguments and result, keyed by function
COUNTERS = {
    "verify.enumerate_chambers": lambda args, res: {
        "verify.hyperplanes": len(args[0]),
        "verify.chambers": len(res[0]),
        "verify.rays": len(res[1])},
    "cones.enumerate_cells": lambda args, res: {
        "cones.cells": len(res.cells),
        "cones.rays": _distinct_rays(res.cells)},
}


class Aggregate:
    """Calls and inclusive seconds per function, self seconds per layer,
    and the exact counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self: Counter = Counter()
        self.layer_self: Counter = Counter()
        self.counts: Counter = Counter()


class Tracer:
    """Spans aggregated per phase; use() names the phase that calls from
    now on belong to."""

    def __init__(self):
        self._stack: list[list] = []       # open spans: [layer, child seconds]
        self._patched: list[tuple] = []
        self.phases: dict[str, Aggregate] = {}
        self.use("")

    def use(self, phase: str) -> None:
        self.agg = self.phases.setdefault(phase, Aggregate())

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        def record(agg, args, result):
            t0 = clock()
            agg.counts.update(counter(args, result))
            if stack:   # bookkeeping is no part of the enclosing span
                stack[-1][1] += clock() - t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            agg = self.agg
            agg.calls[name] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record(agg, args, result)
                return result
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                agg.inclusive[name] += span
                agg.self[name] += span - frame[1]
                agg.layer_self[layer] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if counter is not None:
                record(agg, args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"temperkit.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "temperkit" and not modname.startswith("temperkit."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def layer_metrics(decide: Aggregate, recheck: Aggregate, traced_decide_s: float,
                  untraced_decide_s: float) -> dict:
    """Per-layer metrics from the decide-phase and recheck-phase aggregates."""
    inc, calls, layer = decide.inclusive, decide.calls, decide.layer_self
    counts = decide.counts
    extract_s = decide.self["generators.extract_weights"]
    return {
        "generators.build_s": (layer["generators"] - extract_s, "s"),
        "generators.extract_s": (extract_s, "s"),
        "generators.extract_calls": (calls["generators.extract_weights"], "count"),
        "model.deficit_s": (inc["model.deficit"], "s"),
        "model.deficit_calls": (calls["model.deficit"], "count"),
        "model.evaluate_s": (inc["model.evaluate_pl"], "s"),
        "model.evaluate_calls": (calls["model.evaluate_pl"], "count"),
        "verify.decide_s": (inc["verify.is_nonnegative"], "s"),
        "verify.self_s": (layer["verify"], "s"),
        "verify.hyperplanes": (counts["verify.hyperplanes"], "count"),
        "verify.chambers": (counts["verify.chambers"], "count"),
        "verify.rays": (counts["verify.rays"], "count"),
        "cones.enumerate_s": (inc["cones.enumerate_cells"], "s"),
        "cones.cells": (counts["cones.cells"], "count"),
        "cones.rays": (counts["cones.rays"], "count"),
        "check.self_s": (layer["check"], "s"),
        "serialize.emit_s": (layer["serialize"], "s"),
        "serialize.recheck.self_s": (recheck.layer_self["serialize"], "s"),
        "serialize.recheck.deficit_s": (recheck.inclusive["model.deficit"], "s"),
        "serialize.recheck.evaluate_s": (recheck.inclusive["model.evaluate_pl"], "s"),
        "other_s": (traced_decide_s - sum(layer[name] for name in LAYERS), "s"),
        "trace.decide_s": (traced_decide_s, "s"),
        "trace.overhead": (traced_decide_s / untraced_decide_s - 1, "ratio"),
    }


# counts that must repeat exactly between two runs of one draw
EXACT = ("generators.extract_calls", "model.deficit_calls", "model.evaluate_calls",
         "verify.hyperplanes", "verify.chambers", "verify.rays",
         "cones.cells", "cones.rays")
