"""Per-layer tracing of the gridguards package, attached from outside.

``LayerTracer.install`` replaces every public function of each layer module
with a wrapper.  The wrapper goes into the defining module and into every
gridguards module that bound the same function with ``from .x import f``,
so calls made from any layer are seen.  ``uninstall`` puts the originals
back; ``assert_restored`` proves it.  No file of the package is changed.

Each wrapped call records a span ``[name, start, end, parent, op, via]``
in memory; ``parent`` is the index of the enclosing span or -1, ``op`` the
id of the benchmark operation running at the time and ``via`` the layer
whose binding was called, so a span or a count can say which layer made the
call.
Geometry predicates are counted only: they run millions of times per
operation, and a span each would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Dict, List, Tuple

PACKAGE = "gridguards"
LAYERS = ("geometry", "polygon", "visibility", "arrangement", "grid",
          "badregions", "solver", "lemmas", "persistence", "generate", "cli")
COUNT_ONLY = frozenset({"geometry"})


def _lemma_report(sizes: Counter, args, result) -> None:
    sizes["lemmas.skipped"] += result.skipped


# Sizes read from the arguments and results of a few calls.
OBSERVERS = {
    "solver.build_witnesses": lambda sizes, args, result: sizes.update({
        "solver.candidates": len(args[1]),
        "solver.witnesses": len(result)}),
    "solver.eh_solve": lambda sizes, args, result: sizes.update({
        "solver.rounds": result.rounds}),
    "arrangement.build_arrangement": lambda sizes, args, result: sizes.update({
        "arrangement.segments": len(args[0]),
        "arrangement.faces": len(result.face_cycles)}),
    "lemmas.check_distance_lemma": _lemma_report,
    "lemmas.check_limited_blocking": _lemma_report,
    "lemmas.check_cone_property": _lemma_report,
    "lemmas.check_grid_outside_bad": _lemma_report,
    "lemmas.check_local_visibility": _lemma_report,
}


def layer_modules() -> Dict[str, object]:
    """The imported layer modules, keyed by layer name."""
    return {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}


def public_functions(module) -> Dict[str, object]:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def function_bindings() -> Dict[str, object]:
    """Every function-valued name of every layer module, as module.attr."""
    return {f"{module.__name__}.{attr}": obj
            for module in layer_modules().values()
            for attr, obj in vars(module).items() if inspect.isfunction(obj)}


def assert_restored(before: Dict[str, object]) -> None:
    """Every binding is the function ``function_bindings`` saw before."""
    after = function_bindings()
    bad = sorted(qual for qual in before.keys() | after.keys()
                 if after.get(qual) is not before.get(qual))
    if bad:
        raise RuntimeError(f"bindings not restored: {bad[:5]}")


class LayerTracer:
    def __init__(self):
        self.spans: List[list] = []
        self.calls: Counter = Counter()     # (name, binding layer) -> calls
        self.sizes: Counter = Counter()
        self.op = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = layer_modules()
        names = {}
        for layer, module in modules.items():
            for fname, fn in public_functions(module).items():
                names[fn] = f"{layer}.{fname}"
        for via, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in names:
                    name = names[obj]
                    setattr(module, attr, self._wrap(name, obj, via))
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, name: str, fn, via: str):
        key = (name, via)
        calls = self.calls
        if name.split(".", 1)[0] in COUNT_ONLY:
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            wrapper = counted
        else:
            spans, stack, clock = self.spans, self._stack, time.perf_counter
            observe = OBSERVERS.get(name)
            sizes = self.sizes

            def traced(*args, **kwargs):
                calls[key] += 1
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                       via]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if observe is not None:
                    observe(sizes, args, result)
                return result
            wrapper = traced
        return functools.update_wrapper(wrapper, fn)

    # ---- aggregation ----------------------------------------------------

    def call_count(self, name: str, via: str = None) -> int:
        return sum(n for (fname, v), n in self.calls.items()
                   if fname == name and (via is None or v == via))

    def via_time(self, name: str, via: str) -> float:
        return sum((end - start for n, start, end, _, _, v in self.spans
                   if n == name and v == via), 0.0)

    def span_times(self) -> Tuple[Dict[str, float], Dict[str, float],
                                  Dict[str, float]]:
        """Inclusive, self and per-layer self seconds from the spans.

        Inclusive time counts only the outermost span of each name, so a
        function reached again below itself is not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        incl: Counter = Counter()
        own: Counter = Counter()
        layer_own: Counter = Counter()
        for i, (name, start, end, parent, *_) in enumerate(spans):
            dur = end - start
            own[name] += dur - child[i]
            layer_own[name.split(".", 1)[0]] += dur - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += dur
        return dict(incl), dict(own), dict(layer_own)

    def dump(self, origin: float) -> Dict:
        """Spans with times relative to ``origin`` and the call counts."""
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "op", "via"],
            "spans": [[n, round(s - origin, 9), round(e - origin, 9), p, o, v]
                      for n, s, e, p, o, v in self.spans],
            "calls": [[n, via, c] for (n, via), c in sorted(self.calls.items())],
            "sizes": dict(sorted(self.sizes.items())),
        }
