"""Outside-in tracing of ``loghodgelab`` layers.

``Tracer.install`` wraps every public function of each layer module in every
module namespace that binds it, and the constructors in ``CONSTRUCTORS``:
classes whose construction does real work (the d o d check, the chain map
check, filtration validation, powers of N, fan validation).  A call opens a
span only when it crosses from one layer into another; calls inside a layer
run the original function after counting.
Spans are kept in memory as tuples and written out once, by ``dump``.

A span is ``(request, parent, layer, start, end)``; ``parent`` is the index
of the enclosing span or -1, and ``layer`` an index into ``LAYERS``.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

# Modules traced as layers.  ``weights`` is left out: no workload reaches it.
LAYERS = ("linalg", "complexes", "conecx", "toric", "localmodel", "monodromy",
          "trop", "jsonio", "cli")
ELIMINATIONS = {"rank", "kernel_basis", "solve_rational", "pivot_columns"}
COUNTERS = ("linalg.eliminations", "linalg.elim_entries", "linalg.elim_nnz",
            "linalg.max_elim_dim", "complexes.built", "complexes.build_s",
            "complexes.ss_runs", "complexes.ss_pages", "localmodel.blocks_built",
            "toric.reduced_complexes")
CONSTRUCTORS = (("complexes", "CochainComplex"), ("complexes", "ChainMap"),
                ("complexes", "FilteredComplex"), ("conecx", "ConeComplex"),
                ("toric", "Fan"), ("monodromy", "NilpotentOperator"))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.request = 0
        self._span = -1       # index of the open span
        self._layer = -1      # its layer; -1 is the benchmark itself

    def _enter(self, layer: int, fn, args, kwargs):
        parent, outer = self._span, self._layer
        index = len(self.spans)
        self.spans.append(None)
        self._span, self._layer = index, layer
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index] = (self.request, parent, layer, start, perf_counter())
            self._span, self._layer = parent, outer

    def _wrap(self, layer: int, name: str, fn):
        counts = self.counts
        eliminates = name in ELIMINATIONS
        pages = name == "spectral_sequence"

        def traced(*args, **kwargs):
            if eliminates:
                m = args[0]
                counts["linalg.eliminations"] += 1
                counts["linalg.elim_entries"] += m.rows * m.cols
                counts["linalg.elim_nnz"] += len(m.entries)
                counts["linalg.max_elim_dim"] = max(counts["linalg.max_elim_dim"],
                                                    m.rows, m.cols)
            if layer == self._layer:
                out = fn(*args, **kwargs)
            else:
                out = self._enter(layer, fn, args, kwargs)
            if pages:
                counts["complexes.ss_runs"] += 1
                counts["complexes.ss_pages"] += len(out)
            return out

        return traced

    def _wrap_constructor(self, layer: int, cls):
        init = cls.__init__
        # CochainComplex constructions are counted, and charged to the layer
        # that asked for them
        counted = cls.__name__ == "CochainComplex"
        callers = {LAYERS.index("localmodel"): "localmodel.blocks_built",
                   LAYERS.index("toric"): "toric.reduced_complexes"}
        counts = self.counts

        def traced_init(obj, *args, **kwargs):
            caller = self._layer
            start = perf_counter()
            if caller == layer:
                init(obj, *args, **kwargs)
            else:
                self._enter(layer, init, (obj,) + args, kwargs)
            if counted:
                counts["complexes.built"] += 1
                counts["complexes.build_s"] += perf_counter() - start
                if caller in callers:
                    counts[callers[caller]] += 1

        cls.__init__ = traced_init

    def install(self) -> None:
        modules = {name: importlib.import_module(f"loghodgelab.{name}") for name in LAYERS}
        package = list(modules.values())
        for layer, (name, module) in enumerate(modules.items()):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self._wrap(layer, attr, fn)
                for other in package:
                    for bound, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, bound, traced)
        for name, cls in CONSTRUCTORS:
            self._wrap_constructor(LAYERS.index(name), getattr(modules[name], cls))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layers": LAYERS, "counts": self.counts, "spans": self.spans},
                      handle, separators=(",", ":"))


def layer_totals(trace: dict) -> dict[str, float]:
    """Per layer: ``self_s`` (span time minus its child spans) and ``calls``
    (spans opened), summed over all spans."""
    spans = trace["spans"]
    self_time = [end - start for _, _, _, start, end in spans]
    for _, parent, _, start, end in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    out = {}
    for name in trace["layers"]:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for (_, _, layer, _, _), t in zip(spans, self_time):
        name = trace["layers"][layer]
        out[f"{name}.self_s"] += t
        out[f"{name}.calls"] += 1
    return out
