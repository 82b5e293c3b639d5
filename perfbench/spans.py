"""In-memory timing spans, and the shims that record them around layer calls.

The traced run wraps the public entry points of each layer (one shim per
simulation, shard, engine call, store operation, codec call or
breakdown, never per chip) and keeps every span in memory until the run
ends. A span's self time is its duration minus the time its child spans
cover; summing self times per layer splits a run's wall time across the
layers without double counting.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """Spans of one process, kept in memory: name, start, end, parent, request.

    Each thread has its own stack of open spans, so a span's parent is the
    span open on the same thread when it started. The request id of a
    span is the index of its outermost ancestor: one artefact in a batch
    run, one request's work on one thread in the server.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the work counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn: Callable,
             on_call: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call.

        ``on_call(recorder, args, kwargs, result)`` runs after the span
        closes and records work counters taken from the call.
        """

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else None
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": parent,
                    "request": (self.spans[parent]["request"]
                                if parent is not None else None)}
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            if parent is None:
                span["request"] = index
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        return shim

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        child: List[float] = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = span["end"] - span["start"] - child[index]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def summary(self) -> Dict[str, object]:
        """JSON-able digest: self times, durations of store ops, counters."""
        return {
            "self_s": self.self_times(),
            "store_save_s": self.durations("engine.store_save"),
            "store_load_s": self.durations("engine.store_load"),
            "counters": dict(self.counters),
            "spans": len(self.spans),
        }


def _rebind(original: Callable, shim: Callable) -> None:
    """Point every loaded ``repro`` module that bound ``original`` at ``shim``."""
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, shim)


def _count_simulation(recorder: SpanRecorder, args, kwargs, result) -> None:
    warmup = kwargs.get("warmup", args[2] if len(args) > 2 else 0)
    stats = result.hierarchy_stats
    recorder.count("uarch.instructions", result.instructions + warmup)
    recorder.count("uarch.cycles", result.cycles)
    recorder.count("uarch.replays", result.replays)
    recorder.count("uarch.lbb_stalls", result.lbb_stalls)
    recorder.count("cache.slow_way_hits", result.slow_way_hits)
    recorder.count("cache.l1d_accesses", stats["l1d_accesses"])
    recorder.count("cache.l1d_misses", stats["l1d_misses"])
    recorder.count("cache.l2_accesses", stats["l2_accesses"])
    recorder.count("cache.l2_misses",
                   round(stats["l2_miss_rate"] * stats["l2_accesses"]))


def _count_circuit_chips(recorder, args, kwargs, result) -> None:
    recorder.count("circuit.chips", len(result[0]))


def _count_population_chips(recorder, args, kwargs, result) -> None:
    recorder.count("variation.chips", len(result.chip_ids))


def _count_shard_chips(recorder, args, kwargs, result) -> None:
    recorder.count("variation.chips", len(result[0]))
    recorder.count("yieldmodel.estimator_chips", len(result[0]))


#: (span name, module, attribute, counter callback) per module function.
_FUNCTIONS = (
    ("workloads.compile", "repro.workloads.compiled", "get_compiled_trace",
     None),
    ("variation.sample", "repro.yieldmodel.estimators.sampling",
     "sample_shard", _count_shard_chips),
    ("circuit.eval", "repro.circuit.columnar", "evaluate_population_pair",
     _count_circuit_chips),
) + tuple(
    ("engine.codec", "repro.engine.codec", f"{op}_{kind}", None)
    for op in ("encode", "decode")
    for kind in ("population", "simulation", "estimate")
)

#: (span name, module, class, method, counter callback) per method.
_METHODS = (
    ("uarch.run", "repro.uarch.simulator", "Simulator", "run",
     _count_simulation),
    ("variation.sample", "repro.variation.columnar",
     "ColumnarPopulationSampler", "sample_range", _count_population_chips),
    ("yieldmodel.assemble", "repro.yieldmodel.analysis", "YieldStudy",
     "assemble", None),
    ("yieldmodel.estimate", "repro.engine.core", "Engine", "estimate", None),
    ("schemes.breakdown", "repro.yieldmodel.analysis", "PopulationResult",
     "breakdown", None),
    ("schemes.breakdown", "repro.yieldmodel.analysis", "PopulationResult",
     "configuration_census", None),
    ("engine.dispatch", "repro.engine.core", "Engine", "population", None),
    ("engine.dispatch", "repro.engine.core", "Engine", "simulate_many", None),
    ("engine.store_save", "repro.engine.store", "ResultStore", "save", None),
    ("engine.store_load", "repro.engine.store", "ResultStore", "load", None),
)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point listed above with ``recorder``'s spans."""
    import importlib

    for name, module_name, attr, on_call in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        _rebind(original, recorder.wrap(name, original, on_call))
    for name, module_name, class_name, attr, on_call in _METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, attr, recorder.wrap(name, getattr(cls, attr), on_call))
