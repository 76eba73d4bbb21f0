"""Per-layer host time, timed from outside the library.

A :class:`Ledger` records nested spans in memory.  :func:`instrument`
wraps the public functions each layer of :mod:`repro` exposes, patching
every name at the place its caller looks it up (a module attribute, a
class attribute, or a registry entry), and returns an undo function
that puts the originals back after the traced repetition.  Nothing
inside ``repro`` is edited.

The rollup gives total and self time per span path.  The root path
``("run",)`` stands for one workload run; its self time — run time not
covered by any layer span — is the ``unattributed_s`` row.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT = ("run",)
SpanPath = Tuple[str, ...]


class Ledger:
    """Nested span totals and counters of one traced run."""

    def __init__(self):
        self._stack: List[SpanPath] = [ROOT]
        self.total_s: Dict[SpanPath, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()

    def timed(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span ``name``; ``observe(ledger, result)``
        records counts from its return value."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = self._stack[-1] + (name,)
            self._stack.append(path)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.total_s[path] += perf_counter() - started
                self.calls[path] += 1
                self._stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def rollup(self, run_s: float) -> List[dict]:
        """Total and self time per span path, root first.

        The root's self time is the run time no layer span covers.
        """
        totals = dict(self.total_s)
        totals[ROOT] = run_s
        children: Dict[SpanPath, float] = defaultdict(float)
        for path, seconds in totals.items():
            if len(path) > 1:
                children[path[:-1]] += seconds
        return [
            {
                "path": "/".join(path),
                "calls": self.calls[path] if path != ROOT else 1,
                "total_s": seconds,
                "self_s": seconds - children[path],
            }
            for path, seconds in sorted(totals.items())
        ]

    def outermost(self, name: str) -> Tuple[float, int]:
        """Seconds and calls of spans ``name`` not nested in themselves."""
        seconds = calls = 0
        for path, total in self.total_s.items():
            if path[-1] == name and name not in path[:-1]:
                seconds += total
                calls += self.calls[path]
        return seconds, calls


# ----------------------------------------------------------------------
# Observers: counts read off a layer's return value.


def _observe_injection(ledger: Ledger, result) -> None:
    _corrupted, report = result
    ledger.counters["errors.flipped_bits"] += report.flipped_bits


def _observe_spike_counts(ledger: Ledger, counts) -> None:
    rows = np.asarray(counts).reshape(-1, counts.shape[-1])
    ledger.counters["engine.evaluations"] += rows.shape[0]
    ledger.counters["snn.silent_samples"] += int((rows.sum(axis=1) == 0).sum())


def _observe_trace(ledger: Ledger, trace) -> None:
    ledger.counters["trace.accesses"] += len(trace)


def _observe_execution(ledger: Ledger, result) -> None:
    stats = result.stats
    ledger.counters["dram.accesses"] += stats.accesses
    ledger.counters["dram.hits"] += stats.hits
    ledger.counters["dram.conflicts"] += stats.conflicts


#: (module, attribute, span name, observer): every wrapped lookup site.
#: ``Class.method`` attributes are patched on the class the caller's
#: instance belongs to; plain names on the module the caller reads.
LAYERS = (
    ("repro.errors.injection", "ErrorInjector.inject_uniform", "errors.inject", _observe_injection),
    ("repro.errors.injection", "ErrorInjector.inject_stack", "errors.inject_stack", None),
    ("repro.engine.trainer", "BatchedTrainer.present_sample", "engine.present_sample", None),
    ("repro.engine.trainer", "BatchedTrainer.present_minibatch", "engine.present_minibatch", None),
    ("repro.engine.trainer", "encode_spike_trains", "engine.encode", None),
    ("repro.engine.evaluator", "encode_spike_trains", "engine.encode", None),
    ("repro.engine.trainer", "poisson_rate_code", "snn.poisson", None),
    ("repro.engine.trainer", "apply_post_sample_update", "snn.post_update", None),
    ("repro.engine.evaluator", "BatchedEvaluator.spike_counts", "engine.spike_counts", _observe_spike_counts),
    ("repro.engine.evaluator", "BatchedEvaluator.accuracies", "engine.accuracies", None),
    ("repro.snn.network", "DiehlCookNetwork.run_sample", "snn.run_sample", None),
    ("repro.snn.network", "DiehlCookNetwork.run_batch_stdp", "snn.run_batch_stdp", None),
    ("repro.core.dram_eval", "baseline_mapping", "core.mapping", None),
    ("repro.core.dram_eval", "inference_read_trace", "trace.build", _observe_trace),
    ("repro.dram.controller", "DramController.execute", "dram.execute", _observe_execution),
    ("repro.dram.row_buffer", "RowBufferSimulator.run", "dram.rowbuffer", None),
    ("repro.dram.energy", "DramEnergyModel.trace_energy", "dram.energy", None),
)


def instrument(ledger: Ledger) -> Callable[[], None]:
    """Wrap every layer in :data:`LAYERS`, the pipeline stages and the
    mapping policies; return a function that restores the originals."""
    undo: List[Callable[[], None]] = []

    def patch(owner, attr: str, name: str, observe=None) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, ledger.timed(name, original, observe))
        undo.append(lambda: setattr(owner, attr, original))

    for module_name, attribute, name, observe in LAYERS:
        owner = importlib.import_module(module_name)
        *classes, attr = attribute.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        patch(owner, attr, name, observe)

    # Each stage class defines its own ``run``; the pipeline calls it
    # on the stage instance.
    stages = importlib.import_module("repro.pipeline.stages")
    for cls in stages.default_stage_classes():
        patch(cls, "run", f"pipeline.stage.{cls.name}")

    # ``evaluate_dram`` resolves its policy through the registry.
    policies = importlib.import_module("repro.core.mapping_policy").MAPPING_POLICIES
    for display, policy in policies.items():
        policies.register(display, ledger.timed("core.mapping", policy), overwrite=True)
        undo.append(
            functools.partial(policies.register, display, policy, overwrite=True)
        )

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore


#: Per-layer metrics computed from span totals: metric prefix -> span.
TIMED_SPANS = (
    "pipeline.stage.train-baseline",
    "pipeline.stage.fault-aware-train",
    "pipeline.stage.tolerance-analysis",
    "pipeline.stage.dram-eval",
    "errors.inject",
    "errors.inject_stack",
    "engine.present_sample",
    "engine.present_minibatch",
    "engine.encode",
    "engine.spike_counts",
    "engine.accuracies",
    "snn.run_sample",
    "snn.poisson",
    "snn.post_update",
    "snn.run_batch_stdp",
    "core.mapping",
    "trace.build",
    "dram.execute",
    "dram.rowbuffer",
    "dram.energy",
)
#: Spans whose call counts are reported as ``<span>_calls``.
COUNTED_SPANS = (
    "errors.inject",
    "engine.present_sample",
    "engine.present_minibatch",
    "dram.execute",
)


def layer_metrics(ledger: Ledger, run_s: float) -> Dict[str, float]:
    """The span- and counter-derived per-layer metrics of one run."""
    metrics: Dict[str, float] = {}
    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = ledger.outermost(name)[0]
    for name in COUNTED_SPANS:
        metrics[f"{name}_calls"] = ledger.outermost(name)[1]
    counters = ledger.counters
    for name in (
        "errors.flipped_bits",
        "engine.evaluations",
        "trace.accesses",
        "dram.accesses",
        "dram.conflicts",
    ):
        metrics[name] = counters[name]
    evaluations = counters["engine.evaluations"]
    metrics["snn.silent_sample_frac"] = (
        counters["snn.silent_samples"] / evaluations if evaluations else 0.0
    )
    accesses = counters["dram.accesses"]
    metrics["dram.row_hit_rate"] = counters["dram.hits"] / accesses if accesses else 0.0
    metrics["dram.host_ns_per_access"] = (
        metrics["dram.execute_s"] * 1e9 / accesses if accesses else 0.0
    )
    root = ledger.rollup(run_s)[0]
    metrics["unattributed_s"] = root["self_s"]
    return metrics
