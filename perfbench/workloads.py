"""The benchmark's workloads, driven through repro's public API.

Each workload has a ``setup(seed)`` that imports the library afresh and
builds the inputs (datasets, DRAM controllers, weak-cell maps), and a
``run(inputs)`` that performs one timed repetition and returns an
:class:`Outcome`: the result values (digested to prove repetitions
agree), the accuracies, and one :class:`Op` per operation with the
output checks it failed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

#: The library modules a workload reaches, imported afresh by every setup.
MODULES = (
    "repro.core.config",
    "repro.core.dram_eval",
    "repro.datasets.loader",
    "repro.dram.controller",
    "repro.dram.specs",
    "repro.engine.evaluator",
    "repro.errors.weak_cells",
    "repro.pipeline.runner",
    "repro.pipeline.stages",
    "repro.pipeline.store",
)

#: Record fields that vary with execution, not with the result.
VOLATILE_RECORD_FIELDS = ("wall_time_s", "stage_timings", "cache_hits", "cache_misses")


@dataclass
class Op:
    """One operation: a pipeline run, a grid point or a DRAM evaluation."""

    label: str
    problems: List[str] = field(default_factory=list)
    #: The baseline model the operation trained (pipeline workloads).
    baseline: object = None


@dataclass
class Outcome:
    """What one repetition of a workload produced."""

    values: object
    ops: List[Op]
    baseline_accuracy: Optional[float] = None
    improved_accuracy: Optional[float] = None
    store_hits: int = 0
    store_misses: int = 0
    assigned_neurons: Optional[float] = None

    @property
    def digest(self) -> str:
        text = json.dumps(self.values, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fresh_import() -> Dict[str, object]:
    """Drop every loaded ``repro`` module and import :data:`MODULES` again."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    return {name.rsplit(".", 1)[-1]: importlib.import_module(name) for name in MODULES}


def seeded(config, seed: int):
    """``config`` with the workload seed as its weak-cell (device) seed.

    The training seeds (``seed``, ``dataset_seed``) keep the library
    defaults: on about two in five other training seeds the N400 and
    N100 networks collapse to chance or go silent, which would fail
    the silent-network guard and make accuracy bimodal across seeds.
    """
    return config.with_overrides(weak_cell_seed=seed)


# ----------------------------------------------------------------------
# Output checks.


def execution_problems(label: str, result) -> List[str]:
    """Checks every DRAM trace execution must pass."""
    stats = result.stats
    problems = []
    if stats.hits + stats.misses + stats.conflicts != stats.accesses:
        problems.append(f"{label}: hits + misses + conflicts != accesses")
    if not stats.total_time_ns > 0:
        problems.append(f"{label}: execution time {stats.total_time_ns} ns")
    if not result.energy.total_nj > 0:
        problems.append(f"{label}: energy {result.energy.total_nj} nJ")
    return problems


def outcome_problems(label: str, baseline_dram, outcomes) -> List[str]:
    """Checks of one ``evaluate_dram`` result."""
    problems = execution_problems(f"{label}@nominal", baseline_dram)
    for v, outcome in sorted(outcomes.items()):
        if not outcome.feasible:
            continue
        problems += execution_problems(f"{label}@{v}V", outcome.result)
        if not 0.0 < outcome.energy_saving < 1.0:
            problems.append(f"{label}@{v}V: energy saving {outcome.energy_saving}")
    return problems


def pipeline_problems(label: str, result) -> List[str]:
    """Checks of one full pipeline result."""
    accuracies = [
        result.baseline_model.accuracy,
        result.improved_model.accuracy,
        *result.training.accuracy_per_rate.values(),
        *(point.accuracy for point in result.tolerance.points),
    ]
    problems = [
        f"{label}: accuracy {a} outside [0, 1]" for a in accuracies if not 0.0 <= a <= 1.0
    ]
    return problems + outcome_problems(label, result.baseline_dram, result.outcomes)


def is_silent(model, dataset, n_steps: int, evaluator_module) -> bool:
    """Whether ``model`` emits no output spike on any test sample."""
    evaluator = evaluator_module.BatchedEvaluator.for_model(model)
    counts = evaluator.spike_counts(
        dataset.test_images, n_steps, np.random.default_rng(0), weights=model.weights
    )
    return not counts.any()


def record_values(record) -> dict:
    values = record.to_dict()
    for name in VOLATILE_RECORD_FIELDS:
        del values[name]
    return values


def assigned(model) -> int:
    return int((model.assignments != -1).sum())


# ----------------------------------------------------------------------
# Workloads.


class PipelineWorkload:
    """Shared setup of the two workloads that train SNNs."""

    name = ""

    def base_config(self, config_module):
        raise NotImplementedError

    def setup(self, seed: int) -> dict:
        started = perf_counter()
        mods = fresh_import()
        config = seeded(self.base_config(mods["config"]), seed)
        load_started = perf_counter()
        dataset = mods["loader"].load_dataset(
            config.dataset, config.n_train, config.n_test, config.dataset_seed
        )
        load_s = perf_counter() - load_started
        key = (config.dataset, config.n_train, config.n_test, config.dataset_seed)
        serve_datasets(mods["stages"], {key: dataset})
        return {
            "mods": mods,
            "config": config,
            "dataset": dataset,
            "setup_s": perf_counter() - started,
            "load_s": load_s,
        }

    def silent_ops(self, inputs: dict, outcome: Outcome) -> List[str]:
        """Labels of operations whose baseline model is silent."""
        verdicts: Dict[int, bool] = {}
        labels = []
        for op in outcome.ops:
            key = id(op.baseline)
            if key not in verdicts:
                verdicts[key] = is_silent(
                    op.baseline,
                    inputs["dataset"],
                    inputs["config"].n_steps,
                    inputs["mods"]["evaluator"],
                )
            if verdicts[key]:
                labels.append(op.label)
        return labels


def serve_datasets(stages_module, prepared: dict) -> None:
    """Make the pipeline read the datasets ``setup`` generated.

    ``StageContext`` looks ``load_dataset`` up in the stages module;
    requests for other datasets fall through to the real loader.
    """
    load = stages_module.load_dataset

    def load_prepared(name, n_train=500, n_test=200, seed=None):
        dataset = prepared.get((name, n_train, n_test, seed))
        return dataset if dataset is not None else load(name, n_train, n_test, seed)

    stages_module.load_dataset = load_prepared


class E2EDefault(PipelineWorkload):
    name = "e2e-default"

    def base_config(self, config_module):
        return config_module.SparkXDConfig()

    def run(self, inputs: dict) -> Outcome:
        mods = inputs["mods"]
        store = mods["store"].ArtifactStore()
        pipeline = mods["stages"].ExperimentPipeline(inputs["config"], store=store)
        result = pipeline.run()
        record = mods["runner"].RunRecord.from_result(result)
        op = Op(self.name, pipeline_problems(self.name, result), result.baseline_model)
        return Outcome(
            values=record_values(record),
            ops=[op],
            baseline_accuracy=record.baseline_accuracy,
            improved_accuracy=record.improved_accuracy,
            store_hits=store.stats.hits,
            store_misses=store.stats.misses,
            assigned_neurons=assigned(result.baseline_model),
        )


class GridSweep(PipelineWorkload):
    name = "grid-sweep"
    #: Axis order fixes grid order (last axis fastest).
    GRID = {
        "error_model": ["model0", "eden"],
        "tolerance_trials": [1, 3],
        "mapping_policy": ["sparkxd", "baseline"],
    }

    def base_config(self, config_module):
        return config_module.SparkXDConfig.paper(
            n_neurons=100, train_batch_size=32, stage_encoding="shared"
        )

    def run(self, inputs: dict) -> Outcome:
        mods = inputs["mods"]
        store = mods["store"].ArtifactStore()
        runner = mods["runner"].Runner(inputs["config"], store=store, max_workers=1)
        records = runner.run(self.GRID)
        ops = [
            Op(
                f"{self.name}[{i}]",
                pipeline_problems(f"{self.name}[{i}]", record.result),
                record.result.baseline_model,
            )
            for i, record in enumerate(records)
        ]
        n = len(records)
        return Outcome(
            values=[record_values(record) for record in records],
            ops=ops,
            baseline_accuracy=sum(r.baseline_accuracy for r in records) / n,
            improved_accuracy=sum(r.improved_accuracy for r in records) / n,
            store_hits=store.stats.hits,
            store_misses=store.stats.misses,
            assigned_neurons=sum(assigned(r.result.baseline_model) for r in records) / n,
        )


class DramSweep:
    """DRAM evaluation without any SNN: mapping, trace and DRAM layers."""

    name = "dram-sweep"
    #: Paper network sizes (excitatory neurons of a 784-input network).
    SIZES = (400,)
    POLICIES = ("sparkxd", "baseline")
    BER_THRESHOLD = 1e-3
    #: float32 weight storage, as in ``SparkXDConfig.representation``.
    BITS_PER_WEIGHT = 32
    #: Device -> reduced supply voltages (each at or below its nominal).
    DEVICES = {
        "LPDDR3_1600_4GB": (1.325, 1.250, 1.175, 1.100, 1.025),
        "DDR5_4800_8GB": (1.000, 0.975),
    }

    def setup(self, seed: int) -> dict:
        started = perf_counter()
        mods = fresh_import()
        devices = {}
        for spec_name, voltages in self.DEVICES.items():
            spec = getattr(mods["specs"], spec_name)
            config = seeded(
                mods["config"].SparkXDConfig(dram_spec=spec, voltages=voltages), seed
            )
            controller = mods["controller"].DramController(spec)
            devices[spec_name] = {
                "config": config,
                "controller": controller,
                "weak_cells": mods["weak_cells"].WeakCellMap(
                    controller.organization,
                    sigma=config.weak_cell_sigma,
                    seed=config.weak_cell_seed,
                ),
            }
        return {"mods": mods, "devices": devices, "setup_s": perf_counter() - started}

    def run(self, inputs: dict) -> Outcome:
        dram_eval = inputs["mods"]["dram_eval"]
        ops: List[Op] = []
        values = []
        for spec_name, device in inputs["devices"].items():
            config = device["config"]
            for n_neurons in self.SIZES:
                n_weights = 784 * n_neurons
                for policy in self.POLICIES:
                    label = f"{spec_name}/N{n_neurons}/{policy}"
                    baseline_dram, outcomes = dram_eval.evaluate_dram(
                        config.with_overrides(mapping_policy=policy),
                        n_weights,
                        self.BITS_PER_WEIGHT,
                        self.BER_THRESHOLD,
                    )
                    ops.append(Op(label, outcome_problems(label, baseline_dram, outcomes)))
                    values.append(
                        {
                            "op": label,
                            "nominal": execution_values(baseline_dram),
                            "outcomes": [
                                outcome_values(o) for _, o in sorted(outcomes.items())
                            ],
                        }
                    )
                for op, value in self._traffic(dram_eval, device, n_weights, spec_name, n_neurons):
                    ops.append(op)
                    values.append(value)
        return Outcome(values=values, ops=ops)

    def _traffic(self, dram_eval, device, n_weights: int, spec_name: str, n_neurons: int):
        """One read and one write-back trace, each executed at nominal and
        at the lowest voltage.  The traces follow the SparkXD mapping at
        the mildest reduced voltage, which every device can hold."""
        config = device["config"]
        controller = device["controller"]
        organization = controller.organization
        mapping = dram_eval.MAPPING_POLICIES.get("sparkxd")(
            organization,
            n_weights,
            self.BITS_PER_WEIGHT,
            device["weak_cells"].profile_at(max(config.voltages)),
            self.BER_THRESHOLD,
        )
        spec = dram_eval.InferenceTraceSpec(
            n_weights=n_weights, bits_per_weight=self.BITS_PER_WEIGHT
        )
        trace = dram_eval.inference_read_trace(spec, mapping.slot_of_chunk, organization)
        for write in (False, True):
            for v in (config.v_nominal, min(config.voltages)):
                label = f"{spec_name}/N{n_neurons}/{'write' if write else 'read'}@{v}V"
                result = controller.execute(trace, v, write=write)
                yield Op(label, execution_problems(label, result)), {
                    "op": label,
                    **execution_values(result),
                }


def execution_values(result) -> dict:
    stats = result.stats
    energy = result.energy
    return {
        "v_supply": result.v_supply,
        "accesses": stats.accesses,
        "hits": stats.hits,
        "misses": stats.misses,
        "conflicts": stats.conflicts,
        "commands": {kind.name: n for kind, n in stats.command_counts.items()},
        "total_time_ns": stats.total_time_ns,
        "bank_active_time_ns": stats.bank_active_time_ns,
        "energy_nj": [
            energy.array_nj,
            energy.peripheral_nj,
            energy.active_standby_nj,
            energy.idle_standby_nj,
        ],
    }


def outcome_values(outcome) -> dict:
    return {
        "v_supply": outcome.v_supply,
        "device_ber": outcome.device_ber,
        "feasible": outcome.feasible,
        "mapping_policy": outcome.mapping_policy,
        "energy_saving": outcome.energy_saving,
        "speedup": outcome.speedup,
        "result": execution_values(outcome.result) if outcome.result else None,
    }


WORKLOADS = {w.name: w for w in (E2EDefault(), DramSweep(), GridSweep())}
