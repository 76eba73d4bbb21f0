"""Reusable experiment sweeps behind the paper's figures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.datasets.base import Dataset
from repro.dram.controller import DramController
from repro.dram.specs import DramSpec
from repro.errors.injection import ErrorInjector
from repro.rng import ensure_rng
from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.training import TrainedModel, evaluate_accuracy
from repro.trace.generator import InferenceTraceSpec, inference_read_trace
from repro.core.mapping_policy import baseline_mapping


@dataclass(frozen=True)
class AccuracySweepPoint:
    """Accuracy of one model at one injected BER (a Fig. 11 point)."""

    ber: float
    accuracy: float


def accuracy_vs_ber_sweep(
    model: TrainedModel,
    dataset: Dataset,
    injector: ErrorInjector,
    rates: Sequence[float],
    n_steps: int,
    rng: Optional[np.random.Generator] = None,
    trials: int = 1,
    n_classes: int = 10,
) -> tuple:
    """Evaluate ``model`` under fresh error injection at each BER.

    This is the measurement behind every curve of Fig. 11: run it on the
    baseline model for the "baseline SNN with approximate DRAM" series
    and on the fault-aware-trained model for the SparkXD series.
    """
    if trials <= 0:
        raise ValueError("trials must be > 0")
    rng = ensure_rng(rng)
    params = NetworkParameters(n_input=model.n_input, n_neurons=model.n_neurons)
    network = DiehlCookNetwork(params, rng=rng)
    model.install_into(network)
    points = []
    for rate in sorted(float(r) for r in rates):
        accuracies = []
        for _ in range(trials):
            corrupted, _ = injector.inject_uniform(model.weights, rate, rng=rng)
            network.set_weights(corrupted)
            accuracies.append(
                evaluate_accuracy(
                    network,
                    dataset.test_images,
                    dataset.test_labels,
                    model.assignments,
                    n_steps,
                    rng,
                    n_classes=n_classes,
                )
            )
        points.append(AccuracySweepPoint(ber=rate, accuracy=float(np.mean(accuracies))))
    network.set_weights(model.weights)
    return tuple(points)


def energy_vs_voltage_sweep(
    spec: DramSpec,
    n_weights: int,
    bits_per_weight: int,
    voltages: Sequence[float],
    refetch_passes: int = 1,
) -> Dict[float, float]:
    """Total DRAM energy (mJ) of one inference trace at each voltage.

    Uses the baseline sequential mapping so the sweep isolates the pure
    voltage effect (the SparkXD mapping's contribution is measured by
    :meth:`repro.core.framework.SparkXD.evaluate_dram`).
    """
    controller = DramController(spec)
    organization = controller.organization
    mapping = baseline_mapping(organization, n_weights, bits_per_weight)
    trace_spec = InferenceTraceSpec(
        n_weights=n_weights,
        bits_per_weight=bits_per_weight,
        refetch_passes=refetch_passes,
    )
    trace = inference_read_trace(trace_spec, mapping.slot_of_chunk, organization)
    results = controller.execute_at_voltages(trace, list(voltages))
    return {r.v_supply: r.energy.total_mj for r in results}


def per_voltage_axis(voltages) -> list:
    """Turn a voltage list into a sweep axis of single-voltage configs.

    ``SparkXDConfig.voltages`` is a tuple evaluated inside one run;
    sweeping instead makes each voltage its own grid point (its own
    :class:`RunRecord`), e.g. ``{"voltages": per_voltage_axis(PAPER_VOLTAGES)}``.
    """
    return [(float(v),) for v in voltages]
