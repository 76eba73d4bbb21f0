"""Reusable experiment sweeps behind the paper's figures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.datasets.base import Dataset
from repro.engine import BatchedEvaluator
from repro.errors.injection import ErrorInjector
from repro.rng import ensure_rng
from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.training import TrainedModel


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
) -> tuple:
    """Evaluate ``model`` under fresh error injection at each BER.

    This is the measurement behind every curve of Fig. 11: run it on the
    baseline model for the "baseline SNN with approximate DRAM" series
    and on the fault-aware-trained model for the SparkXD series.
    """
    if trials <= 0:
        raise ValueError("trials must be > 0")
    rng = ensure_rng(rng)
    # The network's initial weight and threshold draws stay in the random
    # stream, so the Fig. 11, ablation and sensitivity benchmarks keep
    # their values; the model replaces both, and only the evaluator runs.
    network = DiehlCookNetwork(
        NetworkParameters(n_input=model.n_input, n_neurons=model.n_neurons), rng=rng
    )
    model.install_into(network)
    evaluator = BatchedEvaluator.for_network(network)
    points = []
    for rate in sorted(float(r) for r in rates):
        accuracies = []
        for _ in range(trials):
            corrupted, _ = injector.inject_uniform(model.weights, rate, rng=rng)
            accuracies.append(
                evaluator.accuracies(
                    dataset.test_images,
                    dataset.test_labels,
                    model.assignments,
                    n_steps,
                    rng,
                    weights=corrupted,
                )
            )
        points.append(AccuracySweepPoint(ber=rate, accuracy=float(np.mean(accuracies))))
    return tuple(points)


def per_voltage_axis(voltages) -> list:
    """Turn a voltage list into a sweep axis of single-voltage configs.

    ``SparkXDConfig.voltages`` is a tuple evaluated inside one run;
    sweeping instead makes each voltage its own grid point (its own
    :class:`RunRecord`), e.g. ``{"voltages": per_voltage_axis(PAPER_VOLTAGES)}``.
    """
    return [(float(v),) for v in voltages]
