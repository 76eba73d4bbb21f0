#!/usr/bin/env python
"""Accuracy-versus-energy frontier: an extension beyond the paper.

The paper fixes the accuracy bound at 1% and reports the resulting
~40% energy saving.  This example sweeps the bound: it trains one
model, measures its error-tolerance curve once, then re-runs the
BER-threshold decision and the operating-voltage selection for each
bound, printing the full trade-off frontier a system designer would
consult.

Usage::

    python examples/accuracy_energy_frontier.py [--neurons 60]
"""

import argparse

import numpy as np

from repro.analysis.pareto import tolerance_frontier
from repro.analysis.reporting import format_table
from repro.core.config import PAPER_BER_RATES as RATES
from repro.core.fault_aware_training import improve_error_tolerance, train_baseline
from repro.core.tolerance_analysis import analyze_error_tolerance
from repro.datasets import load_dataset
from repro.dram.specs import LPDDR3_1600_4GB
from repro.errors.injection import ErrorInjector
from repro.snn.quantization import Float32Representation

BOUNDS = (0.005, 0.01, 0.02, 0.05, 0.10)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--neurons", type=int, default=60)
    parser.add_argument("--train", type=int, default=200)
    parser.add_argument("--test", type=int, default=100)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    dataset = load_dataset("mnist", args.train, args.test)
    injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=1)

    print(f"Training baseline + fault-aware model ({args.neurons} neurons)...")
    baseline = train_baseline(dataset, args.neurons, epochs=2, rng=rng)
    improved = improve_error_tolerance(
        baseline, dataset, injector, rates=RATES, accuracy_bound=0.05, rng=rng
    )
    report = analyze_error_tolerance(
        improved.model, dataset, injector, rates=RATES,
        baseline_accuracy=baseline.accuracy, accuracy_bound=0.01,
        trials=2, rng=rng,
    )
    print(f"  baseline accuracy: {baseline.accuracy:.1%}")
    print("  tolerance curve: "
          + ", ".join(f"{b:.0e}->{a:.1%}" for b, a in report.curve))

    frontier = tolerance_frontier(
        report, LPDDR3_1600_4GB,
        n_weights=improved.model.weights.size, bits_per_weight=32,
        accuracy_bounds=BOUNDS,
    )
    rows = []
    for point in frontier:
        rows.append([
            f"{point.accuracy_bound:.1%}",
            f"{point.ber_threshold}" if point.ber_threshold else "none",
            f"{point.v_selected:.3f}",
            f"{point.energy_saving:.1%}",
        ])
    print()
    print(format_table(
        ["accuracy bound", "BER_th", "voltage [V]", "access energy saving"],
        rows,
        title="Accuracy-energy frontier (paper operates at the 1% row)",
    ))


if __name__ == "__main__":
    main()
