#!/usr/bin/env python
"""Resilient SNN inference on MNIST: the paper's Fig. 11 experiment.

Trains a baseline SNN, degrades it with approximate-DRAM bit errors,
fault-aware-trains an improved model (Algorithm 1), and prints the
three accuracy series of Fig. 11:

- baseline SNN + accurate DRAM (the flat reference),
- baseline SNN + approximate DRAM (degrades at high BER),
- improved SNN + approximate DRAM (stays within the target band).

Usage::

    python examples/resilient_inference_mnist.py [--dataset fashion]
        [--neurons 80] [--train 250] [--test 120]
"""

import argparse

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.sweeps import accuracy_vs_ber_sweep
from repro.core.config import PAPER_BER_RATES as RATES
from repro.core.fault_aware_training import improve_error_tolerance, train_baseline
from repro.datasets import load_dataset
from repro.errors.injection import ErrorInjector
from repro.snn.quantization import Float32Representation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="mnist", choices=["mnist", "fashion"])
    parser.add_argument("--neurons", type=int, default=80)
    parser.add_argument("--train", type=int, default=250)
    parser.add_argument("--test", type=int, default=120)
    parser.add_argument("--steps", type=int, default=80)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    dataset = load_dataset(args.dataset, args.train, args.test)
    injector = ErrorInjector(Float32Representation(clip_range=(0.0, 1.0)), seed=1)

    print(f"Training baseline SNN: {args.neurons} neurons on {dataset.name}...")
    baseline = train_baseline(
        dataset, args.neurons, epochs=2, n_steps=args.steps, rng=rng
    )
    print(f"  baseline accuracy (accurate DRAM): {baseline.accuracy:.1%}")

    print("Fault-aware training (Algorithm 1)...")
    improved = improve_error_tolerance(
        baseline, dataset, injector, rates=RATES,
        epochs_per_rate=1, n_steps=args.steps, accuracy_bound=0.05, rng=rng,
    )
    print(f"  selected stage: trained through BER {improved.selected_rate:.0e}")

    print("Sweeping accuracy vs BER (Fig. 11)...")
    base_curve = accuracy_vs_ber_sweep(
        baseline, dataset, injector, RATES, args.steps, rng, trials=2
    )
    improved_curve = accuracy_vs_ber_sweep(
        improved.model, dataset, injector, RATES, args.steps, rng, trials=2
    )

    rows = [
        [f"{b.ber:.0e}", f"{baseline.accuracy:.1%}", f"{b.accuracy:.1%}", f"{i.accuracy:.1%}"]
        for b, i in zip(base_curve, improved_curve)
    ]
    print()
    print(format_table(
        ["BER", "baseline+accurate", "baseline+approx", "SparkXD+approx"],
        rows,
        title=f"Fig. 11 series - {dataset.name}, {args.neurons} neurons",
    ))


if __name__ == "__main__":
    main()
