#!/usr/bin/env python
"""Monitoring unsupervised training health.

Unsupervised STDP training fails in recognisable ways: silence,
lockstep firing (no symmetry breaking), or a few neurons dominating
everything.  This example trains one healthy and one deliberately
broken network with :class:`repro.engine.BatchedTrainer`, scores each
on the test split with :class:`repro.engine.BatchedEvaluator`, and
shows how the diagnostics expose the difference before a full training
run is wasted.

Usage::

    python examples/training_health_monitor.py
"""

import numpy as np

from repro.datasets import load_dataset
from repro.engine import BatchedEvaluator, BatchedTrainer
from repro.snn.diagnostics import check_training_health
from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.training import assign_labels

N_STEPS = 80


def train_and_score(network, dataset, rng):
    """Train with STDP, label the neurons on the training split and
    return the accuracy on the test split."""
    BatchedTrainer(network).train(dataset.train_images, n_steps=N_STEPS, rng=rng)
    evaluator = BatchedEvaluator.for_network(network)
    counts = evaluator.spike_counts(
        dataset.train_images, N_STEPS, rng, weights=network.weights
    )
    assignments = assign_labels(counts, dataset.train_labels)
    return evaluator.accuracies(
        dataset.test_images, dataset.test_labels, assignments, N_STEPS, rng,
        weights=network.weights,
    )


def report(label, health):
    print(f"\n{label}")
    print(f"  mean spikes/sample:        {health.mean_spikes_per_sample:.1f}")
    print(f"  active neuron fraction:    {health.active_neuron_fraction:.0%}")
    print(f"  spike concentration (gini) {health.spike_concentration:.2f}")
    print(f"  theta dispersion (cv):     {health.theta_dispersion:.2f}")
    print(f"  receptive-field similarity {health.receptive_field_similarity:.2f}")
    warnings = health.warnings()
    if warnings:
        for warning in warnings:
            print(f"  WARNING: {warning}")
    else:
        print("  healthy.")


def main() -> None:
    dataset = load_dataset("mnist", 150, 60)
    probe = dataset.train_images[:15]
    rng = np.random.default_rng(0)

    print("Training a healthy network (symmetry-broken thresholds)...")
    healthy = DiehlCookNetwork(NetworkParameters(n_neurons=60), rng=rng)
    accuracy = train_and_score(healthy, dataset, rng)
    report(f"healthy network (test accuracy {accuracy:.1%})",
           check_training_health(healthy, probe, rng=rng))

    print("\nTraining a broken network (theta_init_max=0: no symmetry breaking,")
    print("the failure mode documented in NetworkParameters)...")
    rng2 = np.random.default_rng(0)
    broken = DiehlCookNetwork(
        NetworkParameters(n_neurons=150, theta_init_max=0.0), rng=rng2
    )
    accuracy = train_and_score(broken, dataset, rng2)
    report(f"broken network (test accuracy {accuracy:.1%})",
           check_training_health(broken, probe, rng=rng2))


if __name__ == "__main__":
    main()
