"""Shared fixtures for the benchmark harness.

Every file in this directory regenerates one table or figure of the
paper; each file's docstring names its figure or table.  Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the regenerated rows/series next to the timing table.

Accuracy experiments run at CPU scale: the paper's N400-N3600 networks
trained on full MNIST need a GPU; here the network sizes and sample
counts are scaled down (the mapping from paper size to benchmark size is
printed with each result).  Energy experiments run at the paper's true
sizes - they only need the DRAM model, not SNN training.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PAPER_BER_RATES
from repro.core.fault_aware_training import improve_error_tolerance, train_baseline
from repro.datasets import load_dataset
from repro.errors.injection import ErrorInjector
from repro.snn.quantization import Float32Representation

#: paper network size -> benchmark (CPU-scale) neuron count
SCALED_SIZES = {400: 50, 900: 75, 1600: 100, 2500: 125, 3600: 150}

#: the BER decades of Fig. 11's x-axis
FIG11_RATES = PAPER_BER_RATES

# 350 training samples keeps the larger scaled networks (N100+) stably
# converged on both workloads; below ~3 samples per neuron the
# unsupervised competition becomes erratic.
N_TRAIN, N_TEST, N_STEPS = 350, 120, 80

_model_cache: dict = {}


@pytest.fixture(scope="session")
def datasets():
    return {
        "mnist": load_dataset("mnist", N_TRAIN, N_TEST, seed=7),
        "fashion": load_dataset("fashion", N_TRAIN, N_TEST, seed=13),
    }


def make_injector(seed: int = 1) -> ErrorInjector:
    return ErrorInjector(Float32Representation(clip_range=(0.0, 1.0)), seed=seed)


def get_baseline(datasets, dataset_name: str, n_neurons: int):
    """Train (and cache) the error-free baseline model."""
    key = ("baseline", dataset_name, n_neurons)
    if key not in _model_cache:
        rng = np.random.default_rng(100 + n_neurons)
        _model_cache[key] = train_baseline(
            datasets[dataset_name], n_neurons, epochs=2, n_steps=N_STEPS, rng=rng
        )
    return _model_cache[key]


def get_improved(datasets, dataset_name: str, n_neurons: int):
    """Fault-aware-train (and cache) the improved model."""
    key = ("improved", dataset_name, n_neurons)
    if key not in _model_cache:
        baseline = get_baseline(datasets, dataset_name, n_neurons)
        rng = np.random.default_rng(200 + n_neurons)
        result = improve_error_tolerance(
            baseline,
            datasets[dataset_name],
            make_injector(seed=n_neurons),
            rates=FIG11_RATES,
            epochs_per_rate=1,
            n_steps=N_STEPS,
            accuracy_bound=0.05,
            rng=rng,
        )
        _model_cache[key] = result
    return _model_cache[key]
