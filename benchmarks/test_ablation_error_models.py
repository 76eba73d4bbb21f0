"""Ablation: DRAM Error Model-0 vs Models 1-3 (Section III).

The paper picks Model-0 because it "provides a reasonable approximation
of the other error models".  This ablation injects at the same BER with
all four models and compares the accuracy impact on one trained model.
"""

import numpy as np

from benchmarks.conftest import N_STEPS, get_baseline
from repro.analysis.reporting import format_table
from repro.analysis.sweeps import accuracy_vs_ber_sweep
from repro.errors.injection import ErrorInjector
from repro.errors.models import make_error_model
from repro.snn.quantization import Float32Representation

BER = 1e-3
N_NEURONS = 50
MODELS = ("model0", "model1", "model2", "model3")


def test_ablation_error_models(benchmark, datasets):
    dataset = datasets["mnist"]
    baseline = get_baseline(datasets, "mnist", N_NEURONS)

    def run():
        accuracies = {}
        for name in MODELS:
            injector = ErrorInjector(
                Float32Representation(clip_range=(0.0, 1.0)),
                model=make_error_model(name),
                lane_bits=64,
                row_bits=784 * 32,
                seed=9,
            )
            point = accuracy_vs_ber_sweep(
                baseline, dataset, injector, (BER,), N_STEPS,
                np.random.default_rng(4), trials=3,
            )[0]
            accuracies[name] = point.accuracy
        return accuracies

    accuracies = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n" + format_table(
        ["error model", f"accuracy @ BER {BER:.0e}"],
        [[name, f"{a:.1%}"] for name, a in accuracies.items()],
        title="ABLATION - error model structure (Section III) "
        f"(error-free reference: {baseline.accuracy:.1%})",
    ))

    # Model-0 approximates the others: its accuracy impact is within a
    # modest band of every structured model's.
    for name in MODELS[1:]:
        assert abs(accuracies["model0"] - accuracies[name]) < 0.15, name
    # every model actually perturbs the network at this BER
    for name, accuracy in accuracies.items():
        assert accuracy <= 1.0
