"""Ablation: FP32 vs INT8 weight storage under DRAM bit errors.

The paper evaluates with FP32 and observes (label-2 of Fig. 11) that
MSB flips change weight values by orders of magnitude.  A fixed-point
representation bounds the damage of any single flip; this ablation
quantifies the difference at the same BER.
"""

import numpy as np

from benchmarks.conftest import N_STEPS, get_baseline
from repro.analysis.reporting import format_table
from repro.analysis.sweeps import accuracy_vs_ber_sweep
from repro.errors.injection import ErrorInjector
from repro.snn.quantization import FixedPointRepresentation, Float32Representation

N_NEURONS = 50
RATES = (1e-3, 1e-2)


def test_ablation_weight_representation(benchmark, datasets):
    dataset = datasets["mnist"]
    baseline = get_baseline(datasets, "mnist", N_NEURONS)

    representations = {
        "float32 (paper)": Float32Representation(clip_range=(0.0, 1.0)),
        "int8 fixed-point": FixedPointRepresentation(bits=8, w_min=0.0, w_max=1.0),
    }

    def run():
        curves = {}
        for label, representation in representations.items():
            injector = ErrorInjector(representation, seed=11)
            curves[label] = accuracy_vs_ber_sweep(
                baseline, dataset, injector, RATES, N_STEPS,
                np.random.default_rng(12), trials=3,
            )
        return curves

    curves = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, points in curves.items():
        rows.append([label] + [f"{p.accuracy:.1%}" for p in points])
    print("\n" + format_table(
        ["representation"] + [f"BER {r:.0e}" for r in RATES],
        rows,
        title="ABLATION - weight storage representation under errors "
        f"(error-free reference: {baseline.accuracy:.1%})",
    ))

    fp32 = {p.ber: p.accuracy for p in curves["float32 (paper)"]}
    int8 = {p.ber: p.accuracy for p in curves["int8 fixed-point"]}
    # a single int8 flip moves a weight by at most half the range, so
    # at the punishing rate the bounded representation cannot do much
    # worse than fp32 (whose exponent flips saturate weights to 0/max).
    assert int8[1e-2] >= fp32[1e-2] - 0.10
    # both degrade relative to error-free inference at the extreme rate
    assert min(int8[1e-2], fp32[1e-2]) <= baseline.accuracy + 0.02
