"""Fig. 12(b): speed-up of SparkXD over the baseline SNN.

Paper shape: SparkXD maintains data throughput (~1.02x average speed-up)
despite the derated row timings, because the Algorithm-2 mapping
maximises row hits and hides activations behind multi-bank bursts.
"""

import numpy as np
import pytest

from repro.analysis.reporting import format_table
from repro.core.config import SparkXDConfig
from repro.core.dram_eval import evaluate_dram
from repro.snn.network import PAPER_NETWORK_SIZES

N_INPUT = 784
V_REDUCED = 1.025
BER_THRESHOLD = 1e-3


def run_experiment():
    """Sequential baseline at 1.35 V against Algorithm 2 at 1.025 V
    (LPDDR3, weak cells at sigma 0.8 and seed 0, one pass)."""
    config = SparkXDConfig(voltages=(V_REDUCED,), weak_cell_sigma=0.8)
    speedups = {}
    for n_neurons in PAPER_NETWORK_SIZES:
        _, outcomes = evaluate_dram(config, N_INPUT * n_neurons, 32, BER_THRESHOLD)
        speedups[n_neurons] = outcomes[V_REDUCED].speedup
    return speedups


def test_fig12b_speedup(benchmark):
    speedups = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    rows = [[f"N{n}", f"{s:.3f}x"] for n, s in speedups.items()]
    mean = float(np.mean(list(speedups.values())))
    rows.append(["mean", f"{mean:.3f}x (paper: 1.02x)"])
    print("\n" + format_table(
        ["network", "speed-up vs baseline"],
        rows,
        title="FIG 12(b) - SparkXD speed-up over baseline SNN",
    ))

    # SparkXD maintains throughput: ~1x, not a slowdown, despite the
    # 1.025V derated timings.
    assert mean == pytest.approx(1.02, abs=0.03)
    for s in speedups.values():
        assert s >= 0.99
