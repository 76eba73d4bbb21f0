"""Fig. 12(a): DRAM energy per inference across voltages and network sizes.

Paper series: reducing Vsupply to 1.325/1.250/1.175/1.100/1.025 V saves
3.84/13.33/22.69/31.12/39.46% on average across N400-N3600; savings are
nearly size-independent; the whole-inference saving sits slightly below
Table I's per-access 42.40% at 1.025 V.

This experiment uses the paper's *true* network sizes - it exercises
only the DRAM model, not SNN training.
"""

import numpy as np
import pytest

from repro.analysis.reporting import format_table
from repro.core.config import PAPER_VOLTAGES, SparkXDConfig
from repro.core.dram_eval import evaluate_dram
from repro.snn.network import PAPER_NETWORK_SIZES

PAPER_MEAN_SAVINGS = (0.0384, 0.1333, 0.2269, 0.3112, 0.3946)
N_INPUT = 784
BER_THRESHOLD = 1e-3  # the paper's maximum trained-through BER


def run_experiment():
    """Sequential baseline at 1.35 V against Algorithm 2 at each voltage
    (LPDDR3, weak cells at sigma 0.8 and seed 0, one pass)."""
    config = SparkXDConfig(voltages=PAPER_VOLTAGES, weak_cell_sigma=0.8)
    savings = {}
    energies = {}
    for n_neurons in PAPER_NETWORK_SIZES:
        base, outcomes = evaluate_dram(config, N_INPUT * n_neurons, 32, BER_THRESHOLD)
        energies[(n_neurons, 1.35)] = base.energy.total_mj
        for v in PAPER_VOLTAGES:
            energies[(n_neurons, v)] = outcomes[v].result.energy.total_mj
            savings[(n_neurons, v)] = outcomes[v].energy_saving
    return savings, energies


def test_fig12a_dram_energy_savings(benchmark):
    savings, energies = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    rows = []
    for n in PAPER_NETWORK_SIZES:
        rows.append(
            [f"N{n}", f"{energies[(n, 1.35)]:.4f}"]
            + [f"{savings[(n, v)]:.2%}" for v in PAPER_VOLTAGES]
        )
    mean_savings = [
        float(np.mean([savings[(n, v)] for n in PAPER_NETWORK_SIZES]))
        for v in PAPER_VOLTAGES
    ]
    rows.append(["mean", ""] + [f"{s:.2%}" for s in mean_savings])
    rows.append(["paper-mean", ""] + [f"{s:.2%}" for s in PAPER_MEAN_SAVINGS])
    print("\n" + format_table(
        ["network", "base [mJ]"] + [f"{v:.3f}V" for v in PAPER_VOLTAGES],
        rows,
        title="FIG 12(a) - DRAM energy savings vs baseline (accurate DRAM, 1.35V)",
    ))

    # shape: savings grow monotonically as voltage drops...
    assert all(a < b for a, b in zip(mean_savings, mean_savings[1:]))
    # ...reach ~40% at 1.025V (paper: 39.46%)...
    assert mean_savings[-1] == pytest.approx(PAPER_MEAN_SAVINGS[-1], abs=0.03)
    # ...stay below the per-access Table-I saving (42.40%)...
    assert mean_savings[-1] < 0.424
    # ...and are nearly independent of the network size.
    for v in PAPER_VOLTAGES:
        per_size = [savings[(n, v)] for n in PAPER_NETWORK_SIZES]
        assert max(per_size) - min(per_size) < 0.02
    # energy grows with network size at fixed voltage
    base_energies = [energies[(n, 1.35)] for n in PAPER_NETWORK_SIZES]
    assert all(a < b for a, b in zip(base_energies, base_energies[1:]))
