#!/usr/bin/env python
"""Voltage scaling study across network sizes: Figs. 12(a) and 12(b).

For every paper network size (N400-N3600), streams one inference's
weight reads through the DRAM model with the baseline sequential
mapping at 1.35 V and with SparkXD's Algorithm-2 mapping at each
reduced voltage, then prints energy savings and speed-ups.

No SNN training is involved - this isolates the DRAM-side results.

Usage::

    python examples/voltage_scaling_study.py [--sizes 400 900]
        [--ber-threshold 1e-3] [--sigma 0.8]
"""

import argparse

from repro.analysis.reporting import format_table
from repro.core.config import PAPER_VOLTAGES, SparkXDConfig
from repro.core.dram_eval import evaluate_dram
from repro.snn.network import PAPER_NETWORK_SIZES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(PAPER_NETWORK_SIZES)
    )
    parser.add_argument("--ber-threshold", type=float, default=1e-3)
    parser.add_argument("--sigma", type=float, default=0.8)
    args = parser.parse_args()

    # LPDDR3, weak-cell seed 0, one pass; baseline at the nominal 1.35 V.
    config = SparkXDConfig(voltages=PAPER_VOLTAGES, weak_cell_sigma=args.sigma)
    rows = []
    for n_neurons in args.sizes:
        base, outcomes = evaluate_dram(
            config, 784 * n_neurons, 32, args.ber_threshold
        )
        row = [f"N{n_neurons}", f"{base.energy.total_mj:.4f}"]
        for v in PAPER_VOLTAGES:
            outcome = outcomes[v]
            if not outcome.feasible:
                row.append("infeasible")
                continue
            row.append(f"{outcome.energy_saving:.1%} ({outcome.speedup:.2f}x)")
        rows.append(row)

    print(format_table(
        ["network", "base [mJ]"] + [f"{v:.3f}V" for v in PAPER_VOLTAGES],
        rows,
        title="DRAM energy saving (speed-up) vs accurate-DRAM baseline "
        "- Figs. 12(a)+(b)",
    ))
    print("\npaper means: 3.84% / 13.33% / 22.69% / 31.12% / 39.46%, "
          "speed-up ~1.02x")


if __name__ == "__main__":
    main()
