#!/usr/bin/env python
"""Exploring the approximate-DRAM substrate, no SNN training involved.

Regenerates the paper's motivation studies from the DRAM model alone:

- Fig. 2(b): access energy per row-buffer condition at 1.35/1.025 V;
- Fig. 2(c): BER vs supply voltage;
- Fig. 2(d)/6: array voltage dynamics and reliable timing parameters;
- Table I: energy-per-access savings at each voltage corner.

Usage::

    python examples/dram_energy_exploration.py
"""

import numpy as np

from repro.analysis.reporting import format_percent_row, format_table
from repro.core.config import PAPER_VOLTAGES as VOLTAGES
from repro.dram.commands import AccessCondition
from repro.dram.energy import DramEnergyModel
from repro.dram.specs import LPDDR3_1600_4GB
from repro.dram.timing import timing_for_voltage
from repro.dram.voltage import ArrayVoltageModel
from repro.errors.ber import DEFAULT_BER_CURVE


def main() -> None:
    spec = LPDDR3_1600_4GB
    energy = DramEnergyModel(spec)
    voltage_model = ArrayVoltageModel()

    print(f"Device: {spec.name} "
          f"({spec.geometry.total_size_bits / 2**30:.0f} Gb, "
          f"{spec.geometry.banks_per_chip} banks x "
          f"{spec.geometry.subarrays_per_bank} subarrays)")

    print("\n--- Fig. 2(b): access energy by row-buffer condition ---")
    rows = []
    for condition in AccessCondition:
        nominal = energy.access_energy(condition, 1.350)
        reduced = energy.access_energy(condition, 1.025)
        rows.append([
            condition.value,
            f"{nominal.total_nj:.2f}",
            f"{reduced.total_nj:.2f}",
            f"{1 - reduced.total_nj / nominal.total_nj:.1%}",
        ])
    print(format_table(["condition", "1.350V [nJ]", "1.025V [nJ]", "saving"], rows))

    print("\n--- Fig. 2(c): BER vs supply voltage ---")
    for v in np.arange(1.025, 1.36, 0.075):
        bar = "#" * max(0, int(12 + np.log10(max(DEFAULT_BER_CURVE.ber_at(v), 1e-12))))
        print(f"  {v:.3f}V  BER={DEFAULT_BER_CURVE.ber_at(v):8.1e}  {bar}")

    print("\n--- Fig. 6: array dynamics and reliable timings ---")
    rows = []
    for v in (1.35, 1.25, 1.15):
        timing = timing_for_voltage(spec, v)
        rows.append([
            f"{v:.2f}",
            f"{voltage_model.tau_activate(v):.1f}",
            f"{timing.t_rcd_ns:.1f}",
            f"{timing.t_ras_ns:.1f}",
            f"{timing.t_rp_ns:.1f}",
        ])
    print(format_table(
        ["Vsupply", "tau_act [ns]", "tRCD [ns]", "tRAS [ns]", "tRP [ns]"], rows
    ))

    print("\n--- Table I: energy-per-access savings ---")
    print("  voltages: " + "  ".join(f"{v:.3f}V" for v in VOLTAGES))
    print(format_percent_row(
        "  savings",
        [energy.energy_per_access_saving(v) for v in VOLTAGES],
    ))
    print("  (paper:    3.92%   14.29%   24.33%   33.59%   42.40%)")


if __name__ == "__main__":
    main()
