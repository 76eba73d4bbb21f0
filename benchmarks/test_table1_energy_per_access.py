"""Table I: DRAM energy-per-access savings at each reduced voltage.

Paper row: 1.325V 3.92% | 1.250V 14.29% | 1.175V 24.33% | 1.100V 33.59%
| 1.025V 42.40%.
"""

import pytest

from repro.analysis.reporting import format_percent_row
from repro.core.config import PAPER_VOLTAGES as VOLTAGES
from repro.dram.energy import DramEnergyModel
from repro.dram.specs import LPDDR3_1600_4GB

PAPER = (0.0392, 0.1429, 0.2433, 0.3359, 0.4240)


def test_table1_energy_per_access_savings(benchmark):
    model = DramEnergyModel(LPDDR3_1600_4GB)

    def run():
        return [model.energy_per_access_saving(v) for v in VOLTAGES]

    savings = benchmark(run)

    print("\nTABLE I - energy savings over the baseline (energy-per-access)")
    print(format_percent_row("voltage " + "  ".join(f"{v:.3f}V" for v in VOLTAGES), []))
    print(format_percent_row("paper", PAPER))
    print(format_percent_row("measured", savings))

    for measured, paper in zip(savings, PAPER):
        assert measured == pytest.approx(paper, abs=0.005)
    assert all(a < b for a, b in zip(savings, savings[1:]))
