"""Fig. 2(c): bit error rate versus DRAM supply voltage.

Paper shape: BER increases monotonically as the supply voltage
decreases, spanning many decades between ~1.325 V and ~1.025 V.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.errors.ber import DEFAULT_BER_CURVE


def test_fig2c_ber_curve(benchmark):
    voltages = np.round(np.arange(1.025, 1.351, 0.025), 3)

    def run():
        return DEFAULT_BER_CURVE.ber_array(voltages)

    bers = benchmark(run)

    rows = [[f"{v:.3f}", f"{b:.2e}" if b else "0"] for v, b in zip(voltages, bers)]
    print("\n" + format_table(
        ["Vsupply [V]", "BER"], rows, title="FIG 2(c) - BER vs supply voltage"
    ))

    # monotone: lower voltage -> more errors
    nonzero = bers[bers > 0]
    assert np.all(np.diff(nonzero) < 0)
    # zero errors at and above the safe voltage
    assert bers[-1] == 0.0
    # spans several decades, like the figure's log axis
    assert nonzero.max() / nonzero.min() > 1e4
