"""Section I motivation: DRAM traffic explodes when models outgrow
on-chip memory.

The paper motivates approximate DRAM with the observation that models
larger than the accelerator's on-chip memory (<100 MB on TrueNorth-
class hardware) must stream weights from DRAM.  This benchmark sweeps
the on-chip buffer size for the N3600 network under a weight-stationary
schedule and reports the DRAM energy per inference — the quantity the
rest of the paper then attacks with voltage scaling.
"""

from repro.analysis.reporting import format_table
from repro.dram.energy import DramEnergyModel
from repro.dram.specs import LPDDR3_1600_4GB
from repro.trace.tiling import buffer_sweep

N_WEIGHTS = 784 * 3600  # the paper's largest network
N_TIMESTEPS = 100
BUFFER_SIZES = tuple(int(size * 8e6) for size in (0.5, 1, 4, 12, 100))  # MB -> bits


def test_motivation_buffer_size_traffic(benchmark):
    energy_model = DramEnergyModel(LPDDR3_1600_4GB)
    per_access_nj = energy_model.energy_per_access_nj(1.35)
    slot_bits = LPDDR3_1600_4GB.geometry.column_width_bits

    def run():
        plans = buffer_sweep(
            N_WEIGHTS, 32, BUFFER_SIZES, N_TIMESTEPS, schedule="weight-stationary"
        )
        energies = [
            plan.total_traffic_bits / slot_bits * per_access_nj * 1e-6  # mJ
            for plan in plans
        ]
        return plans, energies

    plans, energies = benchmark(run)

    rows = [
        [
            f"{size / 8e6:.1f} MB",
            plan.refetch_passes,
            f"{energy:.2f}",
        ]
        for size, plan, energy in zip(BUFFER_SIZES, plans, energies)
    ]
    print("\n" + format_table(
        ["on-chip buffer", "weight re-fetches", "DRAM energy [mJ]"],
        rows,
        title="MOTIVATION (Section I) - N3600 inference DRAM traffic vs "
        "on-chip memory",
    ))

    # a buffer big enough for the tensor (11.3 MB) streams weights once
    assert plans[-1].refetch_passes == 1
    # halving the buffer below the tensor size multiplies traffic
    assert plans[0].refetch_passes > plans[2].refetch_passes > 1
    # energy strictly follows traffic
    assert energies[0] > energies[2] > energies[-1]
