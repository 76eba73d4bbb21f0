"""Tests of the DRAM controller facade."""

import numpy as np
import pytest

from repro.dram.controller import DramController
from repro.dram.specs import tiny_spec


@pytest.fixture
def controller():
    return DramController(tiny_spec())


class TestExecute:
    def test_accepts_flat_slot_indices(self, controller):
        result = controller.execute([0, 1, 2, 3], 1.35)
        assert result.stats.accesses == 4
        assert result.stats.hits == 3

    def test_accepts_coordinates(self, controller):
        coords = [controller.organization.coordinate_of(s) for s in (0, 1)]
        result = controller.execute(coords, 1.35)
        assert result.stats.accesses == 2

    def test_accepts_numpy_trace(self, controller):
        result = controller.execute(np.arange(6), 1.35)
        assert result.stats.accesses == 6

    def test_energy_positive_and_time_positive(self, controller):
        result = controller.execute([0, 1, 2], 1.35)
        assert result.energy.total_nj > 0
        assert result.total_time_ns > 0

    def test_conditions_partition_the_accesses(self, controller):
        trace = np.random.default_rng(0).integers(0, 128, 200)
        s = controller.execute(trace, 1.35).stats
        assert min(s.hits, s.misses, s.conflicts) > 0
        assert s.hits + s.misses + s.conflicts == s.accesses == 200

    def test_summary_mentions_voltage_and_counts(self, controller):
        text = controller.execute([0, 1], 1.35).summary()
        assert "1.350V" in text
        assert "accesses=2" in text

    def test_slot_outside_device_rejected(self, controller):
        total = controller.organization.total_slots
        with pytest.raises(IndexError, match=f"slot {total} out of range"):
            controller.execute([0, total], 1.35)
        with pytest.raises(IndexError, match="slot -1 out of range"):
            controller.execute(np.array([-1, 0]), 1.35)

    def test_timing_attached_matches_voltage(self, controller):
        result = controller.execute([0], 1.025)
        assert result.timing.v_supply == pytest.approx(1.025)
        assert result.v_supply == pytest.approx(1.025)


class TestVoltageSweep:
    def test_same_trace_same_access_mix_at_every_voltage(self, controller):
        # Voltage stretches timings but never changes which accesses hit.
        trace = np.random.default_rng(0).integers(0, 128, 200)
        voltages = [1.35, 1.175, 1.025]
        results = [controller.execute(trace, v) for v in voltages]
        assert [r.v_supply for r in results] == voltages
        mixes = {(r.stats.hits, r.stats.misses, r.stats.conflicts) for r in results}
        assert len(mixes) == 1

    def test_energy_monotone_decreasing_with_voltage(self, controller):
        results = [controller.execute(range(16), v) for v in (1.35, 1.175, 1.025)]
        energies = [r.energy.total_nj for r in results]
        assert energies[0] > energies[1] > energies[2]

    def test_time_monotone_increasing_as_voltage_drops(self, controller):
        # derated row timings stretch execution (hidden or not, the
        # first activation always pays tRCD)
        results = [controller.execute(range(16), v) for v in (1.35, 1.025)]
        assert results[1].total_time_ns >= results[0].total_time_ns
