"""Tests of the DRAM controller facade."""

import dataclasses

import numpy as np
import pytest

from repro.dram.commands import CommandKind
from repro.dram.controller import DramController
from repro.dram.energy import DramEnergyModel
from repro.dram.row_buffer import RowBufferSimulator
from repro.dram.specs import DDR5_4800_8GB, LPDDR3_1600_4GB, tiny_spec
from repro.dram.timing import timing_for_voltage


@pytest.fixture
def controller():
    return DramController(tiny_spec())


class TestExecute:
    def test_accepts_flat_slot_indices(self, controller):
        result = controller.execute([0, 1, 2, 3], 1.35)
        assert result.stats.accesses == 4
        assert result.stats.hits == 3

    def test_accepts_numpy_trace(self, controller):
        result = controller.execute(np.arange(6), 1.35)
        assert result.stats.accesses == 6

    def test_energy_positive_and_time_positive(self, controller):
        result = controller.execute([0, 1, 2], 1.35)
        assert result.energy.total_nj > 0
        assert result.stats.total_time_ns > 0

    def test_conditions_partition_the_accesses(self, controller):
        trace = np.random.default_rng(0).integers(0, 128, 200)
        s = controller.execute(trace, 1.35).stats
        assert min(s.hits, s.misses, s.conflicts) > 0
        assert s.hits + s.misses + s.conflicts == s.accesses == 200

    def test_slot_outside_device_rejected(self, controller):
        total = controller.organization.total_slots
        with pytest.raises(IndexError, match=f"slot {total} out of range"):
            controller.execute([0, total], 1.35)
        with pytest.raises(IndexError, match="slot -1 out of range"):
            controller.execute(np.array([-1, 0]), 1.35)

    @pytest.mark.parametrize(
        "as_trace",
        [
            list,
            tuple,
            lambda a: range(int(a[0]), int(a[0]) + a.size),
            lambda a: a.astype(np.int32),
            lambda a: a.astype(np.uint16),
        ],
        ids=["list", "tuple", "range", "int32", "uint16"],
    )
    def test_every_int_sequence_runs_like_an_int64_array(self, controller, as_trace):
        slots = np.arange(3, 40, dtype=np.int64)
        expected = controller.execute(slots, 1.175)
        result = controller.execute(as_trace(slots), 1.175)
        assert dataclasses.asdict(result) == dataclasses.asdict(expected)

    @pytest.mark.parametrize(
        "spec", [tiny_spec(), LPDDR3_1600_4GB, DDR5_4800_8GB], ids=["tiny", "lpddr3", "ddr5"]
    )
    def test_execute_is_the_row_buffer_then_the_energy_model(self, spec):
        # One timing rule and one energy path: the controller adds nothing.
        controller = DramController(spec)
        trace = np.random.default_rng(1).integers(0, 4 * spec.geometry.columns_per_row, 300)
        for v in (spec.electrical.v_nominal_volts, spec.electrical.v_min_volts):
            result = controller.execute(trace, v)
            timing = timing_for_voltage(spec, v)
            stats = RowBufferSimulator(controller.organization, timing).run(trace)
            assert result.timing == timing
            assert dataclasses.asdict(result.stats) == dataclasses.asdict(stats)
            assert result.energy == DramEnergyModel(spec).trace_energy(stats, v)

    def test_voltage_above_the_device_range_rejected(self):
        # DDR5 runs at 1.1 V; the paper's 1.325 V LPDDR3 corner is out of range.
        with pytest.raises(ValueError, match="DDR5"):
            DramController(DDR5_4800_8GB).execute([0], 1.325)

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
        assert results[1].stats.total_time_ns >= results[0].stats.total_time_ns


class TestWriteTraffic:
    def test_write_trace_issues_wr_commands(self, controller):
        result = controller.execute([0, 1, 2], 1.35, write=True)
        assert result.stats.command_counts[CommandKind.WR] == 3
        assert result.stats.command_counts[CommandKind.RD] == 0

    def test_write_costs_more_than_read(self, controller):
        read = controller.execute(list(range(8)), 1.35, write=False)
        write = controller.execute(list(range(8)), 1.35, write=True)
        assert write.energy.total_nj > read.energy.total_nj

    def test_write_has_same_row_buffer_behaviour(self, controller):
        read = controller.execute(list(range(8)), 1.35, write=False)
        write = controller.execute(list(range(8)), 1.35, write=True)
        assert write.stats.hits == read.stats.hits
        assert write.stats.total_time_ns == pytest.approx(read.stats.total_time_ns)

    def test_write_energy_saving_at_reduced_voltage(self, controller):
        nominal = controller.execute(list(range(8)), 1.35, write=True)
        reduced = controller.execute(list(range(8)), 1.025, write=True)
        assert reduced.energy.total_nj < nominal.energy.total_nj
