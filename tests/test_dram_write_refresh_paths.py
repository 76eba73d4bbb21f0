"""Tests of the write-traffic and refresh-inclusive controller paths."""

import pytest

from repro.dram.commands import CommandKind
from repro.dram.controller import DramController
from repro.dram.specs import tiny_spec


@pytest.fixture
def controller():
    return DramController(tiny_spec())


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


class TestRefreshInclusion:
    def test_refresh_adds_energy(self, controller):
        base = controller.execute(list(range(16)), 1.35)
        with_refresh = controller.execute(list(range(16)), 1.35, include_refresh=True)
        assert with_refresh.energy.total_nj > base.energy.total_nj
        # identical access behaviour, only background energy changes
        assert with_refresh.stats.accesses == base.stats.accesses
        assert with_refresh.energy.command_nj == pytest.approx(base.energy.command_nj)

    def test_refresh_share_is_small_for_busy_traces(self, controller):
        base = controller.execute(list(range(16)), 1.35)
        with_refresh = controller.execute(list(range(16)), 1.35, include_refresh=True)
        extra = with_refresh.energy.total_nj - base.energy.total_nj
        assert extra / with_refresh.energy.total_nj < 0.2
