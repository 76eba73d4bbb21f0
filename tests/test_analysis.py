"""Tests of the analysis helpers: platforms (Fig. 1b) and reporting."""

import pytest

from repro.analysis.platforms import (
    PAPER_PLATFORMS,
    PEASE,
    SNNAP,
    SNNWorkload,
    TRUENORTH,
    energy_breakdown,
)
from repro.analysis.reporting import format_percent_row, format_table


class TestWorkload:
    def test_for_network_counts(self):
        w = SNNWorkload.for_network(n_input=100, n_neurons=50, n_steps=100)
        assert w.synaptic_ops == 100 * 100 * 0.05 * 50
        assert w.spike_events == 100 * 100 * 0.05 + 50 * 100 * 0.02
        assert w.weight_bits_fetched == 100 * 50 * 32

    def test_validation(self):
        with pytest.raises(ValueError):
            SNNWorkload(synaptic_ops=-1, spike_events=0, weight_bits_fetched=0)


class TestPlatforms:
    def test_three_paper_platforms(self):
        assert [p.name for p in PAPER_PLATFORMS] == ["TrueNorth", "PEASE", "SNNAP"]

    @pytest.mark.parametrize("platform", PAPER_PLATFORMS, ids=lambda p: p.name)
    def test_fractions_sum_to_one(self, platform):
        fractions = energy_breakdown(platform)
        assert sum(fractions.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("platform", PAPER_PLATFORMS, ids=lambda p: p.name)
    def test_memory_dominates(self, platform):
        # The paper's Fig. 1(b) claim: memory accesses consume ~50-75%
        # of total energy on every platform.
        fractions = energy_breakdown(platform)
        assert 0.45 <= fractions["memory"] <= 0.80
        assert fractions["memory"] > fractions["computation"]
        assert fractions["memory"] > fractions["communication"]

    def test_truenorth_heaviest_on_communication(self):
        tn = energy_breakdown(TRUENORTH)["communication"]
        pe = energy_breakdown(PEASE)["communication"]
        sn = energy_breakdown(SNNAP)["communication"]
        assert tn > pe and tn > sn

    def test_zero_workload_rejected(self):
        empty = SNNWorkload(synaptic_ops=0, spike_events=0, weight_bits_fetched=0)
        with pytest.raises(ValueError):
            TRUENORTH.fractions(empty)


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(
            ["a", "long-header"], [[1, 2.5], ["xyz", 0.001]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[1]
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_small_floats_use_scientific(self):
        text = format_table(["x"], [[1e-7]])
        assert "e-07" in text

    def test_percent_row(self):
        row = format_percent_row("saving", [0.0392, 0.4240])
        assert "3.92%" in row
        assert "42.40%" in row
