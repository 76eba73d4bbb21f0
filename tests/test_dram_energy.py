"""Tests of the DRAMPower-substitute energy model (Fig. 2b, Table I)."""

import numpy as np
import pytest

from repro.dram.commands import AccessCondition, CommandKind
from repro.dram.energy import PERIPHERAL_FRACTION, DramEnergyModel
from repro.dram.organization import DramOrganization
from repro.dram.row_buffer import RowBufferSimulator
from repro.dram.specs import DDR5_4800_8GB, LPDDR3_1600_4GB, tiny_spec
from repro.dram.timing import timing_for_voltage

PAPER_TABLE1 = {
    1.325: 0.0392,
    1.250: 0.1429,
    1.175: 0.2433,
    1.100: 0.3359,
    1.025: 0.4240,
}


@pytest.fixture
def model():
    return DramEnergyModel(LPDDR3_1600_4GB)


class TestScalingLaws:
    def test_charge_scale_is_v_squared(self, model):
        assert model.charge_scale(1.35) == pytest.approx(1.0)
        assert model.charge_scale(1.025) == pytest.approx((1.025 / 1.35) ** 2)

    def test_standby_power_scales_v_squared(self, model):
        p_nom = model.standby_power_mw(1.35, active=True)
        p_low = model.standby_power_mw(1.025, active=True)
        assert p_low / p_nom == pytest.approx((1.025 / 1.35) ** 2)

    def test_active_standby_exceeds_idle(self, model):
        assert model.standby_power_mw(1.35, True) > model.standby_power_mw(1.35, False)

    def test_out_of_range_voltage_rejected(self, model):
        with pytest.raises(ValueError):
            model.charge_scale(0.2)
        with pytest.raises(ValueError):
            model.charge_scale(2.0)


class TestTable1:
    @pytest.mark.parametrize("v,paper", sorted(PAPER_TABLE1.items()))
    def test_per_access_savings_match_paper(self, model, v, paper):
        # Table I within half a percentage point: the paper's numbers
        # follow the CV² law almost exactly.
        assert model.energy_per_access_saving(v) == pytest.approx(paper, abs=0.005)

    def test_savings_monotone_in_voltage(self, model):
        voltages = sorted(PAPER_TABLE1)
        savings = [model.energy_per_access_saving(v) for v in voltages]
        assert all(a > b for a, b in zip(savings, savings[1:]))

    def test_zero_saving_at_nominal(self, model):
        assert model.energy_per_access_saving(1.35) == pytest.approx(0.0)


class TestAccessConditions:
    def test_hit_miss_conflict_ordering(self, model):
        # Fig. 2(b): hit < miss < conflict at every voltage.
        for v in (1.35, 1.025):
            hit = model.access_energy(AccessCondition.HIT, v).total_nj
            miss = model.access_energy(AccessCondition.MISS, v).total_nj
            conflict = model.access_energy(AccessCondition.CONFLICT, v).total_nj
            assert hit < miss < conflict

    def test_per_condition_savings_span_paper_range(self, model):
        # Fig. 2(b): 31%-42% savings per access at 1.025 V.
        savings = []
        for condition in AccessCondition:
            nominal = model.access_energy(condition, 1.35).total_nj
            reduced = model.access_energy(condition, 1.025).total_nj
            savings.append(1.0 - reduced / nominal)
        assert min(savings) == pytest.approx(0.31, abs=0.03)
        assert max(savings) == pytest.approx(0.42, abs=0.02)

    def test_absolute_scale_in_nanojoule_range(self, model):
        # Fig. 2(b) y-axis spans 0-8 nJ.
        conflict = model.access_energy(AccessCondition.CONFLICT, 1.35).total_nj
        assert 4.0 < conflict < 8.0

    def test_breakdown_components_sum(self, model):
        b = model.access_energy(AccessCondition.CONFLICT, 1.1)
        assert b.total_nj == pytest.approx(b.array_nj + b.peripheral_nj + b.standby_nj)
        assert b.array_nj + b.peripheral_nj == pytest.approx(sum(b.per_command_nj.values()))

    def test_hit_contains_only_rd(self, model):
        b = model.access_energy(AccessCondition.HIT, 1.35)
        assert set(b.per_command_nj) == {CommandKind.RD}


class TestCommandEnergies:
    def test_peripheral_fraction_fixed_under_scaling(self, model):
        for kind in (CommandKind.ACT, CommandKind.PRE):
            _, p_nom = model.command_energy_split(kind, 1.35)
            _, p_low = model.command_energy_split(kind, 1.025)
            assert p_nom == pytest.approx(p_low)

    def test_array_energy_scales_v_squared(self, model):
        a_nom, _ = model.command_energy_split(CommandKind.ACT, 1.35)
        a_low, _ = model.command_energy_split(CommandKind.ACT, 1.025)
        assert a_low / a_nom == pytest.approx((1.025 / 1.35) ** 2)

    def test_write_costs_more_than_read(self, model):
        write = sum(model.command_energy_split(CommandKind.WR, 1.35))
        assert write > sum(model.command_energy_split(CommandKind.RD, 1.35))

    @pytest.mark.parametrize("kind", list(CommandKind), ids=lambda k: k.name)
    def test_peripheral_share_is_the_table_entry(self, model, kind):
        # At nominal voltage the command's fixed-rail share is its
        # PERIPHERAL_FRACTION entry; at reduced voltage only the array
        # share shrinks.
        a_nom, p_nom = model.command_energy_split(kind, 1.35)
        a_low, p_low = model.command_energy_split(kind, 1.025)
        assert p_nom == pytest.approx(PERIPHERAL_FRACTION[kind] * (a_nom + p_nom))
        assert p_low == p_nom
        assert a_low == pytest.approx(a_nom * (1.025 / 1.35) ** 2)


SPECS = pytest.mark.parametrize(
    "spec",
    [LPDDR3_1600_4GB, DDR5_4800_8GB, tiny_spec()],
    ids=["lpddr3", "ddr5", "tiny"],
)


class TestEverySpec:
    """Each device scales against its own nominal supply (DDR5: 1.1 V)."""

    @SPECS
    def test_hit_saving_is_cv_squared(self, spec):
        model = DramEnergyModel(spec)
        elec = spec.electrical
        for v in np.linspace(elec.v_min_volts, elec.v_nominal_volts, 5):
            expected = 1.0 - (v / elec.v_nominal_volts) ** 2
            assert model.energy_per_access_saving(v) == pytest.approx(expected)

    @SPECS
    def test_standby_windows_use_the_derated_timings(self, spec):
        # ACT holds the bank active for tRAS, PRE idles it for tRP and a
        # RD streams for one burst, all at the timings of ``v``.
        model = DramEnergyModel(spec)
        v = spec.electrical.v_min_volts
        timing = timing_for_voltage(spec, v)
        active = model.standby_power_mw(v, active=True)
        idle = model.standby_power_mw(v, active=False)
        expected = (
            active * timing.t_ras_ns + idle * timing.t_rp_ns + active * timing.burst_time_ns
        ) * 1e-3
        conflict = model.access_energy(AccessCondition.CONFLICT, v)
        assert conflict.standby_nj == pytest.approx(expected)
        assert timing.t_ras_ns > spec.timings.t_ras_ns


class TestTraceEnergy:
    def test_trace_energy_consistent_with_commands(self):
        spec = tiny_spec()
        org = DramOrganization(spec)
        timing = timing_for_voltage(spec, 1.35)
        sim = RowBufferSimulator(org, timing)
        stats = sim.run(range(8))
        model = DramEnergyModel(spec)
        energy = model.trace_energy(stats, 1.35)
        expected_commands = sum(
            sum(model.command_energy_split(kind, 1.35)) * count
            for kind, count in stats.command_counts.items()
        )
        commands_nj = energy.array_nj + energy.peripheral_nj
        assert commands_nj == pytest.approx(expected_commands)
        assert energy.total_nj >= commands_nj

    def test_trace_energy_decreases_with_voltage(self):
        spec = tiny_spec()
        org = DramOrganization(spec)
        model = DramEnergyModel(spec)
        sim = RowBufferSimulator(org, timing_for_voltage(spec, 1.35))
        stats = sim.run(range(16))
        e_nom = model.trace_energy(stats, 1.35).total_nj
        e_low = model.trace_energy(stats, 1.025).total_nj
        assert e_low < e_nom

    def test_total_mj_conversion(self):
        spec = tiny_spec()
        org = DramOrganization(spec)
        model = DramEnergyModel(spec)
        sim = RowBufferSimulator(org, timing_for_voltage(spec, 1.35))
        stats = sim.run([0])
        e = model.trace_energy(stats, 1.35)
        assert e.total_mj == pytest.approx(e.total_nj * 1e-6)
