"""Tests of voltage-dependent timing parameters."""

import numpy as np
import pytest

from repro.dram.specs import DDR5_4800_8GB, LPDDR3_1600_4GB, tiny_spec
from repro.dram.timing import TimingParameters, timing_for_voltage
from repro.dram.voltage import ArrayVoltageModel

SPECS = pytest.mark.parametrize(
    "spec",
    [LPDDR3_1600_4GB, DDR5_4800_8GB, tiny_spec()],
    ids=["lpddr3", "ddr5", "tiny"],
)


class TestTimingForVoltage:
    def test_nominal_voltage_returns_nominal_timings(self):
        t = timing_for_voltage(LPDDR3_1600_4GB, 1.35)
        nominal = LPDDR3_1600_4GB.timings
        assert t.t_rcd_ns == pytest.approx(nominal.t_rcd_ns)
        assert t.t_ras_ns == pytest.approx(nominal.t_ras_ns)
        assert t.t_rp_ns == pytest.approx(nominal.t_rp_ns)

    def test_reduced_voltage_derates_row_timings(self):
        t = timing_for_voltage(LPDDR3_1600_4GB, 1.025)
        nominal = LPDDR3_1600_4GB.timings
        assert t.t_rcd_ns > nominal.t_rcd_ns
        assert t.t_ras_ns > nominal.t_ras_ns
        assert t.t_rp_ns > nominal.t_rp_ns

    def test_interface_timings_unchanged(self):
        # The I/O clock and CAS latency run from a separate rail.
        t = timing_for_voltage(LPDDR3_1600_4GB, 1.025)
        nominal = LPDDR3_1600_4GB.timings
        assert t.clock_ns == pytest.approx(nominal.clock_ns)
        assert t.t_cl_ns == pytest.approx(nominal.t_cl_ns)
        assert t.burst_length == nominal.burst_length

    def test_derating_is_consistent_across_parameters(self):
        t = timing_for_voltage(LPDDR3_1600_4GB, 1.1)
        nominal = LPDDR3_1600_4GB.timings
        ratio_rcd = t.t_rcd_ns / nominal.t_rcd_ns
        ratio_ras = t.t_ras_ns / nominal.t_ras_ns
        ratio_rp = t.t_rp_ns / nominal.t_rp_ns
        assert ratio_rcd == pytest.approx(ratio_ras) == pytest.approx(ratio_rp)


class TestEverySpec:
    """Each device derates against its own nominal supply (DDR5: 1.1 V)."""

    @SPECS
    def test_nominal_supply_gives_the_spec_timings_exactly(self, spec):
        t = timing_for_voltage(spec, spec.electrical.v_nominal_volts)
        nominal = spec.timings
        assert (t.t_rcd_ns, t.t_ras_ns, t.t_rp_ns) == (
            nominal.t_rcd_ns, nominal.t_ras_ns, nominal.t_rp_ns
        )
        assert (t.clock_ns, t.t_cl_ns, t.burst_length) == (
            nominal.clock_ns, nominal.t_cl_ns, nominal.burst_length
        )

    @SPECS
    def test_row_timings_follow_the_spec_voltage_model(self, spec):
        elec = spec.electrical
        model = ArrayVoltageModel(v_nominal=elec.v_nominal_volts)
        nominal = spec.timings
        for v in np.linspace(elec.v_min_volts, elec.v_nominal_volts, 7):
            t = timing_for_voltage(spec, v)
            derate = model.derating_factor(v)
            assert t.t_rcd_ns == nominal.t_rcd_ns * derate
            assert t.t_ras_ns == nominal.t_ras_ns * derate
            assert t.t_rp_ns == nominal.t_rp_ns * derate


class TestTimingParameters:
    def test_burst_time_is_ddr(self):
        t = TimingParameters(
            v_supply=1.35, clock_ns=1.25, t_rcd_ns=18, t_ras_ns=42,
            t_rp_ns=18, t_cl_ns=15, burst_length=8,
        )
        # 8 beats at 2 beats per 1.25ns cycle -> 5 ns.
        assert t.burst_time_ns == pytest.approx(5.0)
