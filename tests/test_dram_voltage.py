"""Tests of the array-voltage dynamics model (Figs. 2d and 6)."""

import numpy as np
import pytest

from repro.dram.voltage import (
    ArrayVoltageModel,
    READY_TO_ACCESS_FRACTION,
    READY_TO_ACTIVATE_TOLERANCE,
    READY_TO_PRECHARGE_FRACTION,
    TAU_ACTIVATE_NS,
    TAU_PRECHARGE_NS,
)


@pytest.fixture
def model():
    return ArrayVoltageModel()


class TestTimeConstants:
    def test_nominal_tau_unchanged(self, model):
        assert model.tau_activate(1.35) == TAU_ACTIVATE_NS
        assert model.tau_precharge(1.35) == TAU_PRECHARGE_NS

    def test_tau_grows_at_reduced_voltage(self, model):
        assert model.tau_activate(1.025) > model.tau_activate(1.35)
        assert model.tau_precharge(1.025) > model.tau_precharge(1.35)

    def test_derating_factor_is_one_at_nominal(self, model):
        assert model.derating_factor(1.35) == pytest.approx(1.0)

    def test_derating_monotone_in_voltage(self, model):
        voltages = [1.025, 1.1, 1.175, 1.25, 1.325, 1.35]
        factors = [model.derating_factor(v) for v in voltages]
        assert all(a > b for a, b in zip(factors, factors[1:]))

    def test_invalid_supply_rejected(self, model):
        with pytest.raises(ValueError):
            model.tau_activate(0.0)
        with pytest.raises(ValueError):
            model.tau_activate(5.0)

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            ArrayVoltageModel(v_nominal=0)


class TestWaveforms:
    def test_activate_starts_at_half_supply(self, model):
        v = model.varray_during_activate(np.array([0.0]), 1.35)
        assert v[0] == pytest.approx(1.35 / 2)

    def test_activate_approaches_supply(self, model):
        v = model.varray_during_activate(np.array([1e4]), 1.35)
        assert v[0] == pytest.approx(1.35, abs=1e-6)

    def test_activate_monotone_increasing(self, model):
        t = np.linspace(0, 80, 200)
        v = model.varray_during_activate(t, 1.1)
        assert np.all(np.diff(v) > 0)

    def test_precharge_decays_to_half_supply(self, model):
        v = model.varray_during_precharge(np.array([1e4]), 1.35, v_start=1.35)
        assert v[0] == pytest.approx(1.35 / 2, abs=1e-6)

    def test_lower_supply_gives_lower_curve(self, model):
        # The key observation of Fig. 2(d): the array voltage decreases
        # as the supply voltage decreases.
        t = np.linspace(0, 80, 100)
        high = model.varray_during_activate(t, 1.35)
        low = model.varray_during_activate(t, 1.025)
        assert np.all(low < high)


class TestThresholdCrossings:
    @pytest.mark.parametrize("v", [1.025, 1.1, 1.175, 1.25, 1.325, 1.35])
    def test_ready_to_access_crossing_is_exact(self, model, v):
        t = model.ready_to_access_time(v)
        varray = model.varray_during_activate(np.array([t]), v)[0]
        assert varray == pytest.approx(READY_TO_ACCESS_FRACTION * v, rel=1e-9)

    @pytest.mark.parametrize("v", [1.025, 1.35])
    def test_ready_to_precharge_crossing_is_exact(self, model, v):
        t = model.ready_to_precharge_time(v)
        varray = model.varray_during_activate(np.array([t]), v)[0]
        assert varray == pytest.approx(READY_TO_PRECHARGE_FRACTION * v, rel=1e-9)

    @pytest.mark.parametrize("v", [1.025, 1.35])
    def test_ready_to_activate_crossing_is_exact(self, model, v):
        t = model.ready_to_activate_time(v)
        varray = model.varray_during_precharge(np.array([t]), v, v_start=v)[0]
        assert abs(varray - v / 2) == pytest.approx(
            READY_TO_ACTIVATE_TOLERANCE * v, rel=1e-9
        )

    def test_crossings_ordered(self, model):
        # tRCD < tRAS always (75% is crossed before 98%).
        for v in (1.025, 1.35):
            assert model.ready_to_access_time(v) < model.ready_to_precharge_time(v)

    def test_timings_grow_at_reduced_voltage(self, model):
        # Fig. 6: reliable tRCD/tRAS/tRP are longer at lower voltage.
        assert model.ready_to_access_time(1.1) > model.ready_to_access_time(1.35)
        assert model.ready_to_precharge_time(1.1) > model.ready_to_precharge_time(1.35)
        assert model.ready_to_activate_time(1.1) > model.ready_to_activate_time(1.35)


class TestTransient:
    def test_transient_covers_activate_then_precharge(self, model):
        tr = model.transient(1.35, total_time_ns=80.0, samples=401)
        assert tr.time_ns.shape == tr.varray_volts.shape == (401,)
        # rises from Vs/2 toward Vs, then decays back toward Vs/2
        peak_index = int(np.argmax(tr.varray_volts))
        assert tr.varray_volts[peak_index] > 0.95 * 1.35
        assert tr.varray_volts[-1] < tr.varray_volts[peak_index]

    def test_transient_family_matches_voltages(self, model):
        voltages = [1.35, 1.25, 1.15]
        family = model.transient_family(voltages)
        assert [tr.v_supply for tr in family] == voltages

    def test_transient_validation(self, model):
        with pytest.raises(ValueError):
            model.transient(1.35, total_time_ns=0)
        with pytest.raises(ValueError):
            model.transient(1.35, precharge_at_ns=-5.0, activate_at_ns=0.0)

    def test_explicit_precharge_time_respected(self, model):
        tr = model.transient(1.35, precharge_at_ns=30.0)
        assert tr.t_precharge_start_ns == pytest.approx(30.0)
