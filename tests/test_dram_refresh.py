"""Tests of the DRAM refresh model."""

import pytest

from repro.dram.refresh import RefreshModel, RefreshParameters
from repro.dram.specs import LPDDR3_1600_4GB


@pytest.fixture
def model():
    return RefreshModel(LPDDR3_1600_4GB)


class TestParameters:
    def test_defaults_valid(self):
        RefreshParameters().validate()

    def test_refi_derivation(self):
        p = RefreshParameters(t_refw_ms=64.0, commands_per_window=8192)
        # 64 ms / 8192 = 7.8125 us at nominal voltage (no derating)
        model = RefreshModel(LPDDR3_1600_4GB, parameters=p)
        assert model.refresh_interval_ns(1.35) == pytest.approx(7812.5)

    @pytest.mark.parametrize(
        "kwargs",
        [{"t_refw_ms": 0}, {"commands_per_window": 0}, {"t_rfc_ns": 0}, {"idd5_ma": 0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RefreshParameters(**kwargs).validate()


class TestVoltageEffects:
    def test_window_shrinks_at_reduced_voltage(self, model):
        assert model.refresh_window_ms(1.025) < model.refresh_window_ms(1.35)

    def test_nominal_window_unchanged(self, model):
        assert model.refresh_window_ms(1.35) == pytest.approx(64.0)

    def test_interval_shrinks_with_the_window(self, model):
        # every command still refreshes 1/8192 of the cells, so the
        # derated window divides into the same number of intervals
        ratio = model.refresh_interval_ns(1.025) / model.refresh_interval_ns(1.35)
        assert ratio < 1.0
        assert ratio == pytest.approx(
            model.refresh_window_ms(1.025) / model.refresh_window_ms(1.35)
        )

    def test_command_energy_scales_v_squared(self, model):
        ratio = model.energy_per_command_nj(1.025) / model.energy_per_command_nj(1.35)
        assert ratio == pytest.approx((1.025 / 1.35) ** 2)


class TestEnergy:
    def test_energy_proportional_to_duration(self, model):
        one_ms = model.refresh_energy_nj(1e6, 1.35)
        two_ms = model.refresh_energy_nj(2e6, 1.35)
        assert two_ms == pytest.approx(2 * one_ms)

    def test_nominal_power_is_command_energy_over_interval(self, model):
        # IDD5 30 mA x 1.35 V x tRFC 130 ns = 5.265 nJ every 7812.5 ns
        assert model.energy_per_command_nj(1.35) == pytest.approx(5.265)
        assert model.refresh_power_mw(1.35) == pytest.approx(5.265 / 7812.5 * 1e3)

    def test_negative_duration_rejected(self, model):
        with pytest.raises(ValueError):
            model.refresh_energy_nj(-1.0, 1.35)

    def test_refresh_power_voltage_tradeoff(self, model):
        # Energy per command drops ~V^2 but the interval also shrinks;
        # the net average power must stay positive and finite.
        p_nom = model.refresh_power_mw(1.35)
        p_low = model.refresh_power_mw(1.025)
        assert p_nom > 0 and p_low > 0
