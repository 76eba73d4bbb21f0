"""Tests of the operating-voltage selection step."""

import pytest

from repro.core.config import PAPER_VOLTAGES
from repro.core.voltage_selection import select_operating_voltage
from repro.dram.organization import DramOrganization
from repro.dram.specs import LPDDR3_1600_4GB, tiny_spec


class TestSelection:
    def test_tolerant_model_gets_lowest_voltage(self):
        decision = select_operating_voltage(
            LPDDR3_1600_4GB, n_weights=784 * 100, bits_per_weight=32,
            ber_threshold=1e-2,  # tolerant beyond every corner's BER
        )
        assert decision.v_selected == pytest.approx(1.025)
        assert decision.estimated_access_saving == pytest.approx(0.42, abs=0.01)
        assert decision.estimated_access_saving > 0.0

    def test_moderate_threshold_picks_matching_corner(self):
        # BER_th 1e-5 -> device BER must be <= 1e-5 -> 1.100V corner.
        decision = select_operating_voltage(
            LPDDR3_1600_4GB, n_weights=784 * 100, bits_per_weight=32,
            ber_threshold=1e-5,
        )
        assert decision.v_selected == pytest.approx(1.100)
        rejected_voltages = [v for v, _ in decision.rejected]
        assert 1.025 in rejected_voltages

    def test_none_threshold_falls_back_to_nominal(self):
        decision = select_operating_voltage(
            LPDDR3_1600_4GB, n_weights=1024, bits_per_weight=32,
            ber_threshold=None,
        )
        assert decision.v_selected == pytest.approx(1.35)
        assert decision.estimated_access_saving == 0.0
        assert all(reason == "ber" for _, reason in decision.rejected)

    def test_default_search_covers_the_paper_voltages(self):
        # With nothing tolerated every corner is rejected, lowest first.
        decision = select_operating_voltage(
            LPDDR3_1600_4GB, n_weights=1024, bits_per_weight=32,
            ber_threshold=None,
        )
        assert [v for v, _ in decision.rejected] == sorted(PAPER_VOLTAGES)

    def test_capacity_rejection(self):
        # tiny device, tensor larger than any single safe subarray set
        spec = tiny_spec()
        org = DramOrganization(spec)
        n_weights = org.total_slots  # 32-bit slots, 1 weight per slot
        decision = select_operating_voltage(
            spec, n_weights=n_weights, bits_per_weight=32, ber_threshold=1e-7,
        )
        # the device's weak subarrays exceed the threshold below 1.325 V,
        # and the tensor needs every slot.
        reasons = {reason for _, reason in decision.rejected}
        assert decision.v_selected in (1.35, 1.100, 1.175, 1.250, 1.325)
        assert reasons == {"capacity"}

    def test_validation(self):
        with pytest.raises(ValueError):
            select_operating_voltage(
                LPDDR3_1600_4GB, n_weights=0, bits_per_weight=32, ber_threshold=1e-3
            )

    def test_safe_fraction_reported(self):
        decision = select_operating_voltage(
            LPDDR3_1600_4GB, n_weights=1024, bits_per_weight=32,
            ber_threshold=1e-2,
        )
        assert 0.0 < decision.safe_subarray_fraction <= 1.0
