"""Tests of per-subarray weak-cell profiles."""

import numpy as np
import pytest

from repro.dram.organization import DramOrganization
from repro.dram.specs import tiny_spec
from repro.errors.weak_cells import SubarrayErrorProfile, WeakCellMap


@pytest.fixture
def org():
    return DramOrganization(tiny_spec())


class TestWeakCellMap:
    def test_severity_mean_is_unbiased(self, org):
        wc = WeakCellMap(org, sigma=0.8, seed=3)
        assert wc.severity.mean() == pytest.approx(1.0)

    def test_sigma_zero_gives_uniform_device(self, org):
        wc = WeakCellMap(org, sigma=0.0, seed=3)
        assert np.all(wc.severity == 1.0)

    def test_deterministic_per_seed(self, org):
        a = WeakCellMap(org, seed=5).severity
        b = WeakCellMap(org, seed=5).severity
        c = WeakCellMap(org, seed=6).severity
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_sigma_rejected(self, org):
        with pytest.raises(ValueError):
            WeakCellMap(org, sigma=-0.1)

    def test_profile_scales_with_device_ber(self, org):
        wc = WeakCellMap(org, sigma=0.5, seed=0)
        p_low = wc.profile_at(1.025)
        p_high = wc.profile_at(1.25)
        assert p_low.device_ber > p_high.device_ber
        # same spatial pattern, scaled
        ratio = p_low.rates / np.maximum(p_high.rates, 1e-300)
        assert np.allclose(ratio, ratio[0])

    def test_profile_at_safe_voltage_is_error_free(self, org):
        wc = WeakCellMap(org, seed=0)
        profile = wc.profile_at(1.35)
        assert profile.device_ber == 0.0
        assert np.all(profile.rates == 0.0)


class TestSubarrayErrorProfile:
    def test_safe_mask_monotone_in_threshold(self, org):
        wc = WeakCellMap(org, sigma=1.0, seed=1)
        profile = wc.profile_at(1.025)
        loose = profile.safe_mask(1e-2)
        tight = profile.safe_mask(1e-5)
        assert loose.sum() >= tight.sum()
        # every subarray safe at the tight bound is safe at the loose one
        assert np.all(loose[tight])

    def test_safe_fraction(self, org):
        wc = WeakCellMap(org, sigma=0.0, seed=0)
        profile = wc.profile_at(1.025)
        assert profile.safe_fraction(1.0) == 1.0
        assert profile.safe_fraction(0.0) == 0.0

    def test_shape_validation(self, org):
        with pytest.raises(ValueError):
            SubarrayErrorProfile(
                organization=org,
                v_supply=1.1,
                device_ber=1e-5,
                rates=np.zeros(org.total_subarrays + 1),
            )

    def test_range_validation(self, org):
        with pytest.raises(ValueError):
            SubarrayErrorProfile(
                organization=org,
                v_supply=1.1,
                device_ber=1e-5,
                rates=np.full(org.total_subarrays, 1.5),
            )
