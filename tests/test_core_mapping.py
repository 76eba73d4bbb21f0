"""Tests of the DRAM mapping policies (Algorithm 2 and the baseline)."""

import numpy as np
import pytest

from dram_oracle import coordinate_of
from repro.core.mapping_policy import (
    MAPPING_POLICIES,
    InsufficientSafeCapacityError,
    baseline_mapping,
    sparkxd_mapping,
)
from repro.dram.organization import DramOrganization
from repro.dram.specs import tiny_spec
from repro.errors.weak_cells import SubarrayErrorProfile


@pytest.fixture
def org():
    return DramOrganization(tiny_spec())


def profile_with_rates(org, rates):
    return SubarrayErrorProfile(
        organization=org,
        v_supply=1.1,
        device_ber=float(np.mean(rates)),
        rates=np.asarray(rates, dtype=float),
    )


class TestBaselineMapping:
    def test_sequential_slots(self, org):
        mapping = baseline_mapping(org, n_weights=16, bits_per_weight=32)
        assert np.array_equal(mapping.slot_of_chunk, np.arange(16))
        assert mapping.policy == "baseline-sequential"

    def test_capacity_guard(self, org):
        too_many = org.total_slots * org.slot_bits // 32 + 1
        with pytest.raises(InsufficientSafeCapacityError):
            baseline_mapping(org, n_weights=too_many, bits_per_weight=32)

    def test_weights_per_chunk(self, org):
        mapping = baseline_mapping(org, n_weights=16, bits_per_weight=8)
        assert mapping.weights_per_chunk == org.slot_bits // 8

    def test_subarray_of_weight(self, org):
        per_subarray = org.slots_per_subarray()
        n_weights = per_subarray + 4  # spills into the second subarray
        mapping = baseline_mapping(org, n_weights=n_weights, bits_per_weight=32)
        subarrays = mapping.subarray_of_weight()
        assert subarrays.shape == (n_weights,)
        assert subarrays[0] == 0
        assert subarrays[-1] == 1
        assert set(subarrays) == {0, 1}

    def test_validation(self, org):
        with pytest.raises(ValueError):
            baseline_mapping(org, n_weights=0, bits_per_weight=32)


class TestSparkXDMapping:
    def test_all_safe_uses_bank_rotation(self, org):
        # Algorithm 2 loop order: row -> subarray -> bank -> column.
        # With everything safe, the first row of subarray 0 is filled in
        # bank 0 then bank 1 before any second row is touched.
        g = org.geometry
        rates = np.zeros(org.total_subarrays)
        mapping = sparkxd_mapping(
            org, n_weights=2 * g.columns_per_row, bits_per_weight=32,
            profile=profile_with_rates(org, rates), ber_threshold=1e-3,
        )
        coords = [coordinate_of(org, int(s)) for s in mapping.slot_of_chunk]
        first_row = coords[: g.columns_per_row]
        second_row = coords[g.columns_per_row :]
        assert all(c.bank == 0 and c.row == 0 and c.subarray == 0 for c in first_row)
        assert all(c.bank == 1 and c.row == 0 and c.subarray == 0 for c in second_row)
        assert [c.column for c in first_row] == list(range(g.columns_per_row))

    def test_unsafe_subarrays_skipped(self, org):
        rates = np.zeros(org.total_subarrays)
        rates[0] = 0.5  # subarray 0 (bank 0) unsafe
        mapping = sparkxd_mapping(
            org, n_weights=8, bits_per_weight=32,
            profile=profile_with_rates(org, rates), ber_threshold=1e-3,
        )
        assert 0 not in mapping.subarray_of_weight()

    def test_threshold_boundary_is_inclusive(self, org):
        # Algorithm 2 line 7: subarray_rate <= BER_th is safe.
        rates = np.full(org.total_subarrays, 1e-3)
        mapping = sparkxd_mapping(
            org, n_weights=4, bits_per_weight=32,
            profile=profile_with_rates(org, rates), ber_threshold=1e-3,
        )
        assert mapping.slot_of_chunk.size == 4

    def test_insufficient_safe_capacity_raises(self, org):
        rates = np.full(org.total_subarrays, 0.5)
        rates[0] = 0.0  # only one safe subarray
        too_big = org.slots_per_subarray() * (org.slot_bits // 32) + 1
        with pytest.raises(InsufficientSafeCapacityError, match="safe subarrays"):
            sparkxd_mapping(
                org, n_weights=too_big, bits_per_weight=32,
                profile=profile_with_rates(org, rates), ber_threshold=1e-3,
            )

    def test_exactly_fitting_capacity_succeeds(self, org):
        rates = np.full(org.total_subarrays, 0.5)
        rates[0] = 0.0
        exactly = org.slots_per_subarray() * (org.slot_bits // 32)
        mapping = sparkxd_mapping(
            org, n_weights=exactly, bits_per_weight=32,
            profile=profile_with_rates(org, rates), ber_threshold=1e-3,
        )
        assert np.unique(mapping.subarray_of_weight()).tolist() == [0]

    def test_no_duplicate_slots(self, org):
        rates = np.zeros(org.total_subarrays)
        n = org.total_slots // 2
        mapping = sparkxd_mapping(
            org, n_weights=n, bits_per_weight=32,
            profile=profile_with_rates(org, rates), ber_threshold=1.0,
        )
        assert len(np.unique(mapping.slot_of_chunk)) == mapping.slot_of_chunk.size

    def test_mapped_weights_only_in_safe_subarrays(self, org):
        rng = np.random.default_rng(0)
        rates = rng.uniform(0, 1e-2, org.total_subarrays)
        threshold = float(np.median(rates))
        mapping = sparkxd_mapping(
            org, n_weights=16, bits_per_weight=32,
            profile=profile_with_rates(org, rates), ber_threshold=threshold,
        )
        used = mapping.subarray_of_weight()
        assert np.all(rates[used] <= threshold)

    def test_geometry_mismatch_rejected(self, org):
        other = DramOrganization(tiny_spec().scaled(rows_per_subarray=8))
        rates = np.zeros(other.total_subarrays)
        with pytest.raises(ValueError, match="geometry"):
            sparkxd_mapping(
                org, n_weights=4, bits_per_weight=32,
                profile=profile_with_rates(other, rates), ber_threshold=1.0,
            )


    @pytest.mark.parametrize("n_weights,bits", [(0, 32), (4, 0)])
    def test_empty_tensor_rejected(self, org, n_weights, bits):
        rates = np.zeros(org.total_subarrays)
        with pytest.raises(ValueError, match="must be > 0"):
            sparkxd_mapping(
                org, n_weights=n_weights, bits_per_weight=bits,
                profile=profile_with_rates(org, rates), ber_threshold=1.0,
            )


class TestPolicyRegistry:
    @pytest.mark.parametrize("name", ["baseline", "sparkxd"])
    def test_registered_policy_builds_its_labelled_mapping(self, org, name):
        # The mapping stage calls policies through the registry; a policy
        # labels its mappings the way infeasible outcomes are reported.
        policy = MAPPING_POLICIES.get(name)
        rates = np.zeros(org.total_subarrays)
        mapping = policy(org, 16, 32, profile_with_rates(org, rates), 1.0)
        assert mapping.policy == policy.label
        assert mapping.n_weights == 16
        assert len(np.unique(mapping.slot_of_chunk)) == len(mapping.slot_of_chunk)


class TestWeightMappingInvariants:
    def test_chunk_count_validated(self, org):
        from repro.core.mapping_policy import WeightMapping

        with pytest.raises(ValueError):
            WeightMapping(
                organization=org,
                slot_of_chunk=np.arange(3),
                bits_per_weight=32,
                n_weights=16,
                policy="bad",
            )
