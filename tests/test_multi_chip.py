"""Multi-chip / multi-channel organisation and mapping behaviour.

Algorithm 2's Step-4: "If some data still remains, it is mapped to
different chips, ranks, and channels respectively".  These tests run
the address arithmetic and both mapping policies on a module with more
than one chip, rank and channel.
"""

import numpy as np
import pytest

from dram_oracle import MULTI_CHIP_SPEC, coordinate_of
from repro.core.mapping_policy import _flat_subarray, baseline_mapping, sparkxd_mapping
from repro.dram.organization import DramOrganization
from repro.errors.weak_cells import SubarrayErrorProfile


@pytest.fixture
def org():
    return DramOrganization(MULTI_CHIP_SPEC)


def coordinates(mapping):
    """The oracle coordinates of a mapping's chunks, in data order."""
    return [coordinate_of(mapping.organization, int(s)) for s in mapping.slot_of_chunk]


class TestMultiChipOrganization:
    def test_total_slots_counts_all_levels(self, org):
        assert org.total_slots == 2 * 2 * 2 * 2 * 2 * 2 * 4

    def test_chip_boundary_in_flat_order(self, org):
        g = org.geometry
        per_chip = (
            g.banks_per_chip * g.subarrays_per_bank * g.rows_per_subarray * g.columns_per_row
        )
        last_of_chip0 = coordinate_of(org, per_chip - 1)
        first_of_chip1 = coordinate_of(org, per_chip)
        assert last_of_chip0.chip == 0
        assert first_of_chip1.chip == 1

    def test_subarray_indices_unique_across_chips(self, org):
        # Algorithm 2 numbers every subarray of the module once, in the
        # order its loop nest visits them.
        g = org.geometry
        indices = [
            _flat_subarray(g, channel, rank, chip, bank, subarray)
            for channel in range(g.channels)
            for rank in range(g.ranks_per_channel)
            for chip in range(g.chips_per_rank)
            for bank in range(g.banks_per_chip)
            for subarray in range(g.subarrays_per_bank)
        ]
        assert indices == list(range(org.total_subarrays))


class TestMultiChipMapping:
    def test_baseline_spills_across_chips(self, org):
        g = org.geometry
        per_chip_slots = (
            g.banks_per_chip * g.subarrays_per_bank * g.rows_per_subarray * g.columns_per_row
        )
        n_weights = per_chip_slots + 4  # one chip plus a remainder
        mapping = baseline_mapping(org, n_weights, bits_per_weight=32)
        chips = {c.chip for c in coordinates(mapping)}
        assert chips == {0, 1}

    def test_sparkxd_step4_moves_to_next_chip(self, org):
        # make every subarray of chip 0 (channel 0, rank 0) unsafe:
        # Algorithm 2 Step-4 must spill to the next chip.
        rates = np.zeros(org.total_subarrays)
        for index in range(org.total_subarrays):
            first = coordinate_of(org, index * org.slots_per_subarray())
            if (first.channel, first.rank, first.chip) == (0, 0, 0):
                rates[index] = 0.5
        profile = SubarrayErrorProfile(
            organization=org, v_supply=1.1, device_ber=1e-3, rates=rates
        )
        mapping = sparkxd_mapping(org, n_weights=8, bits_per_weight=32,
                                  profile=profile, ber_threshold=1e-3)
        for coord in coordinates(mapping):
            assert (coord.channel, coord.rank, coord.chip) != (0, 0, 0)

    def test_sparkxd_fills_whole_module_when_needed(self, org):
        rates = np.zeros(org.total_subarrays)
        profile = SubarrayErrorProfile(
            organization=org, v_supply=1.1, device_ber=1e-3, rates=rates
        )
        n_weights = org.total_slots  # 32-bit weights, 1 per slot
        mapping = sparkxd_mapping(org, n_weights, 32, profile, 1e-3)
        assert len(np.unique(mapping.slot_of_chunk)) == org.total_slots
        channels = {c.channel for c in coordinates(mapping)}
        assert channels == {0, 1}
