"""Unit + property tests for DRAM address arithmetic.

The coordinate of a flat slot comes from the oracle's divmod chain
(``tests/dram_oracle.py``); the decomposition test checks the
production slot arithmetic against it.
"""

import numpy as np
import pytest

from dram_oracle import MULTI_CHIP_SPEC, DramCoordinate, bank_key, coordinate_of
from repro.core.mapping_policy import _flat_subarray, _row_base_slot
from repro.dram.organization import DramOrganization
from repro.dram.specs import DDR5_4800_8GB, LPDDR3_1600_4GB, tiny_spec


@pytest.fixture
def org():
    return DramOrganization(tiny_spec())


class TestCapacity:
    def test_total_slots(self, org):
        g = org.geometry
        expected = (
            g.channels
            * g.ranks_per_channel
            * g.chips_per_rank
            * g.banks_per_chip
            * g.subarrays_per_bank
            * g.rows_per_subarray
            * g.columns_per_row
        )
        assert org.total_slots == expected

    def test_slots_needed_rounds_up(self, org):
        assert org.slots_needed(0) == 0
        assert org.slots_needed(1) == 1
        assert org.slots_needed(org.slot_bits) == 1
        assert org.slots_needed(org.slot_bits + 1) == 2

    def test_slots_needed_rejects_negative(self, org):
        with pytest.raises(ValueError):
            org.slots_needed(-1)


class TestBaselineFillOrder:
    def test_first_and_last_slots(self, org):
        first = coordinate_of(org, 0)
        assert first == DramCoordinate(0, 0, 0, 0, 0, 0, 0)
        last = coordinate_of(org, org.total_slots - 1)
        g = org.geometry
        assert last.column == g.columns_per_row - 1
        assert last.row == g.rows_per_subarray - 1

    def test_sequential_slots_walk_columns_first(self, org):
        # Baseline mapping order: consecutive slots share a row until the
        # row is full (Section IV-B Step-2: exploit the burst feature).
        c0 = coordinate_of(org, 0)
        c1 = coordinate_of(org, 1)
        assert c1.column == c0.column + 1
        assert (c1.bank, c1.subarray, c1.row) == (c0.bank, c0.subarray, c0.row)

    def test_row_boundary_advances_row(self, org):
        g = org.geometry
        before = coordinate_of(org, g.columns_per_row - 1)
        after = coordinate_of(org, g.columns_per_row)
        assert after.row == before.row + 1
        assert after.column == 0

    def test_out_of_range_slot_rejected(self, org):
        with pytest.raises(IndexError):
            coordinate_of(org, org.total_slots)
        with pytest.raises(IndexError):
            coordinate_of(org, -1)


class TestSubarrays:
    def test_subarray_count(self, org):
        per = org.slots_per_subarray()
        subarrays = {
            bank_key(c) + (c.subarray,)
            for c in (coordinate_of(org, s) for s in range(0, org.total_slots, per))
        }
        assert org.total_subarrays == len(subarrays)

    def test_subarray_of_coordinate(self, org):
        coord = coordinate_of(org, org.slots_per_subarray())
        assert (coord.bank, coord.subarray, coord.row, coord.column) == (0, 1, 0, 0)


def _flat_bank(g, c):
    """The oracle's bank, numbered in flat order across the module."""
    index = c.channel
    index = index * g.ranks_per_channel + c.rank
    index = index * g.chips_per_rank + c.chip
    return index * g.banks_per_chip + c.bank


def _sample(spec):
    total = DramOrganization(spec).total_slots
    drawn = np.random.default_rng(0).integers(0, total, 1000)
    return np.concatenate(([0, total - 1], drawn)).tolist()


@pytest.mark.parametrize(
    "spec,slots",
    [
        (tiny_spec(), None),
        (MULTI_CHIP_SPEC, None),
        (LPDDR3_1600_4GB, _sample(LPDDR3_1600_4GB)),
        (DDR5_4800_8GB, _sample(DDR5_4800_8GB)),
    ],
    ids=["tiny", "multi-chip", "lpddr3-sample", "ddr5-sample"],
)
def test_production_slot_arithmetic_matches_the_oracle(spec, slots):
    """Bank (row buffer), subarray (weight mapping) and slot (Algorithm 2)
    of every checked slot agree with the oracle's coordinate."""
    org = DramOrganization(spec)
    g = org.geometry
    if slots is None:
        slots = range(org.total_slots)
    for slot in slots:
        c = coordinate_of(org, slot)
        row = slot // g.columns_per_row
        assert row // g.rows_per_bank == _flat_bank(g, c)
        assert slot // org.slots_per_subarray() == _flat_subarray(
            g, c.channel, c.rank, c.chip, c.bank, c.subarray
        )
        base = _row_base_slot(g, c.channel, c.rank, c.chip, c.bank, c.subarray, c.row)
        assert base + c.column == slot

