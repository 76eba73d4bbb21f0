"""Unit + property tests for DRAM address arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.organization import DramCoordinate, DramOrganization, SubarrayId
from repro.dram.specs import tiny_spec, LPDDR3_1600_4GB


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


class TestRoundTrip:
    def test_first_and_last_slots(self, org):
        first = org.coordinate_of(0)
        assert first == DramCoordinate(0, 0, 0, 0, 0, 0, 0)
        last = org.coordinate_of(org.total_slots - 1)
        g = org.geometry
        assert last.column == g.columns_per_row - 1
        assert last.row == g.rows_per_subarray - 1

    def test_sequential_slots_walk_columns_first(self, org):
        # Baseline mapping order: consecutive slots share a row until the
        # row is full (Section IV-B Step-2: exploit the burst feature).
        c0 = org.coordinate_of(0)
        c1 = org.coordinate_of(1)
        assert c1.column == c0.column + 1
        assert c1.same_row(c0)

    def test_row_boundary_advances_row(self, org):
        g = org.geometry
        before = org.coordinate_of(g.columns_per_row - 1)
        after = org.coordinate_of(g.columns_per_row)
        assert after.row == before.row + 1
        assert after.column == 0

    def test_out_of_range_slot_rejected(self, org):
        with pytest.raises(IndexError):
            org.coordinate_of(org.total_slots)
        with pytest.raises(IndexError):
            org.coordinate_of(-1)

    def test_bad_coordinate_rejected(self, org):
        bad = DramCoordinate(0, 0, 0, 0, 0, 0, org.geometry.columns_per_row)
        with pytest.raises(IndexError):
            org.slot_of(bad)

    @settings(max_examples=200, deadline=None)
    @given(slot=st.integers(min_value=0, max_value=2 * 2 * 4 * 8 - 1))
    def test_roundtrip_identity_property(self, slot):
        org = DramOrganization(tiny_spec())
        assert org.slot_of(org.coordinate_of(slot)) == slot

    @settings(max_examples=50, deadline=None)
    @given(slot=st.integers(min_value=0, max_value=LPDDR3_1600_4GB.geometry.total_size_bits // 64 - 1))
    def test_roundtrip_identity_full_device(self, slot):
        org = DramOrganization(LPDDR3_1600_4GB)
        assert org.slot_of(org.coordinate_of(slot)) == slot


class TestSubarrays:
    def test_subarray_count(self, org):
        assert org.total_subarrays == len(list(org.iter_subarrays()))

    def test_subarray_index_roundtrip(self, org):
        for index in range(org.total_subarrays):
            sid = org.subarray_from_index(index)
            assert org.subarray_index(sid) == index

    def test_subarray_of_coordinate(self, org):
        coord = org.coordinate_of(org.slots_per_subarray())  # first slot of 2nd subarray
        sid = org.subarray_of(coord)
        assert org.subarray_index(sid) == 1

    def test_subarray_index_out_of_range(self, org):
        with pytest.raises(IndexError):
            org.subarray_from_index(org.total_subarrays)

    def test_flat_slot_order_nests_subarray_above_rows(self, org):
        # slot // slots_per_subarray must equal the flat subarray index
        # (the mapping policies rely on this).
        per = org.slots_per_subarray()
        for slot in range(0, org.total_slots, max(1, per // 3)):
            coord = org.coordinate_of(slot)
            assert org.subarray_index(org.subarray_of(coord)) == slot // per


class TestCoordinateHelpers:
    def test_same_row(self):
        a = DramCoordinate(0, 0, 0, 1, 2, 3, 4)
        b = DramCoordinate(0, 0, 0, 1, 2, 3, 7)
        c = DramCoordinate(0, 0, 0, 1, 0, 3, 4)
        assert a.same_row(b) and b.same_row(a)
        assert not a.same_row(c)

    def test_ordering_is_lexicographic(self):
        a = DramCoordinate(0, 0, 0, 0, 0, 0, 1)
        b = DramCoordinate(0, 0, 0, 0, 0, 1, 0)
        assert a < b

    def test_subarray_id_is_hashable_and_ordered(self):
        s1 = SubarrayId(0, 0, 0, 0, 1)
        s2 = SubarrayId(0, 0, 0, 1, 0)
        assert s1 < s2
        assert len({s1, s2, SubarrayId(0, 0, 0, 0, 1)}) == 2
