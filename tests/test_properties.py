"""Cross-module property-based tests (hypothesis).

These pit the production implementations against independent naive
reference models on randomised inputs — the strongest correctness
checks in the suite.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dram_oracle import bank_key, coordinate_of, global_row_key
from repro.core.mapping_policy import sparkxd_mapping
from repro.dram.commands import AccessCondition
from repro.dram.organization import DramOrganization
from repro.dram.row_buffer import RowBufferSimulator
from repro.dram.specs import tiny_spec
from repro.dram.timing import timing_for_voltage
from repro.errors.ecc import CODE_BITS, decode_words, encode_words
from repro.errors.weak_cells import SubarrayErrorProfile


def naive_row_buffer_conditions(org, slots):
    """Reference: classify accesses with a plain dict of open rows."""
    open_rows = {}
    conditions = []
    for slot in slots:
        coord = coordinate_of(org, slot)
        bank = bank_key(coord)
        row = global_row_key(coord)
        if bank not in open_rows:
            conditions.append(AccessCondition.MISS)
        elif open_rows[bank] == row:
            conditions.append(AccessCondition.HIT)
        else:
            conditions.append(AccessCondition.CONFLICT)
        open_rows[bank] = row
    return conditions


class TestRowBufferAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(
        slots=st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=60)
    )
    def test_condition_sequence_matches_reference(self, slots):
        # The condition of access i is what running the first i + 1
        # accesses adds to the counts of running the first i.
        org = DramOrganization(tiny_spec())
        sim = RowBufferSimulator(org, timing_for_voltage(org.spec, 1.35))
        counts = []
        for i in range(len(slots) + 1):
            stats = sim.run(slots[:i])
            counts.append(
                {
                    AccessCondition.HIT: stats.hits,
                    AccessCondition.MISS: stats.misses,
                    AccessCondition.CONFLICT: stats.conflicts,
                }
            )
        measured = [
            next(c for c in AccessCondition if after[c] == before[c] + 1)
            for before, after in zip(counts, counts[1:])
        ]
        expected = naive_row_buffer_conditions(org, slots)
        assert measured == expected

    @settings(max_examples=50, deadline=None)
    @given(
        slots=st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=60)
    )
    def test_command_counts_follow_conditions(self, slots):
        org = DramOrganization(tiny_spec())
        sim = RowBufferSimulator(org, timing_for_voltage(org.spec, 1.35))
        stats = sim.run(slots)
        from repro.dram.commands import CommandKind

        assert stats.command_counts[CommandKind.RD] == len(slots)
        assert stats.command_counts[CommandKind.ACT] == stats.misses + stats.conflicts
        assert stats.command_counts[CommandKind.PRE] == stats.conflicts

    @settings(max_examples=30, deadline=None)
    @given(
        slots=st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=40),
        v=st.sampled_from([1.35, 1.175, 1.025]),
    )
    def test_time_never_less_than_bus_occupancy(self, slots, v):
        org = DramOrganization(tiny_spec())
        timing = timing_for_voltage(org.spec, v)
        sim = RowBufferSimulator(org, timing)
        stats = sim.run(slots)
        assert stats.total_time_ns >= stats.bus_busy_time_ns - 1e-9


class TestEccExhaustive:
    def test_every_single_bit_error_is_corrected(self, rng):
        # exhaustive over all 72 positions of a random codeword batch
        data = rng.integers(0, 2**63, size=4, dtype=np.uint64)
        code = encode_words(data)
        for bit in range(CODE_BITS):
            corrupted = code.copy()
            corrupted[:, bit] ^= 1
            decoded, report = decode_words(corrupted)
            assert np.array_equal(decoded, data), f"bit {bit}"
            assert report.corrected_words == data.size

    @settings(max_examples=100, deadline=None)
    @given(
        word=st.integers(min_value=0, max_value=2**64 - 1),
        b1=st.integers(min_value=0, max_value=CODE_BITS - 1),
        b2=st.integers(min_value=0, max_value=CODE_BITS - 1),
    )
    def test_double_errors_never_silently_corrupt(self, word, b1, b2):
        # SEC-DED guarantee: two flips are either reported uncorrectable
        # or cancel out (b1 == b2) — never a silent wrong correction.
        data = np.array([word], dtype=np.uint64)
        code = encode_words(data)
        code[0, b1] ^= 1
        code[0, b2] ^= 1
        decoded, report = decode_words(code)
        if b1 == b2:
            assert np.array_equal(decoded, data)
            assert report.uncorrectable_words == 0
        else:
            assert report.uncorrectable_words == 1


class TestMappingProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        n_weights=st.integers(min_value=1, max_value=120),
    )
    def test_sparkxd_mapping_respects_threshold_property(self, seed, n_weights):
        org = DramOrganization(tiny_spec())
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0, 2e-3, org.total_subarrays)
        threshold = 1e-3
        if (rates <= threshold).sum() * org.slots_per_subarray() < org.slots_needed(
            n_weights * 32
        ):
            return  # infeasible instance; covered by dedicated tests
        profile = SubarrayErrorProfile(
            organization=org, v_supply=1.1, device_ber=1e-3, rates=rates
        )
        mapping = sparkxd_mapping(org, n_weights, 32, profile, threshold)
        # invariant 1: no duplicate slots
        assert len(np.unique(mapping.slot_of_chunk)) == mapping.slot_of_chunk.size
        # invariant 2: every weight sits in a safe subarray
        used = mapping.subarray_of_weight()
        assert np.all(rates[used] <= threshold)
        # invariant 3: chunk count covers the tensor exactly
        assert mapping.slot_of_chunk.size == org.slots_needed(n_weights * 32)
