"""Tests of the row-buffer state machine and cycle accounting."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dram_oracle import OracleRowBufferSimulator, coordinate_of, oracle_stats
from repro.dram.commands import CommandKind
from repro.dram.organization import DramOrganization
from repro.dram.row_buffer import RowBufferSimulator
from repro.dram.specs import DDR5_4800_8GB, LPDDR3_1600_4GB, tiny_spec
from repro.dram.timing import timing_for_voltage

VOLTAGES = (1.35, 1.175, 1.025)


@pytest.fixture
def org():
    return DramOrganization(tiny_spec())


@pytest.fixture
def sim(org):
    timing = timing_for_voltage(org.spec, 1.35)
    return RowBufferSimulator(org, timing)


def per_bank(org):
    g = org.geometry
    return g.subarrays_per_bank * g.rows_per_subarray * g.columns_per_row


def rotating_rows(org):
    """One full row per bank of the first chip, rotating banks, two rounds."""
    g = org.geometry
    return [
        bank * per_bank(org) + row * g.columns_per_row + column
        for row in range(2)
        for bank in range(g.banks_per_chip)
        for column in range(g.columns_per_row)
    ]


class TestClassification:
    def test_first_access_is_miss(self, sim):
        assert sim.run([0]).misses == 1

    def test_same_row_access_is_hit(self, sim):
        stats = sim.run([0, 1])
        assert (stats.misses, stats.hits) == (1, 1)

    def test_other_row_same_bank_is_conflict(self, sim, org):
        other_row = org.geometry.columns_per_row  # row 1, same bank
        stats = sim.run([0, other_row])
        assert (stats.misses, stats.conflicts) == (1, 1)

    def test_other_bank_first_access_is_miss(self, sim, org):
        other_bank = coordinate_of(org, per_bank(org))
        assert other_bank.bank != 0 or other_bank.chip != 0
        stats = sim.run([0, per_bank(org)])
        assert (stats.misses, stats.hits, stats.conflicts) == (2, 0, 0)

    def test_classify_does_not_mutate(self, sim):
        # Each run starts from an idle device: nothing carries over.
        assert sim.run([0]).misses == 1
        assert sim.run([0]).misses == 1  # still a miss
        assert sim.run([0, 0]).hits == 1


class TestCommandCounts:
    def test_hit_issues_only_rd(self, sim):
        stats = sim.run([0, 1])
        assert stats.command_counts[CommandKind.RD] == 2
        assert stats.command_counts[CommandKind.ACT] == 1
        assert stats.command_counts[CommandKind.PRE] == 0

    def test_conflict_issues_pre_act_rd(self, sim, org):
        stats = sim.run([0, org.geometry.columns_per_row])
        assert stats.command_counts[CommandKind.PRE] == 1
        assert stats.command_counts[CommandKind.ACT] == 2
        assert stats.command_counts[CommandKind.RD] == 2

    def test_stats_accumulate(self, sim):
        stats = sim.run([0, 1, 2, 8, 0])
        assert stats.accesses == 5
        assert stats.hits + stats.misses + stats.conflicts == 5


class TestTiming:
    def test_sequential_hits_limited_by_bus(self, org):
        timing = timing_for_voltage(org.spec, 1.35)
        sim = RowBufferSimulator(org, timing)
        n = org.geometry.columns_per_row
        stats = sim.run(range(n))
        # After the first ACT+tRCD, hits stream back-to-back on the bus.
        expected_min = timing.t_rcd_ns + n * timing.burst_time_ns
        assert stats.total_time_ns == pytest.approx(expected_min, rel=0.01)

    def test_same_bank_conflict_pays_full_latency(self, org):
        timing = timing_for_voltage(org.spec, 1.35)
        sim = RowBufferSimulator(org, timing)
        stats = sim.run([0, org.geometry.columns_per_row])  # same-bank conflict
        # From t=0: the PRE waits out tRAS, then tRP and tRCD gate the
        # second RD, which still needs its burst on the bus.
        lower_bound = (
            timing.t_ras_ns + timing.t_rp_ns + timing.t_rcd_ns + timing.burst_time_ns
        )
        assert stats.total_time_ns >= lower_bound * 0.99

    @pytest.mark.parametrize(
        "spec,v",
        [
            (tiny_spec(), 1.35),
            (LPDDR3_1600_4GB, 1.35),
            (LPDDR3_1600_4GB, 1.175),
            (LPDDR3_1600_4GB, 1.025),
        ],
        ids=["tiny-1.35", "lpddr3-1.35", "lpddr3-1.175", "lpddr3-1.025"],
    )
    def test_multi_bank_burst_hides_every_later_activation(self, spec, v):
        """The multi-bank burst (Fig. 9b): streaming one full row per bank,
        rotating banks for two rounds, keeps the bus busy from the first
        tRCD on, so every activation after the first is hidden."""
        org = DramOrganization(spec)
        timing = timing_for_voltage(spec, v)
        trace = rotating_rows(org)
        stats = RowBufferSimulator(org, timing).run(trace)
        assert stats.total_time_ns == timing.t_rcd_ns + len(trace) * timing.burst_time_ns

    def test_hidden_activation_still_waits_for_its_bank(self, org):
        """Hiding never beats a bank's own timing: at 1.025 V the tiny
        device's two 8-column rows stream in 80 ns, less than bank 0
        needs (tRAS, tRP, tRCD from t = 0) to open its second row, so the
        second round starts late and then streams back to back."""
        timing = timing_for_voltage(org.spec, 1.025)
        trace = rotating_rows(org)
        stats = RowBufferSimulator(org, timing).run(trace)
        second_round = len(trace) // 2
        assert stats.total_time_ns == (
            timing.t_ras_ns
            + timing.t_rp_ns
            + timing.t_rcd_ns
            + second_round * timing.burst_time_ns
        )
        assert stats.total_time_ns > timing.t_rcd_ns + len(trace) * timing.burst_time_ns

    def test_derated_timing_slows_misses(self, org):
        g = org.geometry
        trace = [0, g.columns_per_row, 2 * g.columns_per_row]
        nominal = RowBufferSimulator(org, timing_for_voltage(org.spec, 1.35))
        reduced = RowBufferSimulator(org, timing_for_voltage(org.spec, 1.025))
        assert reduced.run(trace).total_time_ns > nominal.run(trace).total_time_ns

    def test_streaming_hits_keep_the_bus_busy(self):
        org = DramOrganization(LPDDR3_1600_4GB)
        sim = RowBufferSimulator(org, timing_for_voltage(org.spec, 1.35))
        stats = sim.run(range(4096))
        assert stats.bus_busy_time_ns / stats.total_time_ns > 0.9

    def test_row_ping_pong_idles_the_bus(self, sim, org):
        # Two rows of one bank in turn: every access after the first is
        # a conflict, so PRE/ACT latency dominates the bus time.
        trace = [0, org.geometry.columns_per_row] * 20
        stats = sim.run(trace)
        assert stats.conflicts == len(trace) - 1
        assert stats.bus_busy_time_ns / stats.total_time_ns < 0.3


class TestFinishAccounting:
    def test_active_time_counted(self, sim):
        stats = sim.run([0])
        assert stats.bank_active_time_ns > 0
        assert stats.banks_touched == 1

    def test_idle_time_nonnegative(self, sim, org):
        stats = sim.run([0, per_bank(org)])
        assert stats.idle_time_ns >= 0
        assert stats.banks_touched == 2

    def test_hit_rate(self, sim):
        stats = sim.run([0, 1, 2, 3])
        assert (stats.accesses, stats.misses, stats.hits) == (4, 1, 3)

    def test_empty_trace(self, sim):
        stats = sim.run([])
        assert (stats.accesses, stats.hits) == (0, 0)
        assert stats.total_time_ns == 0.0


# ----------------------------------------------------------------------
# Bitwise agreement with the per-access oracle (tests/dram_oracle.py).


def assert_matches_oracle(org, slots, v, write):
    timing = timing_for_voltage(org.spec, v)
    measured = RowBufferSimulator(org, timing).run(slots, write=write)
    expected = oracle_stats(org, timing, slots, write=write)
    assert dataclasses.asdict(measured) == dataclasses.asdict(expected)


#: 4 banks of 64-column rows, so same-row runs can be long.  DDR5
#: timing gives a burst time (3.336 ns) that binary floats cannot hold
#: exactly, so summing in another order than the oracle shows.
WIDE_SPEC = dataclasses.replace(
    tiny_spec().scaled(banks_per_chip=4, columns_per_row=64),
    name="wide-test-dram",
    timings=DDR5_4800_8GB.timings,
)


@st.composite
def row_runs(draw):
    """A trace of same-row runs: each a random row, start column and length."""
    columns = WIDE_SPEC.geometry.columns_per_row
    n_rows = DramOrganization(WIDE_SPEC).total_slots // columns
    runs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_rows - 1),
                st.integers(0, columns - 1),
                st.integers(1, 2 * columns),
            ),
            max_size=12,
        )
    )
    return [
        row * columns + (start + k) % columns
        for row, start, length in runs
        for k in range(length)
    ]


class TestMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        slots=st.lists(st.integers(min_value=0, max_value=127), max_size=60),
        v=st.sampled_from(VOLTAGES),
        write=st.booleans(),
    )
    @example(slots=[], v=1.35, write=False)
    @example(slots=[], v=1.025, write=True)
    def test_random_tiny_traces(self, slots, v, write):
        assert_matches_oracle(DramOrganization(tiny_spec()), slots, v, write)

    @settings(max_examples=150, deadline=None)
    @given(
        slots=row_runs(),
        v=st.sampled_from(VOLTAGES),
        write=st.booleans(),
    )
    def test_long_same_row_runs(self, slots, v, write):
        assert_matches_oracle(DramOrganization(WIDE_SPEC), slots, v, write)

    @pytest.mark.parametrize(
        "spec,mild_v", [(LPDDR3_1600_4GB, 1.325), (DDR5_4800_8GB, 1.000)]
    )
    def test_n400_sweep_traces(self, spec, mild_v):
        """The N400 baseline and SparkXD inference traces of the energy
        sweeps, at nominal and at the lowest studied voltage."""
        from repro.core.mapping_policy import baseline_mapping, sparkxd_mapping
        from repro.errors.weak_cells import WeakCellMap
        from repro.trace.generator import InferenceTraceSpec, inference_read_trace

        org = DramOrganization(spec)
        n_weights = 784 * 400
        profile = WeakCellMap(org, sigma=0.8, seed=42).profile_at(mild_v)
        mappings = (
            baseline_mapping(org, n_weights, 32),
            sparkxd_mapping(org, n_weights, 32, profile, 1e-3),
        )
        trace_spec = InferenceTraceSpec(n_weights=n_weights, bits_per_weight=32)
        lowest_v = 1.025 if spec is LPDDR3_1600_4GB else 0.975
        for mapping in mappings:
            trace = inference_read_trace(trace_spec, mapping.slot_of_chunk, org)
            coords = [coordinate_of(org, int(s)) for s in trace]
            for v in (spec.electrical.v_nominal_volts, lowest_v):
                timing = timing_for_voltage(spec, v)
                measured = RowBufferSimulator(org, timing).run(trace)
                expected = OracleRowBufferSimulator(org, timing).run(coords)
                assert dataclasses.asdict(measured) == dataclasses.asdict(expected)
                assert measured.conflicts > 0 and measured.hits > 0.99 * measured.accesses
