"""Per-access row-buffer simulator: the reference the array executor must match.

This is the original implementation of
:class:`repro.dram.row_buffer.RowBufferSimulator`, kept verbatim so tests
can compare the production executor against it field by field with
``==``.  It walks the trace one :class:`DramCoordinate` at a time,
classifies each access as row-buffer **hit**, **miss** or **conflict**
(Section II-B1), and tracks the latency model:

- each bank has its own row buffer and its own timing state
  (``tRP``-after-PRE, ``tRCD``-after-ACT, ``tRAS`` minimum open time);
- all banks share one data bus; each RD burst occupies it for
  ``burst_time_ns``;
- commands to *different* banks overlap freely (the multi-bank burst
  feature of Fig. 9b) — while bank 0 streams data, bank 1 can activate.

The coordinates come from :func:`coordinate_of`, a divmod chain over the
geometry that is independent of the production slot arithmetic (the
row buffer's ``slot // columns_per_row`` and ``row // rows_per_bank``,
the mapping's ``slot // slots_per_subarray`` and Algorithm 2's loop
nest), so tests can check that arithmetic against it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dram.commands import AccessCondition, CommandKind
from repro.dram.organization import DramOrganization
from repro.dram.row_buffer import TraceStatistics
from repro.dram.specs import tiny_spec
from repro.dram.timing import TimingParameters

BankKey = Tuple[int, int, int, int]
RowKey = Tuple[int, int, int, int, int, int]

#: A module with two of every level, so every step of
#: :func:`coordinate_of`'s divmod chain moves the coordinate.
MULTI_CHIP_SPEC = replace(tiny_spec(), name="multi-chip-test").scaled(
    channels=2,
    ranks_per_channel=2,
    chips_per_rank=2,
    rows_per_subarray=2,
    columns_per_row=4,
)


@dataclass(frozen=True)
class DramCoordinate:
    """One column slot inside a DRAM module (Fig. 5a)."""

    channel: int
    rank: int
    chip: int
    bank: int
    subarray: int
    row: int
    column: int


def coordinate_of(organization: DramOrganization, slot: int) -> DramCoordinate:
    """The coordinate of flat slot ``slot``.

    The flat order is the *baseline mapping* of the paper's Section
    IV-B Step-2: consecutive data goes to consecutive columns of the
    same row (exploiting the burst feature), then the next row of the
    same subarray, then the next subarray, the next bank, chip, rank,
    and channel.
    """
    g = organization.geometry
    if not 0 <= slot < organization.total_slots:
        raise IndexError(f"slot {slot} out of range [0, {organization.total_slots})")
    slot, column = divmod(slot, g.columns_per_row)
    slot, row = divmod(slot, g.rows_per_subarray)
    slot, subarray = divmod(slot, g.subarrays_per_bank)
    slot, bank = divmod(slot, g.banks_per_chip)
    slot, chip = divmod(slot, g.chips_per_rank)
    channel, rank = divmod(slot, g.ranks_per_channel)
    return DramCoordinate(channel, rank, chip, bank, subarray, row, column)


def bank_key(coord: DramCoordinate) -> BankKey:
    """Hashable identity of the bank holding ``coord``."""
    return (coord.channel, coord.rank, coord.chip, coord.bank)


def global_row_key(coord: DramCoordinate) -> RowKey:
    """Hashable identity of the DRAM row holding ``coord``."""
    return (coord.channel, coord.rank, coord.chip, coord.bank, coord.subarray, coord.row)


@dataclass
class BankState:
    """Mutable per-bank controller state."""

    open_row: Optional[RowKey] = None
    #: earliest time the next ACT may issue (after tRP of a PRE).
    ready_for_activate_ns: float = 0.0
    #: earliest time a RD may issue to the open row (after tRCD).
    ready_for_read_ns: float = 0.0
    #: earliest time a PRE may issue (tRAS after the last ACT).
    ready_for_precharge_ns: float = 0.0
    #: cumulative time this bank has had a row open (for standby energy).
    active_time_ns: float = 0.0
    _last_activate_ns: float = 0.0


class OracleRowBufferSimulator:
    """Executes a read trace against per-bank row buffers, one access at a time.

    Parameters
    ----------
    organization:
        Address arithmetic for the device being simulated.
    timing:
        Resolved (possibly voltage-derated) timing parameters.
    """

    def __init__(self, organization: DramOrganization, timing: TimingParameters):
        self.organization = organization
        self.timing = timing
        self.banks: Dict[BankKey, BankState] = {}
        self._bus_free_ns: float = 0.0
        self._now_ns: float = 0.0
        self._last_bank: BankKey | None = None
        self.stats = TraceStatistics()

    # ------------------------------------------------------------------
    def _bank(self, key: BankKey) -> BankState:
        if key not in self.banks:
            self.banks[key] = BankState()
        return self.banks[key]

    def classify(self, coord: DramCoordinate) -> AccessCondition:
        """Row-buffer outcome the next access to ``coord`` would see."""
        bank = self._bank(bank_key(coord))
        row = global_row_key(coord)
        if bank.open_row is None:
            return AccessCondition.MISS
        if bank.open_row == row:
            return AccessCondition.HIT
        return AccessCondition.CONFLICT

    # ------------------------------------------------------------------
    def access(self, coord: DramCoordinate, write: bool = False) -> AccessCondition:
        """Execute one column access; returns its row-buffer condition.

        ``write=True`` issues WR instead of RD (same row-buffer and bus
        behaviour; the energy model prices the commands differently).
        """
        timing = self.timing
        key = bank_key(coord)
        bank = self._bank(key)
        row = global_row_key(coord)
        condition = self.classify(coord)

        # The multi-bank burst (Fig. 9b): PRE/ACT to a bank that is not
        # the one currently driving the bus may be issued before "now"
        # (the controller saw the stream coming), as early as that
        # bank's own timing allows; same-bank transitions always pay
        # their latency in-line.
        hidden = self._last_bank is not None and key != self._last_bank

        t = self._now_ns
        if condition is AccessCondition.CONFLICT:
            # PRE may only issue tRAS after the row was opened.
            t = bank.ready_for_precharge_ns if hidden else max(t, bank.ready_for_precharge_ns)
            self._close_row(bank, t)
            self.stats.command_counts[CommandKind.PRE] += 1
            bank.ready_for_activate_ns = t + timing.t_rp_ns

        if condition in (AccessCondition.MISS, AccessCondition.CONFLICT):
            t = bank.ready_for_activate_ns if hidden else max(t, bank.ready_for_activate_ns)
            bank.open_row = row
            bank._last_activate_ns = t
            bank.ready_for_read_ns = t + timing.t_rcd_ns
            bank.ready_for_precharge_ns = t + timing.t_ras_ns
            self.stats.command_counts[CommandKind.ACT] += 1

        # RD: wait for the bank's tRCD and for the shared data bus.
        start = max(t, bank.ready_for_read_ns, self._bus_free_ns)
        finish = start + timing.burst_time_ns
        self._bus_free_ns = finish
        self._now_ns = start  # the controller can issue to other banks meanwhile
        self.stats.command_counts[CommandKind.WR if write else CommandKind.RD] += 1
        self.stats.bus_busy_time_ns += timing.burst_time_ns
        self._last_bank = key

        self.stats.accesses += 1
        if condition is AccessCondition.HIT:
            self.stats.hits += 1
        elif condition is AccessCondition.MISS:
            self.stats.misses += 1
        else:
            self.stats.conflicts += 1
        self.stats.total_time_ns = max(self.stats.total_time_ns, finish)
        return condition

    def _close_row(self, bank: BankState, when_ns: float) -> None:
        if bank.open_row is not None:
            bank.active_time_ns += max(0.0, when_ns - bank._last_activate_ns)
            bank.open_row = None

    def run(
        self, trace: Iterable[DramCoordinate], write: bool = False
    ) -> TraceStatistics:
        """Execute a whole trace and return the final statistics."""
        conditions: List[AccessCondition] = []
        for coord in trace:
            conditions.append(self.access(coord, write=write))
        return self.finish()

    def finish(self) -> TraceStatistics:
        """Close all rows and finalise aggregate counters."""
        end = self.stats.total_time_ns
        for bank in self.banks.values():
            self._close_row(bank, end)
        self.stats.bank_active_time_ns = sum(b.active_time_ns for b in self.banks.values())
        self.stats.banks_touched = len(self.banks)
        return self.stats


def oracle_stats(
    organization: DramOrganization,
    timing: TimingParameters,
    slots: Iterable[int],
    write: bool = False,
) -> TraceStatistics:
    """Statistics of the slot trace ``slots`` under the per-access simulator."""
    simulator = OracleRowBufferSimulator(organization, timing)
    return simulator.run((coordinate_of(organization, int(s)) for s in slots), write=write)
