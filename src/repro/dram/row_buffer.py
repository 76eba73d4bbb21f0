"""Row-buffer state machine and cycle accounting.

Executes a sequence of column-granular accesses (a *trace* of flat slot
indices), classifies each as row-buffer **hit**, **miss** or **conflict**
(Section II-B1), expands it into DRAM commands, and tracks a simple but
faithful latency model:

- each bank has its own row buffer and its own timing state
  (``tRP``-after-PRE, ``tRCD``-after-ACT, ``tRAS`` minimum open time);
- all banks share one data bus; each RD burst occupies it for
  ``burst_time_ns``;
- commands to *different* banks overlap freely (the multi-bank burst
  feature of Fig. 9b) — while bank 0 streams data, bank 1 can activate.
  PRE/ACT to a bank other than the one currently streaming issue as
  early as that bank's own timing allows, hiding their latency behind
  the data transfer; same-bank row transitions are never hidden (the
  bank must close its own row first).

This is an open-page policy controller: rows stay open until a conflict
forces a precharge, which matches both the baseline mapping (sequential
fill, Section IV-B Step-2) and the SparkXD mapping (row-hit maximising,
Section IV-D).

The trace is executed as arrays.  It is cut into maximal *segments* of
consecutive accesses to one row.  Only a segment's first access can
miss or conflict, so the per-bank recurrence runs once per segment; the
rest of the segment are hits that stream back to back on the bus, each
starting when the previous burst finishes.  Their finish times are a
running sum, accumulated in access order so every time is bitwise the
one a per-access walk computes (``tests/dram_oracle.py`` holds that walk
and the tests compare the two with ``==``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Union

import numpy as np

from repro.dram.commands import CommandKind
from repro.dram.organization import DramOrganization
from repro.dram.timing import TimingParameters


@dataclass
class TraceStatistics:
    """Counters produced by one trace execution."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    conflicts: int = 0
    command_counts: Dict[CommandKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in CommandKind}
    )
    total_time_ns: float = 0.0
    bus_busy_time_ns: float = 0.0
    bank_active_time_ns: float = 0.0
    banks_touched: int = 0

    @property
    def idle_time_ns(self) -> float:
        """Aggregate bank-idle time across touched banks."""
        if self.banks_touched == 0:
            return 0.0
        return max(0.0, self.banks_touched * self.total_time_ns - self.bank_active_time_ns)


class RowBufferSimulator:
    """Executes an access trace against per-bank row buffers.

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

    def run(
        self, slots: Union[Sequence[int], np.ndarray], write: bool = False
    ) -> TraceStatistics:
        """Execute a trace of flat slot indices, in access order.

        Every call starts from an idle device with all rows closed and
        ends by closing the open rows.  ``write=True`` issues WR instead
        of RD (same row-buffer and bus behaviour; the energy model
        prices the commands differently).  A slot outside the device
        raises :class:`IndexError`.
        """
        slots = np.asarray(slots, dtype=np.int64)
        total_slots = self.organization.total_slots
        if slots.size and (slots.min() < 0 or slots.max() >= total_slots):
            bad = slots[(slots < 0) | (slots >= total_slots)][0]
            raise IndexError(f"slot {bad} out of range [0, {total_slots})")

        geometry = self.organization.geometry
        rows = slots // geometry.columns_per_row
        # Segment heads: the first access and every access whose row
        # differs from the previous access's.
        heads = np.flatnonzero(rows[1:] != rows[:-1]) + 1
        if rows.size:
            heads = np.concatenate(([0], heads))
        lengths = np.diff(heads, append=rows.size)
        head_rows = rows[heads]
        head_banks = head_rows // geometry.rows_per_bank

        timing = self.timing
        t_rcd, t_ras, t_rp = timing.t_rcd_ns, timing.t_ras_ns, timing.t_rp_ns
        burst = timing.burst_time_ns
        # Per touched bank, in first-touch order: (open row, ready for
        # RD, ready for PRE, last ACT time, active time so far).
        banks: Dict[int, tuple] = {}
        bus_free = now = total_time = busy = 0.0
        last_bank = None
        misses = conflicts = 0
        for row, bank, length in zip(head_rows.tolist(), head_banks.tolist(), lengths.tolist()):
            # PRE/ACT to a bank that is not the one currently driving
            # the bus may be issued before "now" (the controller saw the
            # stream coming); same-bank transitions always pay their
            # latency in-line.
            hidden = last_bank is not None and bank != last_bank
            t = now
            state = banks.get(bank)
            if state is None:
                # Miss: the bank has been precharged and idle since t = 0.
                misses += 1
                t = 0.0 if hidden else max(t, 0.0)
                opened_at, ready_read, ready_pre, active = t, t + t_rcd, t + t_ras, 0.0
            else:
                open_row, ready_read, ready_pre, opened_at, active = state
                if row != open_row:
                    # Conflict: PRE may only issue tRAS after the row was
                    # opened; ACT follows tRP later.
                    conflicts += 1
                    t = ready_pre if hidden else max(t, ready_pre)
                    active += max(0.0, t - opened_at)
                    ready_activate = t + t_rp
                    t = ready_activate if hidden else max(t, ready_activate)
                    opened_at, ready_read, ready_pre = t, t + t_rcd, t + t_ras
            banks[bank] = (row, ready_read, ready_pre, opened_at, active)

            # RD: wait for the bank's tRCD and for the shared data bus.
            start = max(t, ready_read, bus_free)
            finish = start + burst
            busy += burst
            if length > 1:
                # The rest of the segment: each hit starts as the
                # previous burst finishes.
                steps = np.full(length, burst)
                steps[0] = finish
                np.add.accumulate(steps, out=steps)
                start, finish = float(steps[-2]), float(steps[-1])
                steps.fill(burst)
                steps[0] = busy
                busy = float(np.add.accumulate(steps, out=steps)[-1])
            bus_free, now = finish, start
            total_time = max(total_time, finish)
            last_bank = bank

        accesses = int(rows.size)
        stats = TraceStatistics(
            accesses=accesses,
            hits=accesses - misses - conflicts,
            misses=misses,
            conflicts=conflicts,
            total_time_ns=total_time,
            bus_busy_time_ns=busy,
            banks_touched=len(banks),
        )
        stats.command_counts[CommandKind.PRE] = conflicts
        stats.command_counts[CommandKind.ACT] = misses + conflicts
        stats.command_counts[CommandKind.WR if write else CommandKind.RD] = accesses
        # Close every open row at the end of the trace, bank by bank.
        stats.bank_active_time_ns = sum(
            active + max(0.0, total_time - opened_at)
            for _, _, _, opened_at, active in banks.values()
        )
        return stats
