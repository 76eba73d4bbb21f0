"""DRAM organisation: capacity and subarray bookkeeping over flat slots.

Every address in the library is a flat *slot index*: one column-sized
slot of the hierarchy of Fig. 5(a), numbered in the order the baseline
mapping fills the device (column-major within a row, rows within a
subarray, subarrays within a bank, banks within a chip, …).  The slot
arithmetic lives where it is used: the row buffer derives rows and
banks (``slot // columns_per_row``, then ``row // rows_per_bank``), the
weight mapping derives subarrays (``slot // slots_per_subarray``), and
Algorithm 2 composes slots from its loop nest
(:mod:`repro.core.mapping_policy`).
"""

from __future__ import annotations

from repro.dram.specs import DramGeometry, DramSpec


class DramOrganization:
    """Capacity arithmetic over a :class:`~repro.dram.specs.DramGeometry`."""

    def __init__(self, spec: DramSpec):
        spec.validate()
        self.spec = spec
        self.geometry: DramGeometry = spec.geometry

    @property
    def total_slots(self) -> int:
        """Number of column-sized slots in the whole module."""
        g = self.geometry
        return (
            g.channels
            * g.ranks_per_channel
            * g.chips_per_rank
            * g.banks_per_chip
            * g.subarrays_per_bank
            * g.rows_per_subarray
            * g.columns_per_row
        )

    @property
    def slot_bits(self) -> int:
        return self.geometry.column_width_bits

    def slots_needed(self, n_bits: int) -> int:
        """Number of column slots needed to hold ``n_bits`` of data."""
        if n_bits < 0:
            raise ValueError(f"n_bits must be >= 0, got {n_bits}")
        return -(-n_bits // self.slot_bits)  # ceil division

    @property
    def total_subarrays(self) -> int:
        return self.geometry.total_subarrays

    def slots_per_subarray(self) -> int:
        g = self.geometry
        return g.rows_per_subarray * g.columns_per_row
