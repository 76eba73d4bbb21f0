"""DRAM organisation: coordinates and address mapping.

A :class:`DramCoordinate` names one column-sized slot in the hierarchy of
Fig. 5(a): ``channel / rank / chip / bank / subarray / row / column``.
:class:`DramOrganization` converts between flat *slot indices* (the order
in which the baseline mapping fills the device: column-major within a row,
rows within a subarray, subarrays within a bank, banks within a chip, …)
and coordinates, and exposes subarray bookkeeping used by the error models
and the SparkXD mapping policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.dram.specs import DramGeometry, DramSpec


@dataclass(frozen=True, order=True)
class DramCoordinate:
    """One column slot inside a DRAM module."""

    channel: int
    rank: int
    chip: int
    bank: int
    subarray: int
    row: int
    column: int

    def as_tuple(self) -> Tuple[int, int, int, int, int, int, int]:
        return (
            self.channel,
            self.rank,
            self.chip,
            self.bank,
            self.subarray,
            self.row,
            self.column,
        )

    def same_row(self, other: "DramCoordinate") -> bool:
        """True when ``other`` lies in the same (open-able) DRAM row."""
        return self.as_tuple()[:6] == other.as_tuple()[:6]


@dataclass(frozen=True, order=True)
class SubarrayId:
    """Identifies one subarray: the granularity of the SparkXD mapping."""

    channel: int
    rank: int
    chip: int
    bank: int
    subarray: int


class DramOrganization:
    """Address arithmetic over a :class:`~repro.dram.specs.DramGeometry`."""

    def __init__(self, spec: DramSpec):
        spec.validate()
        self.spec = spec
        self.geometry: DramGeometry = spec.geometry

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # flat index <-> coordinate (baseline fill order)
    # ------------------------------------------------------------------
    def coordinate_of(self, slot: int) -> DramCoordinate:
        """Map a flat slot index to a coordinate.

        The flat order is the *baseline mapping* of the paper's Section
        IV-B Step-2: consecutive data goes to consecutive columns of the
        same row (exploiting the burst feature), then the next row of the
        same subarray, then the next subarray, the next bank, chip, rank,
        and channel.
        """
        g = self.geometry
        if not 0 <= slot < self.total_slots:
            raise IndexError(f"slot {slot} out of range [0, {self.total_slots})")
        slot, column = divmod(slot, g.columns_per_row)
        slot, row = divmod(slot, g.rows_per_subarray)
        slot, subarray = divmod(slot, g.subarrays_per_bank)
        slot, bank = divmod(slot, g.banks_per_chip)
        slot, chip = divmod(slot, g.chips_per_rank)
        channel, rank = divmod(slot, g.ranks_per_channel)
        return DramCoordinate(channel, rank, chip, bank, subarray, row, column)

    def slot_of(self, coord: DramCoordinate) -> int:
        """Inverse of :meth:`coordinate_of`."""
        g = self.geometry
        self._check_coordinate(coord)
        slot = coord.channel
        slot = slot * g.ranks_per_channel + coord.rank
        slot = slot * g.chips_per_rank + coord.chip
        slot = slot * g.banks_per_chip + coord.bank
        slot = slot * g.subarrays_per_bank + coord.subarray
        slot = slot * g.rows_per_subarray + coord.row
        slot = slot * g.columns_per_row + coord.column
        return slot

    def _check_coordinate(self, coord: DramCoordinate) -> None:
        g = self.geometry
        bounds = (
            ("channel", coord.channel, g.channels),
            ("rank", coord.rank, g.ranks_per_channel),
            ("chip", coord.chip, g.chips_per_rank),
            ("bank", coord.bank, g.banks_per_chip),
            ("subarray", coord.subarray, g.subarrays_per_bank),
            ("row", coord.row, g.rows_per_subarray),
            ("column", coord.column, g.columns_per_row),
        )
        for name, value, limit in bounds:
            if not 0 <= value < limit:
                raise IndexError(f"{name}={value} out of range [0, {limit})")

    # ------------------------------------------------------------------
    # subarray bookkeeping
    # ------------------------------------------------------------------
    @property
    def total_subarrays(self) -> int:
        return self.geometry.total_subarrays

    def subarray_of(self, coord: DramCoordinate) -> SubarrayId:
        return SubarrayId(coord.channel, coord.rank, coord.chip, coord.bank, coord.subarray)

    def subarray_index(self, subarray: SubarrayId) -> int:
        """Flat index of a subarray, matching :meth:`iter_subarrays` order."""
        g = self.geometry
        idx = subarray.channel
        idx = idx * g.ranks_per_channel + subarray.rank
        idx = idx * g.chips_per_rank + subarray.chip
        idx = idx * g.banks_per_chip + subarray.bank
        idx = idx * g.subarrays_per_bank + subarray.subarray
        return idx

    def subarray_from_index(self, index: int) -> SubarrayId:
        g = self.geometry
        if not 0 <= index < self.total_subarrays:
            raise IndexError(f"subarray index {index} out of range [0, {self.total_subarrays})")
        index, subarray = divmod(index, g.subarrays_per_bank)
        index, bank = divmod(index, g.banks_per_chip)
        index, chip = divmod(index, g.chips_per_rank)
        channel, rank = divmod(index, g.ranks_per_channel)
        return SubarrayId(channel, rank, chip, bank, subarray)

    def iter_subarrays(self) -> Iterator[SubarrayId]:
        for index in range(self.total_subarrays):
            yield self.subarray_from_index(index)

    def slots_per_subarray(self) -> int:
        g = self.geometry
        return g.rows_per_subarray * g.columns_per_row

    def bank_key(self, coord: DramCoordinate) -> Tuple[int, int, int, int]:
        """Hashable identity of the bank holding ``coord``."""
        return (coord.channel, coord.rank, coord.chip, coord.bank)

    def global_row_key(self, coord: DramCoordinate) -> Tuple[int, int, int, int, int, int]:
        """Hashable identity of the DRAM row holding ``coord``."""
        return (
            coord.channel,
            coord.rank,
            coord.chip,
            coord.bank,
            coord.subarray,
            coord.row,
        )
