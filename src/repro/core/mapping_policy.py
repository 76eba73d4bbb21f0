"""DRAM mapping policies: baseline sequential and SparkXD's Algorithm 2.

A mapping assigns every weight *chunk* (one column-slot's worth of
weights, in data order) to a DRAM slot:

- **baseline** (Section IV-B Step-2): chunks fill subsequent addresses
  of a bank — consecutive columns of a row, then the next row of the
  same subarray, then the next subarray; when the bank is full, the
  next bank of the same chip.  This is the device's flat slot order.
- **SparkXD** (Section IV-D, Algorithm 2): chunks are placed only in
  *safe* subarrays (error rate ≤ BER_th), filling all columns of a row
  before moving on (maximising row hits) and rotating across banks at
  row granularity (exposing the multi-bank burst of Fig. 9b).  The loop
  nest order is exactly the algorithm's:
  ``channel → rank → chip → row → subarray → bank → column``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.organization import DramOrganization
from repro.errors.weak_cells import SubarrayErrorProfile
from repro.registry import Registry


class InsufficientSafeCapacityError(RuntimeError):
    """Raised when safe subarrays cannot hold the weight tensor."""


@dataclass(frozen=True)
class WeightMapping:
    """Where each weight chunk lives in DRAM.

    ``slot_of_chunk[i]`` is the flat DRAM slot of data chunk ``i``;
    chunks follow the weight tensor's flattened order.
    """

    organization: DramOrganization
    slot_of_chunk: np.ndarray
    bits_per_weight: int
    n_weights: int
    policy: str

    def __post_init__(self):
        slots = np.asarray(self.slot_of_chunk)
        needed = self.organization.slots_needed(self.n_weights * self.bits_per_weight)
        if slots.shape != (needed,):
            raise ValueError(
                f"mapping must cover {needed} chunks, got {slots.shape}"
            )

    @property
    def weights_per_chunk(self) -> int:
        return max(1, self.organization.slot_bits // self.bits_per_weight)

    def subarray_of_weight(self) -> np.ndarray:
        """Flat subarray index of every weight (for error injection)."""
        slots = np.asarray(self.slot_of_chunk, dtype=np.int64)
        # Flat slot order is column-major: subarray changes every
        # rows_per_subarray * columns_per_row slots within a bank.
        subarray_of_chunk = slots // self.organization.slots_per_subarray()
        wpc = self.weights_per_chunk
        per_weight = np.repeat(subarray_of_chunk, wpc)[: self.n_weights]
        return per_weight


def baseline_mapping(
    organization: DramOrganization, n_weights: int, bits_per_weight: int
) -> WeightMapping:
    """Sequential fill of subsequent addresses (Section IV-B Step-2)."""
    if n_weights <= 0 or bits_per_weight <= 0:
        raise ValueError("n_weights and bits_per_weight must be > 0")
    needed = organization.slots_needed(n_weights * bits_per_weight)
    if needed > organization.total_slots:
        raise InsufficientSafeCapacityError(
            f"tensor needs {needed} slots; device has {organization.total_slots}"
        )
    return WeightMapping(
        organization=organization,
        slot_of_chunk=np.arange(needed, dtype=np.int64),
        bits_per_weight=bits_per_weight,
        n_weights=n_weights,
        policy="baseline-sequential",
    )


def sparkxd_mapping(
    organization: DramOrganization,
    n_weights: int,
    bits_per_weight: int,
    profile: SubarrayErrorProfile,
    ber_threshold: float,
) -> WeightMapping:
    """Algorithm 2: safe-subarray, row-hit-maximising, bank-rotating map.

    Raises :class:`InsufficientSafeCapacityError` when the safe
    subarrays cannot hold the tensor — the caller should then either
    raise the supply voltage (lower BER) or relax the accuracy bound
    (higher ``ber_threshold``).
    """
    if n_weights <= 0 or bits_per_weight <= 0:
        raise ValueError("n_weights and bits_per_weight must be > 0")
    if profile.organization is not organization and (
        profile.organization.geometry != organization.geometry
    ):
        raise ValueError("profile belongs to a different device geometry")
    g = organization.geometry
    needed = organization.slots_needed(n_weights * bits_per_weight)
    safe = profile.safe_mask(ber_threshold)
    capacity = int(safe.sum()) * organization.slots_per_subarray()
    if needed > capacity:
        raise InsufficientSafeCapacityError(
            f"tensor needs {needed} slots; safe subarrays provide {capacity} "
            f"({int(safe.sum())}/{organization.total_subarrays} subarrays "
            f"at BER_th={ber_threshold:g})"
        )

    columns = np.arange(g.columns_per_row, dtype=np.int64)
    pieces: list[np.ndarray] = []
    collected = 0
    # Loop nest of Algorithm 2: ch, ra, cp, ro, su, ba, co.
    for channel in range(g.channels):
        for rank in range(g.ranks_per_channel):
            for chip in range(g.chips_per_rank):
                for row in range(g.rows_per_subarray):
                    for subarray in range(g.subarrays_per_bank):
                        for bank in range(g.banks_per_chip):
                            flat_subarray = _flat_subarray(
                                g, channel, rank, chip, bank, subarray
                            )
                            if not safe[flat_subarray]:
                                continue
                            base = _row_base_slot(
                                g, channel, rank, chip, bank, subarray, row
                            )
                            pieces.append(base + columns)
                            collected += g.columns_per_row
                            if collected >= needed:
                                slots = np.concatenate(pieces)[:needed]
                                return WeightMapping(
                                    organization=organization,
                                    slot_of_chunk=slots,
                                    bits_per_weight=bits_per_weight,
                                    n_weights=n_weights,
                                    policy="sparkxd-algorithm2",
                                )
    raise InsufficientSafeCapacityError(
        "ran out of safe slots while mapping (should have been caught above)"
    )


def _flat_subarray(g, channel, rank, chip, bank, subarray) -> int:
    idx = channel
    idx = idx * g.ranks_per_channel + rank
    idx = idx * g.chips_per_rank + chip
    idx = idx * g.banks_per_chip + bank
    idx = idx * g.subarrays_per_bank + subarray
    return idx


def _row_base_slot(g, channel, rank, chip, bank, subarray, row) -> int:
    slot = channel
    slot = slot * g.ranks_per_channel + rank
    slot = slot * g.chips_per_rank + chip
    slot = slot * g.banks_per_chip + bank
    slot = slot * g.subarrays_per_bank + subarray
    slot = slot * g.rows_per_subarray + row
    slot = slot * g.columns_per_row
    return slot


# ----------------------------------------------------------------------
# Mapping-policy registry
#
# Every registered policy shares one adapter signature so the framework
# (and sweeps over policies) can select them by name:
#
#     policy(organization, n_weights, bits_per_weight, profile,
#            ber_threshold) -> WeightMapping
#
# ``profile``/``ber_threshold`` may be ignored by policies that do not
# use the error profile (the baseline does).
MAPPING_POLICIES = Registry("mapping policy")


@MAPPING_POLICIES.register("baseline", aliases=("baseline-sequential", "sequential"))
def _baseline_policy(
    organization: DramOrganization,
    n_weights: int,
    bits_per_weight: int,
    profile: SubarrayErrorProfile,
    ber_threshold: float,
) -> WeightMapping:
    return baseline_mapping(organization, n_weights, bits_per_weight)


#: Label a WeightMapping produced by this policy carries; used so
#: infeasible outcomes report the same name feasible ones would.
_baseline_policy.label = "baseline-sequential"


@MAPPING_POLICIES.register("sparkxd", aliases=("sparkxd-algorithm2", "algorithm2"))
def _sparkxd_policy(
    organization: DramOrganization,
    n_weights: int,
    bits_per_weight: int,
    profile: SubarrayErrorProfile,
    ber_threshold: float,
) -> WeightMapping:
    return sparkxd_mapping(
        organization, n_weights, bits_per_weight, profile, ber_threshold
    )


_sparkxd_policy.label = "sparkxd-algorithm2"
