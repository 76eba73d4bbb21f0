"""Generating the DRAM read trace of one SNN inference.

The paper's hardware model (Section I): the SNN accelerator's on-chip
memory is smaller than the weight tensor, so inference *streams* the
synaptic weights from DRAM.  For the fully-connected architecture the
weights are read tile by tile in data order, once per inference pass
(or more, if the on-chip buffer forces re-fetching across timestep
groups — ``refetch_passes`` models that).

A *chunk* is one column-slot's worth of weights (``column_width_bits /
bits_per_weight`` weights).  The mapping policy decides which DRAM slot
each chunk occupies; the trace is simply the chunks' slots in streaming
order, repeated per pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.organization import DramOrganization


@dataclass(frozen=True)
class InferenceTraceSpec:
    """Parameters of one inference's DRAM traffic."""

    n_weights: int
    bits_per_weight: int
    #: how many times the full weight tensor is streamed per inference.
    refetch_passes: int = 1

    def __post_init__(self):
        if self.n_weights <= 0:
            raise ValueError(f"n_weights must be > 0, got {self.n_weights}")
        if self.bits_per_weight <= 0:
            raise ValueError("bits_per_weight must be > 0")
        if self.refetch_passes <= 0:
            raise ValueError("refetch_passes must be > 0")

    def total_bits(self) -> int:
        return self.n_weights * self.bits_per_weight


def inference_read_trace(
    spec: InferenceTraceSpec,
    slot_of_chunk: np.ndarray,
    organization: DramOrganization,
) -> np.ndarray:
    """The DRAM slot sequence one inference reads, in access order.

    ``slot_of_chunk`` comes from a mapping policy
    (:mod:`repro.core.mapping_policy`): entry ``i`` is the DRAM slot of
    the ``i``-th weight chunk in data order.  The trace streams the
    chunks in data order, ``refetch_passes`` times.
    """
    slots = np.asarray(slot_of_chunk, dtype=np.int64)
    needed = organization.slots_needed(spec.total_bits())
    if slots.shape != (needed,):
        raise ValueError(
            f"mapping covers {slots.shape[0]} chunks but the tensor needs {needed}"
        )
    if slots.size and (slots.min() < 0 or slots.max() >= organization.total_slots):
        raise IndexError("mapped slot out of device range")
    ordered = np.sort(slots)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("mapping assigns two chunks to the same DRAM slot")
    if spec.refetch_passes == 1:
        return slots
    return np.tile(slots, spec.refetch_passes)
