"""On-chip buffer modelling: how many times weights stream from DRAM.

The paper's premise (Section I): an SNN whose weight tensor exceeds the
accelerator's on-chip memory must stream weights from DRAM, and the
number of re-fetches multiplies the DRAM energy.  This module models
that relationship:

- :func:`refetch_passes_for_buffer` — given the on-chip buffer size,
  the weight tensor size, and how the inference loop is tiled, compute
  how many times each weight is fetched per inference;
- :class:`TiledInferencePlan` — the derived streaming plan.

The fully-connected Fig. 4(a) workload processes T timesteps; each
timestep needs every input row of the weight matrix that carries a
spike.  Two standard schedules are modelled:

- ``weight-stationary``: weights resident on-chip are reused across
  all timesteps; only tensors larger than the buffer are re-streamed
  once per timestep *group*;
- ``output-stationary``: neuron partitions are processed one at a
  time; the weight columns of a partition stream once per inference
  regardless of buffer size (but partial sums never leave the chip).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


SCHEDULES = ("weight-stationary", "output-stationary")


@dataclass(frozen=True)
class TiledInferencePlan:
    """How one inference streams its weights from DRAM."""

    n_weights: int
    bits_per_weight: int
    buffer_bits: int
    schedule: str
    timestep_groups: int
    refetch_passes: int

    @property
    def tensor_bits(self) -> int:
        return self.n_weights * self.bits_per_weight

    @property
    def total_traffic_bits(self) -> int:
        """DRAM read traffic of one inference."""
        return self.tensor_bits * self.refetch_passes


def refetch_passes_for_buffer(
    n_weights: int,
    bits_per_weight: int,
    buffer_bits: int,
    n_timesteps: int,
    schedule: str = "weight-stationary",
) -> TiledInferencePlan:
    """Derive the streaming plan of one inference.

    ``weight-stationary``: if the tensor fits, everything is fetched
    exactly once.  Otherwise the tensor is split into
    ``tiles = ceil(tensor/buffer)`` tiles.  Each timestep needs every
    tile, but consecutive timesteps share a resident tile when the
    timesteps are processed in groups: the whole tensor streams once
    per timestep group, and there are as many groups as tiles (each
    tile stays resident for ``T / tiles`` timesteps), capped at one
    group per timestep.  Net effect: the tensor streams
    ``min(tiles, T)`` times.

    ``output-stationary``: each neuron partition's columns stream once;
    the whole tensor streams exactly once per inference, independent of
    buffer size (partial membrane sums stay on-chip instead).
    """
    if n_weights <= 0 or bits_per_weight <= 0:
        raise ValueError("n_weights and bits_per_weight must be > 0")
    if buffer_bits <= 0:
        raise ValueError("buffer_bits must be > 0")
    if n_timesteps <= 0:
        raise ValueError("n_timesteps must be > 0")
    if schedule not in SCHEDULES:
        raise ValueError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")

    tensor_bits = n_weights * bits_per_weight
    tiles = max(1, math.ceil(tensor_bits / buffer_bits))
    if schedule == "weight-stationary":
        passes = min(tiles, n_timesteps)
        groups = passes
    else:  # output-stationary
        passes = 1
        groups = 1
    return TiledInferencePlan(
        n_weights=n_weights,
        bits_per_weight=bits_per_weight,
        buffer_bits=buffer_bits,
        schedule=schedule,
        timestep_groups=groups,
        refetch_passes=passes,
    )


def buffer_sweep(
    n_weights: int,
    bits_per_weight: int,
    buffer_sizes_bits: tuple,
    n_timesteps: int,
    schedule: str = "weight-stationary",
) -> tuple:
    """Plans across a range of on-chip buffer sizes (Fig. 1 motivation)."""
    return tuple(
        refetch_passes_for_buffer(
            n_weights, bits_per_weight, size, n_timesteps, schedule
        )
        for size in buffer_sizes_bits
    )
