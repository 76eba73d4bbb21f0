"""Chunking policy: bounding the peak memory of a batched pass.

Per chunk of ``B`` samples and ``E`` realizations, a batched pass holds
the encoded spike trains (one boolean ``(n_steps, B, n_input)`` array
of the Poisson rate code, at most ``MAX_RATE_HZ * 1e-3`` spikes per
bit), the sparse drive operator built from them, the ``E x B``
network state with the time loop's scratch, and one streamed block of
gain-scaled drives: :data:`repro.snn.network.DRIVE_BLOCK_BYTES` worth
of steps, at least one step of ``E x B x n_neurons`` floats (the whole
``(n_steps, E, B, n_neurons)`` drive tensor is never held).  A
:class:`ChunkPolicy` turns a byte budget into the largest per-chunk
sample count ``B`` that keeps those buffers under budget, so
arbitrarily large evaluation sets and realization stacks stream through
bounded memory.

Chunk boundaries never change results: encoding draws the same random
stream regardless of how the sample axis is split, and the simulation
consumes no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.snn.network import DRIVE_BLOCK_BYTES

#: Eight-byte arrays the frozen pass holds per (e, b, neuron) element:
#: five of network state (v, theta, refractory, two conductances), nine
#: of time-loop scratch (threshold, two update buffers, counts, flat
#: index, four spike-index buffers), the saved refractory potentials
#: and the evaluator's result counts, plus a share for the boolean
#: masks.
_STATE_ARRAYS = 17

#: Bytes per encoded input bit: the boolean trains (1), plus the sparse
#: drive operator with its construction scratch (20 bytes per spike at
#: most ``MAX_RATE_HZ * 1e-3`` = 0.06375 spikes per bit, the rate
#: code's ceiling, :data:`repro.snn.encoding.MAX_RATE_HZ`), rounded up
#: to 2.  The rate code is the only encoder, so the bound holds by
#: construction.
_ENCODE_BYTES_PER_BIT = 3

#: Single-realization drive slabs a block is computed through besides
#: the block itself: the product, a shared base's drive and its patched
#: copy.
_DRIVE_SCRATCH_SLABS = 3


@dataclass(frozen=True)
class ChunkPolicy:
    """How many samples one vectorized pass may hold in memory.

    Parameters
    ----------
    max_bytes:
        Approximate peak-buffer budget per chunk (default 256 MiB).
    max_samples:
        Optional hard cap on samples per chunk, whatever the budget
        allows (useful in tests to force ragged final chunks).
    """

    max_bytes: int = 256 * 1024 * 1024
    max_samples: Optional[int] = None

    def __post_init__(self):
        if self.max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {self.max_bytes}")
        if self.max_samples is not None and self.max_samples <= 0:
            raise ValueError(f"max_samples must be > 0, got {self.max_samples}")

    # ------------------------------------------------------------------
    def bytes_per_sample(
        self, n_realizations: int, n_steps: int, n_input: int, n_neurons: int
    ) -> int:
        """Estimated peak bytes one sample adds to a chunk.

        The trains and drive operator, the state, and the sample's share
        of a one-step drive block with its scratch slabs; a block of
        more than one step stays within :meth:`fixed_bytes`.
        """
        if min(n_realizations, n_steps, n_input, n_neurons) <= 0:
            raise ValueError("all dimensions must be > 0")
        encode = _ENCODE_BYTES_PER_BIT * n_steps * n_input
        state = _STATE_ARRAYS * n_realizations * n_neurons * 8
        drive = (n_realizations + _DRIVE_SCRATCH_SLABS) * n_neurons * 8
        return encode + state + drive

    def fixed_bytes(self) -> int:
        """Peak bytes of a drive block of more than one step, with its scratch."""
        return (1 + _DRIVE_SCRATCH_SLABS) * DRIVE_BLOCK_BYTES

    def samples_per_chunk(
        self, n_realizations: int, n_steps: int, n_input: int, n_neurons: int
    ) -> int:
        """Largest chunk size within budget (always at least 1)."""
        per_sample = self.bytes_per_sample(
            n_realizations, n_steps, n_input, n_neurons
        )
        chunk = max(1, (self.max_bytes - self.fixed_bytes()) // per_sample)
        if self.max_samples is not None:
            chunk = min(chunk, self.max_samples)
        return int(chunk)

    def iter_chunks(self, n_samples: int, chunk_size: int) -> Iterator[slice]:
        """Yield sample slices of ``chunk_size`` (final one may be ragged)."""
        if n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {n_samples}")
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
        for start in range(0, n_samples, chunk_size):
            yield slice(start, min(start + chunk_size, n_samples))
