"""Chunking policy: bounding the peak memory of a batched pass.

The batched engine materialises, per chunk of samples, the encoded
spike trains ``(B, n_steps, n_input)`` and the precomputed drive tensor
``(n_steps, E, B, n_neurons)`` (float64 — the memory hog).  A
:class:`ChunkPolicy` turns a byte budget into the largest per-chunk
sample count ``B`` that keeps those buffers (plus the E×B state arrays)
under budget, so arbitrarily large evaluation sets and realization
stacks stream through bounded memory.

Chunk boundaries never change results: encoding draws the same random
stream regardless of how the sample axis is split, and the simulation
consumes no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

#: Number of float64 state arrays the network holds per (e, b) instance
#: (v, theta, refractory, two conductances, last spikes, counts, plus
#: per-step temporaries) — a deliberate overestimate.
_STATE_ARRAYS = 10

#: Bytes per encoded input bit: the boolean train plus the step-major
#: boolean copy the drive operator is built from.  (The Poisson
#: encoder draws one image at a time into a reused buffer.)
_ENCODE_BYTES_PER_BIT = 2


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
        """Estimated peak bytes one sample adds to a chunk."""
        if min(n_realizations, n_steps, n_input, n_neurons) <= 0:
            raise ValueError("all dimensions must be > 0")
        drive = n_realizations * n_steps * n_neurons * 8
        state = _STATE_ARRAYS * n_realizations * n_neurons * 8
        encode = _ENCODE_BYTES_PER_BIT * n_steps * n_input
        return drive + state + encode

    def samples_per_chunk(
        self, n_realizations: int, n_steps: int, n_input: int, n_neurons: int
    ) -> int:
        """Largest chunk size within budget (always at least 1)."""
        per_sample = self.bytes_per_sample(
            n_realizations, n_steps, n_input, n_neurons
        )
        chunk = max(1, self.max_bytes // per_sample)
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
