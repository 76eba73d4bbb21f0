"""Spike coding: converting images into spike trains.

The paper's evaluation uses **rate coding with Poisson-distributed
spikes** (Section V), the one encoder here.  A float image in ``[0, 1]``
(flattened, ``n_input`` pixels) becomes a boolean spike train of shape
``(n_steps, n_input)``.
"""

from __future__ import annotations

import numpy as np

from repro.rng import ensure_rng

#: Firing rate of a full-intensity pixel: the Diehl & Cook setup's
#: 255/4 Hz for a bright MNIST pixel.  At 1 ms steps a pixel spikes with
#: probability at most 0.06375 per step.
MAX_RATE_HZ = 63.75


def poisson_rate_code(
    image: np.ndarray,
    n_steps: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Poisson rate coding (the paper's encoder).

    Pixel intensity ``x`` fires at ``x * MAX_RATE_HZ``; each 1 ms
    timestep emits a spike independently with probability ``rate * dt``.
    """
    arr = np.asarray(image, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("image must not be empty")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("pixel intensities must lie in [0, 1]")
    if n_steps <= 0:
        raise ValueError("n_steps must be > 0")
    rng = ensure_rng(rng)
    p = np.clip(arr * MAX_RATE_HZ * 1e-3, 0.0, 1.0)
    return rng.random((n_steps, arr.size)) < p[None, :]
