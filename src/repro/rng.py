"""Seeded randomness helpers: the only sanctioned RNG entry points.

Every random draw in this codebase flows through a
``numpy.random.Generator`` so that cache fingerprints — which record
"everything that influenced the artifact, including its recorded RNG
state" — actually cover the randomness.  The ``repro lint``
rng-discipline rule (docs/lint.md) enforces it: no global
``np.random.*`` state, no legacy ``RandomState``, no stdlib ``random``,
and no **unseeded** ``default_rng()``.

:func:`ensure_rng` is the sanctioned optional-``rng`` fallback.  APIs
that accept ``rng=None`` for convenience get a generator seeded with
:data:`DEFAULT_SEED` instead of OS entropy, so even "I don't care"
calls are reproducible run-to-run.  Code on a fingerprinted path must
keep passing an explicit generator (or seed) exactly as before —
``ensure_rng`` never touches a generator it is given.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

#: Seed of last resort for APIs called without an explicit ``rng``.
#: Any fixed value works — what matters is that two bare calls of the
#: same function draw the same stream.
DEFAULT_SEED = 0


def ensure_rng(
    rng: Optional[Union[np.random.Generator, int]] = None,
) -> np.random.Generator:
    """Return ``rng`` as a Generator, else one seeded :data:`DEFAULT_SEED`.

    Accepts an existing :class:`numpy.random.Generator` (returned
    as-is), an integer seed, or ``None`` (seeded with
    :data:`DEFAULT_SEED`).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    return np.random.default_rng(rng)


def restored_rng(state: dict) -> np.random.Generator:
    """A Generator whose bit-generator state is exactly ``state``.

    The pipeline threads recorded RNG states between cached stages; the
    constructor seed is irrelevant because the state assignment below
    replaces it wholesale.
    """
    rng = np.random.default_rng(DEFAULT_SEED)
    rng.bit_generator.state = state
    return rng


__all__ = ["DEFAULT_SEED", "ensure_rng", "restored_rng"]
