"""Batched spike encoding.

A chunk of images is encoded image by image into one boolean
``(B, n_steps, n_input)`` tensor: each image's ``(n_steps, n_input)``
uniforms are drawn into one reused float64 buffer and compared into the
output, so no chunk-sized float64 draw is ever held.  The draws consume
*exactly* the random stream of ``B`` successive per-image
:func:`repro.snn.encoding.poisson_rate_code` calls (and of one
``rng.random((B, n_steps, n_input))`` draw — ``Generator.random`` fills
arrays from the bit stream in C order).  Encoded trains are therefore
identical whether samples are encoded one at a time, per chunk, or all
at once — the engine equivalence guarantee extends through the encoder.

Non-default encoders fall back to a per-image loop (same stream by
construction); the simulation stays vectorized either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.snn.encoding import poisson_rate_code

#: Encoder signature used across the SNN stack.
Encoder = Callable[[np.ndarray, int, np.random.Generator], np.ndarray]


@dataclass
class EncodedMinibatch:
    """One encoded minibatch, replayable across repeated presentations.

    ``trains`` is the boolean ``(B, n_steps, n_input)`` spike tensor of
    one Poisson draw; ``matrix`` lazily caches the sparse drive
    operator
    (:meth:`repro.snn.network.DiehlCookNetwork.prepare_drive_matrix`)
    built from it, so a consumer presenting the same minibatch several
    times — the per-BER-stage amortization of
    :class:`repro.engine.trainer.StageEncodingCache` — pays the
    encoding draw *and* the CSR construction once.
    """

    trains: np.ndarray
    matrix: object = None

    @property
    def n_samples(self) -> int:
        return int(self.trains.shape[0])


def _check_images(images: np.ndarray) -> np.ndarray:
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError(
            f"images must be a 2-D (n_samples, n_pixels) array, got shape {arr.shape}"
        )
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("pixel intensities must lie in [0, 1]")
    return arr


def encode_spike_trains(
    images: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
    encoder: Optional[Encoder] = None,
    dt_ms: float = 1.0,
    max_rate_hz: float = 63.75,
) -> np.ndarray:
    """Encode a batch of images into ``(B, n_steps, n_input)`` spikes.

    With ``encoder=None`` the default Poisson rate code draws each
    image's uniforms into one reused buffer; a custom encoder is
    applied per image.  Either way the result (and the state of
    ``rng``) is identical to calling the encoder on each image in order.
    """
    if n_steps <= 0 or dt_ms <= 0:
        raise ValueError("n_steps and dt_ms must be > 0")
    images = _check_images(images)
    if images.shape[0] == 0:
        return np.zeros((0, n_steps, images.shape[1]), dtype=bool)
    if encoder is not None and encoder is not poisson_rate_code:
        return np.stack([encoder(image, n_steps, rng) for image in images])
    p = np.clip(images * max_rate_hz * dt_ms * 1e-3, 0.0, 1.0)
    trains = np.empty((images.shape[0], n_steps, images.shape[1]), dtype=bool)
    draw = np.empty(trains.shape[1:])
    for train, rate in zip(trains, p):
        rng.random(out=draw)
        np.less(draw, rate, out=train)
    return trains


def skip_spike_trains(
    rng: np.random.Generator, n_images: int, n_steps: int, n_input: int
) -> None:
    """Advance ``rng`` exactly as encoding ``n_images`` images would.

    The default encoder draws one 64-bit word per (image, step, pixel).
    PCG64 and PCG64DXSM jump over them with ``advance``, which also
    drops the buffered 32-bit half ``rng.permutation`` may leave; float
    draws never touch it, so it is put back.  Other bit generators draw
    and discard.
    """
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
        state = bit_generator.state
        bit_generator.advance(n_images * n_steps * n_input)
        bit_generator.state = {
            **bit_generator.state,
            "has_uint32": state["has_uint32"],
            "uinteger": state["uinteger"],
        }
        return
    draw = np.empty((n_steps, n_input))
    for _ in range(n_images):
        rng.random(out=draw)
