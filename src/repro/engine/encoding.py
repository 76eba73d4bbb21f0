"""Batched spike encoding.

A chunk of images is encoded image by image into step-major boolean
storage ``(n_steps, B, n_input)``, returned as its ``(B, n_steps,
n_input)`` transposed view: each image's ``(n_steps, n_input)`` uniforms
are drawn into one reused float64 buffer and compared straight into
its ``[:, b]`` slot.  No chunk-sized float64 draw is held, and the drive
operator (:meth:`repro.snn.network.DiehlCookNetwork.prepare_drive_matrix`)
reads its step-major rows without a second copy of the trains.  The
draws consume *exactly* the random stream of ``B`` successive per-image
:func:`repro.snn.encoding.poisson_rate_code` calls (and of one
``rng.random((B, n_steps, n_input))`` draw — ``Generator.random`` fills
arrays from the bit stream in C order).  Encoded trains are therefore
identical whether samples are encoded one at a time, per chunk, or all
at once — the engine equivalence guarantee extends through the encoder.
The rate code is the only encoder: a pixel spikes with probability at
most ``MAX_RATE_HZ * 1e-3`` per step
(:data:`repro.snn.encoding.MAX_RATE_HZ`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.snn.encoding import MAX_RATE_HZ


@dataclass
class EncodedMinibatch:
    """One encoded minibatch, replayable across repeated presentations.

    ``trains`` is the boolean ``(B, n_steps, n_input)`` spike tensor of
    one Poisson draw (a view of step-major storage, see
    :func:`encode_spike_trains`); ``matrix`` lazily caches the sparse
    drive operator
    (:meth:`repro.snn.network.DiehlCookNetwork.prepare_drive_matrix`)
    built from it, so a consumer presenting the same minibatch several
    times — the per-BER-stage amortization of
    :class:`repro.engine.trainer.StageEncodingCache` — pays the
    encoding draw *and* the CSR construction once.
    """

    trains: np.ndarray
    matrix: object = None


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
    images: np.ndarray, n_steps: int, rng: np.random.Generator
) -> np.ndarray:
    """Encode a batch of images into ``(B, n_steps, n_input)`` spikes.

    The result is the transposed view of step-major ``(n_steps, B,
    n_input)`` storage; each image's uniforms are drawn into one reused
    buffer.  The values (and the state of ``rng``) are identical to
    calling :func:`repro.snn.encoding.poisson_rate_code` on each image
    in order.
    """
    if n_steps <= 0:
        raise ValueError("n_steps must be > 0")
    images = _check_images(images)
    steps = np.empty((n_steps,) + images.shape, dtype=bool)
    p = np.clip(images * MAX_RATE_HZ * 1e-3, 0.0, 1.0)
    draw = np.empty((n_steps, images.shape[1]))
    for b, rate in enumerate(p):
        rng.random(out=draw)
        np.less(draw, rate, out=steps[:, b])
    return steps.transpose(1, 0, 2)


def skip_spike_trains(
    rng: np.random.Generator, n_images: int, n_steps: int, n_input: int
) -> None:
    """Advance ``rng`` exactly as encoding ``n_images`` images would.

    The jump of a split evaluation pass
    (:mod:`repro.engine.evaluator`): each part starts from the caller's
    generator jumped past the samples before it.  The rate code draws
    one 64-bit word per (image, step, pixel).
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
