"""Weight storage representations: how synaptic weights live in DRAM.

The paper's accuracy evaluation uses FP32 weights (Section V); bit
errors flip bits of the stored IEEE-754 words, so a most-significant-
bit (exponent) flip can change a weight by orders of magnitude — the
effect called out at label-2 of Fig. 11.  A fixed-point representation
bounds the damage of any single flip to a known magnitude, which is why
the quantization ablation compares the two.

Every representation maps a float weight tensor to an integer *word*
array (``encode``), back (``decode``), and knows how to flip stored
bits (``flip_bits``).  ``decode(encode(w))`` is exact for FP32 and a
quantisation of ``w`` for fixed point.  ``encode`` returns an array the
caller owns; ``decode`` and ``flip_bits`` never write their input.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro.errors.bitops import flip_bits_uint


class WeightRepresentation(abc.ABC):
    """How a weight tensor is stored bit-for-bit in DRAM."""

    #: storage cost of one weight.
    bits_per_weight: int
    #: numpy dtype of the stored words.
    word_dtype: np.dtype
    name: str

    #: bits of the flat bit space one stored word holds: one weight's.
    word_bits = property(lambda self: self.bits_per_weight)

    @abc.abstractmethod
    def encode(self, weights: np.ndarray) -> np.ndarray:
        """Float weights -> stored integer words (same shape, caller-owned)."""

    @abc.abstractmethod
    def decode(self, words: np.ndarray) -> np.ndarray:
        """Stored integer words -> float weights (same shape)."""

    def decode_in_place(self, words: np.ndarray) -> np.ndarray:
        """:meth:`decode` of words the caller gives up: may reuse their buffer."""
        return self.decode(words)

    def flip_bits(self, words: np.ndarray, flat_bit_indices: np.ndarray) -> np.ndarray:
        """Flip flat bit indices of the stored words (out-of-place)."""
        return flip_bits_uint(words, flat_bit_indices, self.bits_per_weight)

    def storage_bits(self, n_weights: int) -> int:
        if n_weights < 0:
            raise ValueError(f"n_weights must be >= 0, got {n_weights}")
        return n_weights * self.bits_per_weight

    def roundtrip(self, weights: np.ndarray) -> np.ndarray:
        """The weights as they would read back with zero errors."""
        return self.decode(self.encode(weights))


class Float32Representation(WeightRepresentation):
    """IEEE-754 float32 storage — the paper's FP32 evaluation setting.

    ``decode`` sanitises non-finite values (NaN/Inf produced by exponent
    bit flips) to zero: a hardware accelerator reading a corrupted weight
    still feeds *some* number to the MAC array, and flushing to zero is
    the common safe choice.  Finite-but-huge values are kept — they are
    exactly the accuracy-destroying MSB flips the paper describes.
    """

    bits_per_weight = 32
    word_dtype = np.dtype(np.uint32)
    name = "float32"

    def __init__(self, sanitize: bool = True, clip_range: tuple | None = None):
        """``clip_range=(lo, hi)`` saturates decoded values into a range.

        A synaptic weight read by the accelerator drives a conductance,
        which physically saturates: it cannot be negative and cannot
        exceed the maximum synapse strength.  Passing the network's
        weight range here models that saturation — an exponent-MSB flip
        then turns a weight into 0 or w_max instead of ±1e38.  The
        SparkXD pipeline uses ``clip_range=(0, w_max)``.
        """
        if clip_range is not None and not clip_range[0] < clip_range[1]:
            raise ValueError(f"clip_range must be (lo, hi) with lo < hi, got {clip_range}")
        self.sanitize = sanitize
        self.clip_range = clip_range

    def encode(self, weights: np.ndarray) -> np.ndarray:
        # One copy: the cast (a float32 input is copied as it is).
        return np.array(weights, dtype=np.float32, order="C", ndmin=1).view(np.uint32)

    def decode(self, words: np.ndarray) -> np.ndarray:
        return self.decode_in_place(np.array(words, dtype=np.uint32, order="C", ndmin=1))

    def decode_in_place(self, words: np.ndarray) -> np.ndarray:
        values = np.ascontiguousarray(words, dtype=np.uint32).view(np.float32)
        if self.sanitize:
            finite = np.isfinite(values)
            if not finite.all():
                values[~finite] = 0.0
        if self.clip_range is not None:
            np.clip(values, self.clip_range[0], self.clip_range[1], out=values)
        return values


class FixedPointRepresentation(WeightRepresentation):
    """Unsigned fixed-point storage over a known weight range.

    Weights in ``[w_min, w_max]`` quantise uniformly onto
    ``2**bits - 1`` levels.  A flip of stored bit ``b`` changes the
    decoded weight by at most ``(w_max - w_min) * 2**b / (2**bits - 1)``.
    """

    name = "fixed-point"

    def __init__(self, bits: int = 8, w_min: float = 0.0, w_max: float = 1.0):
        if bits not in (8, 16, 32):
            raise ValueError(f"bits must be 8, 16 or 32, got {bits}")
        if not w_max > w_min:
            raise ValueError(f"require w_max > w_min, got [{w_min}, {w_max}]")
        self.bits_per_weight = bits
        self.word_dtype = np.dtype({8: np.uint8, 16: np.uint16, 32: np.uint32}[bits])
        self.w_min = float(w_min)
        self.w_max = float(w_max)
        self._levels = (1 << bits) - 1

    def encode(self, weights: np.ndarray) -> np.ndarray:
        arr = np.asarray(weights, dtype=np.float64)
        clipped = np.clip(arr, self.w_min, self.w_max)
        scaled = (clipped - self.w_min) / (self.w_max - self.w_min) * self._levels
        return np.round(scaled).astype(self.word_dtype)

    def decode(self, words: np.ndarray) -> np.ndarray:
        arr = np.asarray(words).astype(np.float64)
        values = arr / self._levels * (self.w_max - self.w_min) + self.w_min
        return values.astype(np.float32)

    @property
    def step(self) -> float:
        """Quantisation step between adjacent levels."""
        return (self.w_max - self.w_min) / self._levels

    def max_flip_error(self) -> float:
        """Largest possible weight change from a single bit flip (MSB)."""
        return (self.w_max - self.w_min) * (1 << (self.bits_per_weight - 1)) / self._levels


def make_representation(name: str, **kwargs) -> WeightRepresentation:
    """Factory: ``'float32'`` or ``'int8'``/``'int16'`` fixed point."""
    key = name.lower()
    if key in ("float32", "fp32"):
        return Float32Representation(**kwargs)
    if key in ("int8", "fixed8", "q8"):
        return FixedPointRepresentation(bits=8, **kwargs)
    if key in ("int16", "fixed16", "q16"):
        return FixedPointRepresentation(bits=16, **kwargs)
    raise ValueError(f"unknown representation {name!r}")


def quantization_error(
    weights: np.ndarray, representation: WeightRepresentation
) -> Tuple[float, float]:
    """(max, rms) absolute round-trip error of storing ``weights``."""
    restored = representation.roundtrip(weights)
    err = np.abs(np.asarray(weights, dtype=np.float64) - restored)
    rms = float(np.sqrt(np.mean(err**2))) if err.size else 0.0
    return float(err.max()) if err.size else 0.0, rms
