"""Bit-level views and bit flipping for stored weight representations.

DRAM errors flip individual *bits* of whatever is stored.  The SNN stores
synaptic weights either as IEEE-754 float32 (the paper's FP32 evaluation)
or as fixed-point integers (INT8/INT16).  This module provides exact,
vectorised bit views and XOR-based flipping for both.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def float32_to_bits(values: np.ndarray) -> np.ndarray:
    """Reinterpret a float32 array as its uint32 bit patterns (no copy)."""
    arr = np.ascontiguousarray(values, dtype=np.float32)
    return arr.view(np.uint32)


def bits_to_float32(bits: np.ndarray) -> np.ndarray:
    """Reinterpret a uint32 array as float32 values (no copy)."""
    arr = np.ascontiguousarray(bits, dtype=np.uint32)
    return arr.view(np.float32)


def int8_to_bits(values: np.ndarray) -> np.ndarray:
    """Reinterpret an int8 array as uint8 bit patterns (no copy)."""
    arr = np.ascontiguousarray(values, dtype=np.int8)
    return arr.view(np.uint8)


def bits_to_int8(bits: np.ndarray) -> np.ndarray:
    """Reinterpret a uint8 bit-pattern array as int8 values (no copy)."""
    arr = np.ascontiguousarray(bits, dtype=np.uint8)
    return arr.view(np.int8)


def _flip(
    words: np.ndarray,
    word_indices: np.ndarray,
    bit_positions: np.ndarray,
    word_bits: int,
) -> np.ndarray:
    """XOR single bits into a flat word array (out-of-place)."""
    word_indices = np.asarray(word_indices, dtype=np.int64)
    bit_positions = np.asarray(bit_positions, dtype=np.int64)
    if word_indices.shape != bit_positions.shape:
        raise ValueError("word_indices and bit_positions must align")
    if word_indices.size and (
        word_indices.min() < 0 or word_indices.max() >= words.size
    ):
        raise IndexError("word index out of range")
    if bit_positions.size and (
        bit_positions.min() < 0 or bit_positions.max() >= word_bits
    ):
        raise IndexError(f"bit position out of range [0, {word_bits})")
    out = words.copy()
    # The same word may be hit more than once; the unbuffered XOR
    # accumulates every hit.
    masks = (np.uint64(1) << bit_positions.astype(np.uint64)).astype(words.dtype)
    np.bitwise_xor.at(out, word_indices, masks)
    return out


def flip_bits_float32(
    values: np.ndarray, flat_bit_indices: np.ndarray
) -> np.ndarray:
    """Flip the given flat bit indices of a float32 array.

    Bit ``i`` addresses bit ``i % 32`` of element ``i // 32`` in the
    flattened array.  Returns a new array with the original shape.
    """
    flat = np.ravel(np.asarray(values, dtype=np.float32))
    bits = flat.view(np.uint32)
    idx = np.asarray(flat_bit_indices, dtype=np.int64)
    flipped = _flip(bits, idx // 32, idx % 32, 32)
    return flipped.view(np.float32).reshape(np.shape(values))


def flip_bits_int8(values: np.ndarray, flat_bit_indices: np.ndarray) -> np.ndarray:
    """Flip the given flat bit indices of an int8 array (8 bits/element)."""
    flat = np.ravel(np.asarray(values, dtype=np.int8))
    bits = flat.view(np.uint8)
    idx = np.asarray(flat_bit_indices, dtype=np.int64)
    flipped = _flip(bits, idx // 8, idx % 8, 8)
    return flipped.view(np.int8).reshape(np.shape(values))


def flip_bits_uint(
    words: np.ndarray, flat_bit_indices: np.ndarray, word_bits: int
) -> np.ndarray:
    """Flip flat bit indices of an unsigned integer word array."""
    flat = np.ravel(words)
    idx = np.asarray(flat_bit_indices, dtype=np.int64)
    flipped = _flip(flat, idx // word_bits, idx % word_bits, word_bits)
    return flipped.reshape(np.shape(words))


def popcount_difference(a: np.ndarray, b: np.ndarray) -> int:
    """Number of differing bits between two same-dtype integer arrays."""
    if a.shape != b.shape or a.dtype != b.dtype:
        raise ValueError("arrays must share shape and dtype")
    xor = np.bitwise_xor(a, b)
    # unpackbits requires uint8: view the words bytewise.
    return int(np.unpackbits(xor.view(np.uint8)).sum())


def msb_positions(word_bits: int, count: int) -> Tuple[int, ...]:
    """The ``count`` most significant bit positions of a word."""
    if not 0 < count <= word_bits:
        raise ValueError(f"count must be in [1, {word_bits}]")
    return tuple(range(word_bits - 1, word_bits - 1 - count, -1))
