"""Bit flipping for stored weight representations.

DRAM errors flip individual *bits* of whatever is stored.  Every weight
representation stores unsigned integer words (float32 bit patterns or
fixed-point integers, see :mod:`repro.snn.quantization`); this module
flips bits of such word arrays with an exact, vectorised XOR.
"""

from __future__ import annotations

import numpy as np


def flip_bits_uint(
    words: np.ndarray, flat_bit_indices: np.ndarray, word_bits: int, out=None
) -> np.ndarray:
    """Flip flat bit indices of an unsigned integer word array (into a
    copy, or in place into ``out``: a flat array such as ``words``).

    Bit ``i`` addresses bit ``i % word_bits`` of word ``i // word_bits``
    in the flattened array.
    """
    flat = np.ravel(words)
    idx = np.asarray(flat_bit_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= flat.size * word_bits):
        raise IndexError("bit index out of range")
    if out is None:
        out = flat.copy()
    # The same word may be hit more than once; the unbuffered XOR
    # accumulates every hit.
    masks = (np.uint64(1) << (idx % word_bits).astype(np.uint64)).astype(flat.dtype)
    np.bitwise_xor.at(out, idx // word_bits, masks)
    return out.reshape(np.shape(words))
