"""Tests of XOR bit flipping into unsigned word arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors.bitops import flip_bits_uint

#: The float32 bit patterns of 0.1, 0.3, 0.5 and 0.9, as stored weights.
WORDS = np.array([0x3DCCCCCD, 0x3E99999A, 0x3F000000, 0x3F666666], dtype=np.uint32)


class TestFlipUint:
    def test_no_flips_is_identity(self):
        words = WORDS.reshape(2, 2)
        out = flip_bits_uint(words, np.array([], dtype=np.int64), 32)
        assert np.array_equal(out, words)
        assert out.shape == words.shape

    def test_flip_bits_uint16(self):
        words = np.array([0], dtype=np.uint16)
        out = flip_bits_uint(words, np.array([15]), 16)
        assert out[0] == 0x8000

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_top_and_bottom_bit_of_each_word_type(self, dtype):
        # uint8 and uint16 hold fixed-point weights, uint32 float32 ones.
        word_bits = 8 * np.dtype(dtype).itemsize
        words = np.zeros(2, dtype=dtype)
        out = flip_bits_uint(words, np.array([word_bits - 1, word_bits]), word_bits)
        assert out.dtype == np.dtype(dtype)
        assert int(out[0]) == 1 << (word_bits - 1)
        assert int(out[1]) == 1

    def test_flip_is_out_of_place(self):
        words = np.array([1], dtype=np.uint32)
        flip_bits_uint(words, np.array([31]), 32)
        assert words[0] == 1

    def test_out_flips_in_place(self):
        words = np.array([1], dtype=np.uint32)
        out = flip_bits_uint(words, np.array([31]), 32, out=words)
        assert words[0] == 0x80000001 and out[0] == words[0]

    def test_second_word_addressing(self):
        words = np.zeros(2, dtype=np.uint32)
        out = flip_bits_uint(words, np.array([32 + 31]), 32)
        assert out.tolist() == [0, 0x80000000]

    def test_index_past_the_last_word_rejected(self):
        with pytest.raises(IndexError):
            flip_bits_uint(np.array([0, 0], dtype=np.uint8), np.array([16]), 8)

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError):
            flip_bits_uint(np.array([0, 0], dtype=np.uint8), np.array([-1]), 8)

    def test_duplicate_flips_cancel(self):
        words = np.array([42], dtype=np.uint8)
        out = flip_bits_uint(words, np.array([3, 3]), 8)
        assert out[0] == 42

    @settings(max_examples=100, deadline=None)
    @given(
        bits=st.lists(st.integers(min_value=0, max_value=4 * 32 - 1), max_size=16),
    )
    def test_double_flip_is_identity_property(self, bits):
        idx = np.array(bits + bits, dtype=np.int64)  # every bit flipped twice
        out = flip_bits_uint(WORDS, idx, 32)
        assert np.array_equal(out, WORDS)

    @settings(max_examples=100, deadline=None)
    @given(
        bits=st.sets(st.integers(min_value=0, max_value=4 * 32 - 1), max_size=16),
    )
    def test_flip_count_matches_popcount_property(self, bits):
        out = flip_bits_uint(WORDS, np.array(sorted(bits), dtype=np.int64), 32)
        diff = np.unpackbits((WORDS ^ out).view(np.uint8)).sum()
        assert diff == len(bits)
