"""Tests of weight storage representations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snn.quantization import (
    FixedPointRepresentation,
    Float32Representation,
    make_representation,
)


class TestFloat32:
    def test_roundtrip_exact(self, rng):
        weights = rng.random(100).astype(np.float32)
        rep = Float32Representation()
        assert np.array_equal(rep.decode(rep.encode(weights)), weights)

    def test_bits_per_weight(self):
        assert Float32Representation().bits_per_weight == 32

    def test_sanitize_flushes_nonfinite(self):
        rep = Float32Representation(sanitize=True)
        words = np.array([0x7FC00000, 0x7F800000, 0x3F800000], dtype=np.uint32)
        decoded = rep.decode(words)  # NaN, +Inf, 1.0
        assert decoded[0] == 0.0
        assert decoded[1] == 0.0
        assert decoded[2] == 1.0

    def test_no_sanitize_keeps_nan(self):
        rep = Float32Representation(sanitize=False)
        decoded = rep.decode(np.array([0x7FC00000], dtype=np.uint32))
        assert np.isnan(decoded[0])

    def test_clip_range_saturates(self):
        rep = Float32Representation(clip_range=(0.0, 1.0))
        words = rep.encode(np.array([-3.0, 0.5, 7.0], dtype=np.float32))
        decoded = rep.decode(words)
        assert decoded.tolist() == [0.0, 0.5, 1.0]

    def test_invalid_clip_range_rejected(self):
        with pytest.raises(ValueError):
            Float32Representation(clip_range=(1.0, 0.0))

    def test_flip_bits_changes_one_bit(self):
        rep = Float32Representation()
        words = rep.encode(np.array([1.0], dtype=np.float32))
        flipped = rep.flip_bits(words, np.array([0]))
        assert np.bitwise_xor(words, flipped)[0] == 1

    def test_no_flips_is_identity(self):
        rep = Float32Representation()
        weights = np.array([[0.5, 0.25], [0.125, 1.0]], dtype=np.float32)
        out = rep.decode(rep.flip_bits(rep.encode(weights), np.array([], dtype=np.int64)))
        assert out.shape == weights.shape
        assert np.array_equal(out, weights)

    def test_sign_bit_flip_negates(self):
        rep = Float32Representation()
        words = rep.encode(np.array([1.5], dtype=np.float32))
        assert rep.decode(rep.flip_bits(words, np.array([31])))[0] == -1.5

    def test_second_weight_addressing(self):
        rep = Float32Representation()
        words = rep.encode(np.array([1.0, 1.0], dtype=np.float32))
        out = rep.decode(rep.flip_bits(words, np.array([32 + 31])))  # sign of weight 1
        assert out.tolist() == [1.0, -1.0]

    def test_exponent_flip_changes_magnitude_hugely(self):
        # The paper's label-2 observation: MSB flips change the weight
        # value by orders of magnitude.  0.5 = 2**-1; the exponent MSB
        # (bit 30) turns it into 2**127, finite and so kept.
        rep = Float32Representation()
        words = rep.encode(np.array([0.5], dtype=np.float32))
        assert rep.decode(rep.flip_bits(words, np.array([30])))[0] == 2.0**127

    def test_exponent_flip_saturates_under_clip_range(self):
        # The pipeline's setting: the corrupted weight reads as w_max.
        rep = Float32Representation(clip_range=(0.0, 1.0))
        words = rep.encode(np.array([0.5, -0.5], dtype=np.float32))
        out = rep.decode(rep.flip_bits(words, np.array([30, 32 + 30])))
        assert out.tolist() == [1.0, 0.0]

    def test_flip_and_decode_never_write_their_input(self):
        rep = Float32Representation(clip_range=(0.0, 1.0))
        words = np.array([0x3F800000, 0x7FC00000], dtype=np.uint32)  # 1.0, NaN
        original = words.copy()
        rep.decode(rep.flip_bits(words, np.array([31])))
        rep.decode(words)
        assert np.array_equal(words, original)

    def test_decode_in_place_reuses_the_buffer(self):
        rep = Float32Representation()
        words = rep.encode(np.array([0.25, 0.75], dtype=np.float32))
        out = rep.decode_in_place(words)
        assert np.shares_memory(out, words)
        assert out.tolist() == [0.25, 0.75]


class TestFixedPoint:
    def test_int8_roundtrip_within_step(self, rng):
        weights = rng.random(200)
        rep = FixedPointRepresentation(bits=8)
        restored = rep.decode(rep.encode(weights))
        step = (rep.w_max - rep.w_min) / 255
        assert np.max(np.abs(restored - weights)) <= step / 2 + 1e-9

    def test_extremes_exact(self):
        rep = FixedPointRepresentation(bits=8, w_min=0.0, w_max=1.0)
        assert rep.decode(rep.encode(np.array([0.0])))[0] == 0.0
        assert rep.decode(rep.encode(np.array([1.0])))[0] == 1.0

    def test_encode_clips_out_of_range(self):
        rep = FixedPointRepresentation(bits=8)
        words = rep.encode(np.array([-5.0, 5.0]))
        assert words[0] == 0
        assert words[1] == 255

    def test_int16_has_finer_step(self):
        # The LSB flip of a stored 0.0 decodes to one level step.
        int16, int8 = (
            rep.decode(rep.flip_bits(rep.encode(np.array([0.0])), np.array([0])))[0]
            for rep in (FixedPointRepresentation(bits=16), FixedPointRepresentation(bits=8))
        )
        assert 0.0 < int16 < int8

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            FixedPointRepresentation(bits=7)
        with pytest.raises(ValueError):
            FixedPointRepresentation(w_min=1.0, w_max=0.0)

    def test_lsb_flip_changes_by_one_step(self):
        rep = FixedPointRepresentation(bits=8)
        step = (rep.w_max - rep.w_min) / 255
        words = rep.encode(np.array([4 * step]))
        out = rep.decode(rep.flip_bits(words, np.array([0])))
        assert out[0] == pytest.approx(5 * step)

    def test_msb_flip_changes_by_max_flip_error(self):
        rep = FixedPointRepresentation(bits=8, w_min=0.0, w_max=1.0)
        words = rep.encode(np.array([0.0]))
        out = rep.decode(rep.flip_bits(words, np.array([7])))
        assert out[0] == pytest.approx(128 / 255)

    def test_duplicate_flips_cancel(self):
        rep = FixedPointRepresentation(bits=8)
        words = rep.encode(np.array([0.4]))
        assert np.array_equal(rep.flip_bits(words, np.array([3, 3])), words)

    @settings(max_examples=100, deadline=None)
    @given(
        value=st.floats(min_value=0.0, max_value=1.0),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_bit_flip_error_is_its_place_value_property(self, value, bit):
        # A flip of stored bit b moves the weight by (w_max - w_min) * 2**b
        # / (2**bits - 1): the bound the class docstring states, met up to
        # the float32 rounding of the two decoded weights (|w| <= 1).
        rep = FixedPointRepresentation(bits=8, w_min=-1.0, w_max=1.0)
        words = rep.encode(np.array([value]))
        flipped = rep.decode(rep.flip_bits(words, np.array([bit])))
        delta = float(flipped[0]) - float(rep.decode(words)[0])
        assert abs(delta) == pytest.approx(2.0 * 2**bit / 255, rel=0, abs=2**-22)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_quantisation_idempotent_property(self, value):
        # decode(encode(x)) is a fixed point of the quantiser.
        rep = FixedPointRepresentation(bits=8)
        once = rep.decode(rep.encode(np.array([value])))
        twice = rep.decode(rep.encode(once))
        assert np.array_equal(once, twice)


class TestFactoryAndErrors:
    @pytest.mark.parametrize(
        "name,bits", [("float32", 32), ("fp32", 32), ("int8", 8), ("int16", 16)]
    )
    def test_factory(self, name, bits):
        assert make_representation(name).bits_per_weight == bits

    @pytest.mark.parametrize(
        "name,dtype", [("float32", np.uint32), ("int8", np.uint8), ("int16", np.uint16)]
    )
    def test_encode_stores_the_word_dtype(self, name, dtype):
        # Error injection flips bits of these words: one word per weight.
        rep = make_representation(name)
        words = rep.encode(np.array([0.0, 0.5, 1.0]))
        assert words.dtype == rep.word_dtype == np.dtype(dtype)
        assert 8 * words.dtype.itemsize == rep.word_bits

    def test_factory_unknown(self):
        with pytest.raises(ValueError):
            make_representation("int4")
