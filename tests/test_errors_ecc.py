"""Tests of the SEC-DED ECC comparator."""

import numpy as np
import pytest

from repro.errors.ecc import (
    CODE_BITS,
    DATA_BITS,
    ECC_OVERHEAD,
    EccProtectedRepresentation,
    decode_words,
    encode_words,
)
from repro.snn.quantization import FixedPointRepresentation, Float32Representation


def protected_roundtrip(rep, weights, flat_bit_indices):
    """Store, flip the given codeword bits, read back corrected (padding
    weights dropped)."""
    decoded = rep.decode(rep.flip_bits(rep.encode(weights), flat_bit_indices))
    return decoded.ravel()[: weights.size].reshape(weights.shape), rep.last_decode_report


@pytest.fixture
def data(rng):
    return rng.integers(0, 2**63, size=32, dtype=np.uint64)


class TestCode:
    def test_overhead_is_one_eighth(self):
        assert ECC_OVERHEAD == pytest.approx(0.125)

    def test_clean_roundtrip(self, data):
        code = encode_words(data)
        decoded, report = decode_words(code)
        assert np.array_equal(decoded, data)
        assert report.corrected_words == 0
        assert report.uncorrectable_words == 0

    def test_codeword_shape(self, data):
        code = encode_words(data)
        assert code.shape == (data.size, CODE_BITS)
        assert set(np.unique(code)) <= {0, 1}

    def test_single_bit_error_corrected_any_position(self, data):
        code = encode_words(data)
        for bit in (0, 1, 31, DATA_BITS - 1, DATA_BITS, CODE_BITS - 1):
            corrupted = code.copy()
            corrupted[0, bit] ^= 1
            decoded, report = decode_words(corrupted)
            assert np.array_equal(decoded, data), f"bit {bit} not corrected"
            assert report.corrected_words == 1

    def test_double_bit_error_detected_not_miscorrected(self, data):
        code = encode_words(data)
        corrupted = code.copy()
        corrupted[0, 3] ^= 1
        corrupted[0, 47] ^= 1
        decoded, report = decode_words(corrupted)
        assert report.uncorrectable_words == 1
        assert report.corrected_words == 0

    def test_independent_words_corrected_independently(self, data):
        code = encode_words(data)
        corrupted = code.copy()
        corrupted[0, 5] ^= 1
        corrupted[1, 9] ^= 1
        decoded, report = decode_words(corrupted)
        assert np.array_equal(decoded, data)
        assert report.corrected_words == 2

    def test_decode_validates_shape(self):
        with pytest.raises(ValueError):
            decode_words(np.zeros((4, 10), dtype=np.uint8))


class TestProtectedRepresentation:
    def test_bits_per_weight_includes_overhead(self):
        rep = EccProtectedRepresentation(Float32Representation())
        assert rep.bits_per_weight == pytest.approx(32 * 9 / 8)

    def test_clean_roundtrip_fp32(self, rng):
        weights = rng.random(100).astype(np.float32)
        rep = EccProtectedRepresentation(Float32Representation())
        restored, report = protected_roundtrip(rep, weights, np.array([], dtype=np.int64))
        assert np.array_equal(restored, weights)
        assert report.corrected_words == 0

    def test_clean_roundtrip_int8(self, rng):
        weights = rng.random(64).astype(np.float32)
        inner = FixedPointRepresentation(bits=8)
        rep = EccProtectedRepresentation(inner)
        restored, _ = protected_roundtrip(rep, weights, np.array([], dtype=np.int64))
        assert np.array_equal(restored, inner.decode(inner.encode(weights)))

    def test_sparse_flips_fully_corrected(self, rng):
        # one flip per codeword at most -> everything corrected
        weights = rng.random(16).astype(np.float32)  # 8 codewords
        rep = EccProtectedRepresentation(Float32Representation())
        flips = np.array([w * CODE_BITS + int(rng.integers(CODE_BITS)) for w in range(8)])
        restored, report = protected_roundtrip(rep, weights, flips)
        assert np.array_equal(restored, weights)
        assert report.corrected_words == 8

    def test_dense_flips_break_through(self, rng):
        # two flips in the same codeword are uncorrectable
        weights = rng.random(2).astype(np.float32)  # one codeword
        rep = EccProtectedRepresentation(Float32Representation(sanitize=False))
        restored, report = protected_roundtrip(rep, weights, np.array([3, 40]))
        assert report.uncorrectable_words == 1

    def test_incompatible_inner_width_rejected(self):
        class Odd:
            bits_per_weight = 24

        with pytest.raises(ValueError):
            EccProtectedRepresentation(Odd())

    def test_narrow_inner_width_rejected(self):
        # 4-bit weights divide 64 but would need 4.5 coded bits each
        class Nibble:
            bits_per_weight = 4

        with pytest.raises(ValueError, match="whole number of coded bits"):
            EccProtectedRepresentation(Nibble())

    def test_decode_trims_padding_weights(self, rng):
        # three fp32 weights pad the second 64-bit data word
        weights = rng.random(3).astype(np.float32)
        rep = EccProtectedRepresentation(Float32Representation())
        stored = rep.encode(weights)
        assert stored.size == 2 * CODE_BITS
        assert np.array_equal(rep.decode(stored), weights)

    def test_decode_rejects_partial_codeword(self, rng):
        rep = EccProtectedRepresentation(Float32Representation())
        stored = rep.encode(rng.random(2).astype(np.float32))
        with pytest.raises(ValueError, match="whole number of codewords"):
            rep.decode(stored[:-1])

    def test_flip_is_out_of_place_and_range_checked(self, rng):
        rep = EccProtectedRepresentation(Float32Representation())
        stored = rep.encode(rng.random(2).astype(np.float32))
        original = stored.copy()
        flipped = rep.flip_bits(stored, np.array([0, CODE_BITS - 1]))
        assert np.array_equal(stored, original)
        assert np.count_nonzero(flipped != stored) == 2
        for bad in (-1, CODE_BITS):
            with pytest.raises(IndexError):
                rep.flip_bits(stored, np.array([bad]))

    def test_works_through_error_injector(self, rng):
        from repro.errors.injection import ErrorInjector

        weights = rng.random(128).astype(np.float32)
        rep = EccProtectedRepresentation(Float32Representation())
        injector = ErrorInjector(rep, seed=0)
        # at low BER, nearly all flips are singletons per 72-bit word
        out, _report = injector.inject_uniform(weights, 1e-4)
        out = out.ravel()[: weights.size]
        assert np.count_nonzero(out != weights) <= 2
