"""Tests of the bit-position sensitivity analysis."""

import numpy as np
import pytest

from repro.analysis.sensitivity import flip_single_position
from repro.snn.quantization import Float32Representation


@pytest.fixture
def weights(rng):
    return (rng.random((20, 10)) * 0.9 + 0.05).astype(np.float32)


class TestFlipSinglePosition:
    def test_flips_requested_fraction(self, weights):
        rep = Float32Representation(sanitize=False)
        out = flip_single_position(
            weights, rep, bit_position=0, flip_fraction=0.5,
            rng=np.random.default_rng(0),
        )
        changed = np.count_nonzero(out != weights)
        assert changed == weights.size // 2

    def test_only_named_bit_flipped(self, weights):
        rep = Float32Representation(sanitize=False)
        out = flip_single_position(
            weights, rep, bit_position=7, flip_fraction=1.0,
            rng=np.random.default_rng(0),
        )
        xor = np.bitwise_xor(weights.view(np.uint32), out.view(np.uint32))
        assert set(np.unique(xor)) == {1 << 7}

    def test_validation(self, weights):
        rep = Float32Representation()
        with pytest.raises(ValueError):
            flip_single_position(weights, rep, 0, 0.0, np.random.default_rng(0))
        with pytest.raises(IndexError):
            flip_single_position(weights, rep, 32, 0.5, np.random.default_rng(0))
