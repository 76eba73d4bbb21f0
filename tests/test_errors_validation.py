"""Tests of the error-model statistical validation utilities."""

import numpy as np
import pytest
from errors_validation import (
    data_dependence_ratio,
    sample_flip_positions,
    structure_score,
    uniformity_pvalue,
)

from repro.errors.models import (
    ONE_TO_ZERO_RATIO,
    ErrorModel0,
    ErrorModel1,
    ErrorModel2,
    ErrorModel3,
)

N_BITS = 600_000
BER = 2e-3
LANES = 64
ROW_BITS = 4096


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestModel0Statistics:
    def test_uniform_flips_pass_chi_square(self, rng):
        flips = sample_flip_positions(ErrorModel0(), N_BITS, BER, rng)
        assert uniformity_pvalue(flips, N_BITS) > 0.01

    def test_no_structural_concentration(self, rng):
        flips = sample_flip_positions(
            ErrorModel0(), N_BITS, BER, rng, lane_bits=LANES
        )
        lanes = np.arange(N_BITS, dtype=np.int64) % LANES
        assert structure_score(flips, lanes) < 3.0


class TestStructuredModelStatistics:
    def test_model1_concentrates_on_bitlines(self, rng):
        model = ErrorModel1()
        flips = sample_flip_positions(model, N_BITS, BER, rng, lane_bits=LANES)
        lanes = np.arange(N_BITS, dtype=np.int64) % LANES
        assert structure_score(flips, lanes) > 10.0

    def test_model1_uniform_along_other_axis(self, rng):
        # vertical structure must NOT show up on the wordline axis
        model = ErrorModel1()
        flips = sample_flip_positions(
            model, N_BITS, BER, rng, lane_bits=LANES, row_bits=ROW_BITS
        )
        rows = np.arange(N_BITS, dtype=np.int64) // ROW_BITS
        assert structure_score(flips, rows) < 5.0

    def test_model2_concentrates_on_wordlines(self, rng):
        # Model-2's sigma is 1.0: over 147 wordlines of ~8 flips each
        # it scores about 8.5, where the unstructured axes above score
        # under 3 and under 5.
        model = ErrorModel2()
        flips = sample_flip_positions(
            model, N_BITS, BER, rng, row_bits=ROW_BITS
        )
        rows = np.arange(N_BITS, dtype=np.int64) // ROW_BITS
        assert structure_score(flips, rows) > 5.0


class TestModel3Statistics:
    def test_ratio_matches_configuration(self, rng):
        values = (np.arange(N_BITS) % 2).astype(np.uint8)
        model = ErrorModel3()
        flips = sample_flip_positions(
            model, N_BITS, BER, rng, values=values
        )
        ratio = data_dependence_ratio(flips, values)
        assert ratio == pytest.approx(ONE_TO_ZERO_RATIO, rel=0.35)

    def test_model0_is_data_independent(self, rng):
        values = (np.arange(N_BITS) % 2).astype(np.uint8)
        flips = sample_flip_positions(ErrorModel0(), N_BITS, BER, rng)
        ratio = data_dependence_ratio(flips, values)
        assert ratio == pytest.approx(1.0, rel=0.3)


class TestValidationHelpers:
    def test_uniformity_needs_enough_flips(self):
        with pytest.raises(ValueError):
            uniformity_pvalue(np.arange(10), 1000)

    def test_structure_score_needs_flips(self):
        with pytest.raises(ValueError):
            structure_score(np.empty(0, dtype=np.int64), np.zeros(10, dtype=np.int64))

    def test_data_dependence_needs_both_values(self):
        with pytest.raises(ValueError):
            data_dependence_ratio(np.array([0]), np.zeros(10, dtype=np.uint8))
