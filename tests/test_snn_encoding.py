"""Tests of the Poisson rate code."""

import numpy as np
import pytest

from repro.snn.encoding import MAX_RATE_HZ, poisson_rate_code


@pytest.fixture
def image(rng):
    return rng.random(64)


class TestValidation:
    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(ValueError):
            poisson_rate_code(np.array([1.5]), 10)
        with pytest.raises(ValueError):
            poisson_rate_code(np.array([-0.1]), 10)

    def test_rejects_empty_image(self):
        with pytest.raises(ValueError):
            poisson_rate_code(np.array([]), 10)

    def test_rejects_bad_steps(self, image):
        with pytest.raises(ValueError):
            poisson_rate_code(image, 0)


class TestPoissonRate:
    def test_shape_and_dtype(self, image):
        train = poisson_rate_code(image, 50, rng=np.random.default_rng(0))
        assert train.shape == (50, 64)
        assert train.dtype == bool

    def test_zero_pixels_never_spike(self):
        image = np.zeros(10)
        image[0] = 1.0
        train = poisson_rate_code(image, 200, rng=np.random.default_rng(0))
        assert train[:, 1:].sum() == 0
        assert train[:, 0].sum() > 0

    def test_rate_proportional_to_intensity(self):
        image = np.array([0.25, 1.0])
        train = poisson_rate_code(image, 40_000, rng=np.random.default_rng(0))
        rates = train.mean(axis=0)
        assert rates[1] / rates[0] == pytest.approx(4.0, rel=0.15)

    def test_max_rate_honoured(self):
        image = np.ones(4)
        train = poisson_rate_code(image, 50_000, rng=np.random.default_rng(1))
        # 63.75 Hz at 1 ms steps -> spike probability 0.06375
        assert MAX_RATE_HZ == 63.75
        assert train.mean() == pytest.approx(0.06375, rel=0.05)

    def test_spike_probability_is_intensity_times_max_rate(self):
        image = np.array([0.2, 0.5, 1.0])
        train = poisson_rate_code(image, 100_000, rng=np.random.default_rng(2))
        expected = image * MAX_RATE_HZ * 1e-3
        assert train.mean(axis=0) == pytest.approx(expected, rel=0.05)

    def test_two_dimensional_image_is_flattened(self, rng):
        image = rng.random((8, 8))
        a = poisson_rate_code(image, 30, rng=np.random.default_rng(5))
        b = poisson_rate_code(image.ravel(), 30, rng=np.random.default_rng(5))
        assert a.shape == (30, 64)
        assert np.array_equal(a, b)

    def test_deterministic_given_rng(self, image):
        a = poisson_rate_code(image, 20, rng=np.random.default_rng(3))
        b = poisson_rate_code(image, 20, rng=np.random.default_rng(3))
        assert np.array_equal(a, b)
