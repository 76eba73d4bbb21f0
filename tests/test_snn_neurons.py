"""Tests of the adaptive LIF neuron layer.

Its dynamics are stepped through the reference ``neuron_step`` of
``tests/snn_oracle.py``, the per-step form of the network's time loops.
"""

import numpy as np
import pytest
from snn_oracle import neuron_step

from repro.snn.neurons import AdaptiveLIFLayer, LIFParameters


@pytest.fixture
def layer():
    return AdaptiveLIFLayer(n_neurons=5)


class TestParameters:
    def test_defaults_valid(self):
        LIFParameters().validate()

    def test_bad_time_constant_rejected(self):
        with pytest.raises(ValueError):
            LIFParameters(tau_membrane_ms=0).validate()

    def test_reset_above_threshold_rejected(self):
        with pytest.raises(ValueError):
            LIFParameters(v_reset=0.0, v_threshold=-52.0).validate()

    def test_negative_refractory_rejected(self):
        with pytest.raises(ValueError, match="refractory"):
            LIFParameters(refractory_ms=-1.0).validate()

    def test_layer_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            AdaptiveLIFLayer(5, dtype=np.float16)
        assert AdaptiveLIFLayer(5, dtype=np.float32).v.dtype == np.float32

    def test_layer_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            AdaptiveLIFLayer(0)
        with pytest.raises(ValueError):
            AdaptiveLIFLayer(5, dt_ms=0)


class TestDynamics:
    def test_starts_at_rest(self, layer):
        assert np.all(layer.v == layer.parameters.v_rest)
        assert np.all(layer.theta == 0.0)

    def test_decays_toward_rest_without_input(self, layer):
        layer.v[:] = -55.0
        zero = np.zeros(5)
        neuron_step(layer, zero, zero)
        assert np.all(layer.v < -55.0)
        assert np.all(layer.v > layer.parameters.v_rest)

    def test_excitation_raises_potential(self, layer):
        v0 = layer.v.copy()
        neuron_step(layer, np.full(5, 0.5), np.zeros(5))
        assert np.all(layer.v > v0)

    def test_inhibition_lowers_potential(self, layer):
        zero = np.zeros(5)
        neuron_step(layer, zero, np.full(5, 0.5))
        assert np.all(layer.v < layer.parameters.v_rest)

    def test_strong_input_fires_and_resets(self, layer):
        spikes = neuron_step(layer, np.full(5, 100.0), np.zeros(5))
        assert np.all(spikes)
        assert np.all(layer.v == layer.parameters.v_reset)

    def test_membrane_decay_is_exponential_shape(self):
        # Fig. 4(b): potential decreases exponentially without input.
        layer = AdaptiveLIFLayer(1, LIFParameters(tau_membrane_ms=10.0))
        layer.v[:] = -55.0
        zero = np.zeros(1)
        gaps = []
        for _ in range(3):
            before = layer.v[0] - layer.parameters.v_rest
            neuron_step(layer, zero, zero)
            after = layer.v[0] - layer.parameters.v_rest
            gaps.append(after / before)
        assert gaps[0] == pytest.approx(gaps[1], rel=1e-6)
        assert gaps[1] == pytest.approx(gaps[2], rel=1e-6)


class TestRefractory:
    def test_refractory_blocks_integration(self, layer):
        neuron_step(layer, np.full(5, 100.0), np.zeros(5))  # fire
        v_after = layer.v.copy()
        spikes = neuron_step(layer, np.full(5, 100.0), np.zeros(5))
        assert not np.any(spikes)
        assert np.array_equal(layer.v, v_after)

    def test_refractory_expires(self):
        params = LIFParameters(refractory_ms=2.0)
        layer = AdaptiveLIFLayer(1, params)
        neuron_step(layer, np.array([100.0]), np.zeros(1))  # fire at t=0
        for _ in range(2):
            neuron_step(layer, np.array([100.0]), np.zeros(1))
        spikes = neuron_step(layer, np.array([100.0]), np.zeros(1))
        assert spikes[0]


class TestAdaptiveThreshold:
    def test_theta_grows_on_spike(self, layer):
        neuron_step(layer, np.full(5, 100.0), np.zeros(5))
        assert np.all(layer.theta == pytest.approx(layer.parameters.theta_plus))

    def test_theta_frozen_when_adapt_false(self, layer):
        neuron_step(layer, np.full(5, 100.0), np.zeros(5), adapt=False)
        assert np.all(layer.theta == 0.0)

    def test_theta_raises_effective_threshold(self):
        params = LIFParameters(theta_plus=100.0, refractory_ms=0.0)
        layer = AdaptiveLIFLayer(1, params)
        neuron_step(layer, np.array([100.0]), np.zeros(1))  # fire, theta jumps
        fired = []
        for _ in range(10):
            fired.append(neuron_step(layer, np.array([10.0]), np.zeros(1))[0])
        assert not any(fired)  # theta now too high for this drive

    def test_theta_decays_slowly(self, layer):
        layer.theta[:] = 1.0
        neuron_step(layer, np.zeros(5), np.zeros(5))
        assert np.all(layer.theta < 1.0)
        assert np.all(layer.theta > 0.999)


class TestStateManagement:
    def test_reset_keeps_theta_by_default(self, layer):
        neuron_step(layer, np.full(5, 100.0), np.zeros(5))
        theta = layer.theta.copy()
        layer.reset_state()
        assert np.array_equal(layer.theta, theta)
        assert np.all(layer.v == layer.parameters.v_rest)


class TestBatchedState:
    def test_batch_shape_state_arrays(self):
        layer = AdaptiveLIFLayer(6, batch_shape=(3, 4))
        assert layer.state_shape == (3, 4, 6)
        assert layer.v.shape == (3, 4, 6)
        assert layer.theta.shape == (3, 4, 6)
        assert layer.refractory_left.shape == (3, 4, 6)

    def test_batched_step_matches_scalar_per_element(self):
        rng = np.random.default_rng(0)
        g_e = rng.random((2, 5, 8)) * 2.0
        g_i = rng.random((2, 5, 8))
        batched = AdaptiveLIFLayer(8, batch_shape=(2, 5))
        spikes = neuron_step(batched, g_e, g_i, adapt=True)
        assert spikes.shape == (2, 5, 8)
        for e in range(2):
            for b in range(5):
                scalar = AdaptiveLIFLayer(8)
                scalar_spikes = neuron_step(scalar, g_e[e, b], g_i[e, b])
                assert np.array_equal(scalar_spikes, spikes[e, b])
                assert np.array_equal(scalar.v, batched.v[e, b])
                assert np.array_equal(scalar.theta, batched.theta[e, b])

    def test_set_batch_shape_preserves_theta_vector(self):
        layer = AdaptiveLIFLayer(4)
        layer.theta = np.array([0.1, 0.2, 0.3, 0.4])
        layer.set_batch_shape((2, 3))
        assert layer.theta.shape == (2, 3, 4)
        assert np.array_equal(layer.theta[1, 2], [0.1, 0.2, 0.3, 0.4])
        layer.set_batch_shape(())
        assert np.array_equal(layer.theta, [0.1, 0.2, 0.3, 0.4])
