"""Tests of the adaptive LIF neurons.

The neuron state lives in :class:`DiehlCookNetwork`; these tests drive
a one-input network whose dynamics are stepped through the reference
``neuron_step`` of ``tests/snn_oracle.py``, the per-step form of the
network's time loops.
"""

import numpy as np
import pytest
from snn_oracle import neuron_step

from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.neurons import LIFParameters


def neurons(k, lif=None, batch_shape=(), **kwargs):
    """A weightless one-input network of ``k`` neurons."""
    params = NetworkParameters(n_input=1, n_neurons=k, lif=lif or LIFParameters())
    return DiehlCookNetwork(
        params, batch_shape=batch_shape, init_weights=False, **kwargs
    )


@pytest.fixture
def net():
    return neurons(5)


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

    def test_network_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            neurons(5, dtype=np.float16)
        assert neurons(5, dtype=np.float32).v.dtype == np.float32

    def test_parameters_reject_bad_sizes(self):
        with pytest.raises(ValueError):
            NetworkParameters(n_input=1, n_neurons=0).validate()
        with pytest.raises(ValueError):
            NetworkParameters(n_input=1, n_neurons=5, dt_ms=0).validate()


class TestDynamics:
    def test_starts_at_rest(self, net):
        assert np.all(net.v == net.parameters.lif.v_rest)
        assert np.all(net.theta == 0.0)

    def test_decays_toward_rest_without_input(self, net):
        net.v[:] = -55.0
        zero = np.zeros(5)
        neuron_step(net, zero, zero)
        assert np.all(net.v < -55.0)
        assert np.all(net.v > net.parameters.lif.v_rest)

    def test_excitation_raises_potential(self, net):
        v0 = net.v.copy()
        neuron_step(net, np.full(5, 0.5), np.zeros(5))
        assert np.all(net.v > v0)

    def test_inhibition_lowers_potential(self, net):
        zero = np.zeros(5)
        neuron_step(net, zero, np.full(5, 0.5))
        assert np.all(net.v < net.parameters.lif.v_rest)

    def test_strong_input_fires_and_resets(self, net):
        spikes = neuron_step(net, np.full(5, 100.0), np.zeros(5))
        assert np.all(spikes)
        assert np.all(net.v == net.parameters.lif.v_reset)

    def test_membrane_decay_is_exponential_shape(self):
        # Fig. 4(b): potential decreases exponentially without input.
        net = neurons(1, LIFParameters(tau_membrane_ms=10.0))
        net.v[:] = -55.0
        zero = np.zeros(1)
        gaps = []
        for _ in range(3):
            before = net.v[0] - net.parameters.lif.v_rest
            neuron_step(net, zero, zero)
            after = net.v[0] - net.parameters.lif.v_rest
            gaps.append(after / before)
        assert gaps[0] == pytest.approx(gaps[1], rel=1e-6)
        assert gaps[1] == pytest.approx(gaps[2], rel=1e-6)


class TestRefractory:
    def test_refractory_blocks_integration(self, net):
        neuron_step(net, np.full(5, 100.0), np.zeros(5))  # fire
        v_after = net.v.copy()
        spikes = neuron_step(net, np.full(5, 100.0), np.zeros(5))
        assert not np.any(spikes)
        assert np.array_equal(net.v, v_after)

    def test_refractory_expires(self):
        params = LIFParameters(refractory_ms=2.0)
        net = neurons(1, params)
        neuron_step(net, np.array([100.0]), np.zeros(1))  # fire at t=0
        for _ in range(2):
            neuron_step(net, np.array([100.0]), np.zeros(1))
        spikes = neuron_step(net, np.array([100.0]), np.zeros(1))
        assert spikes[0]


class TestAdaptiveThreshold:
    def test_theta_grows_on_spike(self, net):
        neuron_step(net, np.full(5, 100.0), np.zeros(5))
        assert np.all(net.theta == pytest.approx(net.parameters.lif.theta_plus))

    def test_theta_frozen_when_adapt_false(self, net):
        neuron_step(net, np.full(5, 100.0), np.zeros(5), adapt=False)
        assert np.all(net.theta == 0.0)

    def test_theta_raises_effective_threshold(self):
        params = LIFParameters(theta_plus=100.0, refractory_ms=0.0)
        net = neurons(1, params)
        neuron_step(net, np.array([100.0]), np.zeros(1))  # fire, theta jumps
        fired = []
        for _ in range(10):
            fired.append(neuron_step(net, np.array([10.0]), np.zeros(1))[0])
        assert not any(fired)  # theta now too high for this drive

    def test_theta_decays_slowly(self, net):
        net.theta[:] = 1.0
        neuron_step(net, np.zeros(5), np.zeros(5))
        assert np.all(net.theta < 1.0)
        assert np.all(net.theta > 0.999)


class TestStateManagement:
    def test_reset_keeps_theta_by_default(self, net):
        neuron_step(net, np.full(5, 100.0), np.zeros(5))
        theta = net.theta.copy()
        net.reset_state()
        assert np.array_equal(net.theta, theta)
        assert np.all(net.v == net.parameters.lif.v_rest)


class TestBatchedState:
    def test_batch_shape_state_arrays(self):
        net = neurons(6, batch_shape=(3, 4))
        assert net.state_shape == (3, 4, 6)
        assert net.v.shape == (3, 4, 6)
        assert net.theta.shape == (3, 4, 6)
        assert net.refractory_left.shape == (3, 4, 6)

    def test_batched_step_matches_scalar_per_element(self):
        rng = np.random.default_rng(0)
        g_e = rng.random((2, 5, 8)) * 2.0
        g_i = rng.random((2, 5, 8))
        batched = neurons(8, batch_shape=(2, 5))
        spikes = neuron_step(batched, g_e, g_i, adapt=True)
        assert spikes.shape == (2, 5, 8)
        for e in range(2):
            for b in range(5):
                scalar = neurons(8)
                scalar_spikes = neuron_step(scalar, g_e[e, b], g_i[e, b])
                assert np.array_equal(scalar_spikes, spikes[e, b])
                assert np.array_equal(scalar.v, batched.v[e, b])
                assert np.array_equal(scalar.theta, batched.theta[e, b])

    def test_set_batch_shape_preserves_theta_vector(self):
        net = neurons(4)
        net.theta = np.array([0.1, 0.2, 0.3, 0.4])
        net.set_batch_shape((2, 3))
        assert net.theta.shape == (2, 3, 4)
        assert np.array_equal(net.theta[1, 2], [0.1, 0.2, 0.3, 0.4])
        net.set_batch_shape(())
        assert np.array_equal(net.theta, [0.1, 0.2, 0.3, 0.4])
