"""Tests of the training-health diagnostics."""

import numpy as np
import pytest

from repro.snn.diagnostics import TrainingHealth, _gini, check_training_health
from repro.snn.network import DiehlCookNetwork, NetworkParameters


def make_health(**overrides):
    base = dict(
        mean_spikes_per_sample=10.0,
        active_neuron_fraction=0.9,
        spike_concentration=0.3,
        theta_dispersion=0.4,
        receptive_field_similarity=0.5,
    )
    base.update(overrides)
    return TrainingHealth(**base)


class TestGini:
    def test_uniform_is_zero(self):
        assert _gini(np.ones(50)) == pytest.approx(0.0, abs=1e-9)

    def test_single_spike_owner_is_near_one(self):
        values = np.zeros(100)
        values[0] = 42
        assert _gini(values) > 0.95

    def test_all_zero_is_zero(self):
        assert _gini(np.zeros(10)) == 0.0

    def test_monotone_with_concentration(self):
        even = np.array([1.0, 1.0, 1.0, 1.0])
        skewed = np.array([0.1, 0.1, 0.1, 3.7])
        assert _gini(skewed) > _gini(even)


class TestFailureModes:
    def test_healthy_network_has_no_warnings(self):
        assert make_health().warnings() == ()

    def test_silence_detected(self):
        health = make_health(mean_spikes_per_sample=0.2)
        assert health.is_silent
        assert any("silent" in w for w in health.warnings())

    def test_lockstep_detected(self):
        health = make_health(theta_dispersion=0.01, receptive_field_similarity=0.99)
        assert health.is_lockstep
        assert any("lockstep" in w for w in health.warnings())

    def test_degenerate_detected(self):
        health = make_health(spike_concentration=0.95)
        assert health.is_degenerate
        assert any("dominate" in w for w in health.warnings())


class TestProbe:
    def test_probe_on_fresh_network(self, mini_mnist, rng):
        net = DiehlCookNetwork(NetworkParameters(n_neurons=20), rng=rng)
        health = check_training_health(net, mini_mnist.train_images[:10], rng=rng)
        assert 0.0 <= health.active_neuron_fraction <= 1.0
        assert 0.0 <= health.spike_concentration <= 1.0
        assert -1.0 <= health.receptive_field_similarity <= 1.0

    def test_probe_preserves_network_state(self, mini_mnist, rng):
        net = DiehlCookNetwork(NetworkParameters(n_neurons=20), rng=rng)
        theta = net.theta.copy()
        weights = net.weights.copy()
        check_training_health(net, mini_mnist.train_images[:5], rng=rng)
        assert np.array_equal(net.theta, theta)
        assert np.array_equal(net.weights, weights)

    def test_lockstep_network_flagged(self, mini_mnist, rng):
        # no symmetry breaking + identical fields = the collapse signature
        params = NetworkParameters(n_neurons=30, theta_init_max=0.0)
        net = DiehlCookNetwork(params, rng=rng)
        net.weights[:] = 0.025  # identical receptive fields
        net.theta[:] = 10.0  # identical, nonzero thresholds
        health = check_training_health(net, mini_mnist.train_images[:8], rng=rng)
        assert health.theta_dispersion < 0.05
        assert health.receptive_field_similarity > 0.95
        assert health.is_lockstep

    def test_single_neuron_has_no_field_similarity(self, mini_mnist, rng):
        net = DiehlCookNetwork(NetworkParameters(n_neurons=1), rng=rng)
        health = check_training_health(net, mini_mnist.train_images[:3], rng=rng)
        assert health.receptive_field_similarity == 0.0

    def test_empty_probe_rejected(self, rng):
        net = DiehlCookNetwork(NetworkParameters(n_neurons=5), rng=rng)
        with pytest.raises(ValueError):
            check_training_health(net, np.empty((0, 784)), rng=rng)
