"""Tests of the conductance-based synapse model.

The conductances live in :class:`DiehlCookNetwork`; these tests drive a
one-input network whose excitatory conductance ``g_e`` is stepped, and
driven, through the reference ``conductance_step`` and
``propagate_spikes`` of ``tests/snn_oracle.py``.
"""

import numpy as np
import pytest
from snn_oracle import conductance_step, propagate_spikes

from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.synapses import ConductanceParameters


def conductance(k, tau_ms, batch_shape=()):
    """A weightless one-input network of ``k`` neurons whose excitatory
    conductance decays with ``tau_ms``."""
    params = NetworkParameters(
        n_input=1,
        n_neurons=k,
        conductance=ConductanceParameters(tau_excitatory_ms=tau_ms),
    )
    return DiehlCookNetwork(params, batch_shape=batch_shape, init_weights=False)


def step(net, injected=0.0):
    return conductance_step(net, "g_e", injected)


class TestParameters:
    def test_defaults_valid(self):
        ConductanceParameters().validate()

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            ConductanceParameters(tau_excitatory_ms=0).validate()


class TestConductance:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            NetworkParameters(n_input=1, n_neurons=0).validate()
        with pytest.raises(ValueError):
            conductance(5, tau_ms=-1.0)

    def test_starts_at_zero(self):
        net = conductance(4, tau_ms=2.0)
        assert np.all(net.g_e == 0.0)
        assert np.all(net.g_i == 0.0)

    def test_injection_adds(self):
        net = conductance(4, tau_ms=2.0)
        step(net, np.full(4, 0.5))
        assert np.all(net.g_e == pytest.approx(0.5))

    def test_exponential_decay(self):
        # Section II-A: the conductance decreases exponentially between
        # presynaptic spikes.
        net = conductance(1, tau_ms=2.0)
        step(net, np.array([1.0]))
        v1 = step(net)[0]
        v2 = step(net)[0]
        assert v1 == pytest.approx(np.exp(-0.5))
        assert v2 / v1 == pytest.approx(np.exp(-0.5))

    def test_inhibitory_decay_uses_its_own_tau(self):
        net = conductance(1, tau_ms=1.0)  # g_i keeps the default 2 ms
        conductance_step(net, "g_i", np.array([1.0]))
        assert conductance_step(net, "g_i")[0] == pytest.approx(np.exp(-0.5))

    def test_reset_state(self):
        net = conductance(3, tau_ms=1.0)
        step(net, np.ones(3))
        conductance_step(net, "g_i", np.ones(3))
        net.reset_state()
        assert np.all(net.g_e == 0.0)
        assert np.all(net.g_i == 0.0)


class TestWeightInjection:
    def test_spike_adds_weight_column_sums(self):
        # Section II-A: conductance "increases by weight w when a
        # presynaptic spike arrives".
        net = conductance(2, tau_ms=1.0)
        weights = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        spikes = np.array([1.0, 0.0, 1.0])
        step(net, propagate_spikes(weights, spikes))
        assert net.g_e[0] == pytest.approx(0.1 + 0.5)
        assert net.g_e[1] == pytest.approx(0.2 + 0.6)

    def test_no_spikes_only_decays(self):
        net = conductance(2, tau_ms=1.0)
        net.g_e[:] = 1.0
        step(net, propagate_spikes(np.ones((3, 2)), np.zeros(3)))
        assert np.all(net.g_e == pytest.approx(np.exp(-1.0)))

    def test_shape_validation(self):
        net = conductance(2, tau_ms=1.0)
        # weights onto 5 postsynaptic neurons cannot drive 2
        with pytest.raises(ValueError):
            step(net, propagate_spikes(np.ones((3, 5)), np.zeros(3)))
        # 4 presynaptic spikes against 3 weight rows
        with pytest.raises(ValueError, match="3 presynaptic entries"):
            propagate_spikes(np.ones((3, 2)), np.zeros(4))


class TestBatchedConductance:
    def test_batched_decay_matches_scalar(self):
        batched = conductance(4, tau_ms=2.0, batch_shape=(3,))
        scalar = conductance(4, tau_ms=2.0)
        injected = np.arange(12, dtype=float).reshape(3, 4)
        step(batched, injected)
        step(batched, 0.5)
        for b in range(3):
            ref = conductance(4, tau_ms=2.0)
            step(ref, injected[b])
            step(ref, 0.5)
            assert np.array_equal(batched.g_e[b], ref.g_e)
        assert scalar.g_e.shape == (4,)

    def test_batched_inject_through_weights(self):
        rng = np.random.default_rng(1)
        weights = rng.random((6, 4))
        spikes = rng.random((3, 6)) < 0.5
        batched = conductance(4, tau_ms=1.5, batch_shape=(3,))
        step(batched, propagate_spikes(weights, spikes))
        for b in range(3):
            ref = conductance(4, tau_ms=1.5)
            step(ref, propagate_spikes(weights, spikes[b]))
            assert np.allclose(batched.g_e[b], ref.g_e)

    def test_shape_mismatch_rejected(self):
        batched = conductance(4, tau_ms=1.0, batch_shape=(3,))
        with pytest.raises(ValueError):
            drive = propagate_spikes(np.ones((6, 4)), np.ones((2, 6), dtype=bool))
            step(batched, drive)

    def test_set_batch_shape_resets(self):
        net = conductance(4, tau_ms=1.0)
        step(net, 1.0)
        net.set_batch_shape((2,))
        assert net.g_e.shape == (2, 4)
        assert not net.g_e.any()
        assert net.g_i.shape == (2, 4)


class TestPropagateSpikes:
    def test_matches_matmul(self):
        rng = np.random.default_rng(3)
        weights = rng.random((5, 7))
        spikes = rng.random((4, 5)) < 0.4
        assert np.allclose(
            propagate_spikes(weights, spikes), spikes.astype(float) @ weights
        )

    def test_stacked_weights_per_leading_index(self):
        rng = np.random.default_rng(2)
        weights = rng.random((2, 6, 4))
        spikes = rng.random((2, 3, 6)) < 0.5
        drive = propagate_spikes(weights, spikes)
        for e in range(2):
            for b in range(3):
                assert np.allclose(drive[e, b], spikes[e, b].astype(float) @ weights[e])

    def test_one_matrix_serves_any_batch_shape(self):
        rng = np.random.default_rng(4)
        weights = rng.random((5, 3))
        spikes = rng.random((2, 4, 5)) < 0.4
        drive = propagate_spikes(weights, spikes)
        assert drive.shape == (2, 4, 3)
        assert np.allclose(drive, spikes.astype(float) @ weights)
        assert np.allclose(propagate_spikes(weights, spikes[0, 0]), drive[0, 0])

    def test_rejects_vector_weights(self):
        with pytest.raises(ValueError, match="at least 2-D"):
            propagate_spikes(np.ones(5), np.ones(5))

    def test_rejects_misaligned_stack(self):
        with pytest.raises(ValueError):
            propagate_spikes(np.ones((2, 5, 7)), np.ones((3, 4, 5)))
