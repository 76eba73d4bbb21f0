"""Tests of the Diehl & Cook architecture (Fig. 4a)."""

import numpy as np
import pytest
from snn_oracle import reference_run_batch_frozen, reference_run_sample

import repro.snn.network as network_module
from repro.snn.network import (
    DiehlCookNetwork,
    NetworkParameters,
    PAPER_NETWORK_SIZES,
    make_stdp,
)
from repro.snn.neurons import LIFParameters
from repro.snn.stdp import STDPParameters


@pytest.fixture
def net(rng):
    params = NetworkParameters(n_input=16, n_neurons=8)
    return DiehlCookNetwork(params, rng=rng)


class TestConstruction:
    def test_paper_sizes_listed(self):
        assert PAPER_NETWORK_SIZES == (400, 900, 1600, 2500, 3600)

    def test_weights_shape_and_range(self, net):
        assert net.weights.shape == (16, 8)
        assert net.weights.min() >= 0.0

    def test_weight_columns_normalised_at_init(self, net):
        sums = net.weights.sum(axis=0)
        assert np.allclose(sums, net.parameters.weight_norm)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NetworkParameters(n_input=0).validate()
        with pytest.raises(ValueError):
            NetworkParameters(excitation_gain=0).validate()

    def test_n_weights(self, net):
        assert net.n_weights == 16 * 8


class TestSetWeights:
    def test_set_weights_copies(self, net):
        new = np.full((16, 8), 0.5)
        net.set_weights(new)
        new[0, 0] = 99.0
        assert net.weights[0, 0] == 0.5

    def test_set_weights_validates_shape(self, net):
        with pytest.raises(ValueError):
            net.set_weights(np.zeros((4, 4)))


class TestDynamics:
    def test_step_returns_bool_spikes(self, net):
        spikes = net.step(np.zeros(16, dtype=bool))
        assert spikes.shape == (8,)
        assert spikes.dtype == bool

    def test_step_validates_input_shape(self, net):
        with pytest.raises(ValueError):
            net.step(np.zeros(5, dtype=bool))

    def test_input_spikes_drive_conductance(self, net):
        net.step(np.ones(16, dtype=bool))
        assert np.all(net.g_excitatory.g > 0)

    def test_lateral_inhibition_spares_the_spiker(self, net):
        # Drive hard so someone fires, then check inhibition applies to
        # the *other* neurons on the following step.
        net.set_weights(np.full((16, 8), 1.0))
        spikes = net.step(np.ones(16, dtype=bool))
        if not spikes.any():  # drive once more if the first step ramps
            spikes = net.step(np.ones(16, dtype=bool))
        assert spikes.any()
        net.step(np.zeros(16, dtype=bool))
        g = net.g_inhibitory.g
        n_spikes = int(spikes.sum())
        expected_other = n_spikes * net.parameters.inhibition_strength
        others = ~spikes
        assert np.allclose(g[others], expected_other, rtol=1e-6)
        if n_spikes < 8:
            assert np.all(g[spikes] < expected_other)

    def test_reset_state_clears_dynamics(self, net):
        net.step(np.ones(16, dtype=bool))
        net.reset_state()
        assert np.all(net.g_excitatory.g == 0)
        assert np.all(net.g_inhibitory.g == 0)
        assert np.all(net.neurons.v == net.parameters.lif.v_rest)


class TestRunSample:
    def test_counts_shape(self, net, rng):
        train = rng.random((30, 16)) < 0.3
        counts = net.run_sample(train)
        assert counts.shape == (8,)
        assert counts.dtype == np.int64

    def test_inference_does_not_change_weights_or_theta(self, net, rng):
        train = rng.random((30, 16)) < 0.3
        weights = net.weights.copy()
        theta = net.neurons.theta.copy()
        net.run_sample(train)
        assert np.array_equal(net.weights, weights)
        assert np.array_equal(net.neurons.theta, theta)

    def test_training_changes_weights(self, net, rng):
        stdp = make_stdp(net)
        train = rng.random((60, 16)) < 0.5
        before = net.weights.copy()
        net.run_sample(train, stdp=stdp)
        assert not np.array_equal(net.weights, before)

    def test_training_keeps_columns_normalised(self, net, rng):
        stdp = make_stdp(net)
        train = rng.random((60, 16)) < 0.5
        net.run_sample(train, stdp=stdp)
        assert np.allclose(net.weights.sum(axis=0), net.parameters.weight_norm)

    def test_normalize_false_skips_normalisation(self, net, rng):
        stdp = make_stdp(net)
        train = rng.random((60, 16)) < 0.5
        net.run_sample(train, stdp=stdp, normalize=False)
        sums = net.weights.sum(axis=0)
        assert not np.allclose(sums, net.parameters.weight_norm)

    def test_shape_validation(self, net):
        with pytest.raises(ValueError):
            net.run_sample(np.zeros((10, 5), dtype=bool))


class TestBatchedNetwork:
    def test_run_batch_matches_run_sample_loop(self):
        rng = np.random.default_rng(8)
        params = NetworkParameters(n_input=30, n_neurons=12)
        source = DiehlCookNetwork(params, rng=rng)
        trains = rng.random((5, 20, 30)) < 0.2
        stack = np.stack([
            np.clip(source.weights + rng.normal(0, 0.02, source.weights.shape), 0, 1)
            for _ in range(3)
        ])
        batched = DiehlCookNetwork(params, init_weights=False, batch_shape=(3, 5))
        batched.neurons.theta = np.broadcast_to(
            source.neurons.theta, (3, 5, 12)
        ).copy()
        batched.set_weights(stack)
        counts = batched.run_batch(trains)
        scalar = DiehlCookNetwork(params, init_weights=False)
        scalar.neurons.theta = source.neurons.theta.copy()
        for e in range(3):
            scalar.set_weights(stack[e])
            for b in range(5):
                assert np.array_equal(counts[e, b], scalar.run_sample(trains[b]))

    def test_batched_step_accepts_batched_input(self):
        params = NetworkParameters(n_input=10, n_neurons=6)
        net = DiehlCookNetwork(params, rng=np.random.default_rng(0), batch_shape=(4,))
        spikes = net.step(np.ones((4, 10), dtype=bool), adapt=False)
        assert spikes.shape == (4, 6)

    def test_run_sample_rejected_on_batched_network(self):
        net = DiehlCookNetwork(
            NetworkParameters(n_input=10, n_neurons=6),
            init_weights=False,
            batch_shape=(2,),
        )
        with pytest.raises(ValueError, match="run_batch"):
            net.run_sample(np.zeros((5, 10), dtype=bool))

    def test_run_batch_requires_batched_network(self):
        net = DiehlCookNetwork(
            NetworkParameters(n_input=10, n_neurons=6), init_weights=False
        )
        with pytest.raises(ValueError):
            net.run_batch(np.zeros((2, 5, 10), dtype=bool))

    def test_weight_stack_validation(self):
        net = DiehlCookNetwork(
            NetworkParameters(n_input=10, n_neurons=6),
            init_weights=False,
            batch_shape=(3, 2),
        )
        with pytest.raises(ValueError):
            net.set_weights(np.zeros((4, 10, 6)))  # wrong stack depth
        net.set_weights(np.zeros((3, 10, 6)))
        net.set_weights(np.zeros((10, 6)))  # shared matrix always allowed

    def test_set_batch_shape_roundtrip(self):
        params = NetworkParameters(n_input=10, n_neurons=6)
        net = DiehlCookNetwork(params, rng=np.random.default_rng(1))
        theta = net.neurons.theta.copy()
        net.set_batch_shape((2, 4))
        assert net.batch_shape == (2, 4)
        assert net.g_excitatory.g.shape == (2, 4, 6)
        net.set_batch_shape(())
        assert np.array_equal(net.neurons.theta, theta)

    def test_init_weights_false_skips_rng(self):
        params = NetworkParameters(n_input=10, n_neurons=6)
        rng = np.random.default_rng(5)
        state_before = rng.bit_generator.state
        net = DiehlCookNetwork(params, rng=rng, init_weights=False)
        assert rng.bit_generator.state == state_before
        assert not net.weights.any()
        assert not net.neurons.theta.any()


# ----------------------------------------------------------------------
# The lean B=1 loop of run_sample against the historical loop it replaced.

ORACLE_PARAMS = NetworkParameters(n_input=64, n_neurons=24)
#: Successive train densities: state (weights, theta) carries over.
ORACLE_DENSITIES = (0.0, 0.15, 0.3, 0.4, 1.0)


def _state_bytes(net, stdp, counts):
    """Every array a presentation leaves behind, as (dtype, shape, bytes).

    Bytes rather than ``array_equal``: mu=0.5 on weights above ``w_max``
    makes NaNs, which ``array_equal`` calls unequal.
    """
    arrays = {
        "counts": counts,
        "weights": net.weights,
        "theta": net.neurons.theta,
        "v": net.neurons.v,
        "refractory": net.neurons.refractory_left,
        "g_e": net.g_excitatory.g,
        "g_i": net.g_inhibitory.g,
        "last_spikes": net._last_spikes,
    }
    if stdp is not None:
        arrays["x_pre"] = stdp.x_pre
    return {k: (a.dtype.str, a.shape, a.tobytes()) for k, a in arrays.items()}


def _presentations(run, dtype, rule, adapt, scale, seed=3):
    """Five successive presentations through ``run``; their states.

    Scaled weights skip the post-sample normalisation, so they stay
    above ``w_max`` from sample to sample (and mu=0.5 makes NaNs).
    """
    net = DiehlCookNetwork(ORACLE_PARAMS, rng=np.random.default_rng(seed), dtype=dtype)
    net.weights = (net.weights * scale).astype(dtype)
    normalize = None if scale == 1.0 else False
    stdp = None
    if rule is not None:
        mu, lr = rule
        stdp = make_stdp(net, STDPParameters(mu=mu, learning_rate=lr))
    train_rng = np.random.default_rng(seed + 1)
    states, spikes = [], 0
    for density in ORACLE_DENSITIES:
        train = train_rng.random((40, ORACLE_PARAMS.n_input)) < density
        counts = run(net, train, stdp=stdp, adapt=adapt, normalize=normalize)
        spikes += int(counts.sum())
        states.append(_state_bytes(net, stdp, counts))
    return states, spikes


class TestLeanLoopMatchesOracle:
    """run_sample == reference_run_sample, byte for byte, on every path."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the NaNs
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("scipy_on", [True, False], ids=["scipy", "numpy"])
    @pytest.mark.parametrize("adapt", [None, False, True])
    @pytest.mark.parametrize(
        "rule", [None, (1.0, 0.1), (0.5, 0.05)], ids=["frozen", "mu1", "mu0.5"]
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_grid(self, dtype, rule, adapt, scipy_on, scale, monkeypatch):
        if not scipy_on:
            monkeypatch.setattr(network_module, "_sparse", None)
        lean, lean_spikes = _presentations(
            DiehlCookNetwork.run_sample, dtype, rule, adapt, scale
        )
        ref, ref_spikes = _presentations(
            reference_run_sample, dtype, rule, adapt, scale
        )
        assert ref_spikes > 0  # the comparison is not vacuous
        for i, (got, want) in enumerate(zip(lean, ref)):
            for key in want:
                assert got[key] == want[key], (i, key)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_drive_spares_refractory_neurons(self, dtype):
        """An overflowing drive makes dv infinite on every step.

        Refractory neurons must keep their potential (a masked write,
        not ``v += dv * active``, where ``inf * 0`` is NaN), so every
        neuron fires again once its refractory period ends.
        """
        huge = np.finfo(dtype).max / 10
        train = np.ones((12, ORACLE_PARAMS.n_input), dtype=bool)

        def present(run):
            net = DiehlCookNetwork(ORACLE_PARAMS, init_weights=False, dtype=dtype)
            net.set_weights(np.full((64, 24), huge))
            counts = run(net, train)
            return counts, _state_bytes(net, None, counts)

        ref_counts, want = present(reference_run_sample)
        _, got = present(DiehlCookNetwork.run_sample)
        assert (ref_counts == 2).all()  # fired, sat out 5 steps, fired again
        for key in want:
            assert got[key] == want[key], key

    def test_fallback_refresh_reduces_full_rows(self, monkeypatch):
        """One column updates while >= 8 inputs spike per step.

        numpy sums a one-column (k, 1) slice pairwise once k >= 8, so a
        drive refresh that reduced only the updated column would drift
        from the full-row reduce on weights spanning 1e-3 to 1.  Every
        prefix of the train is presented, so some presentation ends on
        each refreshed drive row, where ``g_e`` still shows it.
        """
        monkeypatch.setattr(network_module, "_sparse", None)
        params = NetworkParameters(
            n_input=32,
            n_neurons=3,
            theta_init_max=0.0,
            lif=LIFParameters(theta_plus=100.0),  # one spike, one update
        )
        rng = np.random.default_rng(0)
        weights = rng.permutation(np.geomspace(1e-3, 1.0, 96)).reshape(32, 3)
        weights *= np.array([1.0, 0.05, 0.05])
        train = np.zeros((30, 32), dtype=bool)
        chosen = np.argsort(rng.random(train.shape), axis=1)[:, :12]
        np.put_along_axis(train, chosen, True, axis=1)  # 12 inputs per step

        def present(run, n_steps):
            net = DiehlCookNetwork(params, init_weights=False)
            net.set_weights(weights)
            stdp = make_stdp(net)
            counts = run(net, train[:n_steps], stdp=stdp, normalize=False)
            return net, _state_bytes(net, stdp, counts)

        for n_steps in range(1, train.shape[0] + 1):
            ref_net, want = present(reference_run_sample, n_steps)
            _, got = present(DiehlCookNetwork.run_sample, n_steps)
            assert got == want, n_steps
        changed = np.flatnonzero((ref_net.weights != weights).any(axis=0))
        assert changed.tolist() == [0]  # exactly one column updated


def _frozen_state(net, counts):
    """dtype and bytes of the counts and of every state array."""
    arrays = {
        "counts": counts,
        "v": net.neurons.v,
        "refractory_left": net.neurons.refractory_left,
        "g_e": net.g_excitatory.g,
        "g_i": net.g_inhibitory.g,
        "last_spikes": net._last_spikes,
    }
    return {key: (a.dtype, a.shape, a.tobytes()) for key, a in arrays.items()}


FROZEN_SCALES = (1.0, 30.0, 1e3, 1e30, 3e37)  # 3e37 overflows at float32


class TestSparseFrozenLoopMatchesOracle:
    """run_batch's sparse loop == the dense reference loop, byte for byte."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow
    @pytest.mark.parametrize("scipy_on", [True, False], ids=["scipy", "numpy"])
    @pytest.mark.parametrize(
        "batch", [((5,), False), ((3, 4), True), ((3, 4), False)],
        ids=["B", "E-stack", "E-shared"],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_grid(self, dtype, batch, scipy_on, monkeypatch):
        if not scipy_on:
            monkeypatch.setattr(network_module, "_sparse", None)
        shape, stacked = batch

        def run(refractory_ms, scale, density):
            rng = np.random.default_rng(3)
            params = NetworkParameters(
                n_input=30,
                n_neurons=12,
                lif=LIFParameters(refractory_ms=refractory_ms),
            )
            net = DiehlCookNetwork(params, rng=rng, batch_shape=shape, dtype=dtype)
            stack = shape[:1] if stacked else ()
            net.set_weights(rng.random(stack + (30, 12)) * scale)
            trains = rng.random((shape[-1], 25, 30)) < density
            return net, _frozen_state(net, net.run_batch(trains))

        overflowed = spikes = 0
        for refractory_ms in (5.0, 2.5, 0.0):
            for scale in FROZEN_SCALES:
                for density in (0.0, 0.05, 0.3):
                    config = (refractory_ms, scale, density)
                    net, got = run(*config)
                    overflowed += int(np.isinf(net.g_excitatory.g).any())
                    with monkeypatch.context() as patch:
                        patch.setattr(
                            DiehlCookNetwork,
                            "_run_batch_frozen",
                            reference_run_batch_frozen,
                        )
                        net, want = run(*config)
                    spikes += int(np.frombuffer(want["counts"][2], np.int64).sum())
                    for key in want:
                        assert got[key] == want[key], (config, key)
        assert spikes > 0  # the comparison is not vacuous
        assert (overflowed > 0) == (dtype == np.float32)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf drive
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_refractory_across_the_last_step(self, dtype):
        """A neuron spikes at step 5 of 8 and is still refractory at the end.

        The last step drives its lane with ``inf``, so only the saved-``v``
        restore keeps its potential, and it resets to the threshold
        itself, so only clearing its spikes keeps it silent.
        """
        threshold = LIFParameters().v_threshold
        params = NetworkParameters(
            n_input=4, n_neurons=4, lif=LIFParameters(v_reset=threshold)
        )
        drives = np.zeros((8, 2, 4), dtype=dtype)
        drives[5, 0, 0] = 1e3
        drives[7, 0] = np.inf

        def present(loop):
            net = DiehlCookNetwork(
                params, init_weights=False, batch_shape=(2,), dtype=dtype
            )
            return net, _frozen_state(net, loop(net, drives, 8))

        ref, want = present(reference_run_batch_frozen)
        _, got = present(DiehlCookNetwork._run_batch_frozen)
        assert ref.neurons.refractory_left[0, 0] > 0  # across the last step
        assert np.isinf(ref.g_excitatory.g[0]).all()
        for key in want:
            assert got[key] == want[key], key
