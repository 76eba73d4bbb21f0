"""Tests of the Diehl & Cook architecture (Fig. 4a)."""

import numpy as np
import pytest
from snn_oracle import (
    PARAMETER_VARIANTS,
    network_step,
    no_spikes,
    parameter_variant,
    reference_run_batch_frozen,
    reference_run_sample,
)

from repro.engine.trainer import BatchedTrainer
from repro.snn.network import (
    DiehlCookNetwork,
    NetworkParameters,
    PAPER_NETWORK_SIZES,
    make_stdp,
)
from repro.snn.neurons import LIFParameters
from repro.snn.stdp import STDPParameters, normalize_columns


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

    def test_weights_drawn_before_thresholds(self):
        # One fixed stream: the benchmark tests' later draws depend on it.
        params = NetworkParameters(n_input=16, n_neurons=8)
        net = DiehlCookNetwork(params, rng=np.random.default_rng(3))
        rng = np.random.default_rng(3)
        weights = rng.random((16, 8)) * 0.3
        normalize_columns(weights, params.weight_norm)
        theta = rng.uniform(0.0, params.theta_init_max, 8)
        assert np.array_equal(net.weights, weights)
        assert np.array_equal(net.theta, theta)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_decay_factors_take_the_network_dtype(self, dtype):
        params = NetworkParameters(n_input=4, n_neurons=3)
        net = DiehlCookNetwork(params, init_weights=False, dtype=dtype)
        taus = {
            "g_e_decay": params.conductance.tau_excitatory_ms,
            "g_i_decay": params.conductance.tau_inhibitory_ms,
            "theta_decay": params.lif.tau_theta_ms,
        }
        for name, tau in taus.items():
            decay = getattr(net, name)
            assert type(decay) is np.dtype(dtype).type
            assert decay == np.dtype(dtype).type(np.exp(-params.dt_ms / tau))
        for state in (net.v, net.refractory_left, net.theta, net.g_e, net.g_i):
            assert state.dtype == np.dtype(dtype)

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
    """The network's dynamics, one step at a time through the oracle."""

    def test_step_returns_bool_spikes(self, net):
        spikes = network_step(net, np.zeros(16, dtype=bool), no_spikes(net))
        assert spikes.shape == (8,)
        assert spikes.dtype == bool

    def test_step_validates_input_shape(self, net):
        with pytest.raises(ValueError):
            network_step(net, np.zeros(5, dtype=bool), no_spikes(net))

    def test_input_spikes_drive_conductance(self, net):
        network_step(net, np.ones(16, dtype=bool), no_spikes(net))
        assert np.all(net.g_e > 0)

    def test_lateral_inhibition_spares_the_spiker(self, net):
        # Drive hard so someone fires, then check inhibition applies to
        # the *other* neurons on the following step.
        net.set_weights(np.full((16, 8), 1.0))
        spikes = network_step(net, np.ones(16, dtype=bool), no_spikes(net))
        if not spikes.any():  # drive once more if the first step ramps
            spikes = network_step(net, np.ones(16, dtype=bool), spikes)
        assert spikes.any()
        network_step(net, np.zeros(16, dtype=bool), spikes)
        g = net.g_i
        n_spikes = int(spikes.sum())
        expected_other = n_spikes * net.parameters.inhibition_strength
        others = ~spikes
        assert np.allclose(g[others], expected_other, rtol=1e-6)
        if n_spikes < 8:
            assert np.all(g[spikes] < expected_other)

    def test_reset_state_clears_dynamics(self, net):
        network_step(net, np.ones(16, dtype=bool), no_spikes(net))
        net.reset_state()
        assert np.all(net.g_e == 0)
        assert np.all(net.g_i == 0)
        assert np.all(net.v == net.parameters.lif.v_rest)


class TestRunSample:
    def test_counts_shape(self, net, rng):
        train = rng.random((30, 16)) < 0.3
        counts = net.run_sample(train, make_stdp(net))
        assert counts.shape == (8,)
        assert counts.dtype == np.int64

    def test_training_changes_weights(self, net, rng):
        stdp = make_stdp(net)
        train = rng.random((60, 16)) < 0.5
        before = net.weights.copy()
        net.run_sample(train, stdp)
        assert not np.array_equal(net.weights, before)

    def test_training_keeps_columns_normalised(self, net, rng):
        """The trainer's presentation normalises after run_sample."""
        image = rng.random(16)
        BatchedTrainer(net).present_sample(image, 60, rng)
        assert np.allclose(net.weights.sum(axis=0), net.parameters.weight_norm)

    def test_run_sample_leaves_normalisation_to_the_caller(self, net, rng):
        stdp = make_stdp(net)
        train = rng.random((60, 16)) < 0.5
        net.run_sample(train, stdp)
        sums = net.weights.sum(axis=0)
        assert not np.allclose(sums, net.parameters.weight_norm)

    def test_shape_validation(self, net):
        with pytest.raises(ValueError):
            net.run_sample(np.zeros((10, 5), dtype=bool), make_stdp(net))

    def test_batched_rule_rejected(self, net):
        stdp = make_stdp(net, batch_shape=(2,))
        with pytest.raises(ValueError, match="unbatched STDP rule"):
            net.run_sample(np.zeros((10, 16), dtype=bool), stdp)


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
        batched.theta = np.broadcast_to(
            source.theta, (3, 5, 12)
        ).copy()
        batched.set_weights(stack)
        counts = batched.run_batch(trains)
        scalar = DiehlCookNetwork(params, init_weights=False)
        scalar.theta = source.theta.copy()
        for e in range(3):
            scalar.set_weights(stack[e])
            for b in range(5):
                assert np.array_equal(
                    counts[e, b], reference_run_sample(scalar, trains[b])
                )

    def test_run_batch_does_not_change_weights_or_theta(self):
        rng = np.random.default_rng(6)
        params = NetworkParameters(n_input=16, n_neurons=8)
        net = DiehlCookNetwork(params, rng=rng, batch_shape=(3,))
        weights = net.weights.copy()
        theta = net.theta.copy()
        counts = net.run_batch(rng.random((3, 30, 16)) < 0.3)
        assert counts.sum() > 0
        assert np.array_equal(net.weights, weights)
        assert np.array_equal(net.theta, theta)

    def test_batched_step_accepts_batched_input(self):
        params = NetworkParameters(n_input=10, n_neurons=6)
        net = DiehlCookNetwork(params, rng=np.random.default_rng(0), batch_shape=(4,))
        spikes = network_step(
            net, np.ones((4, 10), dtype=bool), no_spikes(net), adapt=False
        )
        assert spikes.shape == (4, 6)

    def test_run_sample_rejected_on_batched_network(self):
        net = DiehlCookNetwork(
            NetworkParameters(n_input=10, n_neurons=6),
            init_weights=False,
            batch_shape=(2,),
        )
        with pytest.raises(ValueError, match="run_batch"):
            net.run_sample(np.zeros((5, 10), dtype=bool), make_stdp(net))

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
        theta = net.theta.copy()
        net.set_batch_shape((2, 4))
        assert net.batch_shape == (2, 4)
        assert net.g_e.shape == (2, 4, 6)
        net.set_batch_shape(())
        assert np.array_equal(net.theta, theta)

    def test_set_batch_shape_broadcasts_the_first_lane_theta(self):
        net = DiehlCookNetwork(
            NetworkParameters(n_input=10, n_neurons=3), init_weights=False,
            batch_shape=(2,),
        )
        net.theta = np.array([[0.1, 0.2, 0.3], [0.7, 0.8, 0.9]])
        net.set_batch_shape((3, 2))
        assert net.theta.shape == (3, 2, 3)
        assert np.array_equal(net.theta, np.broadcast_to([0.1, 0.2, 0.3], (3, 2, 3)))

    def test_init_weights_false_skips_rng(self):
        params = NetworkParameters(n_input=10, n_neurons=6)
        rng = np.random.default_rng(5)
        state_before = rng.bit_generator.state
        net = DiehlCookNetwork(params, rng=rng, init_weights=False)
        assert rng.bit_generator.state == state_before
        assert not net.weights.any()
        assert not net.theta.any()


class TestPresentationsStartFromRest:
    """No time loop sees the spikes that ended the previous presentation."""

    @pytest.mark.parametrize("loop", ["run_sample", "run_batch_stdp", "run_batch"])
    def test_previous_presentation_leaves_no_trace(self, loop):
        # No refractory period and a strong drive: neurons spike on the
        # last step of the first presentation.
        lif = LIFParameters(refractory_ms=0.0)
        params = NetworkParameters(n_input=30, n_neurons=12, lif=lif)
        rng = np.random.default_rng(1)
        weights = rng.random((30, 12)) * 3.0
        trains = rng.random((2, 3, 19, 30)) < 0.5

        def present(net, trains):
            net.set_weights(weights)
            net.theta[...] = 0.0
            if loop == "run_sample":
                counts = net.run_sample(trains[0], make_stdp(net))
            elif loop == "run_batch_stdp":
                stdp = make_stdp(net, batch_shape=(3,))
                counts = net.run_batch_stdp(trains, stdp, np.zeros((30, 12)))
            else:
                counts = net.run_batch(trains)
            arrays = (counts, net.v, net.g_i, net.theta)
            return [a.tobytes() for a in arrays]

        def network():
            shape = () if loop == "run_sample" else (3,)
            return DiehlCookNetwork(params, init_weights=False, batch_shape=shape)

        net = network()
        present(net, trains[0])
        assert (net.v == lif.v_reset).any()  # spiked on the last step
        assert present(net, trains[1]) == present(network(), trains[1])


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
        "theta": net.theta,
        "v": net.v,
        "refractory": net.refractory_left,
        "g_e": net.g_e,
        "g_i": net.g_i,
        "x_pre": stdp.x_pre,
    }
    return {k: (a.dtype.str, a.shape, a.tobytes()) for k, a in arrays.items()}


def _reference_training(net, train, stdp):
    """``reference_run_sample`` called as ``run_sample`` is: no normalisation."""
    return reference_run_sample(net, train, stdp=stdp, normalize=False)


def _presentations(run, dtype, rule, scale, variant, seed=3):
    """Five successive presentations through ``run``; their states.

    Unscaled weights are column-normalised after each presentation, as
    the trainer does.  Scaled weights skip it, so they stay above
    ``w_max`` from sample to sample (and mu=0.5 makes NaNs).
    """
    params = parameter_variant(ORACLE_PARAMS, variant)
    net = DiehlCookNetwork(params, rng=np.random.default_rng(seed), dtype=dtype)
    net.weights = (net.weights * scale).astype(dtype)
    mu, lr = rule
    stdp = make_stdp(net, STDPParameters(mu=mu, learning_rate=lr))
    train_rng = np.random.default_rng(seed + 1)
    states, spikes = [], 0
    for density in ORACLE_DENSITIES:
        train = train_rng.random((40, ORACLE_PARAMS.n_input)) < density
        counts = run(net, train, stdp)
        if scale == 1.0:
            normalize_columns(net.weights, net.parameters.weight_norm)
        spikes += int(counts.sum())
        states.append(_state_bytes(net, stdp, counts))
    return states, spikes


class TestLeanLoopMatchesOracle:
    """run_sample == reference_run_sample, byte for byte, on every path."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the NaNs
    @pytest.mark.parametrize("variant", PARAMETER_VARIANTS)
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("rule", [(1.0, 0.1), (0.5, 0.05)], ids=["mu1", "mu0.5"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_grid(self, dtype, rule, scale, variant):
        lean, lean_spikes = _presentations(
            DiehlCookNetwork.run_sample, dtype, rule, scale, variant
        )
        ref, ref_spikes = _presentations(
            _reference_training, dtype, rule, scale, variant
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
            stdp = make_stdp(net)
            counts = run(net, train, stdp)
            return counts, _state_bytes(net, stdp, counts)

        ref_counts, want = present(_reference_training)
        _, got = present(DiehlCookNetwork.run_sample)
        assert (ref_counts == 2).all()  # fired, sat out 5 steps, fired again
        for key in want:
            assert got[key] == want[key], key

    def test_fallback_refresh_reduces_full_rows(self):
        """One column updates while >= 8 inputs spike per step.

        The refresh multiplies the CSR operator by the updated column
        alone; CSR accumulates each output column on its own, so it
        must match the reference's full-row index-sum (numpy sums a
        one-column (k, 1) slice pairwise once k >= 8, the full-row
        reduce does not) on weights spanning 1e-3 to 1.  Every prefix of
        the train is presented, so some presentation ends on each
        refreshed drive row, where ``g_e`` still shows it.
        """
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
            counts = run(net, train[:n_steps], stdp)
            return net, _state_bytes(net, stdp, counts)

        for n_steps in range(1, train.shape[0] + 1):
            ref_net, want = present(_reference_training, n_steps)
            _, got = present(DiehlCookNetwork.run_sample, n_steps)
            assert got == want, n_steps
        changed = np.flatnonzero((ref_net.weights != weights).any(axis=0))
        assert changed.tolist() == [0]  # exactly one column updated


def _frozen_state(net, counts):
    """dtype and bytes of the counts and of every state array."""
    arrays = {
        "counts": counts,
        "v": net.v,
        "refractory_left": net.refractory_left,
        "g_e": net.g_e,
        "g_i": net.g_i,
    }
    return {key: (a.dtype, a.shape, a.tobytes()) for key, a in arrays.items()}


FROZEN_SCALES = (1.0, 30.0, 1e3, 1e30, 3e37)  # 3e37 overflows at float32


def _reference_frozen(network, blocks, n_steps):
    """The dense oracle loop over the concatenated drive blocks.

    A stack's blocks are views of one reused buffer, so each is copied
    before the next one is requested.
    """
    drives = np.concatenate([block.copy() for block in blocks])
    return reference_run_batch_frozen(network, drives, n_steps)


class TestDriveBlocks:
    """run_batch streams its drives in blocks; block boundaries change nothing."""

    N_STEPS = 20

    @pytest.mark.parametrize("case", ["B", "E-shared", "E-stack", "E-stack-base"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_block_length_never_changes_results(self, dtype, case, monkeypatch):
        stacked = case.startswith("E-stack")
        shape = (4,) if case == "B" else (3, 4)
        lengths = []
        blocks_of = DiehlCookNetwork._drive_blocks

        def recording_blocks(net, matrix, base_weights=None):
            for block in blocks_of(net, matrix, base_weights):
                lengths.append(block.shape[0])
                yield block

        monkeypatch.setattr(DiehlCookNetwork, "_drive_blocks", recording_blocks)

        def run(block_steps):
            rng = np.random.default_rng(5)
            params = NetworkParameters(
                n_input=30, n_neurons=12, lif=LIFParameters(refractory_ms=2.0)
            )
            net = DiehlCookNetwork(params, rng=rng, batch_shape=shape, dtype=dtype)
            base = rng.random((30, 12)) * 3.0
            weights = base
            if stacked:
                # Realizations 0..2 differ from the base in no row, in
                # two rows (patched drive rows) and in every row (the
                # full-product fallback).
                weights = np.stack([base, base, rng.random((30, 12)) * 3.0])
                weights[1, [4, 17]] += 0.5
            net.set_weights(weights)
            trains = rng.random((4, self.N_STEPS, 30)) < 0.2
            held = shape[0] if stacked else 1
            step_bytes = held * 4 * 12 * np.dtype(dtype).itemsize
            net.drive_block_bytes = block_steps * step_bytes
            lengths.clear()
            counts = net.run_batch(
                trains, base_weights=base if case == "E-stack-base" else None
            )
            return lengths.copy(), _frozen_state(net, counts)

        whole, want = run(self.N_STEPS)
        assert whole == [self.N_STEPS]
        assert np.frombuffer(want["counts"][2], np.int64).sum() > 0
        for block_steps, expected in ((1, [1] * 20), (7, [7, 7, 6])):
            seen, got = run(block_steps)
            assert seen == expected
            for key in want:
                assert got[key] == want[key], (block_steps, key)

    def test_stack_blocks_reuse_one_buffer(self):
        params = NetworkParameters(n_input=10, n_neurons=6)
        rng = np.random.default_rng(2)
        net = DiehlCookNetwork(params, rng=rng, batch_shape=(2, 3))
        net.set_weights(rng.random((2, 10, 6)))
        matrix = net.prepare_drive_matrix(rng.random((3, 9, 10)) < 0.3)
        net.drive_block_bytes = 4 * 2 * 3 * 6 * 8
        blocks = list(net._drive_blocks(matrix))
        assert [block.shape for block in blocks] == [(4, 2, 3, 6)] * 2 + [(1, 2, 3, 6)]
        assert all(np.shares_memory(block, blocks[0]) for block in blocks[1:])


class TestSparseFrozenLoopMatchesOracle:
    """run_batch's sparse loop == the dense reference loop, byte for byte."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow
    @pytest.mark.parametrize("variant", PARAMETER_VARIANTS)
    @pytest.mark.parametrize(
        "batch", [((5,), False), ((3, 4), True), ((3, 4), False)],
        ids=["B", "E-stack", "E-shared"],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_grid(self, dtype, batch, variant, monkeypatch):
        shape, stacked = batch
        params = parameter_variant(NetworkParameters(n_input=30, n_neurons=12), variant)

        def run(scale, density):
            rng = np.random.default_rng(3)
            net = DiehlCookNetwork(params, rng=rng, batch_shape=shape, dtype=dtype)
            stack = shape[:1] if stacked else ()
            net.set_weights(rng.random(stack + (30, 12)) * scale)
            trains = rng.random((shape[-1], 25, 30)) < density
            return net, _frozen_state(net, net.run_batch(trains))

        overflowed = spikes = 0
        for scale in FROZEN_SCALES:
            for density in (0.0, 0.05, 0.3):
                config = (scale, density)
                net, got = run(*config)
                overflowed += int(np.isinf(net.g_e).any())
                with monkeypatch.context() as patch:
                    patch.setattr(
                        DiehlCookNetwork, "_run_batch_frozen", _reference_frozen
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
            # Blocks of 3, 3 and 2 steps: the spike at step 5 ends a
            # block, and its refractory period runs into the next.
            blocks = iter(np.split(drives, [3, 6]))
            return net, _frozen_state(net, loop(net, blocks, 8))

        ref, want = present(_reference_frozen)
        _, got = present(DiehlCookNetwork._run_batch_frozen)
        assert ref.refractory_left[0, 0] > 0  # across the last step
        assert np.isinf(ref.g_e[0]).all()
        for key in want:
            assert got[key] == want[key], key
