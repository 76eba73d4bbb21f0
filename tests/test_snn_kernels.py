"""Tests of the fused minibatch STDP loop.

The load-bearing property: the fused loop of
``DiehlCookNetwork.run_batch_stdp`` (``_run_batch_stdp_fused``) and the
unfused reference loop (``snn_oracle.reference_run_batch_stdp``)
produce **bit-identical** results: same accumulated delta, same
adaptive thresholds, same spike counts, same presynaptic traces, same
neuron and conductance state, same trained weights.  The fused path is
a pure reordering into buffers allocated before its time loop, not an
approximation, so these are ``array_equal`` / ``tobytes()``
assertions, not ``allclose``.
"""

import numpy as np
import pytest
from snn_oracle import PARAMETER_VARIANTS, parameter_variant, reference_run_batch_stdp

from repro.engine.trainer import BatchedTrainer, StageEncodingCache
from repro.snn.network import DiehlCookNetwork, NetworkParameters, make_stdp

PARAMS = NetworkParameters(n_input=64, n_neurons=16)


def _network(dtype=np.float64, seed=1):
    return DiehlCookNetwork(PARAMS, rng=np.random.default_rng(seed), dtype=dtype)


def _workload(n_samples=12, seed=3):
    rng = np.random.default_rng(seed)
    return rng.random((n_samples, PARAMS.n_input))


def _gaussian_corrupter(seed):
    rng = np.random.default_rng(seed)

    def corrupt(weights):
        return np.clip(weights + rng.normal(0.0, 0.01, weights.shape), 0.0, 1.0)

    return corrupt


def _batched_setup(dtype, n_batch=5, n_steps=30, seed=2):
    """A batched shell + rule + encoded trains + frozen weights."""
    rng = np.random.default_rng(seed)
    shell = DiehlCookNetwork(
        PARAMS, batch_shape=(n_batch,), init_weights=False, dtype=dtype
    )
    weights = (rng.random((PARAMS.n_input, PARAMS.n_neurons)) * 0.3).astype(dtype)
    shell.set_weights(weights)
    shell.theta = (rng.random(shell.state_shape) * 0.1).astype(dtype)
    trains = rng.random((n_batch, n_steps, PARAMS.n_input)) < 0.15
    return shell, trains


def _run_kernel(shell, trains, run_batch_stdp, dtype):
    """One minibatch pass of ``run_batch_stdp``; every observable output."""
    stdp = make_stdp(shell, batch_shape=shell.batch_shape)
    delta = np.zeros((PARAMS.n_input, PARAMS.n_neurons), dtype=dtype)
    theta0 = shell.theta.copy()
    counts = run_batch_stdp(shell, trains, stdp, delta)
    outputs = {
        "delta": delta,
        "counts": counts,
        "theta": shell.theta.copy(),
        "x_pre": stdp.x_pre.copy(),
        "v": shell.v.copy(),
        "refractory_left": shell.refractory_left.copy(),
        "g_e": shell.g_e.copy(),
        "g_i": shell.g_i.copy(),
    }
    shell.theta = theta0  # restore for the next run
    shell.reset_state()
    return outputs


class TestFusedBitIdentity:
    """The fused loop == the unfused reference loop, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_run_batch_stdp_matches_reference(self, dtype):
        shell, trains = _batched_setup(dtype)
        ref = _run_kernel(shell, trains, reference_run_batch_stdp, dtype)
        got = _run_kernel(shell, trains, DiehlCookNetwork.run_batch_stdp, dtype)
        for key in ref:
            assert np.array_equal(ref[key], got[key]), key
        assert got["counts"].sum() > 0  # the comparison is not vacuous

    @pytest.mark.parametrize("variant", PARAMETER_VARIANTS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_parameter_variants_match_reference(self, dtype, variant):
        """The oracle grids' parameter variants, from the network's
        initial weights and thresholds."""
        rng = np.random.default_rng(4)
        shell = DiehlCookNetwork(
            parameter_variant(PARAMS, variant),
            rng=rng,
            batch_shape=(5,),
            dtype=dtype,
        )
        trains = rng.random((5, 30, PARAMS.n_input)) < 0.3
        ref = _run_kernel(shell, trains, reference_run_batch_stdp, dtype)
        got = _run_kernel(shell, trains, DiehlCookNetwork.run_batch_stdp, dtype)
        for key in ref:
            assert got[key].tobytes() == ref[key].tobytes(), key
        assert got["counts"].sum() > 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("block_steps", [1, 7])
    def test_drive_blocks_match_reference(self, dtype, block_steps):
        """Drives streamed in blocks of 1 or 7 of the 30 steps."""
        shell, trains = _batched_setup(dtype)
        step_bytes = 5 * PARAMS.n_neurons * np.dtype(dtype).itemsize
        shell.drive_block_bytes = block_steps * step_bytes
        ref = _run_kernel(shell, trains, reference_run_batch_stdp, dtype)
        got = _run_kernel(shell, trains, DiehlCookNetwork.run_batch_stdp, dtype)
        for key in ref:
            assert got[key].tobytes() == ref[key].tobytes(), key
        assert got["counts"].sum() > 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e30, 3e37])
    @pytest.mark.parametrize("nonfinite", [False, True])
    def test_extreme_and_nonfinite_reads_match_reference(
        self, dtype, scale, nonfinite
    ):
        """Huge, overflowing and non-finite reads (what unclipped
        corrupted weights can hold) take the same path through both
        loops, byte for byte: float32 conductances overflow to inf at
        the largest scale, and NaN, +inf, -inf and a negative weight
        reach the drives, the conductances, the membranes and the
        accumulated delta."""
        shell, trains = _batched_setup(dtype)
        read = shell.weights * scale
        if nonfinite:
            read[0, 0], read[1, 1], read[2, 2] = np.nan, np.inf, -np.inf
            read[3, 3] = -0.5 * scale
        shell.set_weights(read)
        with np.errstate(all="ignore"):
            ref = _run_kernel(shell, trains, reference_run_batch_stdp, dtype)
            got = _run_kernel(shell, trains, DiehlCookNetwork.run_batch_stdp, dtype)
        for key in ref:
            assert got[key].dtype == ref[key].dtype, key
            assert got[key].tobytes() == ref[key].tobytes(), key
        assert got["counts"].sum() > 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_trained_weights_match_across_kernels(self, dtype, corrupt, monkeypatch):
        """Full minibatch training matches the reference loop end to end."""
        images = _workload()

        def train():
            net = _network(dtype)
            rng = np.random.default_rng(7)
            hook = _gaussian_corrupter(5) if corrupt else None
            BatchedTrainer(net, batch_size=5, corrupt_weights=hook).train(
                images, n_steps=30, epochs=2, rng=rng
            )
            return net, rng

        fused, fused_rng = train()
        monkeypatch.setattr(
            DiehlCookNetwork, "run_batch_stdp", reference_run_batch_stdp
        )
        ref, ref_rng = train()
        assert np.array_equal(ref.weights, fused.weights)
        assert np.array_equal(ref.theta, fused.theta)
        assert ref_rng.bit_generator.state == fused_rng.bit_generator.state


class TestWorkspaceReuseAcrossMinibatches:
    def test_ragged_matches_uncached_results(self):
        """A ragged final minibatch leaves no trace in the next epoch:
        two epochs via one trainer == two fresh single-epoch trainers
        chained."""
        images = _workload(n_samples=7)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        net_a, net_b = _network(), _network()
        BatchedTrainer(net_a, batch_size=3).train(
            images, n_steps=20, epochs=2, rng=rng_a
        )
        for _ in range(2):  # a fresh trainer per epoch
            BatchedTrainer(net_b, batch_size=3).train(
                images, n_steps=20, epochs=1, rng=rng_b
            )
        assert np.array_equal(net_a.weights, net_b.weights)
        assert np.array_equal(net_a.theta, net_b.theta)


class TestStageEncodingCache:
    def test_recording_pass_is_bit_identical_to_uncached(self):
        images = _workload()
        net_a, net_b = _network(), _network()
        cache = StageEncodingCache()
        BatchedTrainer(net_a, batch_size=4).train(
            images, n_steps=25, epochs=2, rng=np.random.default_rng(5),
            encoding_cache=cache,
        )
        BatchedTrainer(net_b, batch_size=4).train(
            images, n_steps=25, epochs=2, rng=np.random.default_rng(5)
        )
        assert len(cache) == 2
        assert np.array_equal(net_a.weights, net_b.weights)

    def test_replay_is_deterministic_and_skips_rng(self):
        images = _workload()
        cache = StageEncodingCache()
        net0 = _network()
        BatchedTrainer(net0, batch_size=4).train(
            images, n_steps=25, rng=np.random.default_rng(5),
            encoding_cache=cache,
        )
        results = []
        for seed in (11, 99):  # replay ignores the generator entirely
            net = _network()
            rng = np.random.default_rng(seed)
            state0 = rng.bit_generator.state
            BatchedTrainer(net, batch_size=4).train(
                images, n_steps=25, rng=rng, encoding_cache=cache
            )
            assert rng.bit_generator.state == state0
            results.append(net.weights)
        assert np.array_equal(results[0], results[1])

    def test_batch_size_one_rejected(self):
        with pytest.raises(ValueError):
            BatchedTrainer(_network(), batch_size=1).train(
                _workload(), n_steps=10, rng=np.random.default_rng(0),
                encoding_cache=StageEncodingCache(),
            )

    def test_epochs_recorded_in_order(self):
        cache = StageEncodingCache()
        with pytest.raises(ValueError):
            cache.record_epoch(1, [])
        cache.record_epoch(0, [])
        assert cache.has_epoch(0) and not cache.has_epoch(1)

    def test_fault_aware_shared_encoding_end_to_end(self):
        from repro.core.fault_aware_training import (
            improve_error_tolerance,
            train_baseline,
        )
        from repro.datasets import load_dataset
        from repro.errors.injection import ErrorInjector
        from repro.snn.quantization import Float32Representation

        dataset = load_dataset("mnist", 30, 20, seed=7)
        baseline = train_baseline(
            dataset, n_neurons=15, epochs=1, n_steps=30,
            rng=np.random.default_rng(11), batch_size=4,
        )
        injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=3)
        result = improve_error_tolerance(
            baseline, dataset, injector, rates=(1e-5, 1e-3),
            epochs_per_rate=2, n_steps=30, rng=np.random.default_rng(5),
            batch_size=4, stage_encoding="shared",
        )
        assert set(result.accuracy_per_rate) == {1e-5, 1e-3}
        assert np.all(result.model.weights >= 0.0)

    def test_fault_aware_validates_stage_encoding(self):
        from repro.core.fault_aware_training import improve_error_tolerance

        with pytest.raises(ValueError, match="stage_encoding"):
            improve_error_tolerance(
                None, None, None, (1e-3,), stage_encoding="cached"
            )
        with pytest.raises(ValueError, match="batch_size"):
            improve_error_tolerance(
                None, None, None, (1e-3,), stage_encoding="shared", batch_size=1
            )

    def test_config_validates_stage_encoding(self):
        from repro.core.config import SparkXDConfig

        cfg = SparkXDConfig(stage_encoding="shared", train_batch_size=4)
        assert cfg.stage_encoding == "shared"
        with pytest.raises(ValueError):
            SparkXDConfig(stage_encoding="shared")  # batch_size 1
        with pytest.raises(ValueError):
            SparkXDConfig(stage_encoding="cached")


class TestBaseWeightsDriveSharing:
    """run_batch(base_weights=...) — the exact ΔW drive-correction path."""

    def _stack(self, base, n_real, flips, seed, dtype):
        """Corrupt ``flips`` weight entries per realization."""
        rng = np.random.default_rng(seed)
        stack = np.broadcast_to(base, (n_real,) + base.shape).copy()
        for e in range(n_real):
            rows = rng.integers(0, base.shape[0], size=flips)
            cols = rng.integers(0, base.shape[1], size=flips)
            stack[e, rows, cols] = rng.random(flips).astype(dtype)
        return stack

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("flips", [0, 1, 3, 500])
    def test_counts_bit_identical(self, dtype, flips):
        """Sparse delta corrections == full per-realization drives, at
        low BER (CSR row-recompute path) and high (full-matmul cutoff)."""
        rng = np.random.default_rng(4)
        base = (rng.random((PARAMS.n_input, PARAMS.n_neurons)) * 0.3).astype(dtype)
        stack = self._stack(base, n_real=3, flips=flips, seed=9, dtype=dtype)
        # One shared (B, n_steps, n_input) train set presented to all
        # E=3 realizations of the stack.
        trains = rng.random((4, 25, PARAMS.n_input)) < 0.2

        def counts(base_weights):
            net = DiehlCookNetwork(
                PARAMS, batch_shape=(3, 4), init_weights=False, dtype=dtype
            )
            net.set_weights(stack)
            return net.run_batch(trains, base_weights=base_weights)

        assert np.array_equal(counts(None), counts(base))

    def test_evaluator_accuracies_bit_identical(self):
        from repro.engine import BatchedEvaluator

        rng = np.random.default_rng(4)
        base = rng.random((PARAMS.n_input, PARAMS.n_neurons)) * 0.3
        stack = self._stack(base, n_real=4, flips=2, seed=9, dtype=np.float64)
        images = _workload(n_samples=8)
        labels = np.arange(8) % 4
        assignments = np.arange(PARAMS.n_neurons) % 4
        evaluator = BatchedEvaluator(PARAMS)

        def accs(base_weights):
            return evaluator.accuracies(
                images, labels, assignments, 20, np.random.default_rng(3),
                weights=stack, base_weights=base_weights,
            )

        assert np.array_equal(accs(None), accs(base))

    def test_base_weights_shape_validated(self):
        from repro.engine import BatchedEvaluator

        evaluator = BatchedEvaluator(PARAMS)
        stack = np.zeros((2, PARAMS.n_input, PARAMS.n_neurons))
        with pytest.raises(ValueError):
            evaluator.spike_counts(
                _workload(4), 10, np.random.default_rng(0), stack,
                base_weights=np.zeros((3, 3)),
            )
