"""Tests of the batched minibatch STDP training engine (repro.engine.trainer).

The load-bearing property mirrors the evaluator's: ``batch_size=1``
must reproduce the historical sequential training loop **bit for bit**
— same weights, same adaptive thresholds, same RNG end state — for the
clean and fault-aware paths, at float64 and float32.  ``batch_size>1``
is a documented approximation: these tests pin down its *semantics*
(one corrupted read per minibatch, per-stage BER schedule preserved,
weights stay physical, random stream unchanged), not bit-equality.
"""

import numpy as np
import pytest
from snn_oracle import reference_sequential_train, step_accumulate

from repro.engine.trainer import BatchedTrainer
from repro.errors.injection import ErrorInjector
from repro.errors.models import make_error_model
from repro.snn.network import DiehlCookNetwork, NetworkParameters, make_stdp
from repro.snn.quantization import Float32Representation
from repro.snn.stdp import STDPRule
from repro.snn.training import train_unsupervised

PARAMS = NetworkParameters(n_input=64, n_neurons=16)


def _workload(n_samples=12, seed=3):
    rng = np.random.default_rng(seed)
    images = rng.random((n_samples, PARAMS.n_input))
    labels = np.arange(n_samples) % 10
    return images, labels


def _network(dtype=np.float64, seed=1):
    return DiehlCookNetwork(PARAMS, rng=np.random.default_rng(seed), dtype=dtype)


def _gaussian_corrupter(seed):
    rng = np.random.default_rng(seed)

    def corrupt(weights):
        return np.clip(weights + rng.normal(0.0, 0.01, weights.shape), 0.0, 1.0)

    return corrupt


def _corrupter(corrupt):
    """No hook (False), the Gaussian stand-in (True), or a DRAM read
    through ``ErrorInjector`` with the named error model at BER 1e-3."""
    if corrupt is False:
        return None
    if corrupt is True:
        return _gaussian_corrupter(5)
    injector = ErrorInjector(
        Float32Representation(clip_range=(0.0, 1.0)),
        model=make_error_model(corrupt),
        seed=5,
    )
    return lambda weights: injector.inject_uniform(weights, 1e-3)[0]


def _edge_read(case):
    """The read hook of a write-back edge case: a non-sanitizing FP32
    read, with planted +inf, -inf and NaN for ``non-finite-read`` and
    returned as float64 for ``float64-read``."""
    injector = ErrorInjector(Float32Representation(sanitize=False), seed=5)

    def read(weights):
        out = injector.inject_uniform(weights, 1e-3)[0]
        if case == "non-finite-read":
            out[3, 1], out[40, 5], out[17, 9] = np.inf, -np.inf, np.nan
        return out.astype(np.float64) if case == "float64-read" else out

    return read


class TestBatchSizeOneBitIdentity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("corrupt", [False, True, "model0", "eden"])
    def test_matches_pre_refactor_loop(self, dtype, corrupt):
        images, _ = _workload()
        ref_net, new_net = _network(dtype), _network(dtype)
        ref_rng, new_rng = np.random.default_rng(7), np.random.default_rng(7)
        ref_corrupt, new_corrupt = _corrupter(corrupt), _corrupter(corrupt)

        reference_sequential_train(
            ref_net, images, 30, 2, ref_rng, corrupt_weights=ref_corrupt
        )
        trainer = BatchedTrainer(
            new_net, batch_size=1, corrupt_weights=new_corrupt
        )
        trainer.train(images, n_steps=30, epochs=2, rng=new_rng)

        assert new_net.weights.dtype == np.dtype(dtype)
        assert np.array_equal(ref_net.weights, new_net.weights)
        assert np.array_equal(ref_net.neurons.theta, new_net.neurons.theta)
        assert ref_rng.bit_generator.state == new_rng.bit_generator.state

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN arithmetic
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "case",
        ["negative-zero", "above-w-max", "non-finite-read", "float64-read", "float32-read"],
    )
    def test_write_back_edge_cases(self, dtype, case):
        """The column-restricted write-back against the dense one of
        ``reference_sequential_train``, byte for byte.  Three samples:
        over longer runs every column gets trained, which hides a
        ``-0.0`` left in an untrained one."""
        images, _ = _workload(n_samples=3)
        nets, rngs = [], []
        for _ in range(2):
            net, rng = _network(dtype), np.random.default_rng(7)
            if case == "negative-zero":
                net.weights[::3, ::2] = -0.0
            elif case == "above-w-max":
                net.weights[:, ::3] *= 4.0
            nets.append(net)
            rngs.append(rng)
        ref_corrupt, new_corrupt = _edge_read(case), _edge_read(case)

        reference_sequential_train(
            nets[0], images, 30, 1, rngs[0], corrupt_weights=ref_corrupt
        )
        BatchedTrainer(nets[1], batch_size=1, corrupt_weights=new_corrupt).train(
            images, n_steps=30, epochs=1, rng=rngs[1]
        )

        assert nets[1].weights.dtype == np.dtype(dtype)
        assert nets[0].weights.tobytes() == nets[1].weights.tobytes()
        assert nets[0].neurons.theta.tobytes() == nets[1].neurons.theta.tobytes()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_identity_read_leaves_clean_tensor_unwritten(self, batch_size):
        images, _ = _workload()
        reads = []

        def corrupt(weights):
            reads.append((weights, weights.copy()))
            return weights

        BatchedTrainer(
            _network(), batch_size=batch_size, corrupt_weights=corrupt
        ).train(images, n_steps=30, epochs=2, rng=np.random.default_rng(7))
        assert reads
        for clean, at_read in reads:
            assert np.array_equal(clean, at_read)

    def test_train_unsupervised_routes_through_trainer(self):
        images, labels = _workload()
        ref_net, new_net = _network(), _network()
        ref_rng, new_rng = np.random.default_rng(7), np.random.default_rng(7)
        reference_sequential_train(ref_net, images, 30, 1, ref_rng)
        model = train_unsupervised(
            new_net, images, labels, n_steps=30, epochs=1, rng=new_rng,
            batch_size=1,
        )
        assert np.array_equal(ref_net.weights, new_net.weights)
        assert model.metadata["train_batch_size"] == 1


class TestMinibatchSemantics:
    def test_one_corrupted_read_per_minibatch(self):
        images, labels = _workload(n_samples=10)
        calls = []

        def corrupt(weights):
            calls.append(weights.copy())
            return weights

        net = _network()
        train_unsupervised(
            net, images, labels, n_steps=20, epochs=2, batch_size=4,
            rng=np.random.default_rng(7), corrupt_weights=corrupt,
        )
        # ceil(10 / 4) = 3 minibatch reads per epoch, 2 epochs.
        assert len(calls) == 6

    def test_random_stream_matches_sequential(self):
        """Minibatching changes the weights but not the random stream:
        permutation + encoding draws are identical either way."""
        images, labels = _workload()
        rng_seq, rng_mb = np.random.default_rng(7), np.random.default_rng(7)
        net_seq, net_mb = _network(), _network()
        BatchedTrainer(net_seq, batch_size=1).train(
            images, n_steps=25, epochs=2, rng=rng_seq
        )
        BatchedTrainer(net_mb, batch_size=5).train(
            images, n_steps=25, epochs=2, rng=rng_mb
        )
        assert rng_seq.bit_generator.state == rng_mb.bit_generator.state
        # ...and the approximation is real: weights differ.
        assert not np.array_equal(net_seq.weights, net_mb.weights)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_minibatch_weights_stay_physical(self, dtype):
        images, labels = _workload()
        net = _network(dtype)
        train_unsupervised(
            net, images, labels, n_steps=25, epochs=2, batch_size=4,
            rng=np.random.default_rng(7),
            corrupt_weights=_gaussian_corrupter(5),
        )
        assert net.weights.dtype == np.dtype(dtype)
        assert np.all(np.isfinite(net.weights))
        assert net.weights.min() >= 0.0
        assert net.weights.max() <= net.w_max
        # homeostasis advanced (theta merged back from the lanes)
        assert (net.neurons.theta > 0).any()

    def test_ragged_final_minibatch(self):
        images, labels = _workload(n_samples=7)
        net = _network()
        # 7 samples in minibatches of 3 -> final minibatch of 1 (ragged).
        train_unsupervised(
            net, images, labels, n_steps=20, epochs=1, batch_size=3,
            rng=np.random.default_rng(7),
        )
        assert np.all(np.isfinite(net.weights))

    def test_batch_size_larger_than_set_is_one_pass(self):
        images, labels = _workload(n_samples=6)
        net = _network()
        calls = []

        def corrupt(weights):
            calls.append(1)
            return weights

        train_unsupervised(
            net, images, labels, n_steps=20, epochs=1, batch_size=64,
            rng=np.random.default_rng(7), corrupt_weights=corrupt,
        )
        assert len(calls) == 1


class TestFaultAwareMinibatch:
    def test_schedule_reaches_every_ber_stage(self):
        from repro.core.fault_aware_training import (
            improve_error_tolerance,
            train_baseline,
        )
        from repro.datasets import load_dataset
        from repro.errors.injection import ErrorInjector
        from repro.snn.quantization import Float32Representation

        dataset = load_dataset("mnist", 40, 24, seed=7)
        rng = np.random.default_rng(11)
        baseline = train_baseline(
            dataset, n_neurons=20, epochs=1, n_steps=40, rng=rng, batch_size=4
        )
        injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=3)
        rates = (1e-5, 1e-3)
        result = improve_error_tolerance(
            baseline, dataset, injector, rates=rates, epochs_per_rate=1,
            n_steps=40, rng=np.random.default_rng(5), batch_size=4,
        )
        assert result.rates == rates
        assert set(result.accuracy_per_rate) == set(rates)
        assert np.all(result.model.weights >= 0.0)
        assert np.all(result.model.weights <= 1.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float32_end_to_end(self, dtype):
        from repro.core.fault_aware_training import train_baseline
        from repro.datasets import load_dataset

        dataset = load_dataset("mnist", 30, 20, seed=7)
        model = train_baseline(
            dataset, n_neurons=15, epochs=1, n_steps=30,
            rng=np.random.default_rng(11), batch_size=4, dtype=dtype,
        )
        assert model.weights.dtype == np.dtype(dtype)
        assert 0.0 <= model.accuracy <= 1.0


class TestValidation:
    def test_rejects_nonpositive_batch_size(self):
        with pytest.raises(ValueError):
            BatchedTrainer(_network(), batch_size=0)

    def test_rejects_batched_network(self):
        net = DiehlCookNetwork(PARAMS, batch_shape=(3,), init_weights=False)
        with pytest.raises(ValueError):
            BatchedTrainer(net)

    def test_train_validates_steps_and_epochs(self):
        trainer = BatchedTrainer(_network())
        images, _ = _workload(n_samples=2)
        with pytest.raises(ValueError):
            trainer.train(images, n_steps=0)
        with pytest.raises(ValueError):
            trainer.train(images, n_steps=10, epochs=0)

    def test_run_batch_stdp_requires_batched_shape(self):
        net = _network()
        stdp = make_stdp(net)
        with pytest.raises(ValueError):
            net.run_batch_stdp(
                np.zeros((2, 5, PARAMS.n_input), dtype=bool), stdp,
                np.zeros((PARAMS.n_input, PARAMS.n_neurons)),
            )

    def test_run_batch_stdp_requires_matching_stdp_batch(self):
        net = DiehlCookNetwork(PARAMS, batch_shape=(2,), init_weights=False)
        stdp = STDPRule(PARAMS.n_input, batch_shape=(3,))
        with pytest.raises(ValueError):
            net.run_batch_stdp(
                np.zeros((2, 5, PARAMS.n_input), dtype=bool), stdp,
                np.zeros((PARAMS.n_input, PARAMS.n_neurons)),
            )


class TestStepAccumulate:
    def test_single_lane_matches_in_place_step_before_clipping(self):
        """With one lane, small updates and far-from-bound weights, the
        accumulated delta equals what the in-place rule applies."""
        rng = np.random.default_rng(0)
        weights = rng.random((6, 4)) * 0.3 + 0.2
        in_place = STDPRule(6)
        acc = STDPRule(6, batch_shape=(1,))
        delta = np.zeros_like(weights)
        bound = acc.frozen_bound(weights)
        applied = weights.copy()
        for t in range(5):
            pre = rng.random(6) < 0.4
            post = rng.random(4) < 0.3
            first_post = post.any() and not (applied != weights).any()
            in_place.step(applied, pre, post)
            step_accumulate(acc, pre[None, :], post[None, :], delta, bound)
            if first_post:
                # after the first update the in-place rule compounds
                # through the bound; only the first step is comparable
                assert np.allclose(weights + delta, applied)
        # traces advanced identically throughout
        assert np.allclose(in_place.x_pre, acc.x_pre[0])

    def test_lanes_sum(self):
        """Two lanes accumulate the sum of their individual deltas."""
        rng = np.random.default_rng(1)
        weights = rng.random((5, 3)) * 0.5
        pre = rng.random((2, 5)) < 0.5
        post = rng.random((2, 3)) < 0.5
        rule_both = STDPRule(5, batch_shape=(2,))
        bound = rule_both.frozen_bound(weights)
        delta_both = np.zeros_like(weights)
        step_accumulate(rule_both, pre, post, delta_both, bound)
        total = np.zeros_like(weights)
        for lane in range(2):
            rule = STDPRule(5, batch_shape=(1,))
            delta = np.zeros_like(weights)
            step_accumulate(rule, pre[lane : lane + 1], post[lane : lane + 1],
                            delta, bound)
            total += delta
        assert np.allclose(delta_both, total)
