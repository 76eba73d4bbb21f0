"""Tests of the batched vectorized evaluation engine (repro.engine).

The load-bearing property is *bit-identity*: the batched evaluator must
produce exactly the per-neuron spike counts of the sequential
per-sample loop (``snn_oracle.sequential_spike_counts``) at the same
seed — for single weights, for E>1 realization stacks, and across
ragged chunk boundaries.
"""

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from snn_oracle import (
    reference_run_sample,
    sample_drive,
    sequential_spike_counts,
    step_drive,
)

import repro.engine.evaluator as evaluator_module
from repro.engine import BatchedEvaluator, ChunkPolicy, encode_spike_trains
from repro.engine.encoding import skip_spike_trains
from repro.errors.injection import ErrorInjector
from repro.snn.encoding import MAX_RATE_HZ, poisson_rate_code
from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.quantization import Float32Representation
from repro.snn.training import TrainedModel, predict


PARAMS = NetworkParameters(n_input=64, n_neurons=20)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(11)
    network = DiehlCookNetwork(PARAMS, rng=rng)
    images = rng.random((13, PARAMS.n_input))
    injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=5)
    stack, _ = injector.inject_stack(
        network.weights, (1e-3, 1e-2), n_realizations=2, rng=np.random.default_rng(9)
    )
    return network, images, stack


def _counts(network, images, stack_or_weights, chunk_policy=None, seed=21):
    evaluator = BatchedEvaluator.for_network(network, chunk_policy=chunk_policy)
    return evaluator.spike_counts(
        images, 25, np.random.default_rng(seed), weights=stack_or_weights
    )


def _oracle(network, images, stack_or_weights, seed=21, n_steps=25):
    return sequential_spike_counts(
        BatchedEvaluator.for_network(network), images, n_steps,
        np.random.default_rng(seed), stack_or_weights,
    )


class TestSpikeCountIdentity:
    def test_single_weights_fixed_seed_identity(self, setup):
        network, images, _ = setup
        batched = _counts(network, images, network.weights)
        sequential = _oracle(network, images, network.weights)
        assert batched.shape == (len(images), PARAMS.n_neurons)
        assert batched.sum() > 0, "test network must actually spike"
        assert np.array_equal(batched, sequential)

    def test_realization_stack_identity(self, setup):
        network, images, stack = setup
        batched = _counts(network, images, stack)
        sequential = _oracle(network, images, stack)
        assert batched.shape == (len(stack), len(images), PARAMS.n_neurons)
        assert np.array_equal(batched, sequential)

    def test_stack_matches_manual_run_sample_loop(self, setup):
        network, images, stack = setup
        batched = _counts(network, images, stack)
        # Hand-rolled reference: encode every image (same stream), then
        # loop realizations x samples through the scalar reference loop.
        rng = np.random.default_rng(21)
        trains = [poisson_rate_code(img, 25, rng=rng) for img in images]
        ref_net = DiehlCookNetwork(PARAMS, init_weights=False)
        ref_net.theta = network.theta.copy()
        for e in range(len(stack)):
            ref_net.set_weights(stack[e])
            for b, train in enumerate(trains):
                assert np.array_equal(
                    batched[e, b], reference_run_sample(ref_net, train)
                )

    def test_ragged_final_chunk_identity(self, setup):
        network, images, stack = setup
        unchunked = _counts(network, images, stack)
        # 13 samples in chunks of 5 -> final chunk of 3 (ragged).
        ragged = _counts(
            network, images, stack, chunk_policy=ChunkPolicy(max_samples=5)
        )
        assert np.array_equal(unchunked, ragged)
        assert np.array_equal(ragged, _oracle(network, images, stack))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_model_evaluator_matches_network_evaluator(self, setup, dtype):
        # Tolerance analysis scores a TrainedModel through for_model; it
        # must count as an evaluator of the model's installed network.
        network, images, stack = setup
        model = TrainedModel(
            weights=network.weights, theta=network.theta,
            assignments=np.zeros(PARAMS.n_neurons, dtype=np.int64),
            n_input=PARAMS.n_input, n_neurons=PARAMS.n_neurons,
        )
        installed = DiehlCookNetwork(PARAMS, init_weights=False, dtype=dtype)
        model.install_into(installed)
        by_model = BatchedEvaluator.for_model(model, dtype=dtype)
        by_network = BatchedEvaluator.for_network(installed)
        for weights in (network.weights, stack):
            counts = by_model.spike_counts(
                images, 25, np.random.default_rng(4), weights=weights
            )
            assert counts.sum() > 0
            assert np.array_equal(
                counts,
                by_network.spike_counts(
                    images, 25, np.random.default_rng(4), weights=weights
                ),
            )

    def test_evaluator_does_not_mutate_network(self, setup):
        network, images, stack = setup
        weights_before = network.weights.copy()
        theta_before = network.theta.copy()
        _counts(network, images, stack)
        assert np.array_equal(network.weights, weights_before)
        assert np.array_equal(network.theta, theta_before)


def _split_into(monkeypatch, n_parts):
    """Make every pass of at least ``n_parts`` samples split ``n_parts`` ways."""
    monkeypatch.setattr(evaluator_module, "_PARTS", n_parts)
    monkeypatch.setattr(evaluator_module, "_MIN_PART_SAMPLES", 1)


def _buffered_rng(seed=21, bit_generator=np.random.PCG64):
    """A generator holding a buffered 32-bit half, as after a shuffle."""
    rng = np.random.Generator(bit_generator(seed))
    rng.permutation(37)
    return rng


class TestParts:
    """A pass split into parts counts and draws exactly as one part."""

    def _pass(
        self, monkeypatch, n_parts, network, images, weights, rng=None,
        base_weights=None, **evaluator_options,
    ):
        _split_into(monkeypatch, n_parts)
        rng = rng or _buffered_rng()
        evaluator = BatchedEvaluator.for_network(network, **evaluator_options)
        counts = evaluator.spike_counts(
            images, 25, rng, weights, base_weights=base_weights
        )
        return counts, rng.bit_generator.state

    @pytest.mark.parametrize("n_parts", [2, 3])
    @pytest.mark.parametrize(
        "case", ["single", "stack-with-base", "ragged-chunks", "float32"]
    )
    def test_counts_and_generator_match_one_part(
        self, setup, monkeypatch, n_parts, case
    ):
        network, images, stack = setup
        weights, options = network.weights, {}
        if case == "stack-with-base":
            weights, options = stack, {"base_weights": network.weights}
        elif case == "ragged-chunks":
            # 13 samples, 6 at once: parts of 6 + 7 in chunks of 3 + 3
            # and 3 + 3 + 1, or 4 + 4 + 5 in chunks of 2 (2 + 2 + 1).
            weights, options = stack, {"chunk_policy": ChunkPolicy(max_samples=6)}
        elif case == "float32":
            weights, options = stack, {"dtype": np.float32}
        serial = self._pass(monkeypatch, 1, network, images, weights, **options)
        split = self._pass(monkeypatch, n_parts, network, images, weights, **options)
        assert serial[0].sum() > 0
        assert np.array_equal(serial[0], split[0])
        assert _same_state(serial[1], split[1])
        assert split[1]["has_uint32"] == 1

    def test_split_pass_matches_the_oracle(self, setup, monkeypatch):
        network, images, stack = setup
        counts, _ = self._pass(
            monkeypatch, 3, network, images, stack, rng=np.random.default_rng(21)
        )
        assert np.array_equal(counts, _oracle(network, images, stack))

    def test_other_bit_generators_run_one_part(self, setup, monkeypatch):
        network, images, stack = setup
        _split_into(monkeypatch, 3)
        rng = _buffered_rng(bit_generator=np.random.Philox)
        assert len(evaluator_module._split(len(images), len(images), rng)) == 1
        serial = self._pass(
            monkeypatch, 1, network, images, stack,
            rng=_buffered_rng(bit_generator=np.random.Philox),
        )
        split = self._pass(monkeypatch, 3, network, images, stack, rng=rng)
        assert np.array_equal(serial[0], split[0])
        assert _same_state(serial[1], split[1])

    def test_small_passes_and_small_chunks_stay_one_part(self, monkeypatch):
        monkeypatch.setattr(evaluator_module, "_PARTS", 4)
        rng = np.random.default_rng(0)
        minimum = evaluator_module._MIN_PART_SAMPLES
        n_samples = 10 * minimum + 3
        assert len(evaluator_module._split(2 * minimum - 1, n_samples, rng)) == 1
        assert len(evaluator_module._split(n_samples, 2 * minimum - 1, rng)) == 1
        assert len(evaluator_module._split(n_samples, 3 * minimum, rng)) == 3
        parts = evaluator_module._split(n_samples, n_samples, rng)
        assert len(parts) == 4
        assert parts[0].start == 0 and parts[-1].stop == n_samples
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity"
    )
    def test_wide_hosts_split_at_most_two_ways(self):
        """Splits wider than two were never measured."""
        engine = os.path.dirname(evaluator_module.__file__)
        src = os.path.dirname(os.path.dirname(engine))
        probe = (
            "import os\n"
            "os.sched_getaffinity = lambda pid: set(range({}))\n"
            "import repro.engine.evaluator as e\n"
            "print(e._PARTS)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        for n_cpus, n_parts in ((1, "1"), (64, "2")):
            out = subprocess.run(
                [sys.executable, "-c", probe.format(n_cpus)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert out.stdout.strip() == n_parts, out.stderr

    @pytest.mark.parametrize("max_samples", [1, 3, 4, 6, 13])
    def test_parts_together_hold_at_most_one_chunk(
        self, setup, monkeypatch, max_samples
    ):
        """However many parts run at once, their chunks sum to at most
        the chunk one part would hold, and no part's chunk is below the
        minimum."""
        network, images, stack = setup
        monkeypatch.setattr(evaluator_module, "_PARTS", 3)
        monkeypatch.setattr(evaluator_module, "_MIN_PART_SAMPLES", 2)
        encode = evaluator_module.encode_spike_trains
        by_part, alive = {}, []

        def recording(chunk, n_steps, rng):
            alive.append(rng)  # no two parts' generators share an id
            by_part.setdefault(id(rng), []).append(len(chunk))
            return encode(chunk, n_steps, rng)

        monkeypatch.setattr(evaluator_module, "encode_spike_trains", recording)
        policy = ChunkPolicy(max_samples=max_samples)
        counts = _counts(network, images, stack, chunk_policy=policy)
        assert np.array_equal(counts, _oracle(network, images, stack))
        assert len(by_part) == max(1, min(3, max_samples // 2))
        assert sum(max(sizes) for sizes in by_part.values()) <= max_samples
        if len(by_part) > 1:
            assert all(max(sizes) >= 2 for sizes in by_part.values())

    def test_fleet_thread_budget_caps_the_parts(self, monkeypatch):
        monkeypatch.setattr(evaluator_module, "_PARTS", 2)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        evaluator_module.limit_parts()
        assert evaluator_module._PARTS == 1
        monkeypatch.setattr(evaluator_module, "_PARTS", 2)
        for budget in ("4", "0", "many"):
            monkeypatch.setenv("OMP_NUM_THREADS", budget)
            evaluator_module.limit_parts()
            assert evaluator_module._PARTS == 2
        monkeypatch.delenv("OMP_NUM_THREADS")
        evaluator_module.limit_parts()
        assert evaluator_module._PARTS == 2

    def test_failing_part_raises_after_the_others_finish(self, setup, monkeypatch):
        network, images, stack = setup
        _split_into(monkeypatch, 3)  # parts [0, 4), [4, 8), [8, 13)
        encode = evaluator_module.encode_spike_trains
        finished = []

        def flaky(chunk, n_steps, rng):
            if np.array_equal(chunk[0], images[4]):
                raise RuntimeError("part 1 failed")
            if np.array_equal(chunk[0], images[8]):
                time.sleep(0.3)  # the slowest part ends after the failure
            trains = encode(chunk, n_steps, rng)
            finished.append(chunk.shape[0])
            return trains

        monkeypatch.setattr(evaluator_module, "encode_spike_trains", flaky)
        evaluator = BatchedEvaluator.for_network(network)
        with pytest.raises(RuntimeError, match="part 1 failed"):
            evaluator.spike_counts(images, 25, np.random.default_rng(21), stack)
        assert sorted(finished) == [4, 5]
        monkeypatch.setattr(evaluator_module, "encode_spike_trains", encode)
        counts = evaluator.spike_counts(images, 25, np.random.default_rng(21), stack)
        assert np.array_equal(counts, _oracle(network, images, stack))

    def test_concurrent_callers_share_the_pool(self, setup, monkeypatch):
        """Four callers of three parts each, on a shared pool, under a
        short switch interval: every caller gets the serial counts."""
        network, images, stack = setup
        _split_into(monkeypatch, 1)
        want = [_counts(network, images, stack, seed=seed) for seed in range(4)]
        _split_into(monkeypatch, 3)
        got = [None] * 4

        def call(seed):
            got[seed] = _counts(network, images, stack, seed=seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for seed in range(4):
            assert np.array_equal(got[seed], want[seed])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_child_evaluates_after_a_split_pass(self, setup, monkeypatch):
        """The pool's threads do not survive a fork; the child makes its own."""
        network, images, stack = setup
        _split_into(monkeypatch, 2)
        parent = _counts(network, images, stack)
        assert evaluator_module._pool is not None
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: never return into pytest
            try:
                os.close(read_end)
                os.write(write_end, _counts(network, images, stack).tobytes())
            finally:
                os._exit(0)
        os.close(write_end)
        data, deadline = b"", time.monotonic() + 60.0
        try:
            while time.monotonic() < deadline:
                if select.select([read_end], [], [], 1.0)[0]:
                    block = os.read(read_end, 1 << 16)
                    if not block:
                        break
                    data += block
            else:
                os.kill(pid, signal.SIGKILL)
                pytest.fail("the forked child's evaluation hung")
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)
        child = np.frombuffer(data, dtype=np.int64).reshape(parent.shape)
        assert np.array_equal(child, parent)

    def test_chunk_spans_of_pool_parts_join_the_callers_trace(
        self, setup, monkeypatch, tmp_path
    ):
        from repro.telemetry import configure_tracing, shutdown_tracing, span

        network, images, stack = setup
        _split_into(monkeypatch, 2)
        trace = tmp_path / "trace.jsonl"
        configure_tracing(str(trace))
        try:
            with span("score"):
                _counts(network, images, stack)
        finally:
            shutdown_tracing()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        (root,) = [r for r in records if r["name"] == "score"]
        chunks = [r for r in records if r["name"] == "eval.chunk"]
        assert len(chunks) == 2
        assert len({r["tid"] for r in chunks}) == 2
        assert all(r["parent"] == root["span"] for r in chunks)
        assert all(r["trace"] == root["trace"] for r in chunks)


class TestAccuracies:
    def test_stack_accuracies_shape_and_range(self, setup):
        network, images, stack = setup
        evaluator = BatchedEvaluator.for_network(network)
        labels = np.arange(len(images)) % 10
        assignments = np.arange(PARAMS.n_neurons) % 10
        accs = evaluator.accuracies(
            images, labels, assignments, 25, np.random.default_rng(3), weights=stack
        )
        assert accs.shape == (len(stack),)
        assert ((0.0 <= accs) & (accs <= 1.0)).all()

    def test_single_weights_accuracy_is_scalar(self, setup):
        network, images, _ = setup
        evaluator = BatchedEvaluator.for_network(network)
        labels = np.arange(len(images)) % 10
        assignments = np.arange(PARAMS.n_neurons) % 10
        acc = evaluator.accuracies(
            images, labels, assignments, 25, np.random.default_rng(3),
            weights=network.weights,
        )
        assert isinstance(acc, float)

    def test_accuracy_matches_oracle_votes(self, setup):
        network, images, _ = setup
        labels = np.arange(len(images)) % 10
        assignments = np.arange(PARAMS.n_neurons) % 10
        a = BatchedEvaluator.for_network(network).accuracies(
            images, labels, assignments, 25, np.random.default_rng(5),
            weights=network.weights,
        )
        counts = _oracle(network, images, network.weights, seed=5)
        b = float((predict(counts, assignments) == labels).mean())
        assert a == b


class TestEncoding:
    def test_batch_encode_matches_per_image_stream(self):
        rng = np.random.default_rng(0)
        images = rng.random((6, 30))
        batch_rng = np.random.default_rng(42)
        loop_rng = np.random.default_rng(42)
        batch = encode_spike_trains(images, 17, batch_rng)
        loop = np.stack([poisson_rate_code(img, 17, rng=loop_rng) for img in images])
        assert batch.dtype == bool and batch.shape == loop.shape
        assert np.array_equal(batch, loop)
        # ...and the generators end in the same state.
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
        # Step-major storage: the drive operator's row order is a view.
        assert batch.transpose(1, 0, 2).flags.c_contiguous

    def test_drive_matrix_copies_no_trains(self):
        """prepare_drive_matrix reads the encoder's step-major trains in place."""
        rng = np.random.default_rng(4)
        images = np.clip(rng.random((50, 784)) - 0.55, 0.0, 0.45) * 2
        trains = encode_spike_trains(images, 100, rng)
        net = DiehlCookNetwork(
            NetworkParameters(n_input=784, n_neurons=10), init_weights=False
        )
        tracemalloc.start()
        try:
            net.prepare_drive_matrix(trains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < trains.nbytes

    def test_rejects_out_of_range_images(self):
        with pytest.raises(ValueError):
            encode_spike_trains(np.array([[0.0, 1.5]]), 5, np.random.default_rng())

    def test_empty_batch(self):
        out = encode_spike_trains(
            np.empty((0, 12)), 5, np.random.default_rng(0)
        )
        assert out.shape == (0, 5, 12)

    @pytest.mark.parametrize("shape", [(12,), (3, 0), (2, 3, 4)])
    def test_rejects_non_matrix_images(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            encode_spike_trains(np.zeros(shape), 5, np.random.default_rng())

    def test_rejects_non_positive_steps(self):
        with pytest.raises(ValueError, match="n_steps"):
            encode_spike_trains(np.zeros((2, 4)), 0, np.random.default_rng())

    def test_chunked_encoding_matches_one_call(self):
        # The guarantee ChunkPolicy's sample-axis split relies on.
        images = np.random.default_rng(1).random((7, 25))
        whole_rng, chunk_rng = np.random.default_rng(9), np.random.default_rng(9)
        whole = encode_spike_trains(images, 11, whole_rng)
        chunks = [encode_spike_trains(images[s], 11, chunk_rng) for s in (slice(0, 3), slice(3, 7))]
        assert np.array_equal(whole, np.concatenate(chunks))
        assert whole_rng.bit_generator.state == chunk_rng.bit_generator.state

    def test_all_bright_images_spike_at_the_rate_ceiling(self):
        # ChunkPolicy's encode term assumes MAX_RATE_HZ * 1e-3 spikes per bit.
        trains = encode_spike_trains(np.ones((20, 100)), 500, np.random.default_rng(3))
        assert trains.mean() == pytest.approx(MAX_RATE_HZ * 1e-3, rel=0.03)


def _same_state(a, b):
    """Bit-generator state dicts equal, array-valued entries included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


class TestSkipSpikeTrains:
    """skip_spike_trains leaves a generator where encoding would."""

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.MT19937],
    )
    @pytest.mark.parametrize("seed", [2, 5])
    def test_matches_encoding(self, bit_generator, seed):
        images = np.random.default_rng(0).random((3, 20))
        encoded = np.random.Generator(bit_generator(seed))
        skipped = np.random.Generator(bit_generator(seed))
        for rng in (encoded, skipped):
            rng.permutation(37)  # bounded integers may buffer a 32-bit half
        encode_spike_trains(images, 7, encoded)
        skip_spike_trains(skipped, 3, 7, 20)
        assert _same_state(encoded.bit_generator.state, skipped.bit_generator.state)
        assert np.array_equal(encoded.permutation(300), skipped.permutation(300))
        assert np.array_equal(encoded.random(5), skipped.random(5))

    def test_keeps_the_buffered_half_a_plain_advance_drops(self):
        encoded, advanced = np.random.default_rng(2), np.random.default_rng(2)
        for rng in (encoded, advanced):
            rng.permutation(37)
        assert encoded.bit_generator.state["has_uint32"] == 1
        encode_spike_trains(np.full((2, 5), 0.5), 3, encoded)
        advanced.bit_generator.advance(2 * 3 * 5)
        assert not np.array_equal(encoded.permutation(300), advanced.permutation(300))


class TestChunkPolicy:
    def test_budget_bounds_chunk(self):
        policy = ChunkPolicy(max_bytes=64 * 1024 * 1024)
        chunk = policy.samples_per_chunk(8, 100, 784, 400)
        assert chunk >= 1
        assert policy.bytes_per_sample(8, 100, 784, 400) * chunk <= policy.max_bytes
        # halving the realization count roughly doubles the chunk
        assert policy.samples_per_chunk(4, 100, 784, 400) > chunk

    def test_minimum_one_sample(self):
        policy = ChunkPolicy(max_bytes=1)
        assert policy.samples_per_chunk(32, 100, 784, 3600) == 1

    def test_max_samples_cap(self):
        policy = ChunkPolicy(max_samples=4)
        assert policy.samples_per_chunk(1, 10, 10, 10) == 4

    def test_iter_chunks_ragged(self):
        policy = ChunkPolicy()
        slices = list(policy.iter_chunks(13, 5))
        assert [s.stop - s.start for s in slices] == [5, 5, 3]
        assert slices[-1] == slice(10, 13)

    @pytest.mark.parametrize("bright", [False, True], ids=["mnist-like", "all-bright"])
    @pytest.mark.parametrize("n_realizations", [1, 3])
    def test_traced_peak_within_the_estimate(self, n_realizations, bright):
        """An N400 pass holds what the policy counts, far below the drive tensor.

        Besides ``bytes_per_sample x chunk`` and the policy's fixed drive
        block term, the named overhead is the weight copy the network
        installs plus 1 MiB of interpreter and index slack.  E=1 runs a
        single matrix, E=3 a low-BER stack sharing the clean drive.
        MNIST-like images spike on about 45% of the rate code's ceiling;
        all-bright ones reach it (``MAX_RATE_HZ * 1e-3`` = 0.06375 spikes
        per input bit), the density the policy's encode term assumes.
        """
        n_input, n_neurons, n_samples, n_steps = 784, 400, 300, 100
        rng = np.random.default_rng(8)
        network = DiehlCookNetwork(
            NetworkParameters(n_input=n_input, n_neurons=n_neurons), rng=rng
        )
        network.theta = rng.uniform(0.0, 2.0, n_neurons)
        images = np.clip(rng.random((n_samples, n_input)) - 0.55, 0.0, 0.45) * 2
        if bright:
            images = np.ones_like(images)
        weights, base = network.weights, None
        if n_realizations > 1:
            injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=7)
            weights, _ = injector.inject_stack(
                network.weights, 1e-5, n_realizations=n_realizations, rng=rng
            )
            base = network.weights
        evaluator = BatchedEvaluator.for_network(network)
        policy = evaluator.chunk_policy
        tracemalloc.start()
        try:
            counts = evaluator.spike_counts(
                images, n_steps, np.random.default_rng(99), weights, base_weights=base
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() > 0
        dims = (n_realizations, n_steps, n_input, n_neurons)
        chunk = min(n_samples, policy.samples_per_chunk(*dims))
        overhead = policy.fixed_bytes() + weights.nbytes + 2**20
        assert peak <= policy.bytes_per_sample(*dims) * chunk + overhead
        assert peak < n_steps * n_realizations * n_samples * n_neurons * 8

    def test_fixed_bytes_come_off_the_budget_first(self):
        dims = (1, 100, 784, 400)
        policy = ChunkPolicy(max_bytes=64 * 2**20)
        per_sample = policy.bytes_per_sample(*dims)
        expected = (64 * 2**20 - policy.fixed_bytes()) // per_sample
        assert policy.samples_per_chunk(*dims) == expected > 0

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            ChunkPolicy().bytes_per_sample(1, 100, 0, 400)
        assert list(ChunkPolicy().iter_chunks(0, 4)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkPolicy(max_bytes=0)
        with pytest.raises(ValueError):
            ChunkPolicy(max_samples=0)
        with pytest.raises(ValueError):
            list(ChunkPolicy().iter_chunks(10, 0))


class TestInjectStack:
    def test_matches_sequential_inject_uniform(self, setup):
        network, _, _ = setup
        injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=3)
        stack, reports = injector.inject_stack(
            network.weights, (1e-3, 1e-2), n_realizations=3,
            rng=np.random.default_rng(17),
        )
        ref_injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=3)
        ref_rng = np.random.default_rng(17)
        assert stack.shape == (6,) + network.weights.shape
        assert len(reports) == 6
        index = 0
        for ber in (1e-3, 1e-2):
            for _ in range(3):
                expected, report = ref_injector.inject_uniform(
                    network.weights, ber, rng=ref_rng
                )
                assert np.array_equal(stack[index], expected)
                assert reports[index].flipped_bits == report.flipped_bits
                index += 1

    def test_scalar_ber(self, setup):
        network, _, _ = setup
        injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=3)
        stack, reports = injector.inject_stack(network.weights, 1e-2)
        assert stack.shape == (1,) + network.weights.shape
        assert len(reports) == 1

    def test_validation(self, setup):
        network, _, _ = setup
        injector = ErrorInjector(Float32Representation(), seed=3)
        with pytest.raises(ValueError):
            injector.inject_stack(network.weights, 1e-3, n_realizations=0)
        with pytest.raises(ValueError):
            injector.inject_stack(network.weights, ())


class TestValidation:
    def test_theta_shape_checked(self):
        with pytest.raises(ValueError):
            BatchedEvaluator(PARAMS, theta=np.zeros(3))

    def test_weight_shape_checked(self):
        evaluator = BatchedEvaluator(PARAMS)
        with pytest.raises(ValueError):
            evaluator.spike_counts(
                np.zeros((2, PARAMS.n_input)), 5, np.random.default_rng(0),
                weights=np.zeros((3, 3)),
            )

    def test_image_shape_checked(self):
        evaluator = BatchedEvaluator(PARAMS)
        with pytest.raises(ValueError):
            evaluator.spike_counts(
                np.zeros((2, 5)), 5, np.random.default_rng(0),
                weights=np.zeros((PARAMS.n_input, PARAMS.n_neurons)),
            )


class TestSampleDrive:
    def test_matches_full_matmul(self):
        rng = np.random.default_rng(2)
        train = rng.random((9, 40)) < 0.2
        weights = rng.random((40, 7))
        expected = train.astype(np.float64) @ weights
        assert np.allclose(sample_drive(train, weights), expected)

    def test_empty_train_gives_zero_drive(self):
        drive = sample_drive(np.zeros((5, 8), dtype=bool), np.ones((8, 3)))
        assert drive.shape == (5, 3)
        assert not drive.any()


class TestDriveIdentity:
    """sample_drive rows must equal the scalar per-step index-sum bit
    for bit — the property the whole engine equivalence rests on."""

    def _train(self, density=0.05, seed=3):
        rng = np.random.default_rng(seed)
        return rng.random((40, 96)) < density

    def test_rows_match_step_drive(self):
        rng = np.random.default_rng(1)
        weights = rng.random((96, 31))
        train = self._train()
        rows = sample_drive(train, weights)
        for t in range(train.shape[0]):
            assert np.array_equal(rows[t], step_drive(weights, train[t]))


class TestFloat32Engine:
    def test_engines_agree_at_float32(self, setup):
        network, images, stack = setup
        evaluator = BatchedEvaluator.for_network(network, dtype=np.float32)
        batched = evaluator.spike_counts(
            images, 25, np.random.default_rng(21), weights=stack
        )
        sequential = sequential_spike_counts(
            evaluator, images, 25, np.random.default_rng(21), stack
        )
        assert batched.sum() > 0
        assert np.array_equal(batched, sequential)

    def test_for_network_inherits_dtype(self):
        net = DiehlCookNetwork(PARAMS, init_weights=False, dtype=np.float32)
        evaluator = BatchedEvaluator.for_network(net)
        assert evaluator.dtype == np.dtype(np.float32)
        assert evaluator.theta.dtype == np.dtype(np.float32)

    def test_non_finite_drive_keeps_engines_identical(self):
        # float32 overflow in spikes @ weights produces inf drives; the
        # fused batched loop must leave refractory neurons untouched
        # exactly like the scalar np.where path (no inf * 0 = NaN).
        rng = np.random.default_rng(6)
        huge = np.full((PARAMS.n_input, PARAMS.n_neurons), 3e38, dtype=np.float32)
        images = rng.random((4, PARAMS.n_input))
        evaluator = BatchedEvaluator(PARAMS, dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            batched = evaluator.spike_counts(
                images, 10, np.random.default_rng(2), weights=huge
            )
            sequential = sequential_spike_counts(
                evaluator, images, 10, np.random.default_rng(2), huge
            )
        assert np.array_equal(batched, sequential)
        assert batched.sum() > 0
