"""The batched evaluation engine.

:class:`BatchedEvaluator` answers the question every paper figure asks
— *how does this trained network respond to this evaluation set under
these (possibly corrupted) weights?* — in one vectorized pass instead
of thousands of Python-loop iterations.  It accepts either a single
weight matrix or a stack of ``E`` weight tensors (error realizations ×
BER points, see :meth:`repro.errors.injection.ErrorInjector.inject_stack`),
simulates state arrays of shape ``(E, B, n_neurons)`` per chunk, and
returns per-realization spike counts or accuracies.

Each chunk is one :meth:`repro.snn.network.DiehlCookNetwork.run_batch`
pass.  Spike counts are **bit-identical** to a per-sample,
per-timestep inference loop at the same seed: encoding draws the same
random stream regardless of batching, the batched CSR drive rows equal
the scalar per-step index-sum exactly (see :mod:`repro.snn.network`),
and all state updates are elementwise.  ``tests/snn_oracle.py`` keeps
that loop (``sequential_spike_counts``) as the test oracle.

Memory is bounded by a :class:`repro.engine.chunking.ChunkPolicy`:
arbitrarily large evaluation sets stream through fixed-size chunks
(chunk boundaries never change results).

A pass runs on up to two of the CPUs the process may use.  It splits
the sample axis into contiguous *parts* (:data:`_PARTS`), each keeping
at least :data:`_MIN_PART_SAMPLES` samples, in all and per chunk.  The
part starting at sample ``lo`` encodes from a copy of the caller's
PCG64 generator jumped past ``lo`` samples' draws
(:func:`repro.engine.encoding.skip_spike_trains`; ``advance`` is
exact), runs the chunk loop on its own network shell and writes its
own slice of the counts; afterwards the caller's generator is jumped
to where serial encoding leaves it.  Counts and generator
state are bit-identical to one part.  The calling thread runs part 0
and a pool made on first use runs the others; the parts share the
chunk budget and :data:`repro.snn.network.DRIVE_BLOCK_BYTES`, so a
parallel pass holds no more than a serial one.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Optional, Union

import numpy as np

from repro.engine.chunking import ChunkPolicy
from repro.engine.encoding import encode_spike_trains, skip_spike_trains
from repro.rng import restored_rng
from repro.snn.network import DRIVE_BLOCK_BYTES, DiehlCookNetwork, NetworkParameters
from repro.telemetry import adopt_context, current_context, get_metrics, span


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Most parts one pass splits into: the CPUs this process may run on,
#: but no more than two, the widest split measured (``docs/engine.md``,
#: "Parts").  A fleet worker lowers it to its thread budget
#: (:func:`limit_parts`).
_PARTS = min(2, _cpu_count())

#: Fewest samples a part keeps, in all and per chunk.  On two cores two
#: N100 parts of 32 samples ran 0.93-1.80x the one-part time, of 64
#: samples 0.77-1.15x and of 250 samples 0.59-0.81x (three runs each):
#: each part's time loop pays the whole per-step call cost.  Test-sized
#: passes stay one part.
_MIN_PART_SAMPLES = 64

#: The threads that run parts 1, 2, ...; made on first use, so a process
#: that never splits a pass neither starts them nor imports their module.
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def limit_parts() -> None:
    """Split every later pass of this process into at most
    ``OMP_NUM_THREADS`` parts.

    A fleet worker process calls it at start: its fleet pins
    ``OMP_NUM_THREADS`` to ``threads_per_worker``, so N workers of T
    parts each do not oversubscribe the host.  The cap holds for the
    rest of the process; other processes split by their affinity
    whatever the variable says.
    """
    global _PARTS
    budget = os.environ.get("OMP_NUM_THREADS", "")
    if budget.isdigit() and int(budget) > 0:
        _PARTS = min(_PARTS, int(budget))


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures.thread import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                max(1, _PARTS - 1), thread_name_prefix="eval-part"
            )
        return _pool


def _split(n_samples: int, chunk: int, rng: np.random.Generator) -> List[slice]:
    """Contiguous parts of the sample axis.

    One unless ``rng`` is a PCG64; never so many that a part's samples,
    or its share of the ``chunk`` samples the pass may hold at once,
    fall below :data:`_MIN_PART_SAMPLES`.
    """
    n_parts = 1
    if isinstance(rng.bit_generator, np.random.PCG64):
        n_parts = max(1, min(
            _PARTS, n_samples // _MIN_PART_SAMPLES, chunk // _MIN_PART_SAMPLES
        ))
    bounds = [n_samples * k // n_parts for k in range(n_parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class BatchedEvaluator:
    """Evaluate many samples × many weight realizations in one pass.

    Parameters
    ----------
    parameters:
        The :class:`~repro.snn.network.NetworkParameters` of the
        network under evaluation.
    theta:
        Per-neuron adaptive-threshold vector ``(n_neurons,)`` (frozen
        during evaluation).  Defaults to zeros.
    w_max:
        Physical weight ceiling of the network.
    chunk_policy:
        Memory-bounding policy of a whole pass, shared by its parts;
        defaults to a 96 MiB budget.
    dtype:
        Compute precision of the simulation state and drives
        (``numpy.float64`` default, or ``numpy.float32`` for roughly
        half the memory bandwidth on large passes).
    """

    def __init__(
        self,
        parameters: NetworkParameters,
        theta: Optional[np.ndarray] = None,
        w_max: float = 1.0,
        chunk_policy: Optional[ChunkPolicy] = None,
        dtype: np.dtype = np.float64,
    ):
        self.parameters = parameters
        self.chunk_policy = chunk_policy or ChunkPolicy()
        self.dtype = np.dtype(dtype)
        if theta is None:
            theta = np.zeros(parameters.n_neurons)
        self.theta = np.asarray(theta, dtype=self.dtype).reshape(-1)
        if self.theta.shape != (parameters.n_neurons,):
            raise ValueError(
                f"theta must have {parameters.n_neurons} entries, "
                f"got shape {np.shape(theta)}"
            )
        #: One network shell per part; the parts after the first get
        #: theirs when a pass first splits that far.
        self._shells = [DiehlCookNetwork(
            parameters, w_max=w_max, init_weights=False, dtype=self.dtype
        )]

    # ------------------------------------------------------------------
    @classmethod
    def for_network(cls, network: DiehlCookNetwork, **kwargs) -> "BatchedEvaluator":
        """An evaluator matching a live (unbatched) network's setup.

        Captures the network's parameters, adaptive thresholds and
        compute dtype; the weights to evaluate are passed per call, so
        the network object itself is never mutated.
        """
        theta = np.asarray(network.theta).reshape(-1, network.n_neurons)[0]
        kwargs.setdefault("dtype", network.dtype)
        return cls(network.parameters, theta=theta, w_max=network.w_max, **kwargs)

    @classmethod
    def for_model(cls, model, **kwargs) -> "BatchedEvaluator":
        """An evaluator for a :class:`~repro.snn.training.TrainedModel`."""
        parameters = NetworkParameters(n_input=model.n_input, n_neurons=model.n_neurons)
        return cls(parameters, theta=model.theta, **kwargs)

    # ------------------------------------------------------------------
    def spike_counts(
        self,
        images: np.ndarray,
        n_steps: int,
        rng: np.random.Generator,
        weights: np.ndarray,
        base_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-neuron spike counts over an evaluation set.

        ``weights`` is one ``(n_input, n_neurons)`` matrix (returns
        ``(B, n_neurons)``) or a stack ``(E, n_input, n_neurons)``
        (returns ``(E, B, n_neurons)``); every sample is encoded once
        and presented to all ``E`` realizations.

        ``base_weights`` (stacked evaluation only) names the
        clean tensor the stack's realizations were corrupted *from*:
        the drive computation is then shared across realizations — each
        block's clean drive is built once and each realization
        recomputes only the drive rows its weight deltas actually touch
        (:meth:`repro.snn.network.DiehlCookNetwork.run_batch`).  Counts
        are bit-identical with or without it; at low BER (few flipped
        weights per realization) it removes nearly all of the per-
        realization matmul work.
        """
        p = self.parameters
        if n_steps <= 0:
            raise ValueError(f"n_steps must be > 0, got {n_steps}")
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 2 or images.shape[1] != p.n_input:
            raise ValueError(
                f"images must have shape (n_samples, {p.n_input}), "
                f"got {images.shape}"
            )
        # Every part's shell reads this one array (never written).
        weights = np.ascontiguousarray(weights, dtype=self.dtype)
        stacked = weights.ndim == 3
        if weights.shape[-2:] != (p.n_input, p.n_neurons) or weights.ndim not in (2, 3):
            raise ValueError(
                f"weights must be ({p.n_input}, {p.n_neurons}) or a "
                f"(E, {p.n_input}, {p.n_neurons}) stack, got {weights.shape}"
            )
        if base_weights is not None:
            base_weights = np.asarray(base_weights, dtype=self.dtype)
            if base_weights.shape != (p.n_input, p.n_neurons):
                raise ValueError(
                    f"base_weights must have shape ({p.n_input}, {p.n_neurons}), "
                    f"got {base_weights.shape}"
                )
            if not stacked:
                # Sharing drives only pays off across a realization
                # stack; a single matrix is simulated directly.
                base_weights = None
        n_real = weights.shape[0] if stacked else 1
        n_samples = images.shape[0]
        out_shape = (
            (n_real, n_samples, p.n_neurons) if stacked else (n_samples, p.n_neurons)
        )
        out = np.zeros(out_shape, dtype=np.int64)
        chunk = self.chunk_policy.samples_per_chunk(
            n_real, n_steps, p.n_input, p.n_neurons
        )
        parts = _split(n_samples, chunk, rng)
        n_parts = len(parts)
        # The parts share the pass's chunk budget and drive block budget.
        chunk //= n_parts
        while len(self._shells) < n_parts:
            self._shells.append(DiehlCookNetwork(
                p, w_max=self._shells[0].w_max, init_weights=False, dtype=self.dtype
            ))
        for shell in self._shells[:n_parts]:
            shell.drive_block_bytes = DRIVE_BLOCK_BYTES // n_parts
        task = (images, n_steps, weights, stacked, base_weights, out, chunk)
        if n_parts == 1:
            self._count_part(self._shells[0], parts[0], rng, task)
            return out
        state = rng.bit_generator.state
        context = current_context()
        futures = []
        for shell, part in zip(self._shells[1:], parts[1:]):
            part_rng = restored_rng(state)
            skip_spike_trains(part_rng, part.start, n_steps, p.n_input)
            futures.append(_executor().submit(
                self._count_part, shell, part, part_rng, task, context
            ))
        try:
            self._count_part(self._shells[0], parts[0], rng, task)
        finally:
            for future in futures:
                future.exception()  # waits: no part outlives the call
        for future in futures:
            future.result()
        skip_spike_trains(rng, n_samples - parts[0].stop, n_steps, p.n_input)
        return out

    def accuracies(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        assignments: np.ndarray,
        n_steps: int,
        rng: np.random.Generator,
        weights: np.ndarray,
        base_weights: Optional[np.ndarray] = None,
    ) -> Union[float, np.ndarray]:
        """Classification accuracy per weight realization.

        Returns a scalar for a single weight matrix, or an ``(E,)``
        array for a stack.  ``base_weights`` shares the clean drive
        computation across a realization stack (see
        :meth:`spike_counts`).
        """
        from repro.snn.training import predict

        labels = np.asarray(labels)
        counts = self.spike_counts(
            images, n_steps, rng, weights, base_weights=base_weights
        )
        if counts.ndim == 2:
            return float((predict(counts, assignments) == labels).mean())
        return np.array(
            [float((predict(c, assignments) == labels).mean()) for c in counts]
        )

    # ------------------------------------------------------------------
    def _count_part(
        self, net: DiehlCookNetwork, part: slice, rng: np.random.Generator,
        task: tuple, context: Optional[dict] = None,
    ) -> None:
        """Encode and count the samples of ``part`` on ``net``, chunk by chunk.

        ``rng`` is positioned at ``part.start``'s draws; ``context`` is
        the caller's span, which a pool thread's chunk spans adopt.
        """
        images, n_steps, weights, stacked, base_weights, out, chunk = task
        n_real = weights.shape[0] if stacked else 1
        size = part.stop - part.start
        if size:
            # The fewest chunks the budget allows, of near-equal size:
            # each chunk's time loop has a fixed per-step cost.
            chunk = -(-size // -(-size // chunk))
        chunk_hist = get_metrics().histogram("engine.eval_chunk_s")
        installed = False
        with adopt_context(context):
            for window in self.chunk_policy.iter_chunks(size, chunk):
                window = slice(part.start + window.start, part.start + window.stop)
                n_batch = window.stop - window.start
                chunk_t0 = time.perf_counter()
                with span("eval.chunk", samples=n_batch, realizations=n_real):
                    shape = (n_real, n_batch) if stacked else (n_batch,)
                    if net.batch_shape != shape:
                        # A ragged final chunk only reshapes state;
                        # set_batch_shape keeps a compatible weight
                        # stack and re-broadcasts theta.
                        net.set_batch_shape(shape)
                    if not installed:
                        net.theta = np.broadcast_to(self.theta, net.state_shape).copy()
                        net.weights = weights
                        installed = True
                    # The trains are passed, not held: run_batch frees
                    # them once their drive operator is built.
                    out[..., window, :] = net.run_batch(
                        encode_spike_trains(images[window], n_steps, rng),
                        base_weights=base_weights,
                    )
                chunk_hist.observe(time.perf_counter() - chunk_t0)
