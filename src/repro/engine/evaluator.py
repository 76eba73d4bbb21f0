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
"""

from __future__ import annotations

import time
from typing import Optional, Union

import numpy as np

from repro.engine.chunking import ChunkPolicy
from repro.engine.encoding import encode_spike_trains
from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.telemetry import get_metrics, span


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
        Memory-bounding policy; defaults to a 256 MiB budget.
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
        self._network = DiehlCookNetwork(
            parameters, w_max=w_max, init_weights=False, dtype=self.dtype
        )

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
        weights = np.asarray(weights, dtype=self.dtype)
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
        installed = False
        chunk_hist = get_metrics().histogram("engine.eval_chunk_s")
        for window in self.chunk_policy.iter_chunks(n_samples, chunk):
            chunk_t0 = time.perf_counter()
            with span(
                "eval.chunk",
                samples=window.stop - window.start,
                realizations=n_real,
            ):
                trains = encode_spike_trains(images[window], n_steps, rng)
                out[..., window, :] = self._batched_counts(
                    trains, weights, stacked, installed, base_weights
                )
                installed = True
            chunk_hist.observe(time.perf_counter() - chunk_t0)
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
    def _batched_counts(
        self, trains: np.ndarray, weights: np.ndarray, stacked: bool,
        installed: bool, base_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n_batch = trains.shape[0]
        shape = (weights.shape[0], n_batch) if stacked else (n_batch,)
        net = self._network
        if net.batch_shape != shape:
            # A ragged final chunk only reshapes state; set_batch_shape
            # keeps a compatible weight stack and re-broadcasts theta.
            net.set_batch_shape(shape)
        if not installed:
            net.theta = np.broadcast_to(self.theta, net.state_shape).copy()
            net.set_weights(weights)
        return net.run_batch(trains, base_weights=base_weights)
