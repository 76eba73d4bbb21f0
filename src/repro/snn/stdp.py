"""Spike-timing-dependent plasticity (STDP).

The paper trains with STDP "since it has been widely used by previous
works" (Section II-A).  We implement the trace-based, weight-dependent
post-synaptic rule of the Diehl & Cook unsupervised pipeline:

- every input neuron keeps a presynaptic *trace* ``x_pre`` that jumps to
  1 on a spike and decays exponentially;
- when an excitatory neuron fires, each of its incoming weights moves
  by ``nu * (x_pre - x_offset) * (w_max - w)**mu``:

  * recently active inputs (``x_pre > x_offset``) are potentiated,
  * silent inputs are depressed,
  * the ``(w_max - w)**mu`` factor softly bounds growth.

Weights therefore always stay inside ``[0, w_max]`` — the property the
fixed-point storage representation and the DRAM error analysis rely on.

Two update modes cover the two training paths:

- :meth:`STDPRule.step` — the in-place rule of ``batch_size=1`` on an
  unbatched rule (``batch_shape=()``): each post spike immediately
  moves (and clips) its incoming weights, so later steps of the same
  sample see the updated tensor (``DiehlCookNetwork.run_sample``
  inlines the same arithmetic into its time loop);
- :meth:`STDPRule.accumulate_step` — the minibatch rule, on a rule
  created with ``batch_shape=(B,)`` whose presynaptic trace holds ``B``
  independent lanes (shape ``(B, n_pre)``): every update is computed
  against a *frozen* weight tensor (its precomputed
  :meth:`frozen_bound` factor) and summed — over timesteps and over
  batch lanes — into a delta tensor the caller applies, clips and
  normalizes once per minibatch (see :mod:`repro.engine.trainer`).
  The fused training loop advances the traces itself
  (:func:`repro.snn.kernels.numpy_state_step`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class STDPParameters:
    """Constants of the trace-based post-synaptic STDP rule."""

    learning_rate: float = 0.1
    tau_trace_ms: float = 20.0
    #: traces below this offset cause depression on a post spike.
    trace_offset: float = 0.4
    w_max: float = 1.0
    #: exponent of the soft weight bound.
    mu: float = 1.0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.tau_trace_ms <= 0:
            raise ValueError("tau_trace_ms must be > 0")
        if self.w_max <= 0:
            raise ValueError("w_max must be > 0")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")


class STDPRule:
    """Stateful STDP updater for one input→excitatory projection."""

    def __init__(
        self,
        n_pre: int,
        parameters: STDPParameters | None = None,
        dt_ms: float = 1.0,
        batch_shape: Tuple[int, ...] = (),
        dtype: np.dtype = np.float64,
    ):
        if n_pre <= 0:
            raise ValueError(f"n_pre must be > 0, got {n_pre}")
        if dt_ms <= 0:
            raise ValueError(f"dt_ms must be > 0, got {dt_ms}")
        self.n_pre = n_pre
        self.parameters = parameters or STDPParameters()
        self.parameters.validate()
        self.dt_ms = dt_ms
        self.dtype = np.dtype(dtype)
        self._trace_decay = self.dtype.type(
            np.exp(-dt_ms / self.parameters.tau_trace_ms)
        )
        self.batch_shape = tuple(int(s) for s in batch_shape)
        self.x_pre = np.zeros(self.state_shape, dtype=self.dtype)
        # Scratch of the dense accumulate branch, lazily sized to
        # (lanes, n_post) / (n_pre, n_post) and reused across steps.
        self._active_scratch = np.empty((0, 0), dtype=self.dtype)
        self._update_scratch = np.empty((0, 0), dtype=self.dtype)
        # Cached learning_rate * bound of the current frozen tensor.
        self._gain_src: np.ndarray | None = None
        self._gain: np.ndarray | None = None

    @property
    def state_shape(self) -> Tuple[int, ...]:
        return self.batch_shape + (self.n_pre,)

    def reset_state(self) -> None:
        self.x_pre.fill(0.0)

    def step(
        self,
        weights: np.ndarray,
        pre_spikes: np.ndarray,
        post_spikes: np.ndarray,
    ) -> np.ndarray:
        """Advance traces one step and apply the update in place.

        ``weights`` has shape ``(n_pre, n_post)`` and is modified in
        place and returned; ``pre_spikes`` / ``post_spikes`` are boolean
        vectors.  Only unbatched rules step: a batched rule raises
        :class:`ValueError` (it only accumulates, see
        :meth:`accumulate_step`).
        """
        if self.batch_shape:
            raise ValueError(
                f"a batched rule (batch_shape={self.batch_shape}) cannot "
                "step in place; use accumulate_step"
            )
        p = self.parameters
        pre = np.asarray(pre_spikes, dtype=bool)
        if pre.shape != self.state_shape:
            raise ValueError(
                f"pre_spikes must have shape {self.state_shape}, got {pre.shape}"
            )
        self.x_pre *= self._trace_decay
        self.x_pre[pre] = 1.0

        if weights.shape[0] != self.n_pre:
            raise ValueError(
                f"weights must have {self.n_pre} presynaptic rows, "
                f"got {weights.shape}"
            )
        post = np.flatnonzero(post_spikes)
        if post.size:
            columns = weights[:, post]
            delta = self.x_pre[:, None] - p.trace_offset
            bound = (p.w_max - columns) ** p.mu
            updated = columns + p.learning_rate * delta * bound
            weights[:, post] = np.clip(updated, 0.0, p.w_max)
        return weights

    # ------------------------------------------------------------------
    # Minibatch (accumulate) mode — see repro.engine.trainer.
    def frozen_bound(self, weights: np.ndarray) -> np.ndarray:
        """Soft-bound factor ``(w_max - w)**mu`` of a frozen tensor.

        In accumulate mode the bound is evaluated against the weights
        the minibatch *reads* (frozen for its whole duration), so it can
        be computed once per minibatch instead of once per post spike.
        """
        p = self.parameters
        diff = p.w_max - np.asarray(weights, dtype=self.dtype)
        # x ** 1.0 is exactly x in IEEE arithmetic; skip the pow pass
        # for the default linear bound.
        return diff if p.mu == 1.0 else diff**p.mu

    def accumulate_step(
        self,
        post_spikes: np.ndarray,
        delta: np.ndarray,
        bound: np.ndarray,
        offset_out: np.ndarray,
    ) -> np.ndarray:
        """Accumulate one (already-traced) step's update into ``delta``.

        Minibatch mode: the weight movement every post spike would apply
        is computed against a frozen tensor — ``bound`` is its
        :meth:`frozen_bound` — and summed over all batch lanes into the
        single ``(n_pre, n_post)`` tensor ``delta`` (modified in place
        and returned) instead of being applied to the weights.  Unlike
        :meth:`step`, updates from concurrent lanes therefore neither
        compound through the bound factor nor clip per step; the caller
        applies + clips + normalizes the summed delta once per
        minibatch.  ``x_pre`` must already hold this step's traces (the
        fused state kernel advances them).  ``offset_out`` is scratch
        shaped like ``x_pre``.  No validation: callers have checked
        shapes already.
        """
        p = self.parameters
        n_post = delta.shape[-1]
        lanes = post_spikes.reshape(-1, n_post)
        # Winner-take-all dynamics keep post spikes sparse: restricting
        # the matmul to the columns that spiked anywhere this step cuts
        # the accumulate cost from O(n_post) to O(spiking neurons).
        spiking = lanes.any(axis=0)
        n_spiking = np.count_nonzero(spiking)
        if not n_spiking:
            return delta
        # Summed over lanes: delta[:, j] grows by
        # lr * bound[:, j] * sum_{lanes b with post[b, j]} (x_pre[b] - offset),
        # one (n_pre, lanes) @ (lanes, spiking) matmul per step.
        np.subtract(self.x_pre, p.trace_offset, out=offset_out)
        offset = offset_out.reshape(-1, self.n_pre)
        # ``bound`` is frozen for the whole minibatch, so the
        # learning-rate scaling folds into it once instead of costing a
        # full-matrix pass per step.  The cache holds a reference to
        # its source, so the identity test cannot alias a recycled id.
        if self._gain_src is not bound:
            self._gain_src = bound
            self._gain = p.learning_rate * bound
        gain = self._gain
        if n_spiking * 4 >= n_post:
            # Dense step (the early, pre-homeostasis part of a sample):
            # the full matmul beats the fancy-indexed gathers/scatters.
            # Non-spiking columns contribute exact-zero products, so
            # this adds 0.0 there and the identical arithmetic on the
            # spiking columns.
            active = self._active_scratch
            update = self._update_scratch
            if active.shape != lanes.shape or update.shape != delta.shape:
                active = self._active_scratch = np.empty(
                    lanes.shape, dtype=self.dtype
                )
                update = self._update_scratch = np.empty(
                    delta.shape, dtype=self.dtype
                )
            np.copyto(active, lanes)
            np.matmul(offset.T, active, out=update)
            np.multiply(update, gain, out=update)
            np.add(delta, update, out=delta)
        else:
            cols = np.flatnonzero(spiking)
            active = lanes[:, cols].astype(self.dtype)
            delta[:, cols] += (offset.T @ active) * gain[:, cols]
        return delta


def normalize_columns(weights: np.ndarray, target_sum: float) -> np.ndarray:
    """Scale each column (one neuron's receptive field) to a fixed L1 mass.

    Diehl & Cook apply this after every sample so no neuron can win the
    competition by sheer total weight.  Operates in place and returns
    the array.
    """
    if target_sum <= 0:
        raise ValueError(f"target_sum must be > 0, got {target_sum}")
    sums = weights.sum(axis=0)
    scale = np.where(sums > 0, target_sum / np.maximum(sums, 1e-12), 1.0)
    weights *= scale[None, :]
    return weights
