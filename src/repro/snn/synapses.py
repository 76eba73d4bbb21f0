"""Conductance-based synapse model.

Section II-A: "the synapse is modeled by the synaptic conductance, which
increases by weight ``w`` when a presynaptic spike arrives at a synapse,
and otherwise decreases exponentially."

:class:`SynapticConductance` tracks one conductance value per
postsynaptic neuron (the summed effect of all presynaptic spikes through
the weight matrix), decaying with time constant ``tau``.  Like the
neuron layer, its state carries an arbitrary leading batch shape, so one
object can integrate the conductances of ``E x B`` independent network
instances at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class ConductanceParameters:
    """Synaptic conductance constants (ms)."""

    tau_excitatory_ms: float = 1.0
    tau_inhibitory_ms: float = 2.0

    def validate(self) -> None:
        if self.tau_excitatory_ms <= 0 or self.tau_inhibitory_ms <= 0:
            raise ValueError("conductance time constants must be > 0")


def propagate_spikes(weights: np.ndarray, spikes: np.ndarray) -> np.ndarray:
    """Postsynaptic drive ``spikes @ weights`` for batched spike arrays.

    ``spikes`` has shape ``(..., n_pre)`` (boolean or float);
    ``weights`` is either one matrix ``(n_pre, n_post)`` — applied to
    every batch element — or a stack ``stack_shape + (n_pre, n_post)``
    whose ``stack_shape`` must equal ``spikes.shape[:len(stack_shape)]``
    (one weight tensor per leading batch index, e.g. per error
    realization).  Returns drive of shape ``spikes.shape[:-1] + (n_post,)``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    spikes_f = np.asarray(spikes, dtype=np.float64)
    if weights.ndim < 2:
        raise ValueError(f"weights must be at least 2-D, got shape {weights.shape}")
    n_pre = weights.shape[-2]
    if spikes_f.shape[-1] != n_pre:
        raise ValueError(
            f"spikes must have {n_pre} presynaptic entries on the last axis, "
            f"got shape {spikes_f.shape}"
        )
    if weights.ndim == 2:
        batch = spikes_f.shape[:-1]
        flat = spikes_f.reshape(-1, n_pre) if spikes_f.ndim != 2 else spikes_f
        return (flat @ weights).reshape(batch + (weights.shape[-1],))
    stack = weights.shape[:-2]
    if spikes_f.ndim != len(stack) + 2 or spikes_f.shape[: len(stack)] != stack:
        raise ValueError(
            f"stacked weights {weights.shape} require spikes shaped "
            f"{stack + ('B', n_pre)}, got {spikes_f.shape}"
        )
    return np.matmul(spikes_f, weights)


class SynapticConductance:
    """Exponentially decaying conductance for one neuron population."""

    def __init__(
        self,
        n_neurons: int,
        tau_ms: float,
        dt_ms: float = 1.0,
        batch_shape: Tuple[int, ...] = (),
        dtype: np.dtype = np.float64,
    ):
        if n_neurons <= 0:
            raise ValueError(f"n_neurons must be > 0, got {n_neurons}")
        if tau_ms <= 0 or dt_ms <= 0:
            raise ValueError("tau_ms and dt_ms must be > 0")
        self.n_neurons = n_neurons
        self.tau_ms = tau_ms
        self.dt_ms = dt_ms
        self.dtype = np.dtype(dtype)
        self._decay = self.dtype.type(np.exp(-dt_ms / tau_ms))
        self.batch_shape = tuple(int(s) for s in batch_shape)
        self.g = np.zeros(self.state_shape, dtype=self.dtype)

    @property
    def state_shape(self) -> Tuple[int, ...]:
        return self.batch_shape + (self.n_neurons,)

    def set_batch_shape(self, batch_shape: Tuple[int, ...]) -> None:
        """Reallocate the conductance at zero with a new batch shape."""
        self.batch_shape = tuple(int(s) for s in batch_shape)
        self.g = np.zeros(self.state_shape, dtype=self.dtype)

    def reset_state(self) -> None:
        self.g.fill(0.0)

    def step(self, injected: np.ndarray | float = 0.0) -> np.ndarray:
        """Decay one step, then add ``injected`` conductance; return g.

        ``injected`` broadcasts against the state shape, so a batched
        conductance accepts per-instance injections of shape
        ``batch_shape + (n_neurons,)`` (or any broadcastable prefix).
        """
        self.g *= self._decay
        self.g += injected
        return self.g
