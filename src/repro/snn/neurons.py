"""Leaky Integrate-and-Fire neurons with adaptive thresholds.

The paper uses LIF neurons "due to their low complexity" (Section II-A,
Fig. 4b): the membrane potential integrates presynaptic input, decays
exponentially otherwise, fires a spike when it crosses the threshold,
then resets and sits out a refractory period.

For the unsupervised Diehl & Cook architecture the excitatory neurons
additionally carry an *adaptive threshold* (homeostasis): every spike
raises a per-neuron offset ``theta`` that decays very slowly, forcing
neurons to specialise on different input classes instead of a few
neurons winning every competition.

All dynamic state is *batch-shape-polymorphic*: a layer created with
``batch_shape=(E, B)`` holds state arrays of shape ``(E, B, n_neurons)``,
one row per independent neuron population.  The layer holds state; the
time loops of :class:`repro.snn.network.DiehlCookNetwork` advance it.
Every update there is elementwise, so a batched step computes exactly
the same per-neuron arithmetic as a scalar (``batch_shape=()``) step —
this is what lets :mod:`repro.engine` guarantee batched evaluation is
bit-identical to a sequential per-sample loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class LIFParameters:
    """LIF neuron constants (units: mV and ms, matching Diehl & Cook)."""

    v_rest: float = -65.0
    v_reset: float = -60.0
    v_threshold: float = -52.0
    tau_membrane_ms: float = 100.0
    refractory_ms: float = 5.0
    #: reversal potential of excitatory synapses.
    e_excitatory: float = 0.0
    #: reversal potential of inhibitory synapses.
    e_inhibitory: float = -100.0
    #: threshold increment per spike (adaptive threshold).
    theta_plus: float = 0.3
    #: adaptive threshold decay time constant; very slow.
    tau_theta_ms: float = 1.0e7

    def validate(self) -> None:
        if self.tau_membrane_ms <= 0 or self.tau_theta_ms <= 0:
            raise ValueError("time constants must be > 0")
        if self.refractory_ms < 0:
            raise ValueError("refractory period must be >= 0")
        if not self.v_reset <= self.v_threshold:
            raise ValueError("require v_reset <= v_threshold")


class AdaptiveLIFLayer:
    """A vectorised population of adaptive-threshold LIF neurons.

    State arrays (shape ``batch_shape + (n_neurons,)``):

    - ``v`` — membrane potential (mV);
    - ``theta`` — adaptive threshold offset (mV, >= 0);
    - ``refractory_left`` — remaining refractory time (ms).

    The network's time loops update it with conductance-based LIF
    dynamics::

        dv/dt = ((v_rest - v) + g_e (E_e - v) + g_i (E_i - v)) / tau_m

    integrated with forward Euler at step ``dt``.
    """

    def __init__(
        self,
        n_neurons: int,
        parameters: LIFParameters | None = None,
        dt_ms: float = 1.0,
        batch_shape: Tuple[int, ...] = (),
        dtype: np.dtype = np.float64,
    ):
        if n_neurons <= 0:
            raise ValueError(f"n_neurons must be > 0, got {n_neurons}")
        if dt_ms <= 0:
            raise ValueError(f"dt_ms must be > 0, got {dt_ms}")
        self.n_neurons = n_neurons
        self.parameters = parameters or LIFParameters()
        self.parameters.validate()
        self.dt_ms = dt_ms
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        self._theta_decay = self.dtype.type(
            np.exp(-dt_ms / self.parameters.tau_theta_ms)
        )
        self.batch_shape = tuple(int(s) for s in batch_shape)
        self.v = np.full(self.state_shape, self.parameters.v_rest, dtype=self.dtype)
        self.theta = np.zeros(self.state_shape, dtype=self.dtype)
        self.refractory_left = np.zeros(self.state_shape, dtype=self.dtype)

    # ------------------------------------------------------------------
    @property
    def state_shape(self) -> Tuple[int, ...]:
        """Shape of every state array: ``batch_shape + (n_neurons,)``."""
        return self.batch_shape + (self.n_neurons,)

    def set_batch_shape(self, batch_shape: Tuple[int, ...]) -> None:
        """Reallocate state with a new leading batch shape.

        Dynamic state (``v``, ``refractory_left``) returns to rest.  The
        per-neuron ``theta`` vector — assumed shared across the batch,
        which holds for every inference use — is re-broadcast into the
        new shape.
        """
        theta_vec = (
            np.asarray(self.theta, dtype=self.dtype).reshape(-1, self.n_neurons)[0]
            if self.theta.size
            else np.zeros(self.n_neurons, dtype=self.dtype)
        )
        self.batch_shape = tuple(int(s) for s in batch_shape)
        self.v = np.full(self.state_shape, self.parameters.v_rest, dtype=self.dtype)
        self.theta = np.broadcast_to(theta_vec, self.state_shape).copy()
        self.refractory_left = np.zeros(self.state_shape, dtype=self.dtype)

    def reset_state(self) -> None:
        """Return the layer to rest between samples.

        ``theta`` is homeostatic long-term state: it survives sample
        boundaries during training and is frozen at inference time.
        """
        self.v.fill(self.parameters.v_rest)
        self.refractory_left.fill(0.0)
