"""Conductance-based synapse model.

Section II-A: "the synapse is modeled by the synaptic conductance, which
increases by weight ``w`` when a presynaptic spike arrives at a synapse,
and otherwise decreases exponentially."

:class:`SynapticConductance` tracks one conductance value per
postsynaptic neuron (the summed effect of all presynaptic spikes through
the weight matrix), decaying with time constant ``tau``.  Like the
neuron layer, its state carries an arbitrary leading batch shape, so one
object holds the conductances of ``E x B`` independent network
instances; the network's time loops decay it and add each step's input.
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
