"""Conductance-based synapse model.

Section II-A: "the synapse is modeled by the synaptic conductance, which
increases by weight ``w`` when a presynaptic spike arrives at a synapse,
and otherwise decreases exponentially."

Each postsynaptic neuron carries one excitatory and one inhibitory
conductance (the summed effect of all presynaptic spikes through the
weight matrix), decaying with its time constant ``tau``.  This module
holds only the constants; the conductance arrays and their decay
factors belong to :class:`repro.snn.network.DiehlCookNetwork`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConductanceParameters:
    """Synaptic conductance constants (ms)."""

    tau_excitatory_ms: float = 1.0
    tau_inhibitory_ms: float = 2.0

    def validate(self) -> None:
        if self.tau_excitatory_ms <= 0 or self.tau_inhibitory_ms <= 0:
            raise ValueError("conductance time constants must be > 0")

