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

The network's membrane update is conductance-based LIF::

    dv/dt = ((v_rest - v) + g_e (E_e - v) + g_i (E_i - v)) / tau_m

integrated with forward Euler at step ``dt``.  This module holds only
the constants; the state arrays (``v``, ``refractory_left``,
``theta``) and the time loops that advance them belong to
:class:`repro.snn.network.DiehlCookNetwork`.
"""

from __future__ import annotations

from dataclasses import dataclass


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

