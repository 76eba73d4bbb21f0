"""SNN hardware platform energy models (for the paper's Fig. 1b).

Fig. 1(b) shows the energy breakdown of SNN processing on TrueNorth,
PEASE and SNNAP (adapted from Krithivasan et al. [5]): memory accesses
dominate, consuming roughly 50–75% of total energy across platforms.

Each :class:`PlatformModel` carries per-operation energy coefficients
(compute per synaptic operation, communication per spike event, memory
per weight-bit fetched).  Running an SNN workload's operation counts
through a model yields the breakdown; the coefficients are calibrated so
the three platforms land inside the ranges the paper's figure shows —
that relative structure (memory dominates everywhere) is the claim the
figure supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class SNNWorkload:
    """Operation counts of one SNN inference pass."""

    synaptic_ops: int
    spike_events: int
    weight_bits_fetched: int

    def __post_init__(self):
        for name in ("synaptic_ops", "spike_events", "weight_bits_fetched"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def for_network(cls, n_input: int, n_neurons: int, n_steps: int) -> "SNNWorkload":
        """Estimate counts for the Fig. 4(a) fully-connected network: 5%
        of inputs and 2% of neurons spike per step, float32 weights."""
        input_spikes = int(n_input * n_steps * 0.05)
        output_spikes = int(n_neurons * n_steps * 0.02)
        return cls(
            synaptic_ops=input_spikes * n_neurons,
            spike_events=input_spikes + output_spikes,
            weight_bits_fetched=n_input * n_neurons * 32,
        )


@dataclass(frozen=True)
class PlatformModel:
    """Per-operation energy coefficients of one SNN platform (picojoules)."""

    name: str
    compute_pj_per_op: float
    communication_pj_per_spike: float
    memory_pj_per_bit: float

    def breakdown(self, workload: SNNWorkload) -> Dict[str, float]:
        """Absolute energy per category for one workload (picojoules)."""
        return {
            "computation": self.compute_pj_per_op * workload.synaptic_ops,
            "communication": self.communication_pj_per_spike * workload.spike_events,
            "memory": self.memory_pj_per_bit * workload.weight_bits_fetched,
        }

    def fractions(self, workload: SNNWorkload) -> Dict[str, float]:
        """Energy breakdown normalised to fractions summing to 1."""
        absolute = self.breakdown(workload)
        total = sum(absolute.values())
        if total <= 0:
            raise ValueError("workload produced zero energy")
        return {k: v / total for k, v in absolute.items()}


# Coefficients calibrated against the relative breakdowns of Fig. 1(b):
# memory dominates on all three platforms (~50-75%), TrueNorth spends
# relatively more on communication (its spike-routing mesh), SNNAP on
# compute (its MAC-style approximate datapath).
TRUENORTH = PlatformModel(
    name="TrueNorth",
    compute_pj_per_op=0.30,
    communication_pj_per_spike=260.0,
    memory_pj_per_bit=0.45,
)
PEASE = PlatformModel(
    name="PEASE",
    compute_pj_per_op=0.42,
    communication_pj_per_spike=120.0,
    memory_pj_per_bit=0.35,
)
SNNAP = PlatformModel(
    name="SNNAP",
    compute_pj_per_op=0.80,
    communication_pj_per_spike=80.0,
    memory_pj_per_bit=0.60,
)

PAPER_PLATFORMS: Tuple[PlatformModel, ...] = (TRUENORTH, PEASE, SNNAP)


def energy_breakdown(platform: PlatformModel) -> Dict[str, float]:
    """Fractional breakdown of one platform on the paper's workload: a
    784-input N400 network run for 100 steps."""
    workload = SNNWorkload.for_network(784, 400, 100)
    return platform.fractions(workload)
