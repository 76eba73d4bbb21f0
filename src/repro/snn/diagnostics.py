"""Training-health diagnostics for the unsupervised SNN.

Unsupervised STDP training fails in recognisable ways: the network goes
silent (thresholds too high / drive too low), fires in lockstep
(symmetry not broken — all adaptive thresholds rise together and no
neuron specialises), or a few neurons dominate every sample.  These
failure modes were observed while scaling this reproduction (see
``NetworkParameters.theta_init_max``); the diagnostics here make them
measurable so users catch them before wasting a training run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.rng import ensure_rng
from repro.snn.network import DiehlCookNetwork


@dataclass(frozen=True)
class TrainingHealth:
    """Aggregate health indicators of a (partially) trained network."""

    #: mean spikes per sample across the excitatory layer.
    mean_spikes_per_sample: float
    #: fraction of neurons that fired at least once.
    active_neuron_fraction: float
    #: Gini-style concentration of spikes across neurons (0 = perfectly
    #: even, -> 1 = a single neuron produces all spikes).
    spike_concentration: float
    #: coefficient of variation of adaptive thresholds; ~0 means the
    #: population is moving in lockstep (the collapse signature).
    theta_dispersion: float
    #: mean pairwise cosine similarity of receptive fields (columns of
    #: the weight matrix); -> 1 means every neuron learned the same thing.
    receptive_field_similarity: float

    @property
    def is_silent(self) -> bool:
        return self.mean_spikes_per_sample < 1.0

    @property
    def is_lockstep(self) -> bool:
        return self.theta_dispersion < 0.05 and self.receptive_field_similarity > 0.95

    @property
    def is_degenerate(self) -> bool:
        return self.spike_concentration > 0.9

    def warnings(self) -> tuple:
        """Human-readable warnings for each triggered failure mode."""
        out = []
        if self.is_silent:
            out.append(
                "network is nearly silent: raise excitation_gain or lower "
                "the firing threshold"
            )
        if self.is_lockstep:
            out.append(
                "population fires in lockstep: increase theta_init_max to "
                "break the symmetry, or add training samples"
            )
        if self.is_degenerate:
            out.append(
                "a few neurons dominate all responses: increase "
                "inhibition_strength or theta_plus"
            )
        return tuple(out)


def _gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative vector (0 even, 1 concentrated)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    total = v.sum()
    if total <= 0:
        return 0.0
    n = v.size
    ranks = np.arange(1, n + 1)
    return float((2 * (ranks * v).sum() / (n * total)) - (n + 1) / n)


def check_training_health(
    network: DiehlCookNetwork,
    probe_images: np.ndarray,
    rng: Optional[np.random.Generator] = None,
) -> TrainingHealth:
    """Probe a network with a handful of samples and score its health.

    ``probe_images`` should be a small (10-30 sample) slice of the
    training set, each presented for 60 steps; the probe is
    inference-only and leaves the network's long-term state untouched.
    """
    from repro.engine import BatchedEvaluator

    if len(probe_images) == 0:
        raise ValueError("need at least one probe image")
    rng = ensure_rng(rng)
    counts = BatchedEvaluator.for_network(network).spike_counts(
        probe_images, 60, rng, weights=network.weights
    )

    per_neuron = counts.sum(axis=0).astype(np.float64)
    mean_spikes = float(counts.sum(axis=1).mean())
    active_fraction = float((per_neuron > 0).mean())
    concentration = _gini(per_neuron)

    theta = network.theta
    theta_mean = float(theta.mean())
    dispersion = float(theta.std() / theta_mean) if theta_mean > 0 else 1.0

    similarity = _mean_pairwise_cosine(network.weights, rng)
    return TrainingHealth(
        mean_spikes_per_sample=mean_spikes,
        active_neuron_fraction=active_fraction,
        spike_concentration=concentration,
        theta_dispersion=dispersion,
        receptive_field_similarity=similarity,
    )


def _mean_pairwise_cosine(
    weights: np.ndarray, rng: np.random.Generator, max_pairs: int = 200
) -> float:
    n = weights.shape[1]
    if n < 2:
        return 0.0
    norms = np.linalg.norm(weights, axis=0)
    safe = np.maximum(norms, 1e-12)
    normalised = weights / safe[None, :]
    pairs = min(max_pairs, n * (n - 1) // 2)
    i = rng.integers(0, n, size=pairs)
    j = rng.integers(0, n, size=pairs)
    distinct = i != j
    if not distinct.any():
        return 0.0
    sims = (normalised[:, i[distinct]] * normalised[:, j[distinct]]).sum(axis=0)
    return float(sims.mean())
