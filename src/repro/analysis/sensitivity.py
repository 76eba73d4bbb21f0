"""Bit-position sensitivity of stored weights.

Fig. 11's label-2 observation: "when the bit errors flip the most
significant bits (MSBs) of weights, they change the corresponding
weight values and the accuracy may be decreased significantly", while
flips in less significant bits barely matter.

This module quantifies that claim: flip *only* one bit position across
a sampled fraction of the weights and measure the accuracy and the mean
weight perturbation per position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.engine import BatchedEvaluator
from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.training import TrainedModel


@dataclass(frozen=True)
class BitSensitivityPoint:
    """Impact of flipping one stored bit position."""

    bit_position: int
    flip_fraction: float
    mean_weight_change: float
    accuracy: Optional[float] = None


def flip_single_position(
    weights: np.ndarray,
    representation,
    bit_position: int,
    flip_fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Flip bit ``bit_position`` of a random ``flip_fraction`` of weights."""
    if not 0.0 < flip_fraction <= 1.0:
        raise ValueError(f"flip_fraction must be in (0, 1], got {flip_fraction}")
    bpw = representation.bits_per_weight
    if not 0 <= bit_position < bpw:
        raise IndexError(f"bit_position must be in [0, {bpw})")
    n = int(np.size(weights))
    count = max(1, int(round(flip_fraction * n)))
    victims = rng.choice(n, size=count, replace=False)
    flat_bits = victims.astype(np.int64) * bpw + bit_position
    words = representation.encode(weights)
    corrupted = representation.flip_bits(np.ravel(words), flat_bits)
    return representation.decode(corrupted).reshape(np.shape(weights))


def accuracy_by_bit(
    model: TrainedModel,
    dataset: Dataset,
    representation,
    bit_positions: Sequence[int],
    flip_fraction: float = 0.05,
    n_steps: int = 80,
    seed: int = 0,
) -> Tuple[BitSensitivityPoint, ...]:
    """Classification accuracy with one stored bit position flipped.

    Runs the SNN on the test split for every probed position; each point
    also carries the mean |Δweight| over the flipped weights.
    """
    rng = np.random.default_rng(seed)
    # The network's initial draws stay in the random stream (see
    # ``accuracy_vs_ber_sweep``).
    network = DiehlCookNetwork(
        NetworkParameters(n_input=model.n_input, n_neurons=model.n_neurons), rng=rng
    )
    model.install_into(network)
    evaluator = BatchedEvaluator.for_network(network)
    points = []
    for bit in bit_positions:
        corrupted = flip_single_position(
            model.weights, representation, bit, flip_fraction, rng
        )
        accuracy = evaluator.accuracies(
            dataset.test_images,
            dataset.test_labels,
            model.assignments,
            n_steps,
            rng,
            weights=corrupted,
        )
        changed = np.abs(corrupted - model.weights)
        nonzero = changed[changed > 0]
        points.append(
            BitSensitivityPoint(
                bit_position=bit,
                flip_fraction=flip_fraction,
                mean_weight_change=float(nonzero.mean()) if nonzero.size else 0.0,
                accuracy=accuracy,
            )
        )
    return tuple(points)
