"""The trained model, label assignment, prediction and the weight update.

The Diehl & Cook pipeline the paper builds on is unsupervised: STDP
shapes the receptive fields, then each excitatory neuron is *assigned*
the class it responds to most strongly on labelled data, and inference
predicts the class whose assigned neurons spike most.  Training runs
through :class:`repro.engine.BatchedTrainer` and scoring through
:class:`repro.engine.BatchedEvaluator`; this module holds what both
share: :class:`TrainedModel`, :func:`assign_labels`, :func:`predict`
and the post-presentation weight update
(:func:`apply_post_sample_update`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.datasets.base import N_CLASSES
from repro.snn.network import DiehlCookNetwork
from repro.snn.stdp import normalize_columns


@dataclass
class TrainedModel:
    """Everything needed to run (and corrupt) a trained SNN.

    ``weights`` is the DRAM-resident tensor; ``theta`` and
    ``assignments`` are small per-neuron metadata assumed to live
    on-chip (they are not subject to DRAM errors in the paper's model).
    """

    weights: np.ndarray
    theta: np.ndarray
    assignments: np.ndarray
    n_input: int
    n_neurons: int
    accuracy: float = 0.0
    metadata: dict = field(default_factory=dict)

    def copy(self) -> "TrainedModel":
        return TrainedModel(
            weights=self.weights.copy(),
            theta=self.theta.copy(),
            assignments=self.assignments.copy(),
            n_input=self.n_input,
            n_neurons=self.n_neurons,
            accuracy=self.accuracy,
            metadata=dict(self.metadata),
        )

    def install_into(self, network: DiehlCookNetwork) -> None:
        network.set_weights(self.weights)
        network.theta = np.asarray(self.theta, dtype=network.dtype).copy()


def assign_labels(spike_counts: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Assign each neuron the class (of :data:`N_CLASSES`) it fires for
    most, on average.

    Neurons that never fire get assignment ``-1`` and never vote.
    """
    labels = np.asarray(labels)
    if spike_counts.shape[0] != labels.shape[0]:
        raise ValueError("one label per response row required")
    n_neurons = spike_counts.shape[1]
    mean_rates = np.zeros((N_CLASSES, n_neurons))
    for cls in range(N_CLASSES):
        rows = spike_counts[labels == cls]
        if len(rows):
            mean_rates[cls] = rows.mean(axis=0)
    assignments = mean_rates.argmax(axis=0).astype(np.int64)
    silent = mean_rates.max(axis=0) <= 0
    assignments[silent] = -1
    return assignments


def predict(spike_counts: np.ndarray, assignments: np.ndarray) -> np.ndarray:
    """Predict the class whose assigned neurons spiked most per sample.

    Votes are normalised by the number of neurons assigned to each class
    so that over-represented classes do not dominate.
    """
    votes = np.zeros((spike_counts.shape[0], N_CLASSES))
    for cls in range(N_CLASSES):
        members = assignments == cls
        n = int(members.sum())
        if n:
            votes[:, cls] = spike_counts[:, members].sum(axis=1) / n
    return votes.argmax(axis=1)


def apply_post_sample_update(
    network: DiehlCookNetwork,
    delta: Optional[np.ndarray] = None,
    base: Optional[np.ndarray] = None,
    read: Optional[np.ndarray] = None,
    columns: Optional[np.ndarray] = None,
) -> None:
    """The post-presentation weight update shared by every training path.

    With ``delta``/``base`` given (the minibatch path), the accumulated
    STDP delta is credited back onto the stored ``base`` tensor — what
    the training write-back updates — and clipped to the physical range.
    This consumes ``delta``: ``clip(base + delta)`` is computed in its
    buffer, which becomes the network's weight tensor, so callers pass a
    private delta of the network's dtype; ``base`` is not written.

    With ``read``/``base``/``columns`` given (the ``batch_size=1``
    fault-aware path), the network holds its private trained copy ``W``
    of the DRAM ``read``, and STDP changed only ``columns``.  ``W``
    becomes, in place, the dense ``clip(base + (W - read))`` bit for bit:
    elsewhere ``W - read`` is ``+0.0`` (so ``-0.0`` becomes ``+0.0``), or
    NaN at a non-finite read.

    Either way the columns are then re-normalized to the configured L1
    mass, so the clean sequential, fault-aware and minibatch paths all
    finish a presentation through one code path.
    """
    if read is not None:
        new = network.weights
        read = np.asarray(read)
        delta = new[:, columns] - read[:, columns].astype(new.dtype, copy=False)
        # Untrained columns of W equal the read, cast exactly when it
        # casts safely (a float32 read: half the bytes to scan), and the
        # trained ones are overwritten below: the read's mask is W's.
        finite = np.isfinite(read if np.can_cast(read.dtype, new.dtype) else new)
        replay = None if finite.all() else new[~finite]
        np.add(base, 0.0, out=new)
        if replay is not None:
            new[~finite] = base[~finite] + (replay - replay)
        np.clip(new, 0.0, network.w_max, out=new)
        np.add(base[:, columns], delta, out=delta)
        new[:, columns] = np.clip(delta, 0.0, network.w_max, out=delta)
    elif delta is not None:
        if base is None:
            raise ValueError("delta requires the base tensor it applies to")
        np.add(base, delta, out=delta)
        network.weights = np.clip(delta, 0.0, network.w_max, out=delta)
    if network.parameters.weight_norm > 0:
        normalize_columns(network.weights, network.parameters.weight_norm)

