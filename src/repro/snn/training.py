"""Unsupervised STDP training, label assignment and evaluation.

The Diehl & Cook pipeline the paper builds on is unsupervised: STDP
shapes the receptive fields, then each excitatory neuron is *assigned*
the class it responds to most strongly on labelled data, and inference
predicts the class whose assigned neurons spike most.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.rng import ensure_rng
from repro.snn.encoding import poisson_rate_code
from repro.snn.network import DiehlCookNetwork
from repro.snn.stdp import STDPParameters, normalize_columns


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
        network.neurons.theta = np.asarray(self.theta, dtype=network.dtype).copy()


Encoder = Callable[[np.ndarray, int, np.random.Generator], np.ndarray]


def _default_encoder(
    image: np.ndarray, n_steps: int, rng: np.random.Generator
) -> np.ndarray:
    return poisson_rate_code(image, n_steps, rng=rng)


def run_spike_counts(
    network: DiehlCookNetwork,
    images: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
    encoder: Encoder = _default_encoder,
) -> np.ndarray:
    """Spike-count responses (n_samples, n_neurons) without learning.

    Routed through :class:`repro.engine.BatchedEvaluator`, which
    simulates the whole set in chunked vectorized passes without
    mutating ``network``.
    """
    from repro.engine import BatchedEvaluator

    evaluator = BatchedEvaluator.for_network(network)
    return evaluator.spike_counts(
        np.asarray(images, dtype=np.float64),
        n_steps,
        rng,
        weights=network.weights,
        encoder=None if encoder is _default_encoder else encoder,
    )


def assign_labels(
    spike_counts: np.ndarray, labels: np.ndarray, n_classes: int = 10
) -> np.ndarray:
    """Assign each neuron the class it fires for most, on average.

    Neurons that never fire get assignment ``-1`` and never vote.
    """
    labels = np.asarray(labels)
    if spike_counts.shape[0] != labels.shape[0]:
        raise ValueError("one label per response row required")
    n_neurons = spike_counts.shape[1]
    mean_rates = np.zeros((n_classes, n_neurons))
    for cls in range(n_classes):
        rows = spike_counts[labels == cls]
        if len(rows):
            mean_rates[cls] = rows.mean(axis=0)
    assignments = mean_rates.argmax(axis=0).astype(np.int64)
    silent = mean_rates.max(axis=0) <= 0
    assignments[silent] = -1
    return assignments


def predict(
    spike_counts: np.ndarray, assignments: np.ndarray, n_classes: int = 10
) -> np.ndarray:
    """Predict the class whose assigned neurons spiked most per sample.

    Votes are normalised by the number of neurons assigned to each class
    so that over-represented classes do not dominate.
    """
    votes = np.zeros((spike_counts.shape[0], n_classes))
    for cls in range(n_classes):
        members = assignments == cls
        n = int(members.sum())
        if n:
            votes[:, cls] = spike_counts[:, members].sum(axis=1) / n
    return votes.argmax(axis=1)


def evaluate_accuracy(
    network: DiehlCookNetwork,
    images: np.ndarray,
    labels: np.ndarray,
    assignments: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
    encoder: Encoder = _default_encoder,
    n_classes: int = 10,
) -> float:
    """Classification accuracy of ``network`` on a labelled set."""
    counts = run_spike_counts(network, images, n_steps, rng, encoder)
    predictions = predict(counts, assignments, n_classes)
    return float((predictions == np.asarray(labels)).mean())


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
        delta = new[:, columns] - np.asarray(read)[:, columns].astype(new.dtype, copy=False)
        finite = np.isfinite(new)
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


def train_unsupervised(
    network: DiehlCookNetwork,
    images: np.ndarray,
    labels: np.ndarray,
    n_steps: int = 100,
    epochs: int = 1,
    stdp_parameters: Optional[STDPParameters] = None,
    rng: Optional[np.random.Generator] = None,
    encoder: Encoder = _default_encoder,
    corrupt_weights: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    n_classes: int = 10,
    batch_size: int = 1,
    encoding_cache=None,
) -> TrainedModel:
    """Train ``network`` with STDP and return the packaged model.

    ``corrupt_weights``, when given, is applied to the weight tensor
    before every presentation — this is the hook SparkXD's fault-aware
    training (Algorithm 1) uses to expose the network to DRAM bit
    errors *during* learning: the network computes with the corrupted
    weights, and STDP updates are applied to the stored (clean) tensor,
    exactly as a DRAM-backed accelerator would behave (errors corrupt
    reads; the training update writes back).

    The loop is executed by :class:`repro.engine.trainer.BatchedTrainer`:
    ``batch_size=1`` (default) presents one sample at a time and is
    bit-identical to the historical sequential loop at the same RNG
    state; ``batch_size>1`` presents minibatches in vectorized passes —
    a documented approximation that changes the trained weights (see
    ``docs/training.md``) while consuming the same random stream.
    ``encoding_cache`` records/replays the encoded sample stream across
    repeated calls (see :class:`repro.engine.trainer.StageEncodingCache`).
    The model is then labelled and scored on the training images.
    """
    rng = ensure_rng(rng)
    images = np.asarray(images)
    labels = np.asarray(labels)
    if len(images) != len(labels):
        raise ValueError("images and labels must align")

    model = _fit(
        network, images, n_steps, epochs, rng, encoder, encoding_cache,
        stdp_parameters=stdp_parameters,
        batch_size=batch_size,
        corrupt_weights=corrupt_weights,
    )
    counts = run_spike_counts(network, images, n_steps, rng, encoder)
    model.assignments = assign_labels(counts, labels, n_classes)
    model.accuracy = evaluate_accuracy(
        network, images, labels, model.assignments, n_steps, rng, encoder, n_classes
    )
    return model


def _fit(
    network, images, n_steps, epochs, rng, encoder=_default_encoder,
    encoding_cache=None, **trainer,
) -> TrainedModel:
    """The training of :func:`train_unsupervised`: no labels, no score.

    Every neuron's assignment is ``-1`` and the accuracy ``0.0`` until
    the caller labels and scores the model; ``trainer`` goes to
    :class:`~repro.engine.trainer.BatchedTrainer`.
    """
    from repro.engine.trainer import BatchedTrainer

    fitter = BatchedTrainer(
        network, encoder=None if encoder is _default_encoder else encoder, **trainer
    )
    fitter.train(
        images, n_steps=n_steps, epochs=epochs, rng=rng, encoding_cache=encoding_cache
    )
    return TrainedModel(
        weights=network.weights.copy(),
        theta=network.neurons.theta.copy(),
        assignments=np.full(network.n_neurons, -1, dtype=np.int64),
        n_input=network.n_input,
        n_neurons=network.n_neurons,
        metadata={
            "epochs": epochs,
            "n_steps": n_steps,
            "train_batch_size": fitter.batch_size,
        },
    )
