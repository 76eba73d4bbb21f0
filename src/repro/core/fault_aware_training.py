"""Fault-aware training: improving the SNN error tolerance (Algorithm 1).

Section IV-B: bit errors generated from the DRAM error model are
injected into the weights *during training*, with the BER incremented
after each training stage "from a minimum error rate to a maximum one
(e.g., the next error rate is 10x of the previous one)", so the SNN is
gradually trained to tolerate errors up to the maximum rate.

Mechanics per presented sample: the network computes with a freshly
corrupted copy of the stored weights (what a DRAM read returns under
errors), and the STDP deltas are credited back onto the stored tensor
(what the training write-back updates).  Every stage, and the baseline,
trains with :class:`repro.engine.BatchedTrainer` and is labelled and
scored with :class:`repro.engine.BatchedEvaluator`.

One deliberate deviation from the paper's Algorithm 1 pseudocode: the
listing returns as soon as *one* error rate meets the accuracy bound,
which (read literally) stops at the lowest rate.  The surrounding text
makes the intent clear — train through the whole ascending schedule,
then let the Section IV-C analysis pick the *maximum* tolerable BER —
so that is what this implementation does, recording the accuracy
reached at every stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.datasets.base import Dataset
from repro.engine import BatchedEvaluator, BatchedTrainer
from repro.engine.encoding import skip_spike_trains
from repro.engine.trainer import STAGE_ENCODINGS, StageEncodingCache
from repro.errors.injection import ErrorInjector
from repro.rng import ensure_rng
from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.stdp import STDPParameters
from repro.snn.training import TrainedModel, assign_labels

#: The plasticity rule of the fault-aware stages.  They *fine-tune* an
#: already-trained model; the full from-scratch learning rate would let
#: error-driven spurious spikes erode the learned receptive fields.
FINE_TUNING_STDP = STDPParameters(learning_rate=0.01)


@dataclass
class FaultAwareTrainingResult:
    """The improved model plus the per-stage accuracy trajectory."""

    model: TrainedModel
    rates: tuple
    accuracy_per_rate: dict = field(default_factory=dict)
    #: BER of the stage whose snapshot became the returned model.
    selected_rate: float = 0.0


def improve_error_tolerance(
    baseline: TrainedModel,
    dataset: Dataset,
    injector: ErrorInjector,
    rates: Sequence[float],
    epochs_per_rate: int = 1,
    n_steps: int = 100,
    accuracy_bound: float = 0.01,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = 1,
    dtype: np.dtype = np.float64,
    stage_encoding: str = "fresh",
) -> FaultAwareTrainingResult:
    """Algorithm 1: progressive fault-aware retraining of a baseline SNN.

    Parameters
    ----------
    baseline:
        The model trained without DRAM errors (``model0`` in the paper).
    dataset:
        Training workload; its test split monitors per-stage accuracy.
    injector:
        Error generator+injector configured with the storage
        representation and the DRAM error model (Model-0 by default).
    rates:
        Ascending BER schedule; Step-1 of Section IV-B.
    epochs_per_rate:
        Training epochs spent at each BER stage, under the fine-tuning
        rule :data:`FINE_TUNING_STDP`.
    batch_size:
        Samples per STDP presentation at every BER stage
        (:class:`repro.engine.trainer.BatchedTrainer`).  With
        ``batch_size>1`` each minibatch computes from **one** corrupted
        realization of the stored weights (one faulty DRAM read serving
        the whole batch) and the summed deltas are credited back to the
        clean tensor — the per-stage ascending BER schedule itself is
        untouched.  ``1`` is bit-identical to the historical loop.
    dtype:
        Compute precision of training and the per-stage evaluations
        (``numpy.float64`` default or ``numpy.float32``).
    stage_encoding:
        ``"fresh"`` (default) re-draws the sample permutations and
        Poisson encodings at every BER stage — the historical stream.
        ``"shared"`` (minibatch mode only, ``batch_size>1``) encodes
        the training stream once at the first stage and replays the
        recorded minibatches (and their prebuilt sparse drive
        operators) at every later stage
        (:class:`repro.engine.trainer.StageEncodingCache`) — every
        stage then trains on the *same* encoded stream, and the
        replayed stages skip their permutation/encoding draws, so this
        is a result-changing, fingerprinted knob.
    """
    if stage_encoding not in STAGE_ENCODINGS:
        raise ValueError(
            f"stage_encoding must be one of {STAGE_ENCODINGS}, got {stage_encoding!r}"
        )
    if stage_encoding == "shared" and batch_size == 1:
        raise ValueError(
            "stage_encoding='shared' requires batch_size > 1: the bit-exact "
            "sequential reference always re-encodes"
        )
    rng = ensure_rng(rng)
    rates = tuple(sorted(float(r) for r in rates))
    if not rates:
        raise ValueError("need at least one BER stage")
    if any(r < 0 or r > 1 for r in rates):
        raise ValueError("rates must lie in [0, 1]")

    params = NetworkParameters(n_input=baseline.n_input, n_neurons=baseline.n_neurons)
    network = DiehlCookNetwork(params, rng=rng, dtype=dtype)
    baseline.install_into(network)

    accuracy_per_rate: dict = {}
    snapshots: dict = {}
    encoding_cache = (
        StageEncodingCache() if stage_encoding == "shared" else None
    )
    for rate in rates:
        def corrupt(weights: np.ndarray, _rate=rate) -> np.ndarray:
            corrupted, _report = injector.inject_uniform(weights, _rate, rng=rng)
            return corrupted

        # Deployment reads corrupted weights, so both the neuron→class
        # assignment and the stage accuracy are measured under fresh
        # error injection at this stage's BER.
        model = _train_and_score(
            network, dataset, n_steps, epochs_per_rate, rng, read=corrupt,
            encoding_cache=encoding_cache, stdp_parameters=FINE_TUNING_STDP,
            batch_size=batch_size, corrupt_weights=corrupt,
        )
        accuracy_per_rate[rate] = model.accuracy
        model.metadata["fault_aware"] = True
        model.metadata["trained_through_ber"] = rate
        snapshots[rate] = model.copy()

    # Algorithm 1 keeps the model of the stage that met the accuracy
    # target at the *highest* BER; training past the point where the
    # errors overwhelm STDP must not degrade the returned model.  The
    # untouched baseline (model0, trained at BER 0) is always a valid
    # candidate: if no fine-tuned stage meets the target, the framework
    # returns model0 rather than a damaged model.
    snapshots[0.0] = baseline.copy()
    candidate_accuracy = {0.0: baseline.accuracy, **accuracy_per_rate}
    target = baseline.accuracy - accuracy_bound
    candidates = (0.0,) + rates
    passing = [r for r in candidates if candidate_accuracy[r] >= target]
    selected = passing[-1] if passing else max(
        candidates, key=lambda r: candidate_accuracy[r]
    )
    chosen = snapshots[selected]
    return FaultAwareTrainingResult(
        model=chosen,
        rates=rates,
        accuracy_per_rate=accuracy_per_rate,
        selected_rate=selected,
    )


def train_baseline(
    dataset: Dataset,
    n_neurons: int,
    epochs: int = 1,
    n_steps: int = 100,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = 1,
    dtype: np.dtype = np.float64,
) -> TrainedModel:
    """Train the error-free baseline SNN (``model0``).

    ``batch_size``/``dtype`` select the minibatch size and compute
    precision of the STDP engine (see :func:`improve_error_tolerance`).
    """
    rng = ensure_rng(rng)
    params = NetworkParameters(n_input=dataset.train_images.shape[1], n_neurons=n_neurons)
    network = DiehlCookNetwork(params, rng=rng, dtype=dtype)
    return _train_and_score(network, dataset, n_steps, epochs, rng, batch_size=batch_size)


def _train_and_score(
    network, dataset, n_steps, epochs, rng, read=None, encoding_cache=None, **trainer
) -> TrainedModel:
    """Train ``network`` on the training split, label the model on it and
    score it on the test split, both under ``read(weights)`` (the
    trained weights if None); ``trainer`` goes to
    :class:`~repro.engine.BatchedTrainer`."""
    images = dataset.train_images
    fitter = BatchedTrainer(network, **trainer)
    fitter.train(
        images, n_steps=n_steps, epochs=epochs, rng=rng, encoding_cache=encoding_cache
    )
    # The trainers once scored each trained model on the training images
    # (labels, then accuracy), a score the labelling and scoring below
    # overwrote.  Skipping exactly the draws of those two encodings keeps
    # every later draw, result and recorded RNG state as it was.  Delete
    # the skip with the first change that alters results and bumps the
    # stage model version (the fault-aware fine-tuning item of ROADMAP.md).
    skip_spike_trains(rng, 2 * len(images), n_steps, images.shape[1])
    weights = network.weights.copy()
    read_weights = weights if read is None else read(weights)
    evaluator = BatchedEvaluator.for_network(network)
    counts = evaluator.spike_counts(images, n_steps, rng, weights=read_weights)
    assignments = assign_labels(counts, dataset.train_labels)
    accuracy = evaluator.accuracies(
        dataset.test_images, dataset.test_labels, assignments, n_steps, rng,
        weights=read_weights,
    )
    return TrainedModel(
        weights=weights,
        theta=network.theta.copy(),
        assignments=assignments,
        n_input=network.n_input,
        n_neurons=network.n_neurons,
        accuracy=accuracy,
        metadata={
            "epochs": epochs,
            "n_steps": n_steps,
            "train_batch_size": fitter.batch_size,
        },
    )
