"""Error-tolerance analysis: finding the maximum tolerable BER.

Section IV-C: the accuracy of the (improved) SNN is measured at each
candidate BER; a *linear search* from the minimum rate to the maximum
keeps the largest rate whose accuracy still meets the user-specified
target.  The linear search is sound because the error-tolerance curve
is generally decreasing in BER (Fig. 8) — and the report records the
whole curve so that assumption can be checked.

The resulting ``BER_th`` drives the DRAM mapping (Section IV-D): only
subarrays with error rate ≤ ``BER_th`` may store weights, and (through
the BER(V) curve) it bounds how far the supply voltage can drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.engine import BatchedEvaluator
from repro.errors.ber import DEFAULT_BER_CURVE
from repro.errors.injection import ErrorInjector
from repro.rng import ensure_rng
from repro.snn.training import TrainedModel


@dataclass(frozen=True)
class TolerancePoint:
    """Measured accuracy at one injected BER."""

    ber: float
    accuracy: float
    trials: int


@dataclass(frozen=True)
class ToleranceReport:
    """Outcome of the Section IV-C analysis."""

    points: Tuple[TolerancePoint, ...]
    target_accuracy: float
    ber_threshold: Optional[float]
    baseline_accuracy: float

    @property
    def curve(self) -> Tuple[Tuple[float, float], ...]:
        return tuple((p.ber, p.accuracy) for p in self.points)

    def meets_target(self, ber: float) -> bool:
        """Whether the analysis found ``ber`` tolerable."""
        return self.ber_threshold is not None and ber <= self.ber_threshold

    def min_voltage(self) -> float:
        """Lowest supply voltage whose BER stays within the threshold."""
        if self.ber_threshold is None:
            return DEFAULT_BER_CURVE.v_safe
        return DEFAULT_BER_CURVE.voltage_for_ber(self.ber_threshold)


def analyze_error_tolerance(
    model: TrainedModel,
    dataset: Dataset,
    injector: ErrorInjector,
    rates: Sequence[float],
    baseline_accuracy: float,
    accuracy_bound: float = 0.01,
    n_steps: int = 100,
    trials: int = 1,
    rng: Optional[np.random.Generator] = None,
    dtype: np.dtype = np.float64,
) -> ToleranceReport:
    """Linear search for the maximum tolerable BER (Section IV-C).

    Each rate is measured in one engine pass: the injector produces
    that rate's ``trials`` corrupted-weight stack in a single call, the
    test set is encoded once per rate, and the
    :class:`~repro.engine.BatchedEvaluator` scores all realizations
    against the shared spike trains.

    Parameters
    ----------
    model:
        The (improved) SNN whose tolerance is being analysed.
    baseline_accuracy:
        Accuracy of the baseline SNN with accurate DRAM; the target is
        ``baseline_accuracy - accuracy_bound`` (the paper's "within 1%"
        uses ``accuracy_bound=0.01``).
    trials:
        Error masks are random; averaging over multiple injections per
        rate reduces evaluation noise.
    dtype:
        Compute precision of the evaluation passes (``numpy.float64``
        default or ``numpy.float32``); matches the pipeline's
        ``compute_dtype`` so a float32-trained model is analysed at
        float32 too.
    """
    if accuracy_bound < 0:
        raise ValueError(f"accuracy_bound must be >= 0, got {accuracy_bound}")
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    rng = ensure_rng(rng)
    rates = tuple(sorted(float(r) for r in rates))
    target = baseline_accuracy - accuracy_bound

    evaluator = BatchedEvaluator.for_model(model, dtype=dtype)

    points = []
    ber_threshold: Optional[float] = None
    # One realization stack *per rate* (not rates x trials at once):
    # bounds resident corrupted copies to ``trials`` weight tensors
    # while still amortising encoding and simulation across the trials
    # of each rate.
    for rate in rates:
        stack, _reports = injector.inject_stack(
            model.weights, rate, n_realizations=trials, rng=rng
        )
        accuracies = evaluator.accuracies(
            dataset.test_images,
            dataset.test_labels,
            model.assignments,
            n_steps,
            rng,
            weights=stack,
            # The stack is `trials` corruptions of model.weights: share
            # the clean drive precompute, recomputing only the rows each
            # realization's flipped weights touch (bit-identical).
            base_weights=model.weights,
        )
        accuracy = float(np.mean(np.atleast_1d(accuracies)))
        points.append(TolerancePoint(ber=rate, accuracy=accuracy, trials=trials))
        if accuracy >= target:
            ber_threshold = rate  # linear search keeps the largest passing rate

    return ToleranceReport(
        points=tuple(points),
        target_accuracy=target,
        ber_threshold=ber_threshold,
        baseline_accuracy=baseline_accuracy,
    )
