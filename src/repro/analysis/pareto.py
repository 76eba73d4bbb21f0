"""Accuracy-versus-energy trade-off exploration.

The paper fixes the accuracy bound at 1% and reports the resulting
energy saving.  A system designer usually wants the whole frontier:
*how much more energy could I save if I accepted 2%? 5%?*  This module
sweeps the accuracy bound, re-runs the tolerance decision and the
voltage selection for each, and reports the frontier — an extension
experiment enabled by (not contained in) the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.tolerance_analysis import ToleranceReport
from repro.core.voltage_selection import VoltageDecision, select_operating_voltage
from repro.dram.specs import DramSpec


@dataclass(frozen=True)
class ParetoPoint:
    """One accuracy-bound corner of the trade-off frontier."""

    accuracy_bound: float
    ber_threshold: Optional[float]
    decision: VoltageDecision

    @property
    def energy_saving(self) -> float:
        return self.decision.estimated_access_saving

    @property
    def v_selected(self) -> float:
        return self.decision.v_selected


def tolerance_frontier(
    report: ToleranceReport,
    spec: DramSpec,
    n_weights: int,
    bits_per_weight: int,
    accuracy_bounds: Sequence[float] = (0.005, 0.01, 0.02, 0.05, 0.10),
) -> Tuple[ParetoPoint, ...]:
    """The energy-saving frontier across accuracy bounds.

    Reuses the measured tolerance *curve* (accuracy at each BER) so no
    retraining or re-evaluation is needed: each bound just moves the
    pass/fail line, reselecting ``BER_th`` and the operating voltage.
    """
    if not report.points:
        raise ValueError("tolerance report has no measured points")
    points = []
    for bound in sorted(accuracy_bounds):
        if bound < 0:
            raise ValueError(f"accuracy bounds must be >= 0, got {bound}")
        target = report.baseline_accuracy - bound
        passing = [p.ber for p in report.points if p.accuracy >= target]
        threshold = max(passing) if passing else None
        decision = select_operating_voltage(spec, n_weights, bits_per_weight, threshold)
        points.append(
            ParetoPoint(accuracy_bound=bound, ber_threshold=threshold, decision=decision)
        )
    return tuple(points)
