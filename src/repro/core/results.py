"""Result types of a SparkXD run.

A module of their own, so the staged pipeline (:mod:`repro.pipeline`)
and the DRAM evaluation (:mod:`repro.core.dram_eval`) share them
without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.config import SparkXDConfig
from repro.core.fault_aware_training import FaultAwareTrainingResult
from repro.core.tolerance_analysis import ToleranceReport
from repro.dram.controller import TraceExecutionResult
from repro.snn.training import TrainedModel


@dataclass(frozen=True)
class VoltageOutcome:
    """Energy/latency of SparkXD at one reduced supply voltage."""

    v_supply: float
    device_ber: float
    feasible: bool
    mapping_policy: str
    result: Optional[TraceExecutionResult]
    energy_saving: float
    speedup: float


@dataclass
class SparkXDResult:
    """Everything a SparkXD run produced."""

    config: SparkXDConfig
    baseline_model: TrainedModel
    improved_model: TrainedModel
    training: FaultAwareTrainingResult
    tolerance: ToleranceReport
    baseline_dram: TraceExecutionResult
    outcomes: Dict[float, VoltageOutcome] = field(default_factory=dict)

    @property
    def ber_threshold(self) -> Optional[float]:
        return self.tolerance.ber_threshold

    def mean_energy_saving(self) -> float:
        feasible = [o.energy_saving for o in self.outcomes.values() if o.feasible]
        return float(np.mean(feasible)) if feasible else 0.0

    def summary(self) -> str:
        lines = [
            f"SparkXD run: {self.config.dataset}, N{self.config.n_neurons}",
            f"  baseline accuracy (accurate DRAM): {self.baseline_model.accuracy:.3f}",
            f"  improved accuracy (max-BER DRAM):  {self.improved_model.accuracy:.3f}",
            f"  max tolerable BER: {self.ber_threshold}",
            f"  baseline DRAM energy: {self.baseline_dram.energy.total_mj:.4f} mJ @ "
            f"{self.baseline_dram.v_supply:.3f} V",
        ]
        for v, outcome in sorted(self.outcomes.items(), reverse=True):
            if outcome.feasible:
                lines.append(
                    f"  {v:.3f} V: energy saving {outcome.energy_saving:.1%}, "
                    f"speed-up {outcome.speedup:.2f}x"
                )
            else:
                lines.append(f"  {v:.3f} V: infeasible (BER above tolerance)")
        lines.append(f"  mean energy saving: {self.mean_energy_saving():.1%}")
        return "\n".join(lines)
