"""The SparkXD framework: the paper's primary contribution.

Three mechanisms (Fig. 7):

1. :mod:`repro.core.fault_aware_training` — improve the SNN's error
   tolerance by training with progressively increasing injected BER
   (Section IV-B, Algorithm 1);
2. :mod:`repro.core.tolerance_analysis` — find the maximum tolerable
   BER meeting the user's accuracy bound (Section IV-C, Fig. 8);
3. :mod:`repro.core.mapping_policy` — place the weights in safe DRAM
   subarrays while maximising row-buffer hits and multi-bank bursts
   (Section IV-D, Algorithm 2).

:class:`repro.pipeline.ExperimentPipeline` runs all three end to end,
after training the baseline; :func:`repro.core.dram_eval.evaluate_dram`
is the DRAM step alone.
"""

from repro.core.config import SparkXDConfig
from repro.core.mapping_policy import (
    MAPPING_POLICIES,
    WeightMapping,
    baseline_mapping,
    sparkxd_mapping,
    InsufficientSafeCapacityError,
)
from repro.core.fault_aware_training import (
    FaultAwareTrainingResult,
    improve_error_tolerance,
)
from repro.core.tolerance_analysis import (
    TolerancePoint,
    ToleranceReport,
    analyze_error_tolerance,
)
from repro.core.dram_eval import evaluate_dram
from repro.core.results import SparkXDResult, VoltageOutcome
from repro.core.voltage_selection import VoltageDecision, select_operating_voltage

__all__ = [
    "MAPPING_POLICIES",
    "evaluate_dram",
    "VoltageOutcome",
    "VoltageDecision",
    "select_operating_voltage",
    "SparkXDConfig",
    "WeightMapping",
    "baseline_mapping",
    "sparkxd_mapping",
    "InsufficientSafeCapacityError",
    "FaultAwareTrainingResult",
    "improve_error_tolerance",
    "TolerancePoint",
    "ToleranceReport",
    "analyze_error_tolerance",
    "SparkXDResult",
]
