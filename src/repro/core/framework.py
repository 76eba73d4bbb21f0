"""The SparkXD orchestrator: the full Fig. 7 pipeline, end to end.

Inputs: an SNN model + workload, an accuracy target, a DRAM
configuration and its reduced supply voltage(s).  Steps:

1. train the baseline SNN (no DRAM errors) — the comparison partner;
2. **improve the SNN error tolerance** by fault-aware training over the
   ascending BER schedule (Section IV-B);
3. **analyse the improved model's error tolerance** to find the maximum
   tolerable BER, ``BER_th`` (Section IV-C);
4. **map the weights to DRAM** with Algorithm 2 using the per-subarray
   error profile at each reduced voltage, then execute the inference
   read trace to obtain energy and throughput versus the accurate-DRAM
   baseline (Section IV-D + Section VI).

Since the staged-pipeline redesign, :class:`SparkXD` is a thin facade
over :class:`repro.pipeline.ExperimentPipeline`: the four steps above
are the pipeline's four stages, results are byte-identical at a fixed
seed, and passing an :class:`~repro.pipeline.ArtifactStore` lets
repeated runs reuse cached stage artifacts (e.g. a sweep over voltages
trains the SNN once).  The result types (:class:`SparkXDResult`,
:class:`VoltageOutcome`) live in :mod:`repro.core.results`; step 4
alone, without an SNN, is :func:`repro.core.dram_eval.evaluate_dram`.
"""

from __future__ import annotations

from repro.core.config import SparkXDConfig
from repro.core.results import SparkXDResult

__all__ = ["SparkXD"]


class SparkXD:
    """Run the complete SparkXD framework from one config.

    Parameters
    ----------
    config:
        The run configuration; defaults to :class:`SparkXDConfig`'s
        paper-flavoured defaults.
    store:
        Optional :class:`repro.pipeline.ArtifactStore`.  When given,
        stage artifacts (trained models, tolerance reports, DRAM
        evaluations) are cached by config fingerprint and reused by any
        later run — through this facade or the staged API — whose
        config matches.
    """

    def __init__(self, config: SparkXDConfig | None = None, store=None):
        self.config = config or SparkXDConfig()
        self.store = store

    # ------------------------------------------------------------------
    def run(self) -> SparkXDResult:
        """Execute all four stages and assemble a :class:`SparkXDResult`."""
        from repro.pipeline import ExperimentPipeline

        return ExperimentPipeline(self.config, store=self.store).run()
