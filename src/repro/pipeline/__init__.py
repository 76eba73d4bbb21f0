"""The staged experiment pipeline: compose, cache, sweep.

The Fig. 7 flow is exposed as four composable stages —
``train-baseline`` → ``fault-aware-train`` → ``tolerance-analysis`` →
``dram-eval`` — executed by :class:`ExperimentPipeline` against a
content-addressed :class:`ArtifactStore`, and fanned out over parameter
grids by :class:`Runner`.

Staged usage::

    from repro import SparkXDConfig
    from repro.pipeline import ArtifactStore, ExperimentPipeline, Runner

    store = ArtifactStore()                      # or ArtifactStore("cache/")
    result = ExperimentPipeline(SparkXDConfig.small(), store=store).run()

    # Sweep DRAM-side knobs on 4 localhost worker subprocesses: the SNN
    # above is NOT retrained.
    records = Runner(SparkXDConfig.small(), store=store, max_workers=4).run(
        {"voltages": [(1.325,), (1.175,), (1.025,)],
         "mapping_policy": ["sparkxd", "baseline"]}
    )
"""

from repro.pipeline.artifacts import (
    BaselineArtifact,
    DramArtifact,
    ToleranceArtifact,
    TrainingArtifact,
)
from repro.pipeline.runner import Runner, RunRecord, VoltagePoint, sweep_grid
from repro.pipeline.stages import (
    DramEvalStage,
    ExperimentPipeline,
    FaultAwareTrainStage,
    Stage,
    StageContext,
    ToleranceStage,
    TrainBaselineStage,
    default_stage_classes,
    default_stages,
)
from repro.pipeline.store import (
    ArtifactStore,
    CacheStats,
    PruneReport,
    canonical_form,
    config_fingerprint,
    fingerprint,
)

__all__ = [
    "ArtifactStore",
    "BaselineArtifact",
    "CacheStats",
    "canonical_form",
    "DramArtifact",
    "DramEvalStage",
    "ExperimentPipeline",
    "FaultAwareTrainStage",
    "PruneReport",
    "Runner",
    "RunRecord",
    "Stage",
    "StageContext",
    "ToleranceArtifact",
    "ToleranceStage",
    "TrainBaselineStage",
    "TrainingArtifact",
    "VoltagePoint",
    "config_fingerprint",
    "default_stage_classes",
    "default_stages",
    "fingerprint",
    "sweep_grid",
]
