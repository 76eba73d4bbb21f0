"""Composable pipeline stages and their executor.

The Fig. 7 flow decomposes into four stages, each a small object with

- ``name`` — its identity in the artifact cache and progress output;
- ``requires`` / ``provides`` — the artifact keys it consumes/produces;
- ``fields`` — the :class:`~repro.core.config.SparkXDConfig` attributes
  its computation depends on (the basis of its cache fingerprint);
- ``run(context, artifacts)`` — the computation itself.

``fields`` grow monotonically along the chain (each stage's set is a
superset of its predecessor's), which makes caching sound: two configs
that agree on a stage's fields agree on everything that influenced the
cached artifact, including its recorded RNG state.

:class:`ExperimentPipeline` executes the stages in order against an
:class:`~repro.pipeline.store.ArtifactStore`, skipping any stage whose
artifact is already cached, and assembles the
:class:`~repro.core.results.SparkXDResult`.
"""

from __future__ import annotations

import abc
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SparkXDConfig
from repro.core.dram_eval import evaluate_dram
from repro.core.fault_aware_training import improve_error_tolerance, train_baseline
from repro.core.results import SparkXDResult
from repro.core.tolerance_analysis import analyze_error_tolerance
from repro.datasets import load_dataset
from repro.errors.injection import ErrorInjector
from repro.errors.models import make_error_model
from repro.pipeline.artifacts import (
    BaselineArtifact,
    DramArtifact,
    ToleranceArtifact,
    TrainingArtifact,
)
from repro.pipeline.store import MISS, ArtifactStore, config_fingerprint
from repro.rng import restored_rng
from repro.snn.quantization import make_representation
from repro.telemetry import timed_span

# ----------------------------------------------------------------------
# Config-field groups, cumulative along the stage chain.
WORKLOAD_FIELDS: Tuple[str, ...] = ("dataset", "n_train", "n_test", "dataset_seed")
BASELINE_FIELDS: Tuple[str, ...] = WORKLOAD_FIELDS + (
    "n_neurons",
    "n_steps",
    "baseline_epochs",
    "representation",
    "seed",
    # These two change the trained weights and so invalidate the
    # training chain.
    "train_batch_size",
    "compute_dtype",
)
TRAINING_FIELDS: Tuple[str, ...] = BASELINE_FIELDS + (
    "ber_rates",
    "epochs_per_rate",
    "accuracy_bound",
    "error_model",
    # "shared" replays the first stage's encoded stream at every later
    # BER stage — result-changing, so it invalidates the training chain.
    "stage_encoding",
)
TOLERANCE_FIELDS: Tuple[str, ...] = TRAINING_FIELDS + ("tolerance_trials",)
DRAM_FIELDS: Tuple[str, ...] = TOLERANCE_FIELDS + (
    "dram_spec",
    "voltages",
    "mapping_policy",
    "weak_cell_sigma",
    "weak_cell_seed",
    "refetch_passes",
)


class StageContext:
    """Lazily-built shared inputs of one pipeline execution.

    Everything here is a pure function of the config (dataset
    generation, storage representation, error injector), so a run whose
    stages all hit the cache never pays for building any of it.
    """

    def __init__(self, config: SparkXDConfig):
        self.config = config

    @cached_property
    def dataset(self):
        cfg = self.config
        return load_dataset(cfg.dataset, cfg.n_train, cfg.n_test, cfg.dataset_seed)

    @cached_property
    def representation(self):
        cfg = self.config
        if cfg.representation in ("float32", "fp32"):
            # Decoded weights saturate into the synapse's physical range.
            return make_representation(cfg.representation, clip_range=(0.0, 1.0))
        return make_representation(cfg.representation)

    @cached_property
    def injector(self) -> ErrorInjector:
        return ErrorInjector(
            self.representation,
            model=make_error_model(self.config.error_model),
            seed=self.config.seed + 1,
        )


class Stage(abc.ABC):
    """One step of the experiment pipeline."""

    name: str
    requires: Tuple[str, ...] = ()
    provides: str
    #: Config attributes the stage output depends on (cache fingerprint).
    fields: Tuple[str, ...] = ()

    def cache_key(self, config: SparkXDConfig) -> str:
        return config_fingerprint(config, self.fields)

    @abc.abstractmethod
    def run(self, context: StageContext, artifacts: Dict[str, object]):
        """Compute this stage's artifact from ``context`` + prerequisites."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class TrainBaselineStage(Stage):
    """Step 1: train the error-free baseline SNN (``model0``)."""

    name = "train-baseline"
    requires = ()
    provides = "baseline"
    # ``representation`` is fingerprinted one stage early (the injector
    # consumes it from fault-aware training onwards); keeping the field
    # groups strictly cumulative beats saving one spurious cache split.
    fields = BASELINE_FIELDS  # lint: disable=fingerprint-completeness

    def run(self, context, artifacts) -> BaselineArtifact:
        cfg = context.config
        rng = np.random.default_rng(cfg.seed)
        model = train_baseline(
            context.dataset,
            cfg.n_neurons,
            epochs=cfg.baseline_epochs,
            n_steps=cfg.n_steps,
            rng=rng,
            batch_size=cfg.train_batch_size,
            dtype=np.dtype(cfg.compute_dtype),
        )
        return BaselineArtifact(model=model, rng_state=rng.bit_generator.state)


class FaultAwareTrainStage(Stage):
    """Step 2: Algorithm 1 — progressive fault-aware fine-tuning."""

    name = "fault-aware-train"
    requires = ("baseline",)
    provides = "training"
    fields = TRAINING_FIELDS

    def run(self, context, artifacts) -> TrainingArtifact:
        cfg = context.config
        baseline: BaselineArtifact = artifacts["baseline"]
        rng = restored_rng(baseline.rng_state)
        training = improve_error_tolerance(
            baseline.model,
            context.dataset,
            context.injector,
            rates=cfg.ber_rates,
            epochs_per_rate=cfg.epochs_per_rate,
            n_steps=cfg.n_steps,
            accuracy_bound=cfg.accuracy_bound,
            rng=rng,
            batch_size=cfg.train_batch_size,
            dtype=np.dtype(cfg.compute_dtype),
            stage_encoding=cfg.stage_encoding,
        )
        return TrainingArtifact(training=training, rng_state=rng.bit_generator.state)


class ToleranceStage(Stage):
    """Step 3: find the maximum tolerable BER (Section IV-C)."""

    name = "tolerance-analysis"
    requires = ("baseline", "training")
    provides = "tolerance"
    fields = TOLERANCE_FIELDS

    def run(self, context, artifacts) -> ToleranceArtifact:
        cfg = context.config
        baseline: BaselineArtifact = artifacts["baseline"]
        training: TrainingArtifact = artifacts["training"]
        rng = restored_rng(training.rng_state)
        report = analyze_error_tolerance(
            training.model,
            context.dataset,
            context.injector,
            rates=cfg.ber_rates,
            baseline_accuracy=baseline.model.accuracy,
            accuracy_bound=cfg.accuracy_bound,
            n_steps=cfg.n_steps,
            trials=cfg.tolerance_trials,
            rng=rng,
            dtype=np.dtype(cfg.compute_dtype),
        )
        return ToleranceArtifact(report=report, rng_state=rng.bit_generator.state)


class DramEvalStage(Stage):
    """Step 4: DRAM mapping + trace execution at every voltage."""

    name = "dram-eval"
    requires = ("baseline", "tolerance")
    provides = "dram"
    fields = DRAM_FIELDS

    def run(self, context, artifacts) -> DramArtifact:
        baseline: BaselineArtifact = artifacts["baseline"]
        tolerance: ToleranceArtifact = artifacts["tolerance"]
        baseline_dram, outcomes = evaluate_dram(
            context.config,
            n_weights=baseline.model.weights.size,
            bits_per_weight=context.representation.bits_per_weight,
            ber_threshold=tolerance.ber_threshold,
        )
        return DramArtifact(baseline_dram=baseline_dram, outcomes=outcomes)


def default_stage_classes() -> Tuple[type, ...]:
    """The canonical stage classes, in execution order.

    The sweep runner and the cluster coordinator/worker both construct
    per-depth chain prefixes from this tuple, so a "run the chain up to
    depth *d*" job means the same thing on every host.
    """
    return (
        TrainBaselineStage,
        FaultAwareTrainStage,
        ToleranceStage,
        DramEvalStage,
    )


def default_stages() -> Tuple[Stage, ...]:
    """The canonical four-stage SparkXD chain, in execution order."""
    return tuple(cls() for cls in default_stage_classes())


class ExperimentPipeline:
    """Execute a stage chain for one config against an artifact store.

    >>> store = ArtifactStore()
    >>> result = ExperimentPipeline(config, store=store).run()
    >>> # same training fields, new voltages: training stages hit cache
    >>> warm = ExperimentPipeline(
    ...     config.with_overrides(voltages=(1.175,)), store=store
    ... ).run()
    """

    def __init__(
        self,
        config: SparkXDConfig | None = None,
        stages: Optional[Sequence[Stage]] = None,
        store: Optional[ArtifactStore] = None,
    ):
        self.config = config or SparkXDConfig()
        self.stages = tuple(stages) if stages is not None else default_stages()
        self.store = store if store is not None else ArtifactStore()
        #: Wall-clock seconds per *executed* stage of the latest
        #: :meth:`run_stages` call (cache hits don't appear: restoring
        #: an artifact costs no stage time worth recording).  Backed by
        #: the telemetry stage spans: each value is the ``duration_s``
        #: of the ``stage.<name>`` span around the same ``run()`` call,
        #: i.e. the same ``perf_counter()`` delta as before telemetry.
        self.stage_timings: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def run_stages(self) -> Dict[str, object]:
        """Run (or restore) every stage; return artifacts by key."""
        artifacts: Dict[str, object] = {}
        context: Optional[StageContext] = None
        self.stage_timings = {}
        for stage in self.stages:
            digest = stage.cache_key(self.config)
            cached = self.store.get(stage.name, digest)
            if cached is not MISS:
                artifacts[stage.provides] = cached
                continue
            missing = [key for key in stage.requires if key not in artifacts]
            if missing:
                raise ValueError(
                    f"stage {stage.name!r} requires artifacts {missing} that no "
                    "earlier stage provides; check the stage chain order"
                )
            if context is None:
                context = StageContext(self.config)
            with timed_span(f"stage.{stage.name}", fingerprint=digest) as stage_span:
                artifact = stage.run(context, artifacts)
            self.stage_timings[stage.name] = stage_span.duration_s
            self.store.put(stage.name, digest, artifact)
            artifacts[stage.provides] = artifact
        return artifacts

    def run(self) -> SparkXDResult:
        """Run the default chain and assemble a :class:`SparkXDResult`."""
        artifacts = self.run_stages()
        for key in ("baseline", "training", "tolerance", "dram"):
            if key not in artifacts:
                raise ValueError(
                    f"stage chain produced no {key!r} artifact; "
                    "use run_stages() for custom chains"
                )
        baseline: BaselineArtifact = artifacts["baseline"]
        training: TrainingArtifact = artifacts["training"]
        tolerance: ToleranceArtifact = artifacts["tolerance"]
        dram: DramArtifact = artifacts["dram"]
        return SparkXDResult(
            config=self.config,
            baseline_model=baseline.model,
            improved_model=training.model,
            training=training.training,
            tolerance=tolerance.report,
            baseline_dram=dram.baseline_dram,
            outcomes=dram.outcomes,
        )
