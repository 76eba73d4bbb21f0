"""Tests of the staged pipeline: stages, caching, facade equivalence."""

import numpy as np
import pytest

from repro import SparkXDConfig
from repro.pipeline import (
    ArtifactStore,
    DramEvalStage,
    ExperimentPipeline,
    default_stages,
)

TINY = SparkXDConfig.small(
    n_train=40,
    n_test=25,
    n_neurons=12,
    n_steps=30,
    baseline_epochs=1,
    ber_rates=(1e-5, 1e-3),
    accuracy_bound=0.5,
)


@pytest.fixture(scope="module")
def warm_store():
    """One trained run shared by every test in this module."""
    store = ArtifactStore()
    ExperimentPipeline(TINY, store=store).run()
    return store


class TestStageChain:
    def test_default_chain_order(self):
        names = [stage.name for stage in default_stages()]
        assert names == [
            "train-baseline",
            "fault-aware-train",
            "tolerance-analysis",
            "dram-eval",
        ]

    def test_every_requirement_is_provided_upstream(self):
        provided = set()
        for stage in default_stages():
            assert set(stage.requires) <= provided, stage.name
            provided.add(stage.provides)

    def test_missing_prerequisite_raises(self):
        pipeline = ExperimentPipeline(TINY, stages=[DramEvalStage()])
        with pytest.raises(ValueError, match="requires artifacts"):
            pipeline.run_stages()

    def test_partial_chain_rejected_by_run(self, warm_store):
        pipeline = ExperimentPipeline(
            TINY, stages=default_stages()[:2], store=warm_store
        )
        with pytest.raises(ValueError, match="produced no"):
            pipeline.run()


@pytest.mark.slow
class TestCaching:
    def test_full_rerun_hits_every_stage(self, warm_store):
        before = warm_store.stats.snapshot()
        ExperimentPipeline(TINY, store=warm_store).run()
        assert warm_store.stats.hits - before.hits == 4
        assert warm_store.stats.misses == before.misses

    def test_cached_run_equals_fresh_run(self, warm_store):
        cached = ExperimentPipeline(TINY, store=warm_store).run()
        fresh = ExperimentPipeline(TINY).run()  # fresh store: recomputes
        assert np.array_equal(cached.baseline_model.weights, fresh.baseline_model.weights)
        assert np.array_equal(cached.improved_model.weights, fresh.improved_model.weights)
        assert cached.baseline_model.accuracy == fresh.baseline_model.accuracy
        assert cached.tolerance == fresh.tolerance
        assert cached.training.accuracy_per_rate == fresh.training.accuracy_per_rate
        assert cached.outcomes == fresh.outcomes
        assert cached.summary() == fresh.summary()

    def test_dram_override_reuses_training(self, warm_store):
        swept = TINY.with_overrides(voltages=(1.175,), mapping_policy="baseline")
        before = warm_store.stats.snapshot()
        result = ExperimentPipeline(swept, store=warm_store).run()
        # three training-side hits, one dram-eval miss
        assert warm_store.stats.hits - before.hits == 3
        assert warm_store.stats.misses - before.misses == 1
        assert set(result.outcomes) == {1.175}
        assert result.outcomes[1.175].mapping_policy in (
            "baseline-sequential",
            "baseline",
        )

    def test_training_override_invalidates(self, warm_store):
        from repro.pipeline.store import MISS

        changed = TINY.with_overrides(seed=TINY.seed + 1)
        # Different seed: every stage fingerprint changes, so nothing
        # cached for TINY applies (checked via keys, not a retrain).
        for stage in default_stages():
            assert stage.cache_key(changed) != stage.cache_key(TINY)
            assert warm_store.get(stage.name, stage.cache_key(changed)) is MISS


class TestEngineSwitch:
    """Config switches of the simulation: the error model is one; the
    former ``engine`` switch is gone and stays rejected on the wire."""

    def test_unknown_engine_rejected_by_config(self):
        payload = TINY.to_wire()
        payload["engine"] = "batched"
        with pytest.raises(ValueError, match="engine"):
            SparkXDConfig.from_wire(payload)

    def test_error_model_invalidates_training_fingerprints(self):
        from repro.pipeline.stages import FaultAwareTrainStage, TrainBaselineStage

        eden = TINY.with_overrides(error_model="eden")
        assert (
            FaultAwareTrainStage().cache_key(TINY)
            != FaultAwareTrainStage().cache_key(eden)
        )
        # the baseline trains without error injection: unaffected
        assert (
            TrainBaselineStage().cache_key(TINY)
            == TrainBaselineStage().cache_key(eden)
        )

    def test_unknown_error_model_rejected_by_config(self):
        with pytest.raises(ValueError):
            TINY.with_overrides(error_model="model99")


class TestTrainingEngineFingerprints:
    """train_batch_size / compute_dtype change results, so they must
    invalidate the whole training chain."""

    def test_train_batch_size_invalidates_every_stage(self):
        minibatched = TINY.with_overrides(train_batch_size=8)
        for stage in default_stages():
            assert stage.cache_key(TINY) != stage.cache_key(minibatched)

    def test_compute_dtype_invalidates_every_stage(self):
        f32 = TINY.with_overrides(compute_dtype="float32")
        for stage in default_stages():
            assert stage.cache_key(TINY) != stage.cache_key(f32)

    def test_distinct_batch_sizes_get_distinct_keys(self):
        keys = {
            default_stages()[0].cache_key(TINY.with_overrides(train_batch_size=b))
            for b in (1, 2, 16)
        }
        assert len(keys) == 3

    def test_invalid_values_rejected_by_config(self):
        with pytest.raises(ValueError):
            TINY.with_overrides(train_batch_size=0)
        with pytest.raises(ValueError):
            TINY.with_overrides(compute_dtype="float16")

    def test_minibatch_pipeline_runs_end_to_end(self):
        result = ExperimentPipeline(
            TINY.with_overrides(train_batch_size=4, compute_dtype="float32"),
            store=ArtifactStore(),
        ).run()
        assert result.improved_model.weights.dtype == np.dtype(np.float32)
        assert 0.0 <= result.improved_model.accuracy <= 1.0


class TestStageTimings:
    def test_timings_recorded_for_executed_stages(self):
        pipeline = ExperimentPipeline(TINY, store=ArtifactStore())
        pipeline.run()
        assert set(pipeline.stage_timings) == {
            "train-baseline",
            "fault-aware-train",
            "tolerance-analysis",
            "dram-eval",
        }
        assert all(t >= 0 for t in pipeline.stage_timings.values())

    def test_cached_stages_have_no_timing(self, warm_store):
        pipeline = ExperimentPipeline(TINY, store=warm_store)
        pipeline.run()
        assert pipeline.stage_timings == {}


class TestDeclaredFieldsInvalidateCache:
    """Every declared fingerprint field really invalidates its stage.

    This is the cache-invalidation contract the ``repro lint``
    fingerprint-completeness rule protects from the source side: a
    field in a stage's ``fields`` tuple must change that stage's cache
    key when it changes, else declaring it was meaningless.
    """

    # One valid perturbation per config field (applied to TINY).
    PERTURBATIONS = {
        "dataset": "synthetic-blobs",
        "n_train": TINY.n_train + 1,
        "n_test": TINY.n_test + 1,
        "dataset_seed": TINY.dataset_seed + 1,
        "n_neurons": TINY.n_neurons + 4,
        "n_steps": TINY.n_steps + 1,
        "baseline_epochs": TINY.baseline_epochs + 1,
        "epochs_per_rate": TINY.epochs_per_rate + 1,
        "train_batch_size": TINY.train_batch_size + 1,
        "compute_dtype": "float32",
        "stage_encoding": "shared",
        "ber_rates": (1e-4,),
        "accuracy_bound": TINY.accuracy_bound + 0.01,
        "tolerance_trials": TINY.tolerance_trials + 1,
        "error_model": "eden",
        "representation": "int8",
        "voltages": (1.175,),
        "mapping_policy": "baseline",
        "weak_cell_sigma": TINY.weak_cell_sigma + 0.1,
        "weak_cell_seed": TINY.weak_cell_seed + 1,
        "refetch_passes": TINY.refetch_passes + 1,
        "seed": TINY.seed + 1,
    }

    def test_every_declared_field_changes_the_cache_key(self):
        for stage in default_stages():
            for field in stage.fields:
                if field == "dram_spec":
                    continue  # perturbed separately below
                base = TINY
                if field == "stage_encoding":
                    # "shared" is only valid in minibatch mode; perturb
                    # from a batched base so only this field changes.
                    base = TINY.with_overrides(train_batch_size=2)
                changed = base.with_overrides(**{field: self.PERTURBATIONS[field]})
                assert stage.cache_key(changed) != stage.cache_key(base), (
                    f"{stage.name}: declared field {field!r} does not "
                    "invalidate the stage fingerprint"
                )

    def test_dram_spec_changes_the_dram_key(self):
        from repro.dram.specs import get_dram_spec

        changed = TINY.with_overrides(dram_spec=get_dram_spec("tiny"))
        stage = DramEvalStage()
        assert stage.cache_key(changed) != stage.cache_key(TINY)

    def test_undeclared_fields_leave_the_key_alone(self):
        # The complement: a field *outside* a stage's tuple must not
        # split its cache (here: DRAM-side knobs vs the training stage).
        from repro.pipeline import TrainBaselineStage

        stage = TrainBaselineStage()
        for field in ("voltages", "mapping_policy", "tolerance_trials"):
            changed = TINY.with_overrides(**{field: self.PERTURBATIONS[field]})
            assert stage.cache_key(changed) == stage.cache_key(TINY)
