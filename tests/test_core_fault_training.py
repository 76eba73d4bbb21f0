"""Tests of fault-aware training (Algorithm 1)."""

import numpy as np
import pytest
from snn_oracle import reference_improve_error_tolerance, reference_train_baseline

from repro.core.fault_aware_training import (
    default_ber_schedule,
    improve_error_tolerance,
    train_baseline,
)
from repro.errors.injection import ErrorInjector
from repro.errors.models import ErrorModel0, ErrorModelEden
from repro.snn.network import NetworkParameters
from repro.snn.quantization import Float32Representation


class TestSchedule:
    def test_default_schedule_spans_paper_range(self):
        rates = default_ber_schedule()
        assert rates[0] == pytest.approx(1e-9)
        assert rates[-1] == pytest.approx(1e-3)

    def test_geometric_progression(self):
        rates = default_ber_schedule(1e-8, 1e-4, factor=100.0)
        assert len(rates) == 3
        assert rates[1] / rates[0] == pytest.approx(100.0)

    def test_ragged_maximum_included_once(self):
        rates = default_ber_schedule(1e-6, 5e-4, factor=10.0)
        assert rates[-1] == pytest.approx(5e-4)
        assert len(rates) == len(set(rates))

    def test_validation(self):
        with pytest.raises(ValueError):
            default_ber_schedule(1e-3, 1e-6)
        with pytest.raises(ValueError):
            default_ber_schedule(1e-6, 1e-3, factor=1.0)


@pytest.fixture(scope="module")
def small_baseline():
    """One baseline model shared by the fault-aware tests (trains once)."""
    from repro.datasets import load_dataset

    dataset = load_dataset("mnist", 60, 40, seed=7)
    rng = np.random.default_rng(11)
    model = train_baseline(dataset, n_neurons=25, epochs=1, n_steps=50, rng=rng)
    return dataset, model


class TestTrainBaseline:
    def test_baseline_learns(self, small_baseline):
        _dataset, model = small_baseline
        assert model.accuracy > 0.25
        assert model.weights.shape == (784, 25)

    def test_accuracy_is_test_split_accuracy(self, small_baseline):
        _, model = small_baseline
        assert 0.0 <= model.accuracy <= 1.0


class TestImproveErrorTolerance:
    def test_progressive_training_records_every_stage(self, small_baseline):
        dataset, baseline = small_baseline
        injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=3)
        result = improve_error_tolerance(
            baseline,
            dataset,
            injector,
            rates=(1e-5, 1e-3),
            epochs_per_rate=1,
            n_steps=50,
            rng=np.random.default_rng(5),
        )
        assert result.rates == (1e-5, 1e-3)
        assert set(result.accuracy_per_rate) == {1e-5, 1e-3}
        assert result.model.metadata["fault_aware"] is True

    def test_selected_stage_is_highest_passing_or_best(self, small_baseline):
        dataset, baseline = small_baseline
        injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=3)
        result = improve_error_tolerance(
            baseline,
            dataset,
            injector,
            rates=(1e-5, 1e-3),
            epochs_per_rate=1,
            n_steps=50,
            accuracy_bound=0.10,
            rng=np.random.default_rng(5),
        )
        target = baseline.accuracy - 0.10
        # the untouched baseline is always a candidate at rate 0.0
        candidate_accuracy = {0.0: baseline.accuracy}
        candidate_accuracy.update(result.accuracy_per_rate)
        passing = [
            r for r in (0.0,) + result.rates if candidate_accuracy[r] >= target
        ]
        assert result.selected_rate == passing[-1]
        assert result.model.accuracy == candidate_accuracy[result.selected_rate]

    def test_rates_sorted_ascending(self, small_baseline):
        dataset, baseline = small_baseline
        injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=3)
        result = improve_error_tolerance(
            baseline,
            dataset,
            injector,
            rates=(1e-3, 1e-5),  # unordered on purpose
            epochs_per_rate=1,
            n_steps=40,
            rng=np.random.default_rng(5),
        )
        assert result.rates == (1e-5, 1e-3)

    def test_weights_stay_in_range(self, small_baseline):
        dataset, baseline = small_baseline
        injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=3)
        result = improve_error_tolerance(
            baseline,
            dataset,
            injector,
            rates=(1e-3,),
            epochs_per_rate=1,
            n_steps=40,
            rng=np.random.default_rng(5),
        )
        assert np.all(result.model.weights >= 0.0)
        assert np.all(result.model.weights <= 1.0)
        assert np.all(np.isfinite(result.model.weights))

    def test_validation(self, small_baseline):
        dataset, baseline = small_baseline
        injector = ErrorInjector(Float32Representation(), seed=3)
        with pytest.raises(ValueError):
            improve_error_tolerance(baseline, dataset, injector, rates=())
        with pytest.raises(ValueError):
            improve_error_tolerance(baseline, dataset, injector, rates=(2.0,))


def _model_bytes(model):
    return (
        model.weights.dtype,
        model.weights.tobytes(),
        model.theta.tobytes(),
        model.assignments.dtype,
        model.assignments.tobytes(),
        model.accuracy,
        model.metadata,
    )


class TestSkippedScoringMatchesOracle:
    """The pipeline trainers skip train_unsupervised's discarded scoring.

    They advance the generator past exactly its draws, so models, stage
    accuracies and the final generator state equal the oracle's, which
    still scores and discards.
    """

    @pytest.mark.parametrize(
        "batch_size, stage_encoding, error_model",
        [
            (1, "fresh", ErrorModel0),
            (1, "fresh", ErrorModelEden),
            (4, "fresh", ErrorModel0),
            (4, "shared", ErrorModel0),
        ],
        ids=["B1-model0", "B1-eden", "B4-fresh", "B4-shared"],
    )
    def test_matches_scoring_trainers(self, batch_size, stage_encoding, error_model):
        from repro.datasets import load_dataset

        dataset = load_dataset("mnist", 30, 20, seed=7)

        def pipeline(baseline_fn, improve_fn):
            rng = np.random.default_rng(5)
            baseline = baseline_fn(
                dataset, n_neurons=20, n_steps=30, rng=rng, batch_size=batch_size
            )
            injector = ErrorInjector(
                Float32Representation(clip_range=(0, 1)), model=error_model(), seed=3
            )
            result = improve_fn(
                baseline,
                dataset,
                injector,
                rates=(1e-4, 1e-2),
                n_steps=30,
                rng=rng,
                batch_size=batch_size,
                stage_encoding=stage_encoding,
            )
            return baseline, result, rng.bit_generator.state

        base, result, state = pipeline(train_baseline, improve_error_tolerance)
        ref_base, ref_result, ref_state = pipeline(
            reference_train_baseline, reference_improve_error_tolerance
        )
        assert _model_bytes(base) == _model_bytes(ref_base)
        assert _model_bytes(result.model) == _model_bytes(ref_result.model)
        assert result.accuracy_per_rate == ref_result.accuracy_per_rate
        assert result.selected_rate == ref_result.selected_rate
        assert state == ref_state
        assert (base.assignments >= 0).any()  # labelled, not vacuous
