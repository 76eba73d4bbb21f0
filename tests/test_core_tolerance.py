"""Tests of the error-tolerance analysis (Section IV-C)."""

import numpy as np
import pytest

from repro.core.tolerance_analysis import (
    ToleranceReport,
    TolerancePoint,
    analyze_error_tolerance,
)
from repro.core.fault_aware_training import train_baseline
from repro.errors.ber import DEFAULT_BER_CURVE
from repro.errors.injection import ErrorInjector
from repro.snn.quantization import Float32Representation


@pytest.fixture(scope="module")
def trained():
    from repro.datasets import load_dataset

    dataset = load_dataset("mnist", 60, 40, seed=7)
    model = train_baseline(
        dataset, n_neurons=25, epochs=1, n_steps=50, rng=np.random.default_rng(2)
    )
    return dataset, model


class TestAnalysis:
    def test_report_has_one_point_per_rate(self, trained):
        dataset, model = trained
        injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=1)
        report = analyze_error_tolerance(
            model,
            dataset,
            injector,
            rates=(1e-7, 1e-5, 1e-3),
            baseline_accuracy=model.accuracy,
            accuracy_bound=0.10,
            n_steps=50,
            rng=np.random.default_rng(0),
        )
        assert len(report.points) == 3
        assert [p.ber for p in report.points] == [1e-7, 1e-5, 1e-3]
        assert report.target_accuracy == pytest.approx(model.accuracy - 0.10)

    def test_generous_bound_accepts_highest_rate(self, trained):
        dataset, model = trained
        injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=1)
        report = analyze_error_tolerance(
            model,
            dataset,
            injector,
            rates=(1e-9, 1e-7),
            baseline_accuracy=model.accuracy,
            accuracy_bound=1.0,  # everything passes
            n_steps=50,
            rng=np.random.default_rng(0),
        )
        assert report.ber_threshold == 1e-7

    def test_impossible_bound_returns_none(self, trained):
        dataset, model = trained
        injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=1)
        report = analyze_error_tolerance(
            model,
            dataset,
            injector,
            rates=(1e-7,),
            baseline_accuracy=1.1,  # unreachable target
            accuracy_bound=0.0,
            n_steps=50,
            rng=np.random.default_rng(0),
        )
        assert report.ber_threshold is None
        assert not report.meets_target(1e-9)

    def test_validation(self, trained):
        dataset, model = trained
        injector = ErrorInjector(Float32Representation(), seed=1)
        with pytest.raises(ValueError):
            analyze_error_tolerance(
                model, dataset, injector, rates=(1e-5,),
                baseline_accuracy=0.8, accuracy_bound=-0.1,
            )
        with pytest.raises(ValueError):
            analyze_error_tolerance(
                model, dataset, injector, rates=(1e-5,),
                baseline_accuracy=0.8, trials=0,
            )


class TestReport:
    def _report(self, threshold):
        return ToleranceReport(
            points=(
                TolerancePoint(1e-7, 0.9, 1),
                TolerancePoint(1e-5, 0.88, 1),
            ),
            target_accuracy=0.87,
            ber_threshold=threshold,
            baseline_accuracy=0.89,
        )

    def test_curve(self):
        report = self._report(1e-5)
        assert report.curve == ((1e-7, 0.9), (1e-5, 0.88))

    def test_meets_target(self):
        report = self._report(1e-5)
        assert report.meets_target(1e-6)
        assert report.meets_target(1e-5)
        assert not report.meets_target(1e-4)

    def test_min_voltage_inverts_ber_curve(self):
        report = self._report(1e-5)
        v = report.min_voltage()
        assert DEFAULT_BER_CURVE.ber_at(v) <= 1e-5 * (1 + 1e-9)

    def test_min_voltage_without_threshold_is_safe(self):
        report = self._report(None)
        assert report.min_voltage() == DEFAULT_BER_CURVE.v_safe
