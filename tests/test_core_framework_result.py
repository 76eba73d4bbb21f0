"""Unit tests of SparkXDResult aggregation (no training involved)."""

import numpy as np
import pytest

from repro.core.config import SparkXDConfig
from repro.core.dram_eval import evaluate_dram
from repro.core.fault_aware_training import FaultAwareTrainingResult
from repro.core.results import SparkXDResult, VoltageOutcome
from repro.core.tolerance_analysis import TolerancePoint, ToleranceReport
from repro.snn.training import TrainedModel


def make_model(accuracy):
    return TrainedModel(
        weights=np.zeros((4, 2)),
        theta=np.zeros(2),
        assignments=np.zeros(2, dtype=np.int64),
        n_input=4,
        n_neurons=2,
        accuracy=accuracy,
    )


def make_result():
    config = SparkXDConfig.small().with_overrides(n_neurons=2)
    baseline_dram, outcomes = evaluate_dram(
        config, n_weights=256, bits_per_weight=32, ber_threshold=1e-3
    )
    baseline = make_model(0.9)
    improved = make_model(0.89)
    training = FaultAwareTrainingResult(
        model=improved, rates=(1e-5, 1e-3),
        accuracy_per_rate={1e-5: 0.9, 1e-3: 0.89}, selected_rate=1e-3,
    )
    tolerance = ToleranceReport(
        points=(TolerancePoint(1e-5, 0.9, 1), TolerancePoint(1e-3, 0.89, 1)),
        target_accuracy=0.85,
        ber_threshold=1e-3,
        baseline_accuracy=0.9,
    )
    return SparkXDResult(
        config=config,
        baseline_model=baseline,
        improved_model=improved,
        training=training,
        tolerance=tolerance,
        baseline_dram=baseline_dram,
        outcomes=outcomes,
    )


class TestResultAggregation:
    def test_mean_energy_saving_over_feasible_only(self):
        result = make_result()
        feasible = [o.energy_saving for o in result.outcomes.values() if o.feasible]
        assert result.mean_energy_saving() == pytest.approx(np.mean(feasible))

    def test_ber_threshold_passthrough(self):
        result = make_result()
        assert result.ber_threshold == 1e-3

    def test_summary_lists_every_voltage(self):
        result = make_result()
        text = result.summary()
        for v in result.config.voltages:
            assert f"{v:.3f} V" in text
        assert "mean energy saving" in text

    def test_infeasible_outcomes_marked(self):
        result = make_result()
        # force one outcome infeasible and re-summarise
        v = min(result.outcomes)
        result.outcomes[v] = VoltageOutcome(
            v_supply=v, device_ber=1e-3, feasible=False,
            mapping_policy="sparkxd-algorithm2", result=None,
            energy_saving=0.0, speedup=0.0,
        )
        assert "infeasible" in result.summary()
        assert result.mean_energy_saving() > 0  # other voltages still count

    def test_no_feasible_outcomes_mean_is_zero(self):
        result = make_result()
        for v in list(result.outcomes):
            result.outcomes[v] = VoltageOutcome(
                v_supply=v, device_ber=1e-3, feasible=False,
                mapping_policy="sparkxd-algorithm2", result=None,
                energy_saving=0.0, speedup=0.0,
            )
        assert result.mean_energy_saving() == 0.0
