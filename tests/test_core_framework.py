"""Tests of the SparkXD run configuration, DRAM evaluation and end-to-end run."""

import pytest

from repro.core.config import PAPER_BER_RATES, PAPER_VOLTAGES, SparkXDConfig
from repro.core.dram_eval import evaluate_dram
from repro.core.mapping_policy import baseline_mapping, sparkxd_mapping
from repro.dram.controller import DramController
from repro.dram.specs import LPDDR3_1600_4GB
from repro.pipeline import ExperimentPipeline
from repro.errors.weak_cells import WeakCellMap
from repro.snn.network import PAPER_NETWORK_SIZES
from repro.trace.generator import InferenceTraceSpec, inference_read_trace


class TestConfig:
    def test_defaults_follow_paper(self):
        cfg = SparkXDConfig()
        assert cfg.ber_rates == PAPER_BER_RATES
        assert cfg.voltages == PAPER_VOLTAGES
        assert cfg.accuracy_bound == 0.01  # "within 1%"
        assert cfg.v_nominal == pytest.approx(1.35)

    def test_paper_voltages_are_fig12_corners(self):
        assert PAPER_VOLTAGES == (1.325, 1.250, 1.175, 1.100, 1.025)

    def test_with_overrides(self):
        cfg = SparkXDConfig().with_overrides(n_neurons=123)
        assert cfg.n_neurons == 123
        assert cfg.dataset == "mnist"

    def test_small_preset_valid(self):
        cfg = SparkXDConfig.small()
        assert cfg.n_neurons < 400

    def test_paper_preset_sizes(self):
        cfg = SparkXDConfig.paper(n_neurons=900, dataset="fashion")
        assert cfg.n_neurons == 900
        assert cfg.dataset == "fashion"
        assert cfg.accuracy_bound == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_train": 0},
            {"n_neurons": 0},
            {"ber_rates": ()},
            {"ber_rates": (2.0,)},
            {"accuracy_bound": -0.1},
            {"voltages": ()},
            {"voltages": (1.5,)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SparkXDConfig(**kwargs)


class TestEvaluateDram:
    """evaluate_dram runs without any SNN training, so it tests fast."""

    @pytest.fixture
    def config(self):
        return SparkXDConfig.small(weak_cell_sigma=0.5, weak_cell_seed=1)

    def test_baseline_runs_at_nominal_voltage(self, config):
        baseline, _ = evaluate_dram(
            config, n_weights=4096, bits_per_weight=32, ber_threshold=1e-3
        )
        assert baseline.v_supply == pytest.approx(1.35)
        assert baseline.stats.accesses == 4096 // 2  # 2 fp32 weights per slot

    def test_feasible_voltages_save_energy(self, config):
        baseline, outcomes = evaluate_dram(
            config, n_weights=4096, bits_per_weight=32, ber_threshold=1e-3
        )
        feasible = [o for o in outcomes.values() if o.feasible]
        assert feasible, "expected at least one feasible voltage"
        for outcome in feasible:
            assert outcome.energy_saving > 0
            assert outcome.result.stats.accesses == baseline.stats.accesses

    def test_savings_grow_as_voltage_drops(self, config):
        _, outcomes = evaluate_dram(
            config, n_weights=4096, bits_per_weight=32, ber_threshold=1.0
        )
        voltages = sorted(outcomes)
        savings = [outcomes[v].energy_saving for v in voltages]
        assert all(a > b for a, b in zip(savings, savings[1:]))

    def test_tight_threshold_makes_low_voltages_infeasible(self, config):
        _, outcomes = evaluate_dram(
            config, n_weights=4096, bits_per_weight=32, ber_threshold=1e-12
        )
        assert not outcomes[1.025].feasible
        assert outcomes[1.025].result is None

    def test_none_threshold_treated_as_intolerant(self, config):
        _, outcomes = evaluate_dram(
            config, n_weights=4096, bits_per_weight=32, ber_threshold=None
        )
        assert not any(o.feasible for o in outcomes.values())

    @pytest.mark.parametrize("n_neurons", PAPER_NETWORK_SIZES, ids=lambda n: f"N{n}")
    def test_matches_the_fig12_procedure(self, n_neurons):
        """Fig. 12, step by step: the sequential baseline at 1.35 V against
        Algorithm 2 at BER_th = 1e-3 over weak cells at sigma 0.8 and
        seed 0, one pass, on LPDDR3.  Every energy, saving and speed-up
        is the one ``evaluate_dram`` reports."""
        n_weights = 784 * n_neurons
        config = SparkXDConfig(voltages=PAPER_VOLTAGES, weak_cell_sigma=0.8)
        baseline, outcomes = evaluate_dram(config, n_weights, 32, 1e-3)

        controller = DramController(LPDDR3_1600_4GB)
        org = controller.organization
        weak_cells = WeakCellMap(org, sigma=0.8, seed=0)
        spec = InferenceTraceSpec(n_weights=n_weights, bits_per_weight=32)
        base_map = baseline_mapping(org, n_weights, 32)
        base = controller.execute(
            inference_read_trace(spec, base_map.slot_of_chunk, org), 1.35
        )
        assert baseline.energy.total_mj == base.energy.total_mj
        for v in PAPER_VOLTAGES:
            mapping = sparkxd_mapping(org, n_weights, 32, weak_cells.profile_at(v), 1e-3)
            result = controller.execute(
                inference_read_trace(spec, mapping.slot_of_chunk, org), v
            )
            outcome = outcomes[v]
            assert outcome.feasible
            assert outcome.result.energy.total_mj == result.energy.total_mj
            assert outcome.energy_saving == 1 - result.energy.total_nj / base.energy.total_nj
            assert outcome.speedup == base.stats.total_time_ns / result.stats.total_time_ns


class TestEndToEnd:
    @pytest.mark.slow
    def test_small_run_produces_complete_result(self):
        config = SparkXDConfig.small(
            n_train=50, n_test=30, n_neurons=20, n_steps=40,
            baseline_epochs=1, ber_rates=(1e-5, 1e-3), accuracy_bound=0.3,
        )
        result = ExperimentPipeline(config).run()
        assert 0.0 <= result.baseline_model.accuracy <= 1.0
        assert set(result.outcomes) == set(config.voltages)
        assert result.training.rates == (1e-5, 1e-3)
        assert len(result.tolerance.points) == 2
        summary = result.summary()
        assert "baseline accuracy" in summary
        assert "mean energy saving" in summary
        assert isinstance(result.mean_energy_saving(), float)
