"""Integration tests across modules: the flows the framework composes."""

import numpy as np
import pytest

from repro.core.mapping_policy import baseline_mapping, sparkxd_mapping
from repro.dram.controller import DramController
from repro.dram.specs import LPDDR3_1600_4GB, tiny_spec
from repro.engine import BatchedEvaluator, BatchedTrainer
from repro.errors.injection import ErrorInjector
from repro.errors.weak_cells import WeakCellMap
from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.quantization import Float32Representation
from repro.snn.training import assign_labels
from repro.trace.generator import InferenceTraceSpec, inference_read_trace


class TestMappingToTraceToEnergy:
    """Mapping policy -> trace -> controller: the Fig. 12 pipeline."""

    def test_sparkxd_beats_baseline_energy_at_reduced_voltage(self):
        controller = DramController(LPDDR3_1600_4GB)
        org = controller.organization
        n_weights = 784 * 100
        spec = InferenceTraceSpec(n_weights=n_weights, bits_per_weight=32)

        base_map = baseline_mapping(org, n_weights, 32)
        base = controller.execute(
            inference_read_trace(spec, base_map.slot_of_chunk, org), 1.35
        )

        profile = WeakCellMap(org, sigma=0.8, seed=0).profile_at(1.025)
        xd_map = sparkxd_mapping(org, n_weights, 32, profile, ber_threshold=1e-3)
        reduced = controller.execute(
            inference_read_trace(spec, xd_map.slot_of_chunk, org), 1.025
        )

        saving = 1 - reduced.energy.total_nj / base.energy.total_nj
        # The paper's headline: ~40% DRAM energy saving at 1.025 V.
        assert saving == pytest.approx(0.40, abs=0.05)

    def test_sparkxd_maintains_throughput(self):
        # Fig. 12(b): ~1.02x speed-up despite derated timings.
        controller = DramController(LPDDR3_1600_4GB)
        org = controller.organization
        n_weights = 784 * 100
        spec = InferenceTraceSpec(n_weights=n_weights, bits_per_weight=32)
        base_map = baseline_mapping(org, n_weights, 32)
        base = controller.execute(
            inference_read_trace(spec, base_map.slot_of_chunk, org), 1.35
        )
        profile = WeakCellMap(org, sigma=0.8, seed=0).profile_at(1.025)
        xd_map = sparkxd_mapping(org, n_weights, 32, profile, 1e-3)
        reduced = controller.execute(
            inference_read_trace(spec, xd_map.slot_of_chunk, org), 1.025
        )
        speedup = base.stats.total_time_ns / reduced.stats.total_time_ns
        assert speedup >= 0.98  # maintains throughput

    def test_both_mappings_are_hit_dominated(self):
        # Both the baseline (sequential) and SparkXD (Algorithm 2)
        # mappings maximise row-buffer hits.
        controller = DramController(tiny_spec())
        org = controller.organization
        n_weights = 64
        spec = InferenceTraceSpec(n_weights=n_weights, bits_per_weight=32)
        base_map = baseline_mapping(org, n_weights, 32)
        base = controller.execute(
            inference_read_trace(spec, base_map.slot_of_chunk, org), 1.35
        )
        profile = WeakCellMap(org, sigma=0.0, seed=0).profile_at(1.1)
        xd_map = sparkxd_mapping(org, n_weights, 32, profile, 1.0)
        xd = controller.execute(
            inference_read_trace(spec, xd_map.slot_of_chunk, org), 1.1
        )
        assert base.stats.hits > 0.8 * base.stats.accesses
        assert xd.stats.hits > 0.8 * xd.stats.accesses


class TestInjectionThroughMapping:
    """Mapping -> per-subarray rates -> injection: the accuracy pipeline."""

    def test_weights_in_safe_subarrays_see_lower_error_rates(self):
        org = DramController(tiny_spec()).organization
        n_weights = 64
        profile_rates = np.zeros(org.total_subarrays)
        profile_rates[:2] = 0.5  # subarrays 0-1 are terrible
        from repro.errors.weak_cells import SubarrayErrorProfile

        profile = SubarrayErrorProfile(
            organization=org, v_supply=1.1, device_ber=0.1, rates=profile_rates
        )
        xd_map = sparkxd_mapping(org, n_weights, 32, profile, ber_threshold=1e-3)
        base_map = baseline_mapping(org, n_weights, 32)

        injector = ErrorInjector(Float32Representation(sanitize=False), seed=0)
        weights = np.random.default_rng(0).random(n_weights).astype(np.float32)

        _, xd_report = injector.inject_by_region(
            weights, xd_map.subarray_of_weight(), profile_rates,
            rng=np.random.default_rng(1),
        )
        _, base_report = injector.inject_by_region(
            weights, base_map.subarray_of_weight(), profile_rates,
            rng=np.random.default_rng(1),
        )
        # SparkXD placed everything in clean subarrays; the baseline
        # streamed into the bad ones.
        assert xd_report.flipped_bits == 0
        assert base_report.flipped_bits > 0


class TestTrainingUnderInjection:
    """SNN training + error injector: the Fig. 11 pipeline."""

    @pytest.mark.slow
    def test_high_ber_hurts_untrained_model(self, mini_mnist):
        rng = np.random.default_rng(3)
        net = DiehlCookNetwork(NetworkParameters(n_neurons=40), rng=rng)
        BatchedTrainer(net).train(mini_mnist.train_images, n_steps=60, rng=rng)
        evaluator = BatchedEvaluator.for_network(net)
        counts = evaluator.spike_counts(
            mini_mnist.train_images, 60, rng, weights=net.weights
        )
        assignments = assign_labels(counts, mini_mnist.train_labels)
        injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=5)

        def accuracy(weights):
            return evaluator.accuracies(
                mini_mnist.test_images, mini_mnist.test_labels,
                assignments, 60, rng, weights=weights,
            )

        clean_acc = accuracy(net.weights)
        corrupted, _ = injector.inject_uniform(net.weights, 0.05)
        noisy_acc = accuracy(corrupted)
        # At a catastrophic BER the receptive fields are destroyed.
        assert noisy_acc < clean_acc
