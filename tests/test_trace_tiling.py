"""Tests of the on-chip buffer / tiling model."""

import pytest

from repro.trace.tiling import (
    SCHEDULES,
    buffer_sweep,
    refetch_passes_for_buffer,
)


class TestWeightStationary:
    def test_fitting_tensor_streams_once(self):
        plan = refetch_passes_for_buffer(
            n_weights=1000, bits_per_weight=32, buffer_bits=64_000, n_timesteps=100
        )
        assert plan.refetch_passes == 1
        assert plan.total_traffic_bits == 32_000

    def test_oversized_tensor_restreams(self):
        plan = refetch_passes_for_buffer(
            n_weights=1000, bits_per_weight=32, buffer_bits=8_000, n_timesteps=100
        )
        assert plan.refetch_passes == 4  # ceil(32000 / 8000)
        assert plan.total_traffic_bits == 4 * 32_000

    def test_passes_capped_by_timesteps(self):
        plan = refetch_passes_for_buffer(
            n_weights=1000, bits_per_weight=32, buffer_bits=100, n_timesteps=5
        )
        assert plan.refetch_passes == 5

    def test_traffic_monotone_in_buffer_size(self):
        plans = buffer_sweep(
            n_weights=10_000, bits_per_weight=32,
            buffer_sizes_bits=(1_000, 10_000, 100_000, 10_000_000),
            n_timesteps=100,
        )
        traffic = [p.total_traffic_bits for p in plans]
        assert all(a >= b for a, b in zip(traffic, traffic[1:]))


class TestOutputStationary:
    def test_always_one_pass(self):
        plan = refetch_passes_for_buffer(
            n_weights=10_000, bits_per_weight=32, buffer_bits=100,
            n_timesteps=100, schedule="output-stationary",
        )
        assert plan.refetch_passes == 1

    def test_beats_weight_stationary_for_tiny_buffers(self):
        kwargs = dict(
            n_weights=10_000, bits_per_weight=32, buffer_bits=1_000, n_timesteps=50
        )
        ws = refetch_passes_for_buffer(schedule="weight-stationary", **kwargs)
        os_ = refetch_passes_for_buffer(schedule="output-stationary", **kwargs)
        assert os_.total_traffic_bits < ws.total_traffic_bits


class TestValidation:
    def test_schedules_listed(self):
        assert SCHEDULES == ("weight-stationary", "output-stationary")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_weights": 0},
            {"bits_per_weight": 0},
            {"buffer_bits": 0},
            {"n_timesteps": 0},
            {"schedule": "nope"},
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        base = dict(
            n_weights=100, bits_per_weight=32, buffer_bits=1000, n_timesteps=10
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            refetch_passes_for_buffer(**base)
