"""Tests of inference trace generation."""

import numpy as np
import pytest

from repro.dram.controller import DramController
from repro.dram.organization import DramOrganization
from repro.dram.specs import tiny_spec
from repro.trace.generator import InferenceTraceSpec, inference_read_trace


@pytest.fixture
def org():
    return DramOrganization(tiny_spec())


class TestTraceSpec:
    def test_total_bits(self):
        spec = InferenceTraceSpec(n_weights=10, bits_per_weight=8)
        assert spec.total_bits() == 80

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_weights": 0, "bits_per_weight": 8},
            {"n_weights": 4, "bits_per_weight": 0},
            {"n_weights": 4, "bits_per_weight": 8, "refetch_passes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            InferenceTraceSpec(**kwargs)


class TestTraceGeneration:
    def test_trace_matches_mapping_order(self, org):
        spec = InferenceTraceSpec(n_weights=8, bits_per_weight=32)
        slots = np.array([5, 3, 9, 1, 0, 2, 7, 4], dtype=np.int64)
        trace = inference_read_trace(spec, slots, org)
        assert np.array_equal(trace, slots)

    def test_refetch_tiles_the_trace(self, org):
        spec = InferenceTraceSpec(n_weights=4, bits_per_weight=32, refetch_passes=3)
        slots = np.array([0, 1, 2, 3], dtype=np.int64)
        trace = inference_read_trace(spec, slots, org)
        assert trace.shape == (12,)
        assert np.array_equal(trace[4:8], slots)

    @pytest.mark.parametrize("n_weights,bits,chunks", [(4, 8, 1), (5, 8, 2), (2, 32, 2)])
    def test_chunk_count_math(self, org, n_weights, bits, chunks):
        # tiny spec: 32-bit slots -> one int8 chunk holds 4 weights
        spec = InferenceTraceSpec(n_weights=n_weights, bits_per_weight=bits)
        assert inference_read_trace(spec, np.arange(chunks), org).shape == (chunks,)
        with pytest.raises(ValueError, match="chunks"):
            inference_read_trace(spec, np.arange(chunks + 1), org)

    def test_wrong_chunk_count_rejected(self, org):
        spec = InferenceTraceSpec(n_weights=8, bits_per_weight=32)
        with pytest.raises(ValueError, match="chunks"):
            inference_read_trace(spec, np.arange(3), org)

    def test_out_of_device_slot_rejected(self, org):
        spec = InferenceTraceSpec(n_weights=1, bits_per_weight=32)
        with pytest.raises(IndexError):
            inference_read_trace(spec, np.array([org.total_slots]), org)

    def test_duplicate_slots_rejected(self, org):
        spec = InferenceTraceSpec(n_weights=2, bits_per_weight=32)
        with pytest.raises(ValueError, match="same DRAM slot"):
            inference_read_trace(spec, np.array([3, 3]), org)

    def test_refetch_scales_energy(self, org):
        # 64 fp32 weights in 64 slots, read once or twice per inference
        controller = DramController(org.spec)
        energies = []
        for passes in (1, 2):
            spec = InferenceTraceSpec(n_weights=64, bits_per_weight=32, refetch_passes=passes)
            trace = inference_read_trace(spec, np.arange(64), org)
            energies.append(controller.execute(trace, 1.35).energy.total_nj)
        assert energies[1] == pytest.approx(2 * energies[0], rel=0.1)
