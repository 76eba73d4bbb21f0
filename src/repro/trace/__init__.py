"""SNN inference → DRAM access trace generation."""

from repro.trace.generator import InferenceTraceSpec, inference_read_trace
from repro.trace.tiling import (
    TiledInferencePlan,
    buffer_sweep,
    refetch_passes_for_buffer,
)

__all__ = [
    "TiledInferencePlan",
    "buffer_sweep",
    "refetch_passes_for_buffer",
    "InferenceTraceSpec",
    "inference_read_trace",
]
