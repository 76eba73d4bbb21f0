"""DRAM-side evaluation: mapping + trace execution at every voltage.

Step 4 of the Fig. 7 flow, a function of its own so the energy
experiments (Figs. 12a/12b, Table I) and the staged pipeline's
``DramEvalStage`` share one implementation, and so it can run without
any SNN training at all.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.config import SparkXDConfig
from repro.core.mapping_policy import (
    MAPPING_POLICIES,
    InsufficientSafeCapacityError,
    baseline_mapping,
)
from repro.core.results import VoltageOutcome
from repro.dram.controller import DramController, TraceExecutionResult
from repro.errors.ber import DEFAULT_BER_CURVE
from repro.errors.weak_cells import WeakCellMap
from repro.trace.generator import InferenceTraceSpec, inference_read_trace


def evaluate_dram(
    config: SparkXDConfig,
    n_weights: int,
    bits_per_weight: int,
    ber_threshold: Optional[float],
) -> Tuple[TraceExecutionResult, Dict[float, VoltageOutcome]]:
    """Map the weights and execute the inference trace at every voltage.

    The mapping policy is looked up by ``config.mapping_policy`` in
    :data:`~repro.core.mapping_policy.MAPPING_POLICIES`; the accurate
    baseline at nominal voltage always uses the sequential mapping, so
    savings are measured against the same reference regardless of
    policy.
    """
    controller = DramController(config.dram_spec)
    organization = controller.organization
    weak_cells = WeakCellMap(
        organization, sigma=config.weak_cell_sigma, seed=config.weak_cell_seed
    )
    policy = MAPPING_POLICIES.get(config.mapping_policy)
    trace_spec = InferenceTraceSpec(
        n_weights=n_weights,
        bits_per_weight=bits_per_weight,
        refetch_passes=config.refetch_passes,
    )

    base_map = baseline_mapping(organization, n_weights, bits_per_weight)
    base_trace = inference_read_trace(trace_spec, base_map.slot_of_chunk, organization)
    baseline_dram = controller.execute(base_trace, config.v_nominal)

    outcomes: Dict[float, VoltageOutcome] = {}
    for v in config.voltages:
        device_ber = DEFAULT_BER_CURVE.ber_at(v)
        profile = weak_cells.profile_at(v)
        threshold = ber_threshold if ber_threshold is not None else -1.0
        try:
            mapping = policy(
                organization, n_weights, bits_per_weight, profile, threshold
            )
        except InsufficientSafeCapacityError:
            outcomes[v] = VoltageOutcome(
                v_supply=v,
                device_ber=device_ber,
                feasible=False,
                # Same label a successful mapping by this policy carries,
                # so one record never mixes two names for one policy.
                mapping_policy=getattr(policy, "label", config.mapping_policy),
                result=None,
                energy_saving=0.0,
                speedup=0.0,
            )
            continue
        trace = inference_read_trace(trace_spec, mapping.slot_of_chunk, organization)
        result = controller.execute(trace, v)
        saving = 1.0 - result.energy.total_nj / baseline_dram.energy.total_nj
        speedup = baseline_dram.stats.total_time_ns / result.stats.total_time_ns
        outcomes[v] = VoltageOutcome(
            v_supply=v,
            device_ber=device_ber,
            feasible=True,
            mapping_policy=mapping.policy,
            result=result,
            energy_saving=saving,
            speedup=speedup,
        )
    return baseline_dram, outcomes
