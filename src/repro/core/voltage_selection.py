"""Selecting the DRAM operating voltage from a tolerance report.

This is the implicit final step of the paper's flow: after the
error-tolerance analysis yields ``BER_th``, the system must choose the
*lowest* supply voltage that is simultaneously

1. **tolerable** — the device BER at that voltage does not exceed
   ``BER_th`` (through the BER(V) curve of Fig. 2c), and
2. **mappable** — the subarrays whose error rate is at or below
   ``BER_th`` still have capacity for the weight tensor (Algorithm 2's
   feasibility condition; weak-cell variation means some subarrays
   exceed the device mean).

The paper evaluates a fixed voltage grid (Fig. 12a); this module
searches that grid and reports the best feasible corner and its
expected energy saving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.config import PAPER_VOLTAGES
from repro.core.mapping_policy import (
    InsufficientSafeCapacityError,
    sparkxd_mapping,
)
from repro.dram.energy import DramEnergyModel
from repro.dram.organization import DramOrganization
from repro.dram.specs import DramSpec
from repro.errors.ber import DEFAULT_BER_CURVE
from repro.errors.weak_cells import WeakCellMap


@dataclass(frozen=True)
class VoltageDecision:
    """Outcome of the operating-point search."""

    v_selected: float
    ber_threshold: float
    device_ber: float
    safe_subarray_fraction: float
    estimated_access_saving: float
    #: corners rejected and why ('ber' or 'capacity'), lowest first.
    rejected: Tuple[Tuple[float, str], ...]


def select_operating_voltage(
    spec: DramSpec,
    n_weights: int,
    bits_per_weight: int,
    ber_threshold: Optional[float],
) -> VoltageDecision:
    """Choose the lowest feasible voltage for a weight tensor.

    Falls back to the nominal (accurate-DRAM) voltage when no reduced
    corner is feasible, e.g. when ``ber_threshold`` is ``None`` because
    the tolerance analysis found no passing BER.
    """
    if n_weights <= 0 or bits_per_weight <= 0:
        raise ValueError("n_weights and bits_per_weight must be > 0")
    organization = DramOrganization(spec)
    weak_cells = WeakCellMap(organization)
    energy = DramEnergyModel(spec)
    v_nominal = spec.electrical.v_nominal_volts
    threshold = ber_threshold if ber_threshold is not None else -1.0

    rejected = []
    for v in sorted(PAPER_VOLTAGES):  # lowest (best saving) first
        device_ber = DEFAULT_BER_CURVE.ber_at(v)
        profile = weak_cells.profile_at(v)
        if threshold < 0:
            rejected.append((v, "ber"))
            continue
        try:
            sparkxd_mapping(organization, n_weights, bits_per_weight, profile, threshold)
        except InsufficientSafeCapacityError:
            rejected.append((v, "capacity"))
            continue
        return VoltageDecision(
            v_selected=v,
            ber_threshold=threshold,
            device_ber=device_ber,
            safe_subarray_fraction=profile.safe_fraction(threshold),
            estimated_access_saving=energy.energy_per_access_saving(v),
            rejected=tuple(rejected),
        )

    return VoltageDecision(
        v_selected=v_nominal,
        ber_threshold=max(threshold, 0.0),
        device_ber=0.0,
        safe_subarray_fraction=1.0,
        estimated_access_saving=0.0,
        rejected=tuple(rejected),
    )
