"""DRAM controller: ties organization, row buffer, timing and energy.

The controller is the entry point other packages use: give it a trace of
flat slot indices and a supply voltage, and it returns a
:class:`TraceExecutionResult` with row-buffer statistics, execution
time and the full energy breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.dram.energy import DramEnergyModel, TraceEnergyBreakdown
from repro.dram.organization import DramOrganization
from repro.dram.row_buffer import RowBufferSimulator, TraceStatistics
from repro.dram.specs import DramSpec
from repro.dram.timing import TimingParameters, timing_for_voltage


@dataclass(frozen=True)
class TraceExecutionResult:
    """Everything one trace execution produced."""

    v_supply: float
    timing: TimingParameters
    stats: TraceStatistics
    energy: TraceEnergyBreakdown


class DramController:
    """Executes access traces against one DRAM device at one voltage."""

    def __init__(self, spec: DramSpec):
        spec.validate()
        self.spec = spec
        self.organization = DramOrganization(spec)
        self.energy_model = DramEnergyModel(spec)

    def execute(
        self,
        trace: Union[Sequence[int], np.ndarray],
        v_supply: float,
        write: bool = False,
    ) -> TraceExecutionResult:
        """Run the slot trace ``trace`` at ``v_supply``; statistics + energy.

        ``write=True`` models write traffic (e.g. training weight
        write-back).
        """
        timing = timing_for_voltage(self.spec, v_supply)
        stats = RowBufferSimulator(self.organization, timing).run(trace, write=write)
        energy = self.energy_model.trace_energy(stats, v_supply)
        return TraceExecutionResult(
            v_supply=v_supply, timing=timing, stats=stats, energy=energy
        )
