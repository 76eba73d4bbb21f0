"""DRAM substrate: organization, voltage dynamics, timing, energy, controller.

This package substitutes for the two hardware-facing tools of the paper's
evaluation flow (Fig. 10): the SPICE DRAM circuit model of Chang et al.
(used for array-voltage dynamics and voltage-dependent timing parameters)
and DRAMPower (used for command-level access energy).
"""

from repro.dram.specs import DramSpec, LPDDR3_1600_4GB
from repro.dram.organization import DramOrganization
from repro.dram.voltage import ArrayVoltageModel
from repro.dram.timing import TimingParameters, timing_for_voltage
from repro.dram.commands import CommandKind, AccessCondition
from repro.dram.row_buffer import RowBufferSimulator
from repro.dram.energy import DramEnergyModel, AccessEnergyBreakdown
from repro.dram.controller import DramController, TraceExecutionResult

__all__ = [
    "DramSpec",
    "LPDDR3_1600_4GB",
    "DramOrganization",
    "ArrayVoltageModel",
    "TimingParameters",
    "timing_for_voltage",
    "CommandKind",
    "AccessCondition",
    "RowBufferSimulator",
    "DramEnergyModel",
    "AccessEnergyBreakdown",
    "DramController",
    "TraceExecutionResult",
]
