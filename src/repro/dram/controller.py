"""DRAM controller: ties organization, row buffer, timing and energy.

The controller is the entry point other packages use: give it a trace of
column-slot accesses (flat slot indices or coordinates) and a supply
voltage, and it returns a :class:`TraceExecutionResult` with row-buffer
statistics, execution time and the full energy breakdown.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from repro.dram.energy import DramEnergyModel, TraceEnergyBreakdown
from repro.dram.organization import DramCoordinate, DramOrganization
from repro.dram.row_buffer import RowBufferSimulator, TraceStatistics
from repro.dram.specs import DramSpec
from repro.dram.timing import TimingParameters, timing_for_voltage
from repro.dram.voltage import ArrayVoltageModel

TraceLike = Union[Sequence[int], np.ndarray, Iterable[DramCoordinate]]


@dataclass(frozen=True)
class TraceExecutionResult:
    """Everything one trace execution produced."""

    v_supply: float
    timing: TimingParameters
    stats: TraceStatistics
    energy: TraceEnergyBreakdown

    @property
    def total_time_ns(self) -> float:
        return self.stats.total_time_ns

    def summary(self) -> str:
        s = self.stats
        return (
            f"V={self.v_supply:.3f}V accesses={s.accesses} "
            f"hit/miss/conflict={s.hits}/{s.misses}/{s.conflicts} "
            f"time={s.total_time_ns / 1e3:.2f}us "
            f"energy={self.energy.total_nj / 1e6:.4f}mJ"
        )


class DramController:
    """Executes access traces against one DRAM device at one voltage."""

    def __init__(
        self,
        spec: DramSpec,
        voltage_model: ArrayVoltageModel | None = None,
        energy_model: DramEnergyModel | None = None,
    ):
        spec.validate()
        self.spec = spec
        self.organization = DramOrganization(spec)
        self.voltage_model = voltage_model or ArrayVoltageModel(
            v_nominal=spec.electrical.v_nominal_volts
        )
        self.energy_model = energy_model or DramEnergyModel(spec, self.voltage_model)

    def _slot_array(self, trace: TraceLike) -> np.ndarray:
        """``trace`` as one int64 array of flat slot indices."""
        if isinstance(trace, np.ndarray):
            return trace.astype(np.int64, copy=False)
        slot_of = self.organization.slot_of
        return np.array(
            [slot_of(item) if isinstance(item, DramCoordinate) else int(item) for item in trace],
            dtype=np.int64,
        )

    def execute(
        self,
        trace: TraceLike,
        v_supply: float,
        write: bool = False,
        include_refresh: bool = False,
    ) -> TraceExecutionResult:
        """Run ``trace`` at ``v_supply`` and return statistics + energy.

        ``trace`` may contain flat slot indices (ints) or
        :class:`DramCoordinate` objects, in access order.  ``write=True``
        models write traffic (e.g. training weight write-back);
        ``include_refresh`` adds the background refresh energy accrued
        over the execution window (see :mod:`repro.dram.refresh`).
        """
        timing = timing_for_voltage(self.spec, v_supply, self.voltage_model)
        simulator = RowBufferSimulator(self.organization, timing)
        stats = simulator.run(self._slot_array(trace), write=write)
        energy = self.energy_model.trace_energy(stats, v_supply)
        if include_refresh:
            from repro.dram.refresh import RefreshModel

            refresh_nj = RefreshModel(self.spec, voltage_model=self.voltage_model).refresh_energy_nj(
                stats.total_time_ns, v_supply
            )
            energy = dataclasses.replace(
                energy, idle_standby_nj=energy.idle_standby_nj + refresh_nj
            )
        return TraceExecutionResult(
            v_supply=v_supply, timing=timing, stats=stats, energy=energy
        )
