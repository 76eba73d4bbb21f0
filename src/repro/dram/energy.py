"""DRAMPower-substitute: command-level DRAM access energy.

Energy is split into three physically distinct components:

1. **Array charge energy** — swinging the bitlines and moving data
   through the array.  Charging a capacitance ``C`` to voltage ``V``
   costs ``C V²`` however long it takes, so this component scales with
   the *square* of the supply voltage.  The paper's Table I per-access
   savings (3.92/14.29/24.33/33.59/42.40 % at 1.325…1.025 V) match
   ``1 - (V/1.35)²`` within a third of a percentage point — Table I is
   the pure-array (row-buffer-hit) access.
2. **Peripheral charge energy** — the command's share spent in domains
   that do *not* follow the scaled array rail: the boosted wordline
   supply (VPP) during ACT, the equalisation drivers during PRE, the
   I/O path during RD/WR.  This fraction is fixed per command
   (``PERIPHERAL_FRACTION``), which is why the per-*condition* savings
   of Fig. 2(b) span ~31–42 %: a hit is nearly all array energy
   (~42 % saving), a conflict carries the ACT+PRE peripheral overhead
   (~31 %).
3. **Standby (background) energy** — bias power integrated over time.
   Standby power scales ~V² (current ∝ V), but the windows (tRAS, tRP,
   total runtime) *stretch* by the array derating factor at reduced
   voltage, partially cancelling the saving.  This is why whole-
   inference savings (Fig. 12a, ~39.5 % at 1.025 V) land slightly below
   the hit-access 42.4 %.

Absolute scales are calibrated to the nJ range of Fig. 2(b): ~3 nJ
row-buffer hit, ~5.8 nJ miss, ~7.3 nJ conflict at 1.35 V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.dram.commands import (
    COMMANDS_FOR_CONDITION,
    AccessCondition,
    CommandKind,
)
from repro.dram.row_buffer import TraceStatistics
from repro.dram.specs import DramSpec
from repro.dram.timing import timing_for_voltage

#: Fraction of each command's charge energy spent in fixed-voltage
#: peripheral domains (VPP wordline boost, equalisation drivers, I/O).
PERIPHERAL_FRACTION: Dict[CommandKind, float] = {
    CommandKind.ACT: 0.29,
    CommandKind.PRE: 0.68,
    CommandKind.RD: 0.0,
    CommandKind.WR: 0.0,
}

#: PRE moves less charge than ACT but drives the equalisation network;
#: its nominal energy is idd0 * V * tRP scaled by this factor.
_PRECHARGE_ENERGY_FACTOR = 1.25


@dataclass(frozen=True)
class AccessEnergyBreakdown:
    """Energy of one access, split by physical origin (nanojoules)."""

    condition: AccessCondition
    v_supply: float
    array_nj: float
    peripheral_nj: float
    standby_nj: float
    per_command_nj: Mapping[CommandKind, float]

    @property
    def total_nj(self) -> float:
        return self.array_nj + self.peripheral_nj + self.standby_nj


@dataclass(frozen=True)
class TraceEnergyBreakdown:
    """Energy of a whole trace execution (nanojoules)."""

    v_supply: float
    array_nj: float
    peripheral_nj: float
    active_standby_nj: float
    idle_standby_nj: float

    @property
    def total_nj(self) -> float:
        return (
            self.array_nj
            + self.peripheral_nj
            + self.active_standby_nj
            + self.idle_standby_nj
        )

    @property
    def total_mj(self) -> float:
        return self.total_nj * 1e-6  # nJ -> mJ


class DramEnergyModel:
    """Command-level energy model for one device spec."""

    def __init__(self, spec: DramSpec):
        spec.validate()
        self.spec = spec
        self._v_nom = spec.electrical.v_nominal_volts
        elec = spec.electrical
        nominal = spec.timings
        # Nominal charge energies, nJ: I[mA] * V[V] * t[ns] * 1e-3 -> nJ.
        self._charge_nominal_nj: Dict[CommandKind, float] = {
            CommandKind.ACT: elec.idd0_ma * self._v_nom * nominal.t_ras_ns * 1e-3,
            CommandKind.PRE: elec.idd0_ma
            * self._v_nom
            * nominal.t_rp_ns
            * _PRECHARGE_ENERGY_FACTOR
            * 1e-3,
            CommandKind.RD: elec.idd4r_ma
            * self._v_nom
            * nominal.burst_length
            * nominal.clock_ns
            / 2.0
            * 1e-3,
            CommandKind.WR: elec.idd4w_ma
            * self._v_nom
            * nominal.burst_length
            * nominal.clock_ns
            / 2.0
            * 1e-3,
        }

    # ------------------------------------------------------------------
    # scaling laws
    # ------------------------------------------------------------------
    def _check_voltage(self, v_supply: float) -> None:
        elec = self.spec.electrical
        if not 0.5 * elec.v_min_volts <= v_supply <= 1.1 * elec.v_nominal_volts:
            raise ValueError(
                f"v_supply {v_supply} V outside plausible range for {self.spec.name}"
            )

    def charge_scale(self, v_supply: float) -> float:
        """Dynamic (CV²) scaling of array energy versus nominal."""
        self._check_voltage(v_supply)
        return (v_supply / self._v_nom) ** 2

    def standby_power_mw(self, v_supply: float, active: bool) -> float:
        """Standby power in mW; current ∝ V so power ∝ V²."""
        self._check_voltage(v_supply)
        elec = self.spec.electrical
        idd = elec.idd3n_ma if active else elec.idd2n_ma
        return idd * v_supply * (v_supply / self._v_nom)

    # ------------------------------------------------------------------
    # per-command / per-access energy
    # ------------------------------------------------------------------
    def command_energy_split(
        self, kind: CommandKind, v_supply: float
    ) -> tuple[float, float]:
        """(array_nj, peripheral_nj) of one command at ``v_supply``."""
        nominal = self._charge_nominal_nj[kind]
        fraction = PERIPHERAL_FRACTION[kind]
        array_nj = nominal * (1.0 - fraction) * self.charge_scale(v_supply)
        peripheral_nj = nominal * fraction
        return array_nj, peripheral_nj

    def access_energy(
        self, condition: AccessCondition, v_supply: float
    ) -> AccessEnergyBreakdown:
        """Energy of one access under the given row-buffer condition.

        Standby windows use the *voltage-derated* timings: an ACT at
        reduced voltage keeps the array biased for a longer tRAS, a PRE
        for a longer tRP.
        """
        timing = timing_for_voltage(self.spec, v_supply)
        per_command: Dict[CommandKind, float] = {}
        array_nj = peripheral_nj = standby_nj = 0.0
        for kind in COMMANDS_FOR_CONDITION[condition]:
            a, p = self.command_energy_split(kind, v_supply)
            per_command[kind] = a + p
            array_nj += a
            peripheral_nj += p
            if kind is CommandKind.ACT:
                window = timing.t_ras_ns
                active = True
            elif kind is CommandKind.PRE:
                window = timing.t_rp_ns
                active = False
            else:
                window = timing.burst_time_ns
                active = True
            standby_nj += self.standby_power_mw(v_supply, active) * window * 1e-3
        return AccessEnergyBreakdown(
            condition=condition,
            v_supply=v_supply,
            array_nj=array_nj,
            peripheral_nj=peripheral_nj,
            standby_nj=standby_nj,
            per_command_nj=per_command,
        )

    def energy_per_access_nj(self, v_supply: float) -> float:
        """The paper's Table-I per-access metric: a row-buffer-hit read.

        A hit is a pure array access (one RD burst), so its savings
        follow the CV² law — exactly the 3.92…42.40 % column of Table I.
        """
        array_nj, peripheral_nj = self.command_energy_split(CommandKind.RD, v_supply)
        return array_nj + peripheral_nj

    def energy_per_access_saving(self, v_supply: float) -> float:
        """Fractional Table-I saving at ``v_supply`` versus nominal."""
        nominal = self.energy_per_access_nj(self._v_nom)
        return 1.0 - self.energy_per_access_nj(v_supply) / nominal

    # ------------------------------------------------------------------
    # whole-trace energy
    # ------------------------------------------------------------------
    def trace_energy(
        self,
        stats: TraceStatistics,
        v_supply: float,
    ) -> TraceEnergyBreakdown:
        """Energy of a whole trace execution from its statistics."""
        self._check_voltage(v_supply)
        array_nj = peripheral_nj = 0.0
        for kind, count in stats.command_counts.items():
            if count == 0:
                continue
            a, p = self.command_energy_split(kind, v_supply)
            array_nj += a * count
            peripheral_nj += p * count
        active_nj = (
            self.standby_power_mw(v_supply, active=True) * stats.bank_active_time_ns * 1e-3
        )
        idle_nj = (
            self.standby_power_mw(v_supply, active=False) * stats.idle_time_ns * 1e-3
        )
        return TraceEnergyBreakdown(
            v_supply=v_supply,
            array_nj=array_nj,
            peripheral_nj=peripheral_nj,
            active_standby_nj=active_nj,
            idle_standby_nj=idle_nj,
        )
