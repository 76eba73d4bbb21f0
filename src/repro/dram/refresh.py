"""DRAM refresh modelling.

DRAM cells leak and must be refreshed every ``tREFW`` (64 ms for
LPDDR3).  Refresh is a background energy component that the paper's
access-energy comparison does not isolate, but any system-level user of
this library will ask about it, and reduced-voltage operation interacts
with it twice:

- refresh *energy per operation* scales like any other array charge
  (~V²);
- cells leak relatively faster at reduced voltage (less stored charge
  for the same leakage current), so conservative operation shortens the
  refresh window — modelled by the same derating factor the timing
  model uses.

The model follows the standard all-bank auto-refresh scheme: every
``t_refi`` (refresh interval = tREFW / 8192 rows-per-command batch) the
device spends ``t_rfc`` refreshing, drawing an elevated refresh current.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.specs import DramSpec
from repro.dram.voltage import ArrayVoltageModel


@dataclass(frozen=True)
class RefreshParameters:
    """Refresh timing/current constants (LPDDR3-class defaults)."""

    t_refw_ms: float = 64.0  # refresh window: every cell within this
    commands_per_window: int = 8192  # auto-refresh commands per window
    t_rfc_ns: float = 130.0  # refresh cycle time per command
    idd5_ma: float = 30.0  # refresh burst current

    def validate(self) -> None:
        if self.t_refw_ms <= 0 or self.commands_per_window <= 0:
            raise ValueError("refresh window and command count must be > 0")
        if self.t_rfc_ns <= 0 or self.idd5_ma <= 0:
            raise ValueError("t_rfc and idd5 must be > 0")


class RefreshModel:
    """Refresh energy and bandwidth overhead at a given supply voltage."""

    def __init__(
        self,
        spec: DramSpec,
        parameters: RefreshParameters | None = None,
        voltage_model: ArrayVoltageModel | None = None,
    ):
        spec.validate()
        self.spec = spec
        self.parameters = parameters or RefreshParameters()
        self.parameters.validate()
        self.voltage_model = voltage_model or ArrayVoltageModel(
            v_nominal=spec.electrical.v_nominal_volts
        )
        self._v_nom = spec.electrical.v_nominal_volts

    def refresh_window_ms(self, v_supply: float) -> float:
        """Retention-safe refresh window, shortened at reduced voltage."""
        derate = self.voltage_model.derating_factor(v_supply)
        return self.parameters.t_refw_ms / derate

    def refresh_interval_ns(self, v_supply: float) -> float:
        return (
            self.refresh_window_ms(v_supply)
            * 1e6
            / self.parameters.commands_per_window
        )

    def energy_per_command_nj(self, v_supply: float) -> float:
        """One auto-refresh command's energy (array charge, ~V²)."""
        p = self.parameters
        nominal_nj = p.idd5_ma * self._v_nom * p.t_rfc_ns * 1e-3
        return nominal_nj * (v_supply / self._v_nom) ** 2

    def refresh_power_mw(self, v_supply: float) -> float:
        """Average refresh power: per-command energy over the interval."""
        return (
            self.energy_per_command_nj(v_supply)
            / self.refresh_interval_ns(v_supply)
            * 1e3
        )

    def refresh_energy_nj(self, duration_ns: float, v_supply: float) -> float:
        """Refresh energy accrued over ``duration_ns`` of operation."""
        if duration_ns < 0:
            raise ValueError(f"duration must be >= 0, got {duration_ns}")
        return self.refresh_power_mw(v_supply) * duration_ns * 1e-3
