"""DRAM array-voltage dynamics under reduced supply voltage.

This module substitutes for the SPICE + DRAM circuit model of Chang et
al. that the paper uses to characterise the array voltage ``Varray`` and
the voltage-dependent timing parameters (Section II-B2, Figs. 2d and 6).

The model is a first-order RC abstraction of a DRAM activate/precharge
cycle:

- **Activate (sense + restore)**: the bitline starts at the precharge
  level ``Vsupply/2`` and is driven by the sense amplifier toward
  ``Vsupply`` along an exponential: ``V(t) = Vs - (Vs/2) * exp(-t/tau)``.
- **Precharge**: the bitline is equalised back toward ``Vsupply/2``:
  ``V(t) = Vs/2 + (V0 - Vs/2) * exp(-t/tau_p)``.

The sense amplifier's drive strength degrades at reduced supply voltage,
so the time constants grow as the supply shrinks:
``tau(Vs) = tau0 * (Vnom / Vs) ** alpha``.

The paper consumes three threshold crossings of these curves
(Section II-B2):

1. *ready-to-access* — ``Varray`` reaches **75%** of ``Vsupply``; this is
   the minimum reliable ``tRCD``;
2. *ready-to-precharge* — ``Varray`` reaches **98%** of ``Vsupply``; the
   minimum reliable ``tRAS``;
3. *ready-to-activate* — ``Varray`` is within **2%** of ``Vsupply/2``
   after precharge; the minimum reliable ``tRP``.

All three crossings have closed forms for an exponential, implemented
below; :mod:`repro.dram.timing` turns them into derating factors applied
to the JEDEC nominal timings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Fraction of Vsupply that defines the ready-to-access voltage (tRCD).
READY_TO_ACCESS_FRACTION = 0.75
#: Fraction of Vsupply that defines the ready-to-precharge voltage (tRAS).
READY_TO_PRECHARGE_FRACTION = 0.98
#: Precharge is complete when Varray is within this fraction of Vsupply
#: around Vsupply/2 (tRP).
READY_TO_ACTIVATE_TOLERANCE = 0.02

#: Restore time constant at nominal voltage (ns), calibrated so the
#: ready-to-access crossing at nominal voltage lands near the JEDEC
#: tRCD of LPDDR3-1600.
TAU_ACTIVATE_NS = 12.0
#: Equalisation time constant at nominal voltage (ns).
TAU_PRECHARGE_NS = 5.5
#: ``alpha`` in ``tau(Vs) = tau0 * (Vnom/Vs)**alpha``: the sense
#: amplifier slowing down at reduced voltage.
DRIVE_EXPONENT = 2.0


@dataclass(frozen=True)
class VoltageTransient:
    """A sampled activate→precharge waveform (one point per time sample)."""

    time_ns: np.ndarray
    varray_volts: np.ndarray
    v_supply: float
    t_activate_start_ns: float
    t_precharge_start_ns: float


class ArrayVoltageModel:
    """First-order RC model of the DRAM cell/bitline voltage.

    ``v_nominal`` is the nominal (accurate-DRAM) supply voltage, 1.35 V
    for LPDDR3; the time constants at that voltage are
    :data:`TAU_ACTIVATE_NS` and :data:`TAU_PRECHARGE_NS`, and they grow
    with :data:`DRIVE_EXPONENT` as the supply shrinks.
    """

    def __init__(self, v_nominal: float = 1.35):
        if v_nominal <= 0:
            raise ValueError(f"v_nominal must be > 0, got {v_nominal}")
        self.v_nominal = v_nominal

    # ------------------------------------------------------------------
    # time constants
    # ------------------------------------------------------------------
    def _check_supply(self, v_supply: float) -> None:
        if v_supply <= 0:
            raise ValueError(f"v_supply must be > 0, got {v_supply}")
        if v_supply > self.v_nominal * 1.5:
            raise ValueError(
                f"v_supply {v_supply} V is implausibly above nominal {self.v_nominal} V"
            )

    def tau_activate(self, v_supply: float) -> float:
        """Restore time constant at the given supply voltage (ns)."""
        self._check_supply(v_supply)
        return TAU_ACTIVATE_NS * (self.v_nominal / v_supply) ** DRIVE_EXPONENT

    def tau_precharge(self, v_supply: float) -> float:
        """Equalisation time constant at the given supply voltage (ns)."""
        self._check_supply(v_supply)
        return TAU_PRECHARGE_NS * (self.v_nominal / v_supply) ** DRIVE_EXPONENT

    # ------------------------------------------------------------------
    # waveforms
    # ------------------------------------------------------------------
    def varray_during_activate(self, t_ns: np.ndarray, v_supply: float) -> np.ndarray:
        """Array voltage ``t_ns`` after an ACT command (vectorised)."""
        self._check_supply(v_supply)
        t = np.asarray(t_ns, dtype=float)
        tau = self.tau_activate(v_supply)
        return v_supply - (v_supply / 2.0) * np.exp(-t / tau)

    def varray_during_precharge(
        self, t_ns: np.ndarray, v_supply: float, v_start: float
    ) -> np.ndarray:
        """Array voltage ``t_ns`` after a PRE command, starting at ``v_start``."""
        self._check_supply(v_supply)
        t = np.asarray(t_ns, dtype=float)
        tau = self.tau_precharge(v_supply)
        target = v_supply / 2.0
        return target + (v_start - target) * np.exp(-t / tau)

    # ------------------------------------------------------------------
    # threshold crossings (closed form)
    # ------------------------------------------------------------------
    def ready_to_access_time(self, v_supply: float) -> float:
        """Minimum reliable tRCD: time to reach 75% of Vsupply (ns).

        Solving ``Vs - (Vs/2) e^{-t/tau} = f Vs`` gives
        ``t = tau * ln(0.5 / (1 - f))``.
        """
        tau = self.tau_activate(v_supply)
        return tau * math.log(0.5 / (1.0 - READY_TO_ACCESS_FRACTION))

    def ready_to_precharge_time(self, v_supply: float) -> float:
        """Minimum reliable tRAS: time to reach 98% of Vsupply (ns)."""
        tau = self.tau_activate(v_supply)
        return tau * math.log(0.5 / (1.0 - READY_TO_PRECHARGE_FRACTION))

    def ready_to_activate_time(self, v_supply: float) -> float:
        """Minimum reliable tRP: time to settle within 2% of Vsupply/2 (ns).

        Precharge starts from the fully restored level ``Vsupply``.
        """
        tau = self.tau_precharge(v_supply)
        # |V - Vs/2| = (Vs/2) e^{-t/tau} <= tol * Vs
        return tau * math.log(0.5 / READY_TO_ACTIVATE_TOLERANCE)

    def derating_factor(self, v_supply: float) -> float:
        """How much slower the array is than at nominal voltage (>= 1).

        All three crossing times scale by the same ``(Vnom/Vs)**alpha``
        factor, so a single derating factor captures the timing impact.
        """
        return (self.v_nominal / v_supply) ** DRIVE_EXPONENT

    # ------------------------------------------------------------------
    # full transient for Figs. 2(d) and 6
    # ------------------------------------------------------------------
    def transient(
        self,
        v_supply: float,
        total_time_ns: float = 80.0,
        samples: int = 801,
        activate_at_ns: float = 0.0,
        precharge_at_ns: float | None = None,
    ) -> VoltageTransient:
        """Sample a full activate→precharge waveform.

        If ``precharge_at_ns`` is None the precharge is issued at the
        ready-to-precharge time (minimum reliable tRAS), which is what the
        paper's Fig. 6 depicts.
        """
        self._check_supply(v_supply)
        if total_time_ns <= 0 or samples < 2:
            raise ValueError("need total_time_ns > 0 and samples >= 2")
        if precharge_at_ns is None:
            precharge_at_ns = activate_at_ns + self.ready_to_precharge_time(v_supply)
        if precharge_at_ns < activate_at_ns:
            raise ValueError("precharge cannot precede activate")

        time_ns = np.linspace(0.0, total_time_ns, samples)
        varray = np.full(samples, v_supply / 2.0)

        active = (time_ns >= activate_at_ns) & (time_ns < precharge_at_ns)
        varray[active] = self.varray_during_activate(
            time_ns[active] - activate_at_ns, v_supply
        )

        v_at_pre = float(
            self.varray_during_activate(
                np.array([precharge_at_ns - activate_at_ns]), v_supply
            )[0]
        )
        precharging = time_ns >= precharge_at_ns
        varray[precharging] = self.varray_during_precharge(
            time_ns[precharging] - precharge_at_ns, v_supply, v_at_pre
        )

        return VoltageTransient(
            time_ns=time_ns,
            varray_volts=varray,
            v_supply=v_supply,
            t_activate_start_ns=activate_at_ns,
            t_precharge_start_ns=precharge_at_ns,
        )

    def transient_family(
        self, v_supplies: Sequence[float], **kwargs
    ) -> list[VoltageTransient]:
        """Waveforms for a family of supply voltages (Fig. 6)."""
        return [self.transient(v, **kwargs) for v in v_supplies]
