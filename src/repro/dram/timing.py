"""Voltage-dependent DRAM timing parameters.

The paper extracts ``tRCD``, ``tRAS`` and ``tRP`` from its SPICE study for
each supply voltage and feeds them to DRAMPower (Section V).  Here the
:class:`~repro.dram.voltage.ArrayVoltageModel` provides the *relative*
slowdown of the array at reduced voltage, which we apply to the JEDEC
nominal timings of the device spec.  At nominal voltage the returned
parameters equal the spec's nominal ones exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.specs import DramSpec
from repro.dram.voltage import ArrayVoltageModel


@dataclass(frozen=True)
class TimingParameters:
    """Resolved timing parameters at one supply voltage (nanoseconds)."""

    v_supply: float
    clock_ns: float
    t_rcd_ns: float
    t_ras_ns: float
    t_rp_ns: float
    t_cl_ns: float
    burst_length: int

    @property
    def burst_time_ns(self) -> float:
        """Data-bus occupancy of one RD/WR burst (DDR: 2 beats/cycle)."""
        return self.burst_length * self.clock_ns / 2.0


def timing_for_voltage(spec: DramSpec, v_supply: float) -> TimingParameters:
    """Timing parameters of ``spec`` operated at ``v_supply``.

    The row-related parameters (tRCD, tRAS, tRP) are derated by the slowdown
    factor of the array voltage model at the device's nominal supply; the
    interface clock and CAS latency are unchanged (the I/O path runs from a
    separate regulated rail, as in the reduced-voltage study the paper
    builds on).
    """
    v_nominal = spec.electrical.v_nominal_volts
    derate = ArrayVoltageModel(v_nominal=v_nominal).derating_factor(v_supply)
    nominal = spec.timings
    return TimingParameters(
        v_supply=v_supply,
        clock_ns=nominal.clock_ns,
        t_rcd_ns=nominal.t_rcd_ns * derate,
        t_ras_ns=nominal.t_ras_ns * derate,
        t_rp_ns=nominal.t_rp_ns * derate,
        t_cl_ns=nominal.t_cl_ns,
        burst_length=nominal.burst_length,
    )
