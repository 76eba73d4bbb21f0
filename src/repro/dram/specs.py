"""DRAM device specifications.

The paper evaluates a **LPDDR3-1600 4Gb** device ("representative for the
main memory of energy-constrained embedded systems", Section V).  A spec
bundles the three ingredient groups every other DRAM module consumes:

- *geometry* — channels / ranks / chips / banks / subarrays / rows /
  columns, and the data width of one column access;
- *nominal timings* — clock period and the JEDEC timing parameters at the
  nominal supply voltage;
- *electrical parameters* — supply voltage and the IDD-style current
  values used by the DRAMPower-like energy model
  (:mod:`repro.dram.energy`).

Current values follow the structure of LPDDR3 datasheets (IDD0 activate/
precharge cycling current, IDD2N precharge-standby, IDD3N active-standby,
IDD4R burst-read, IDD4W burst-write).  Absolute values are representative,
not datasheet-exact; the paper's results are reported as *relative*
savings, which depend on the V² dynamic-energy scaling and the command
mix, not on the absolute current scale.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.registry import Registry


@dataclass(frozen=True)
class DramGeometry:
    """Physical organisation of one DRAM module (Fig. 5a of the paper)."""

    channels: int = 1
    ranks_per_channel: int = 1
    chips_per_rank: int = 1
    banks_per_chip: int = 8
    subarrays_per_bank: int = 8
    rows_per_subarray: int = 512
    columns_per_row: int = 1024
    #: bits transferred by a single column access (one burst beat group).
    column_width_bits: int = 64

    @property
    def rows_per_bank(self) -> int:
        return self.subarrays_per_bank * self.rows_per_subarray

    @property
    def row_size_bits(self) -> int:
        return self.columns_per_row * self.column_width_bits

    @property
    def subarray_size_bits(self) -> int:
        return self.rows_per_subarray * self.row_size_bits

    @property
    def bank_size_bits(self) -> int:
        return self.subarrays_per_bank * self.subarray_size_bits

    @property
    def chip_size_bits(self) -> int:
        return self.banks_per_chip * self.bank_size_bits

    @property
    def total_size_bits(self) -> int:
        return (
            self.channels
            * self.ranks_per_channel
            * self.chips_per_rank
            * self.chip_size_bits
        )

    @property
    def total_subarrays(self) -> int:
        return (
            self.channels
            * self.ranks_per_channel
            * self.chips_per_rank
            * self.banks_per_chip
            * self.subarrays_per_bank
        )

    def validate(self) -> None:
        """Raise :class:`ValueError` if any dimension is non-positive."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value <= 0:
                raise ValueError(f"geometry field {field.name!r} must be > 0, got {value}")


@dataclass(frozen=True)
class NominalTimings:
    """JEDEC-style timing parameters at nominal voltage, in nanoseconds."""

    clock_ns: float = 1.25  # LPDDR3-1600: 800 MHz DDR -> 1.25 ns cycle
    t_rcd_ns: float = 18.0  # row-address-to-column-address delay
    t_ras_ns: float = 42.0  # row active time
    t_rp_ns: float = 18.0  # row precharge time
    t_cl_ns: float = 15.0  # CAS latency
    burst_length: int = 8  # beats per RD/WR burst


@dataclass(frozen=True)
class ElectricalParameters:
    """Supply voltage and IDD currents used for energy estimation.

    ``v_nominal_volts`` is the accurate-DRAM supply (1.35 V for LPDDR3);
    ``v_min_volts`` is the lowest approximate-DRAM supply studied by the
    paper (1.025 V).
    """

    v_nominal_volts: float = 1.35
    v_min_volts: float = 1.025
    idd0_ma: float = 48.0  # ACT/PRE cycling
    idd2n_ma: float = 0.8  # precharge standby
    idd3n_ma: float = 2.0  # active standby
    idd4r_ma: float = 444.0  # burst read
    idd4w_ma: float = 470.0  # burst write

    def validate(self) -> None:
        if not 0.0 < self.v_min_volts <= self.v_nominal_volts:
            raise ValueError(
                "require 0 < v_min <= v_nominal, got "
                f"{self.v_min_volts} and {self.v_nominal_volts}"
            )


@dataclass(frozen=True)
class DramSpec:
    """A complete DRAM device description."""

    name: str
    geometry: DramGeometry
    timings: NominalTimings
    electrical: ElectricalParameters

    def validate(self) -> None:
        self.geometry.validate()
        self.electrical.validate()

    def scaled(self, **geometry_overrides: int) -> "DramSpec":
        """Return a copy with some geometry dimensions overridden.

        Useful for tests and examples that want a tiny device, e.g.
        ``spec.scaled(rows_per_subarray=4, columns_per_row=8)``.
        """
        new_geometry = dataclasses.replace(self.geometry, **geometry_overrides)
        return dataclasses.replace(self, geometry=new_geometry)


#: The device configuration used throughout the paper's evaluation.
LPDDR3_1600_4GB = DramSpec(
    name="LPDDR3-1600 4Gb",
    geometry=DramGeometry(
        channels=1,
        ranks_per_channel=1,
        chips_per_rank=1,
        banks_per_chip=8,
        subarrays_per_bank=8,
        rows_per_subarray=2048,  # 8 banks x 8 subarrays x 2048 rows x 4KB row = 4Gb
        columns_per_row=512,
        column_width_bits=64,
    ),
    timings=NominalTimings(),
    electrical=ElectricalParameters(),
)


#: A DDR5-4800 8Gb x8 device, the mainstream successor generation.
#: DDR5 runs at a 1.1 V nominal supply (vs LPDDR3's 1.35 V), doubles
#: the burst length to 16, and splits the die into more, smaller banks.
#: Geometry: 32 banks x 8 subarrays x 2048 rows x (512 cols x 32 bit)
#: = 8 Gb.  Timing/current values are representative, not
#: datasheet-exact (the framework reports *relative* savings).  Note
#: the reduced-voltage sweep for this device must stay at or below
#: 1.1 V — the paper's LPDDR3 voltage set does not apply.
DDR5_4800_8GB = DramSpec(
    name="DDR5-4800 8Gb",
    geometry=DramGeometry(
        channels=1,
        ranks_per_channel=1,
        chips_per_rank=1,
        banks_per_chip=32,
        subarrays_per_bank=8,
        rows_per_subarray=2048,
        columns_per_row=512,
        column_width_bits=32,
    ),
    timings=NominalTimings(
        clock_ns=0.417,  # DDR5-4800: 2400 MHz DDR -> 0.417 ns cycle
        t_rcd_ns=16.0,
        t_ras_ns=32.0,
        t_rp_ns=16.0,
        t_cl_ns=13.75,
        burst_length=16,
    ),
    electrical=ElectricalParameters(
        v_nominal_volts=1.1,
        v_min_volts=0.85,
        idd0_ma=62.0,
        idd2n_ma=1.2,
        idd3n_ma=2.6,
        idd4r_ma=520.0,
        idd4w_ma=545.0,
    ),
)


def tiny_spec() -> DramSpec:
    """A miniature device for fast unit tests (a few KiB total)."""
    return DramSpec(
        name="tiny-test-dram",
        geometry=DramGeometry(
            channels=1,
            ranks_per_channel=1,
            chips_per_rank=1,
            banks_per_chip=2,
            subarrays_per_bank=2,
            rows_per_subarray=4,
            columns_per_row=8,
            column_width_bits=32,
        ),
        timings=NominalTimings(),
        electrical=ElectricalParameters(),
    )


#: Registry of DRAM devices selectable by name (CLI ``--spec``, sweep
#: axes).  Entries are zero-argument factories so registration stays
#: cheap and mutable specs are never shared.
DRAM_SPECS = Registry("dram spec")
DRAM_SPECS.register(
    "lpddr3-1600-4gb",
    lambda: LPDDR3_1600_4GB,
    aliases=("lpddr3",),
)
DRAM_SPECS.register(
    "ddr5-4800-8gb",
    lambda: DDR5_4800_8GB,
    aliases=("ddr5",),
)
DRAM_SPECS.register("tiny", tiny_spec, aliases=("tiny-test-dram",))


def get_dram_spec(name: str) -> DramSpec:
    """Look up a device spec by registered name."""
    return DRAM_SPECS.get(name)()


# ----------------------------------------------------------------------
# Wire form.  The cluster protocol ships full configs between hosts as
# JSON; a spec travels as its complete nested field dict (not just a
# registry name) so custom devices — e.g. ``tiny_spec().scaled(...)`` in
# tests — survive the trip to a worker that never registered them.


def spec_to_dict(spec: DramSpec) -> dict:
    """JSON-safe nested dict of every field of ``spec``."""
    return dataclasses.asdict(spec)


def spec_from_dict(data: dict) -> DramSpec:
    """Rebuild a :class:`DramSpec` from :func:`spec_to_dict` output."""
    return DramSpec(
        name=str(data["name"]),
        geometry=DramGeometry(**data["geometry"]),
        timings=NominalTimings(**data["timings"]),
        electrical=ElectricalParameters(**data["electrical"]),
    )
