"""Experiment sweeps, platform energy models and report formatting."""

from repro.analysis.platforms import (
    PlatformModel,
    TRUENORTH,
    PEASE,
    SNNAP,
    PAPER_PLATFORMS,
    energy_breakdown,
)
from repro.analysis.sweeps import (
    AccuracySweepPoint,
    accuracy_vs_ber_sweep,
    per_voltage_axis,
)
from repro.analysis.reporting import format_table, format_percent_row
from repro.analysis.pareto import ParetoPoint, tolerance_frontier
from repro.analysis.sensitivity import BitSensitivityPoint, accuracy_by_bit

from repro.analysis.export import (
    export_run_records,
    load_run_records,
    run_records_to_json,
    write_rows,
    write_run_records_json,
)

__all__ = [
    "BitSensitivityPoint",
    "accuracy_by_bit",
    "write_rows",
    "ParetoPoint",
    "tolerance_frontier",
    "PlatformModel",
    "TRUENORTH",
    "PEASE",
    "SNNAP",
    "PAPER_PLATFORMS",
    "energy_breakdown",
    "AccuracySweepPoint",
    "accuracy_vs_ber_sweep",
    "per_voltage_axis",
    "export_run_records",
    "load_run_records",
    "run_records_to_json",
    "write_run_records_json",
    "format_table",
    "format_percent_row",
]
