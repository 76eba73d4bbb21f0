"""CSV / JSON export of experiment results.

The benchmark harness prints human-readable tables; downstream plotting
or regression tracking wants machine-readable files.  These helpers
write the core result objects as plain CSV (stdlib ``csv``, no pandas)
and round-trip the staged pipeline's :class:`RunRecord` sweeps through
JSON (:func:`write_run_records_json` / :func:`load_run_records`).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from repro.pipeline.store import canonical_form

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.pipeline.runner import RunRecord

PathLike = Union[str, Path]


def _open_csv(path: PathLike) -> Path:
    path = Path(path)
    if path.suffix != ".csv":
        path = path.with_suffix(".csv")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_rows(
    path: PathLike, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> Path:
    """Write a generic header + rows CSV; returns the final path."""
    path = _open_csv(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            if len(row) != len(headers):
                raise ValueError(
                    f"row width {len(row)} does not match {len(headers)} headers"
                )
            writer.writerow(row)
    return path


# ----------------------------------------------------------------------
# RunRecord serialisation (the staged pipeline's sweep output).

RUN_RECORD_CSV_HEADERS = [
    "run_id",
    "params_json",
    "dataset",
    "n_neurons",
    "seed",
    "representation",
    "mapping_policy",
    "train_batch_size",
    "compute_dtype",
    "baseline_accuracy",
    "improved_accuracy",
    "ber_threshold",
    "mean_energy_saving",
    "v_supply",
    "device_ber",
    "feasible",
    "energy_saving",
    "speedup",
    "energy_mj",
]


def export_run_records(path: PathLike, records: Sequence["RunRecord"]) -> Path:
    """Sweep records as flat CSV: one row per (record, voltage) pair.

    Records without any voltage outcome still contribute one row (with
    the per-voltage columns empty), so every run appears in the file.
    """
    rows = []
    for record in records:
        head = [
            record.run_id,
            json.dumps(canonical_form(record.params), sort_keys=True),
            record.dataset,
            record.n_neurons,
            record.seed,
            record.representation,
            record.mapping_policy,
            record.train_batch_size,
            record.compute_dtype,
            record.baseline_accuracy,
            record.improved_accuracy,
            "" if record.ber_threshold is None else record.ber_threshold,
            record.mean_energy_saving,
        ]
        if not record.voltages:
            rows.append(head + [""] * 6)
            continue
        for point in record.voltages:
            rows.append(head + [
                point.v_supply,
                point.device_ber,
                int(point.feasible),
                point.energy_saving,
                point.speedup,
                "" if point.energy_mj is None else point.energy_mj,
            ])
    return write_rows(path, RUN_RECORD_CSV_HEADERS, rows)


def run_records_to_json(records: Sequence["RunRecord"]) -> str:
    """Serialise sweep records to a JSON array string."""
    return json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True)


def write_run_records_json(path: PathLike, records: Sequence["RunRecord"]) -> Path:
    """Write :func:`run_records_to_json` output to ``path`` (``.json``)."""
    path = Path(path)
    if path.suffix != ".json":
        path = path.with_suffix(".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(run_records_to_json(records) + "\n")
    return path


def load_run_records(path: PathLike) -> list:
    """Read back a JSON file written by :func:`write_run_records_json`."""
    from repro.pipeline.runner import RunRecord

    data = json.loads(Path(path).read_text())
    return [RunRecord.from_dict(entry) for entry in data]


# ----------------------------------------------------------------------
# Execution-independent record comparison.
#
# Serial, process-parallel and cluster execution all promise identical
# *values*; these fields are the documented exceptions (timing, cache
# statistics, cluster placement).  The distributed-sweep CI smoke and
# ``benchmarks/perf_cluster.py`` compare through this filter.

RUN_RECORD_EXECUTION_FIELDS = (
    "wall_time_s",
    "cache_hits",
    "cache_misses",
    "stage_timings",
)


def run_record_value_dict(record: "RunRecord") -> dict:
    """``record.to_dict()`` minus the execution-dependent fields."""
    payload = record.to_dict()
    for name in RUN_RECORD_EXECUTION_FIELDS:
        payload.pop(name, None)
    return payload


def records_equivalent(
    a: Sequence["RunRecord"], b: Sequence["RunRecord"]
) -> bool:
    """True iff both sweeps produced the same values in the same order."""
    if len(a) != len(b):
        return False
    return all(
        run_record_value_dict(ra) == run_record_value_dict(rb)
        for ra, rb in zip(a, b)
    )
