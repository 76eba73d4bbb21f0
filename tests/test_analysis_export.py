"""Tests of the CSV export helpers."""

import csv

import pytest

from repro.analysis.export import write_rows


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


class TestWriteRows:
    def test_roundtrip(self, tmp_path):
        path = write_rows(tmp_path / "out.csv", ["a", "b"], [[1, 2], [3, 4]])
        rows = read_csv(path)
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_suffix_appended(self, tmp_path):
        path = write_rows(tmp_path / "out", ["a"], [[1]])
        assert path.suffix == ".csv"

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_rows(tmp_path / "out.csv", ["a", "b"], [[1]])

    def test_parent_created(self, tmp_path):
        path = write_rows(tmp_path / "x" / "y.csv", ["a"], [[1]])
        assert path.exists()


class TestRecordEquivalence:
    def test_execution_fields_are_ignored(self, run_record_factory):
        from repro.analysis.export import records_equivalent

        serial = [run_record_factory("a"), run_record_factory("b")]
        cluster = [
            run_record_factory("a", wall_time_s=9.0, cache_hits=0, cache_misses=4),
            run_record_factory("b", wall_time_s=0.1),
        ]
        assert records_equivalent(serial, cluster)

    def test_value_order_and_length_differences_count(self, run_record_factory):
        from repro.analysis.export import records_equivalent

        a, b = run_record_factory("a"), run_record_factory("b")
        assert not records_equivalent([a], [run_record_factory("a", improved_accuracy=0.47)])
        assert not records_equivalent([a, b], [b, a])
        assert not records_equivalent([a, b], [a])


class TestRunRecordExports:
    def test_csv_one_row_per_voltage(self, tmp_path, run_record_factory):
        from repro.analysis.export import RUN_RECORD_CSV_HEADERS, export_run_records

        path = export_run_records(tmp_path / "sweep.csv", [run_record_factory()])
        rows = read_csv(path)
        assert rows[0] == RUN_RECORD_CSV_HEADERS
        assert len(rows) == 3  # header + two voltage points
        assert rows[1][0] == "abc123"
        assert float(rows[1][rows[0].index("v_supply")]) == 1.175
        assert rows[2][rows[0].index("energy_mj")] == ""  # infeasible point

    def test_csv_record_without_voltages_still_appears(self, tmp_path, run_record_factory):
        from repro.analysis.export import export_run_records

        path = export_run_records(
            tmp_path / "sweep.csv",
            [run_record_factory(voltages=(), mean_energy_saving=0.0)],
        )
        rows = read_csv(path)
        assert len(rows) == 2
        assert rows[1][0] == "abc123"

    def test_json_round_trip(self, tmp_path, run_record_factory):
        from repro.analysis.export import load_run_records, write_run_records_json

        records = [
            run_record_factory(),
            run_record_factory(run_id="def456", ber_threshold=None),
        ]
        path = write_run_records_json(tmp_path / "sweep", records)
        assert path.suffix == ".json"
        loaded = load_run_records(path)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]
        assert loaded[1].ber_threshold is None
