"""Tests of the sweep runner: grids, caching across points, parallelism."""

import os
import subprocess
import time
from pathlib import Path

import pytest

from repro import SparkXDConfig
from repro.analysis.export import records_equivalent
from repro.pipeline import ArtifactStore, Runner, RunRecord, sweep_grid

TINY = SparkXDConfig.small(
    n_train=40,
    n_test=25,
    n_neurons=12,
    n_steps=30,
    baseline_epochs=1,
    ber_rates=(1e-5, 1e-3),
    accuracy_bound=0.5,
)


class TestSweepGrid:
    def test_empty_grid_is_single_point(self):
        assert sweep_grid({}) == [{}]

    def test_cartesian_product_order(self):
        grid = sweep_grid({"a": [1, 2], "b": ["x", "y"]})
        assert grid == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            sweep_grid({"a": []})


class TestRunRecordSerialisation:
    def test_round_trip_via_dict(self, run_record_factory):
        record = run_record_factory()
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()
        assert clone.voltages == record.voltages
        assert clone.result is None

    def test_none_threshold_round_trips(self, run_record_factory):
        record = run_record_factory(ber_threshold=None)
        assert RunRecord.from_dict(record.to_dict()).ber_threshold is None


class TestRunnerValidation:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            Runner(TINY, max_workers=0)


@pytest.mark.slow
class TestRunnerExecution:
    def test_voltage_ber_sweep_trains_exactly_once(self, monkeypatch):
        """The acceptance check: a voltage x BER(-via-voltage) x policy
        sweep reuses one trained model for every grid point."""
        import repro.pipeline.stages as stages_module

        calls = {"train_baseline": 0, "improve": 0}
        orig_train = stages_module.train_baseline
        orig_improve = stages_module.improve_error_tolerance

        def counting_train(*args, **kwargs):
            calls["train_baseline"] += 1
            return orig_train(*args, **kwargs)

        def counting_improve(*args, **kwargs):
            calls["improve"] += 1
            return orig_improve(*args, **kwargs)

        monkeypatch.setattr(stages_module, "train_baseline", counting_train)
        monkeypatch.setattr(
            stages_module, "improve_error_tolerance", counting_improve
        )

        runner = Runner(TINY, store=ArtifactStore())
        # Each voltage point implies a different device BER (Fig. 2c),
        # so this is the paper's voltage x BER grid, crossed with the
        # mapping-policy axis.
        records = runner.run({
            "voltages": [(1.325,), (1.175,), (1.025,)],
            "mapping_policy": ["sparkxd", "baseline"],
        })
        assert len(records) == 6
        assert calls["train_baseline"] == 1
        assert calls["improve"] == 1
        # identical training -> identical accuracies everywhere
        assert len({r.baseline_accuracy for r in records}) == 1
        assert len({r.improved_accuracy for r in records}) == 1
        # ...but six distinct run ids and per-point params
        assert len({r.run_id for r in records}) == 6
        assert records[0].params == {
            "voltages": (1.325,),
            "mapping_policy": "sparkxd",
        }
        # later grid points hit the three cached training stages
        assert all(r.cache_hits >= 3 for r in records[1:])
        for record in records:
            (point,) = record.voltages
            assert point.v_supply == record.params["voltages"][0]

    def test_parallel_matches_serial(self):
        grid = {"voltages": [(1.325,), (1.025,)]}
        serial = Runner(TINY, store=ArtifactStore()).run(grid)
        parallel = Runner(TINY, store=ArtifactStore(), max_workers=2).run(grid)
        assert len(serial) == len(parallel) == 2
        assert records_equivalent(serial, parallel)
        # The cache statistics obey the RunRecord contract too: the
        # fleet computed the chain once, for the first point.
        assert [(r.cache_hits, r.cache_misses) for r in parallel] == [
            (r.cache_hits, r.cache_misses) for r in serial
        ]


class TestStageTimingsInRecords:
    def test_records_carry_stage_timings(self):
        records = Runner(TINY, store=ArtifactStore()).run({})
        (record,) = records
        assert set(record.stage_timings) == {
            "train-baseline",
            "fault-aware-train",
            "tolerance-analysis",
            "dram-eval",
        }
        assert record.to_dict()["stage_timings"] == dict(
            sorted(record.stage_timings.items())
        )

    def test_cached_points_report_empty_timings(self):
        store = ArtifactStore()
        Runner(TINY, store=store).run({})
        again = Runner(TINY, store=store).run({})
        assert again[0].stage_timings == {}

    def test_timings_roundtrip_serialisation(self, run_record_factory):
        record = run_record_factory(stage_timings={"dram-eval": 0.25})
        restored = RunRecord.from_dict(record.to_dict())
        assert restored.stage_timings == {"dram-eval": 0.25}

    def test_timings_default_for_old_payloads(self, run_record_factory):
        payload = run_record_factory().to_dict()
        payload.pop("stage_timings")
        assert RunRecord.from_dict(payload).stage_timings == {}


class TestTrainingKnobsInRecords:
    def test_roundtrip(self, run_record_factory):
        record = run_record_factory(train_batch_size=16, compute_dtype="float32")
        payload = record.to_dict()
        assert payload["train_batch_size"] == 16
        assert payload["compute_dtype"] == "float32"
        restored = RunRecord.from_dict(payload)
        assert restored.train_batch_size == 16
        assert restored.compute_dtype == "float32"

    def test_defaults_for_old_payloads(self, run_record_factory):
        payload = run_record_factory().to_dict()
        payload.pop("train_batch_size")
        payload.pop("compute_dtype")
        restored = RunRecord.from_dict(payload)
        assert restored.train_batch_size == 1
        assert restored.compute_dtype == "float64"

    def test_sweepable_as_grid_axis(self):
        records = Runner(TINY, store=ArtifactStore()).run(
            {"train_batch_size": [1, 4]}
        )
        assert [r.train_batch_size for r in records] == [1, 4]
        assert records[0].run_id != records[1].run_id


class TestThreadCapping:
    def test_rejects_nonpositive_threads(self):
        with pytest.raises(ValueError):
            Runner(TINY, threads_per_worker=0)

    def test_none_disables_capping(self):
        assert Runner(TINY, threads_per_worker=None).threads_per_worker is None

    def test_worker_env_pins_thread_vars(self, monkeypatch):
        from repro.cluster import executor

        # Pin a known pre-state (one set, one unset) regardless of what
        # the host environment exports.
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        capped = executor._worker_env(2)
        assert all(capped[v] == "2" for v in executor.THREAD_ENV_VARS)
        uncapped = executor._worker_env(None)
        assert uncapped["OMP_NUM_THREADS"] == "7"
        assert "MKL_NUM_THREADS" not in uncapped
        # The parent's own environment is never touched.
        assert os.environ["OMP_NUM_THREADS"] == "7"
        assert "MKL_NUM_THREADS" not in os.environ
        package_root = str(Path(executor.__file__).resolve().parents[2])
        for inherited in (None, "/elsewhere", package_root + os.pathsep + "/x"):
            if inherited is None:
                monkeypatch.delenv("PYTHONPATH", raising=False)
            else:
                monkeypatch.setenv("PYTHONPATH", inherited)
            for threads in (2, None):
                entries = executor._worker_env(threads)["PYTHONPATH"].split(os.pathsep)
                assert entries.count(package_root) == 1

    def test_capped_parallel_matches_serial(self):
        """Uncapped workers (``None``) on a grid with two training
        chains — a job DAG the voltage-only grid never builds."""
        grid = {"seed": [42, 43], "voltages": [(1.325,), (1.025,)]}
        serial = Runner(TINY, store=ArtifactStore()).run(grid)
        uncapped = Runner(
            TINY, store=ArtifactStore(), max_workers=2, threads_per_worker=None
        ).run(grid)
        assert records_equivalent(serial, uncapped)


@pytest.mark.slow
class TestLocalFleet:
    """``Runner(max_workers=N)`` runs on localhost worker subprocesses."""

    GRID = {"voltages": [(1.325,), (1.025,)]}

    def test_warm_store_launches_no_worker(self, monkeypatch):
        store = ArtifactStore()
        first = Runner(TINY, store=store, max_workers=2).run(self.GRID)
        # The workers pushed every artifact into the runner's store.
        assert len(store) == 5  # one training chain + two dram-eval points

        def no_subprocess(*args, **kwargs):
            raise AssertionError("a worker subprocess was launched")

        monkeypatch.setattr(subprocess, "Popen", no_subprocess)
        again = Runner(TINY, store=store, max_workers=2).run(self.GRID)
        assert records_equivalent(first, again)

    def test_fleet_service_refuses_tokenless_uploads(self, monkeypatch):
        """A local fleet's service requires the fleet's own token, so no
        other local process can plant an artifact that the sweep would
        unpickle or serve to its workers as a cached stage."""
        import pickle

        from repro.cluster import ServiceClient, ServiceError, executor

        launch_fleet = executor.local_worker_processes
        statuses = []

        def upload_then_launch(address, *args, **kwargs):
            try:
                ServiceClient(address).http_request(
                    "PUT", "/artifacts/train-baseline/deadbeef",
                    blob=pickle.dumps("planted"),
                )
                statuses.append(200)
            except ServiceError as error:
                statuses.append(error.status)
            return launch_fleet(address, *args, **kwargs)

        monkeypatch.setattr(executor, "local_worker_processes", upload_then_launch)
        store = ArtifactStore()
        records = Runner(TINY, store=store, max_workers=2).run(self.GRID)
        assert statuses == [401]
        assert ("train-baseline", "deadbeef") not in store
        serial = Runner(TINY, store=ArtifactStore()).run(self.GRID)
        assert records_equivalent(serial, records)

    def test_dead_fleet_fails_fast_naming_exit_codes(self, monkeypatch, tmp_path):
        from repro.cluster import PlanFailed, executor

        real_worker_env = executor._worker_env

        def unimportable_env(threads_per_worker):
            env = real_worker_env(threads_per_worker)
            env.pop("PYTHONPATH")
            return env

        # Without PYTHONPATH (and outside the source tree) every worker
        # dies on ``import repro`` with exit code 1.
        monkeypatch.setattr(executor, "_worker_env", unimportable_env)
        monkeypatch.chdir(tmp_path)
        started = time.monotonic()
        with pytest.raises(PlanFailed, match=r"codes \[1, 1\]"):
            Runner(TINY, store=ArtifactStore(), max_workers=2).run(self.GRID)
        assert time.monotonic() - started < 15.0
