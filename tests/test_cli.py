"""Tests of the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.dataset == "mnist"

    def test_tolerance_rates(self):
        args = build_parser().parse_args(
            ["tolerance", "--rates", "1e-7", "1e-5"]
        )
        assert args.rates == [1e-7, 1e-5]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])


class TestClusterParser:
    def test_cluster_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster"])

    def test_worker_requires_coordinator(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "worker"])
        args = build_parser().parse_args(
            ["cluster", "worker", "--coordinator", "host:8752"]
        )
        assert args.cluster_command == "worker"
        assert args.coordinator == "host:8752"
        assert args.max_idle_s == 30.0

    def test_submit_grid_flags_match_sweep(self):
        grid = ["--seeds", "1", "2", "--voltages", "1.325", "1.025"]
        submit = build_parser().parse_args(
            ["cluster", "submit", "--service", "0.0.0.0:9999", *grid]
        )
        sweep = build_parser().parse_args(["sweep", *grid])
        assert submit.seeds == sweep.seeds == [1, 2]
        assert submit.voltages == sweep.voltages == [1.325, 1.025]

    def test_cluster_lists_one_entry_point_per_concept(self):
        import argparse

        def subcommands(parser):
            (action,) = [
                a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)
            ]
            return action.choices

        cluster = subcommands(subcommands(build_parser())["cluster"])
        assert sorted(cluster) == sorted([
            "serve", "submit", "cancel", "results", "worker", "status",
        ])

    def test_sweep_fleet_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workers == 1
        # The local fleet's port, lease, idle and fabric settings are
        # fixed, and resuming is rerunning on the same --cache-dir.
        for flag in (["--port", "0"], ["--lease-s", "15"], ["--max-idle-s", "5"],
                     ["--wait-timeout", "60"], ["--no-affinity"],
                     ["--no-peer-sync"], ["--journal"], ["--resume"],
                     ["--compact-every", "5"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", *flag])
        for flag in (["--no-affinity"], ["--journal-dir", "j"],
                     ["--compact-every", "5"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["cluster", "serve", *flag])

    @pytest.mark.parametrize(
        "command", [["serve"], ["worker", "--coordinator", "host:8752"]]
    )
    def test_peer_fabric_has_no_off_switch(self, command):
        build_parser().parse_args(["cluster", *command])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", *command, "--no-peer-sync"])


class TestDramCommand:
    def test_dram_prints_access_table(self, capsys):
        exit_code = main(["dram"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "hit" in out
        assert "conflict" in out
        assert "per-access savings" in out

    def test_dram_custom_voltages(self, capsys):
        exit_code = main(["dram", "--voltages", "1.35", "1.025"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "1.025V" in out


class TestRunCommand:
    @pytest.mark.slow
    def test_run_tiny_pipeline(self, capsys, tmp_path):
        exit_code = main([
            "run", "--neurons", "15", "--train", "40", "--test", "30",
            "--steps", "40", "--bound", "0.4",
            "--save-model", str(tmp_path / "m.npz"),
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "baseline accuracy" in out
        assert (tmp_path / "m.npz").exists()


class TestNewRunFlags:
    def test_run_accepts_voltages_and_representation(self):
        args = build_parser().parse_args([
            "run", "--voltages", "1.325", "1.025",
            "--representation", "int8", "--mapping", "baseline",
        ])
        assert args.voltages == [1.325, 1.025]
        assert args.representation == "int8"
        assert args.mapping == "baseline"

    def test_run_rejects_unknown_representation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--representation", "int64"])


class TestStagesCommand:
    def test_lists_stages_and_registries(self, capsys):
        assert main(["stages"]) == 0
        out = capsys.readouterr().out
        for needle in (
            "train-baseline", "fault-aware-train", "tolerance-analysis",
            "dram-eval", "mnist", "model0", "sparkxd", "lpddr3-1600-4gb",
        ):
            assert needle in out

    def test_json_output_parses(self, capsys):
        import json

        assert main(["stages", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in payload["stages"]] == [
            "train-baseline", "fault-aware-train",
            "tolerance-analysis", "dram-eval",
        ]
        assert "baseline" in payload["registries"]["mapping_policies"]


class TestDramSpecFlag:
    def test_dram_accepts_registered_spec(self, capsys):
        assert main(["dram", "--spec", "tiny", "--voltages", "1.35"]) == 0
        assert "tiny-test-dram" in capsys.readouterr().out

    def test_dram_unknown_spec_fails_cleanly(self, capsys):
        assert main(["dram", "--spec", "ddr9"]) == 2
        assert "unknown dram spec" in capsys.readouterr().err

    def test_dram_json_output(self, capsys):
        import json

        assert main(["dram", "--json", "--voltages", "1.35", "1.025"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"] == "LPDDR3-1600 4Gb"
        assert len(payload["per_access_savings"]) == 2

    def test_dram_default_voltages_stay_at_or_below_nominal(self, capsys):
        # DDR5 runs at 1.1 V: the paper's 1.325-1.175 V corners lie above it.
        import json

        assert main(["dram", "--spec", "ddr5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"] == "DDR5-4800 8Gb"
        assert payload["voltages"] == [1.100, 1.025]

    def test_dram_default_voltages_on_lpddr3_are_the_paper_grid(self, capsys):
        import json

        from repro.core.config import PAPER_VOLTAGES

        assert main(["dram", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"] == "LPDDR3-1600 4Gb"
        assert payload["voltages"] == list(PAPER_VOLTAGES)
        assert len(payload["per_access_savings"]) == len(PAPER_VOLTAGES)


class TestSweepCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.datasets == ["mnist"]
        assert args.workers == 1
        assert args.voltages is None

    @pytest.mark.slow
    def test_tiny_sweep_end_to_end(self, capsys, tmp_path):
        exit_code = main([
            "sweep", "--neurons", "12", "--train", "40", "--test", "25",
            "--steps", "30", "--bound", "0.5",
            "--voltages", "1.325", "1.025",
            "--csv", str(tmp_path / "sweep.csv"),
            "--out", str(tmp_path / "sweep.json"),
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "2 grid points" in out
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.json").exists()

        from repro.analysis.export import load_run_records

        records = load_run_records(tmp_path / "sweep.json")
        assert len(records) == 2
        # one training shared across both voltage points
        assert records[1].cache_hits >= 3


class TestLocalFleetSizes:
    """``sweep`` rejects bad fleet sizes with exit 2 and an ``error:``
    line, before any service starts."""

    @pytest.mark.parametrize("command", [["sweep"]])
    @pytest.mark.parametrize(
        "flags", [["--workers", "0"], ["--threads-per-worker", "-3"]]
    )
    def test_rejected_before_any_service(self, command, flags, capsys, monkeypatch):
        from repro.cluster import ExperimentService

        def no_service(self):
            raise AssertionError("an experiment service was started")

        monkeypatch.setattr(ExperimentService, "start", no_service)
        exit_code = main([
            *command, "--neurons", "12", "--train", "40", "--test", "25",
            "--steps", "30", "--bound", "0.5",
            "--voltages", "1.325", "1.025", *flags,
        ])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "must be >= 1" in err


class TestCacheCommand:
    def _fill(self, cache_dir):
        from repro.pipeline import ArtifactStore

        store = ArtifactStore(cache_dir)
        for i in range(3):
            store.put("stage", f"d{i}", b"y" * 4000)

    def test_cache_prune_evicts(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        self._fill(cache)
        exit_code = main([
            "cache", "prune", "--cache-dir", str(cache), "--max-bytes", "4500",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "pruned 2 artifact(s)" in out
        assert len(list(cache.glob("*/*.pkl"))) == 1

    def test_cache_prune_json(self, capsys, tmp_path):
        import json

        cache = tmp_path / "cache"
        self._fill(cache)
        exit_code = main([
            "cache", "prune", "--cache-dir", str(cache),
            "--max-bytes", "1G", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["removed_files"] == 0
        assert payload["kept_files"] == 3
        assert payload["dry_run"] is False

    def test_cache_prune_dry_run_leaves_store_alone(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        self._fill(cache)
        exit_code = main([
            "cache", "prune", "--cache-dir", str(cache),
            "--max-bytes", "4500", "--dry-run",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "dry run: would prune 2 artifact(s)" in out
        assert len(list(cache.glob("*/*.pkl"))) == 3  # nothing deleted

    def test_cache_prune_dry_run_json(self, capsys, tmp_path):
        import json

        cache = tmp_path / "cache"
        self._fill(cache)
        exit_code = main([
            "cache", "prune", "--cache-dir", str(cache),
            "--max-bytes", "4500", "--dry-run", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["dry_run"] is True
        assert payload["removed_files"] == 2
        assert len(list(cache.glob("*/*.pkl"))) == 3

    def test_size_suffixes(self):
        from repro.cli import _parse_size

        assert _parse_size("4096") == 4096
        assert _parse_size("4K") == 4096
        assert _parse_size("2m") == 2 * 1024**2
        assert _parse_size("1G") == 1024**3
        with pytest.raises(ValueError):
            _parse_size("many")

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestEngineFlags:
    def test_run_parser_rejects_unknown_engine(self):
        # There is one evaluation path: even the old default is unknown.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--engine", "batched"])
        assert exc.value.code == 2

    def test_sweep_parser_accepts_error_models(self):
        args = build_parser().parse_args(
            ["sweep", "--error-models", "model0", "eden"]
        )
        assert args.error_models == ["model0", "eden"]

    def test_run_parser_accepts_error_model(self):
        args = build_parser().parse_args(["run", "--error-model", "eden"])
        assert args.error_model == "eden"


class TestTrainingEngineFlags:
    def test_run_parser_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.train_batch_size == 1
        assert args.compute_dtype == "float64"

    def test_run_parser_accepts_training_knobs(self):
        args = build_parser().parse_args(
            ["run", "--train-batch-size", "16", "--compute-dtype", "float32"]
        )
        assert args.train_batch_size == 16
        assert args.compute_dtype == "float32"

    def test_run_parser_rejects_unknown_dtype(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--compute-dtype", "float16"])

    def test_sweep_parser_accepts_axes(self):
        args = build_parser().parse_args([
            "sweep", "--train-batch-size", "1", "8",
            "--compute-dtype", "float64", "float32",
            "--threads-per-worker", "2",
        ])
        assert args.train_batch_sizes == [1, 8]
        assert args.compute_dtypes == ["float64", "float32"]
        assert args.threads_per_worker == 2

    @pytest.mark.slow
    def test_run_minibatch_json_surfaces_knobs(self, capsys):
        import json

        exit_code = main([
            "run", "--neurons", "12", "--train", "30", "--test", "20",
            "--steps", "25", "--bound", "0.5",
            "--train-batch-size", "4", "--compute-dtype", "float32",
            "--json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["train_batch_size"] == 4
        assert payload["compute_dtype"] == "float32"
        assert payload["wall_time_s"] > 0
        assert payload["wall_time_s"] >= sum(payload["stage_timings"].values())


class TestFleetViews:
    """``cluster status`` rendering of the one fleet view (``GET
    /fleet``): totals, workers, telemetry and a ``sweeps`` map."""

    FAILURE = "job train-baseline:ab12 failed 3 time(s): boom"
    STATUS = {
        "pending": 3, "leased": 1, "done": 5, "failed": 1,
        "failure": FAILURE,
        "workers": {"w1": 0.4},
        "transfers": {"get_count": 0, "get_bytes": 0},
        "telemetry": {
            "workers": {
                "w1": {
                    "metrics": {"counters": {
                        "worker.jobs_done": 5,
                        "worker.jobs_failed": 1,
                        "sync.retries": 2,
                        "sync.pulled_bytes_peer": 2048,
                        "sync.pulled_bytes_hub": 512,
                    }},
                    "open_spans": [{"name": "cluster.job", "age_s": 1.5}],
                },
            },
            "fleet": {"counters": {
                "plan.leases": 7,
                "plan.requeues": 1,
                "sync.retries": 2,
                "sync.pulled_bytes_peer": 2048,
                "sync.pulled_bytes_hub": 512,
            }},
        },
        "sweeps": {
            "aaaa": {
                "name": "alpha", "state": "running", "failure": None,
                "pending": 3, "leased": 1, "done": 2, "failed": 0,
            },
            "bbbb": {
                "state": "failed", "failure": FAILURE,
                "pending": 0, "leased": 0, "done": 3, "failed": 1,
            },
        },
    }

    def test_sweep_lines_cover_every_tenant(self):
        from repro.cli import _sweep_status_lines

        assert _sweep_status_lines(self.STATUS) == [
            "sweep aaaa (alpha) [running]: pending=3, leased=1, done=2, "
            "failed=0",
            "sweep bbbb [failed]: pending=0, leased=0, done=3, failed=1 "
            f"| failure: {self.FAILURE}",
        ]

    def test_top_renders_totals_fleet_workers_and_tenants(self):
        from repro.cli import _render_top

        lines = _render_top(self.STATUS).splitlines()
        assert lines[0] == "jobs: pending=3, leased=1, done=5, failed=1"
        assert lines[1] == (
            "fleet: leases=7 requeues=1 sync-retries=2 "
            "pulled 2.0KiB peer / 512B hub"
        )
        (row,) = [line for line in lines if "w1" in line]
        for cell in ("0.4s", "2.0KiB", "512B", "cluster.job (1.5s)"):
            assert cell in row
        assert lines[-3].startswith("sweep aaaa (alpha) [running]")
        assert lines[-2].startswith("sweep bbbb [failed]")
        assert lines[-1] == f"failure: {self.FAILURE}"

    def test_live_service_without_workers(self):
        from repro import SparkXDConfig
        from repro.cli import _render_top, _sweep_status_lines
        from repro.cluster import ExperimentService

        service = ExperimentService()
        managed = service.submit(
            SparkXDConfig.small(), {"voltages": [(1.325,)]}, name="solo"
        )
        status = service.fleet()
        pending = len(managed.plan.jobs)
        assert _sweep_status_lines(status) == [
            f"sweep {managed.sweep_id} (solo) [running]: pending={pending}, "
            "leased=0, done=0, failed=0"
        ]
        text = _render_top(status)
        assert "no workers registered" in text
        assert text.splitlines()[0] == (
            f"jobs: pending={pending}, leased=0, done=0, failed=0"
        )

    def test_status_command_renders_a_live_fleet(self, capsys, monkeypatch):
        import json

        from repro import SparkXDConfig
        from repro.cluster import ExperimentService, format_address

        monkeypatch.delenv("REPRO_CLUSTER_TOKEN", raising=False)
        with ExperimentService() as service:
            managed = service.submit(
                SparkXDConfig.small(), {"voltages": [(1.325,)]}, name="solo"
            )
            address = format_address(service.address)
            assert main(["cluster", "status", "--service", address]) == 0
            text = capsys.readouterr().out
            assert main(
                ["cluster", "status", "--service", address, "--json"]
            ) == 0
            view = json.loads(capsys.readouterr().out)
        assert text.splitlines()[0].startswith("jobs: pending=")
        assert "no workers registered" in text
        assert f"sweep {managed.sweep_id} (solo) [running]" in text
        assert view["sweeps"][managed.sweep_id]["name"] == "solo"
