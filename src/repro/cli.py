"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Execute the full SparkXD pipeline (Fig. 7) and print the summary.
``sweep``
    Run a grid of pipeline configs, reusing trained models across
    DRAM-side grid points; ``--workers N`` runs it on N localhost
    worker subprocesses behind an embedded single-shot experiment
    service.  ``--journal`` persists that service's job transitions
    next to the store and ``--resume`` replays them, so a sweep killed
    mid-run restarts without re-executing done work.
``cluster``
    Distribute sweeps across hosts (see docs/cluster.md): ``cluster
    serve`` keeps an experiment service up for ``cluster submit``/
    ``cancel``/``results`` clients and ``cluster worker`` agents, all
    of them speaking HTTP to its one address;
    ``cluster status`` renders its fleet view (jobs, per-worker
    throughput, peer-vs-hub bytes, slowest open spans, per-sweep
    journal lag), once or live with ``--watch``; ``cluster journal
    compact`` folds a journal offline.
``telemetry``
    Work with recorded traces: ``telemetry export`` converts the
    JSONL file written by ``--trace`` to a Chrome/Perfetto
    ``trace.json`` (see docs/telemetry.md).
``stages``
    Show the pipeline stages and every pluggable registry (datasets,
    error models, mapping policies, DRAM specs).
``dram``
    Print the DRAM-side studies (Fig. 2b, Table I) for a device.
``tolerance``
    Train a model, analyse its error tolerance and print the curve.
``cache``
    Manage the artifact disk cache (``cache prune`` evicts
    least-recently-used artifacts down to a byte budget;
    ``--dry-run`` reports what would be evicted without deleting).
``lint``
    Run the project invariant checkers (fingerprint completeness, RNG
    discipline, lock discipline, wire-protocol consistency, workspace
    discipline, log discipline) over the source tree; ``--check``
    gates on every error or warning not suppressed by a ``# lint:
    disable=RULE`` comment (see docs/lint.md).

Every data-producing command accepts ``--json`` for machine-readable
output on stdout.  ``run``, ``sweep`` and every ``cluster``
subcommand also accept ``--log-level`` (structured JSON logs on
stderr) and ``--trace PATH`` (span recording, docs/telemetry.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from repro.core.config import PAPER_BER_RATES, PAPER_VOLTAGES

REPRESENTATIONS = ("float32", "int8", "int16")
COMPUTE_DTYPES = ("float64", "float32")
STAGE_ENCODING_CHOICES = ("fresh", "shared")


def _add_telemetry_arguments(p) -> None:
    """The shared observability knobs (see docs/telemetry.md)."""
    p.add_argument("--log-level", default=None, metavar="LEVEL",
                   help="emit structured JSON log lines at LEVEL "
                        "(DEBUG/INFO/WARNING/ERROR) on stderr")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record span traces to a JSONL file; export "
                        "with 'repro telemetry export'")


def _add_run_parser(subparsers) -> None:
    p = subparsers.add_parser("run", help="run the full SparkXD pipeline")
    p.add_argument("--dataset", default="mnist")
    p.add_argument("--neurons", type=int, default=60)
    p.add_argument("--train", type=int, default=150)
    p.add_argument("--test", type=int, default=80)
    p.add_argument("--steps", type=int, default=80)
    p.add_argument("--bound", type=float, default=0.05,
                   help="accuracy bound (paper: 0.01)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--voltages", type=float, nargs="+", metavar="V",
                   help="reduced supply voltages to evaluate "
                        "(default: the paper's Fig. 12a set)")
    p.add_argument("--representation", choices=REPRESENTATIONS,
                   default="float32", help="weight storage representation")
    p.add_argument("--mapping", default="sparkxd",
                   help="weight mapping policy (see 'stages' for choices)")
    p.add_argument("--error-model", default="model0", metavar="NAME",
                   help="DRAM error model injected during training "
                        "(see 'stages' for choices)")
    p.add_argument("--train-batch-size", type=int, default=1, metavar="B",
                   help="samples per STDP presentation (1 = bit-exact "
                        "sequential reference; >1 = vectorized minibatch "
                        "approximation, see docs/training.md)")
    p.add_argument("--compute-dtype", choices=COMPUTE_DTYPES,
                   default="float64",
                   help="simulation/training precision (float32 halves "
                        "memory bandwidth but changes results)")
    p.add_argument("--stage-encoding", choices=STAGE_ENCODING_CHOICES,
                   default="fresh",
                   help="per-BER-stage encoding of fault-aware training "
                        "(shared = encode once, replay at every later "
                        "stage; requires --train-batch-size > 1)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="artifact-store directory; repeated runs with the "
                        "same config reuse cached stages")
    p.add_argument("--json", action="store_true",
                   help="print the run record as JSON instead of the summary")
    p.add_argument("--save-model", metavar="PATH",
                   help="write the improved model to an .npz file")
    _add_telemetry_arguments(p)


def _add_grid_arguments(p) -> None:
    """The sweep-grid axes and workload knobs (shared with ``cluster``)."""
    p.add_argument("--dataset", dest="datasets", nargs="+", default=["mnist"],
                   metavar="NAME", help="dataset axis")
    p.add_argument("--seeds", type=int, nargs="+", default=[42], metavar="S",
                   help="training-seed axis (each seed retrains)")
    p.add_argument("--sigmas", type=float, nargs="+", default=None, metavar="SIG",
                   help="weak-cell sigma axis (DRAM-side, no retraining)")
    p.add_argument("--mappings", nargs="+", default=None, metavar="POLICY",
                   help="mapping-policy axis (DRAM-side, no retraining)")
    p.add_argument("--error-models", nargs="+", default=None, metavar="NAME",
                   help="error-model axis (training-side: each model "
                        "retrains, see 'stages' for choices)")
    p.add_argument("--train-batch-size", type=int, nargs="+", default=None,
                   metavar="B", dest="train_batch_sizes",
                   help="train-batch-size axis (training-side: each size "
                        "retrains; see docs/training.md)")
    p.add_argument("--compute-dtype", nargs="+", default=None,
                   choices=COMPUTE_DTYPES, dest="compute_dtypes",
                   metavar="DTYPE",
                   help="compute-precision axis (training-side: each "
                        "dtype retrains; float64/float32)")
    p.add_argument("--stage-encoding", nargs="+", default=None,
                   choices=STAGE_ENCODING_CHOICES, dest="stage_encodings",
                   metavar="MODE",
                   help="stage-encoding axis (training-side: each mode "
                        "retrains; fresh/shared, shared requires a "
                        "train-batch-size > 1 on the same grid point)")
    p.add_argument("--voltages", type=float, nargs="+", default=None, metavar="V",
                   help="voltage axis: each voltage becomes its own grid "
                        "point (DRAM-side, no retraining)")
    p.add_argument("--neurons", type=int, default=60)
    p.add_argument("--train", type=int, default=150)
    p.add_argument("--test", type=int, default=80)
    p.add_argument("--steps", type=int, default=80)
    p.add_argument("--bound", type=float, default=0.05)


def _add_record_output_arguments(p) -> None:
    p.add_argument("--csv", metavar="PATH", help="also write records as CSV")
    p.add_argument("--out", metavar="PATH", help="also write records as JSON")
    p.add_argument("--json", action="store_true",
                   help="print the records as JSON instead of the table")


def _add_sweep_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "sweep",
        help="grid sweep through the staged pipeline (cached, parallel)",
    )
    _add_grid_arguments(p)
    p.add_argument("--workers", type=int, default=1,
                   help="localhost worker subprocesses (1 = serial, "
                        "in-process, unless journaling)")
    p.add_argument("--threads-per-worker", type=int, default=1, metavar="T",
                   help="BLAS/OpenMP threads each worker may use "
                        "(0 = leave the runtimes uncapped)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="artifact-store directory shared across sweeps")
    p.add_argument("--journal", nargs="?", const="auto", default=None,
                   metavar="PATH",
                   help="run the worker fleet (even at --workers 1) and "
                        "append its job transitions to a JSONL journal; "
                        "with no PATH it lives next to the store "
                        "(CACHE_DIR/journal.jsonl, requires --cache-dir)")
    p.add_argument("--resume", action="store_true",
                   help="replay an existing journal: journaled-done jobs "
                        "whose artifacts are still cached are never "
                        "re-leased (implies --journal)")
    p.add_argument("--compact-every", type=int, default=None, metavar="N",
                   help="auto-compact the journal after every N events, "
                        "folding lease/requeue chatter into one done "
                        "snapshot (implies --journal; default: never)")
    _add_record_output_arguments(p)
    _add_telemetry_arguments(p)


def _add_token_argument(p) -> None:
    """The shared cluster secret: the bearer token of every request.

    Defaults from ``$REPRO_CLUSTER_TOKEN`` so the secret never has to
    appear in ``ps`` output; an explicit ``--token`` wins.
    """
    p.add_argument("--token", default=os.environ.get("REPRO_CLUSTER_TOKEN"),
                   metavar="SECRET",
                   help="shared cluster auth token (default: "
                        "$REPRO_CLUSTER_TOKEN; unset = no auth)")


def _add_cluster_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "cluster",
        help="distribute sweeps across hosts (see docs/cluster.md)",
    )
    commands = p.add_subparsers(dest="cluster_command", required=True)

    serve = commands.add_parser(
        "serve",
        help="run the always-on experiment service: one HTTP port for "
             "workers and clients, multi-tenant sweeps on one store",
    )
    serve.add_argument("--bind", default="127.0.0.1:8752", metavar="HOST:PORT",
                       help="the one address workers and clients use "
                            "(port 0 = ephemeral)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="artifact-store directory shared by every sweep")
    serve.add_argument("--journal-dir", metavar="DIR",
                       help="directory for per-sweep journals "
                            "(sweep-<id>.jsonl; resubmits resume them)")
    serve.add_argument("--lease-s", type=float, default=30.0, metavar="S",
                       help="job lease/heartbeat timeout in seconds")
    serve.add_argument("--max-retries", type=int, default=3, metavar="N",
                       help="lease grants per job before a sweep fails")
    serve.add_argument("--compact-every", type=int, default=None, metavar="N",
                       help="auto-compact each tenant journal after every "
                            "N events (default: never)")
    serve.add_argument("--shutdown-when-idle", action="store_true",
                       help="tell workers to shut down once every submitted "
                            "sweep has finished (single-shot lifecycle)")
    _add_token_argument(serve)
    _add_telemetry_arguments(serve)

    submit = commands.add_parser(
        "submit",
        help="submit a sweep to a running experiment service",
    )
    _add_grid_arguments(submit)
    submit.add_argument("--service", required=True, metavar="HOST:PORT",
                        help="address of the service")
    submit.add_argument("--name", default=None, metavar="NAME",
                        help="human-readable sweep label")
    submit.add_argument("--wait", action="store_true",
                        help="block until the sweep finishes, then print "
                             "its records")
    submit.add_argument("--wait-timeout", type=float, default=None,
                        metavar="S",
                        help="with --wait: give up after S seconds")
    _add_token_argument(submit)
    _add_record_output_arguments(submit)
    _add_telemetry_arguments(submit)

    cancel = commands.add_parser(
        "cancel",
        help="cancel a sweep on a running service (frees its leases)",
    )
    cancel.add_argument("sweep_id", metavar="SWEEP_ID")
    cancel.add_argument("--service", required=True, metavar="HOST:PORT",
                        help="address of the service")
    cancel.add_argument("--json", action="store_true",
                        help="print the cancel reply as JSON")
    _add_token_argument(cancel)
    _add_telemetry_arguments(cancel)

    results = commands.add_parser(
        "results",
        help="fetch a finished sweep's records from a running service",
    )
    results.add_argument("sweep_id", metavar="SWEEP_ID")
    results.add_argument("--service", required=True, metavar="HOST:PORT",
                         help="address of the service")
    _add_token_argument(results)
    _add_record_output_arguments(results)
    _add_telemetry_arguments(results)

    worker = commands.add_parser(
        "worker",
        help="run one worker agent against a coordinator",
    )
    worker.add_argument("--coordinator", required=True, metavar="HOST:PORT",
                        help="coordinator address to lease jobs from")
    worker.add_argument("--name", default=None, metavar="NAME",
                        help="stable worker identity (default: host-pid-nonce)")
    worker.add_argument("--cache-dir", metavar="DIR",
                        help="local artifact-store directory (default: memory)")
    worker.add_argument("--max-idle-s", type=float, default=30.0, metavar="S",
                        help="exit after S seconds of coordinator "
                             "unreachability")
    worker.add_argument("--peer-port", type=int, default=0, metavar="PORT",
                        help="fixed port for the peer artifact endpoint "
                             "(default: ephemeral)")
    worker.add_argument("--json", action="store_true",
                        help="print the worker's lifetime stats as JSON")
    _add_token_argument(worker)
    _add_telemetry_arguments(worker)

    status = commands.add_parser(
        "status",
        help="fleet view of a running service: job-state counts, "
             "per-worker throughput and transfer bytes, per-sweep "
             "tenants and journal lag, the slowest open spans",
    )
    status.add_argument("--service", required=True, metavar="HOST:PORT",
                        help="address of the service")
    status.add_argument("--watch", type=float, default=None, metavar="S",
                        help="refresh every S seconds until interrupted "
                             "(default: render one frame and exit)")
    status.add_argument("--timeout", type=float, default=10.0, metavar="S",
                        help="connection timeout in seconds")
    status.add_argument("--json", action="store_true",
                        help="print the raw fleet view as JSON")
    _add_token_argument(status)
    _add_telemetry_arguments(status)

    journal = commands.add_parser(
        "journal",
        help="offline journal maintenance (no coordinator required)",
    )
    journal_commands = journal.add_subparsers(
        dest="journal_command", required=True
    )
    compact = journal_commands.add_parser(
        "compact",
        help="fold a sweep journal down to its plan header + one done "
             "snapshot (replays to identical state, O(done) size)",
    )
    compact.add_argument("path", metavar="JOURNAL",
                         help="the JSONL journal file to compact in place")
    compact.add_argument("--json", action="store_true",
                         help="print the compaction summary as JSON")
    _add_telemetry_arguments(compact)


def _add_telemetry_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "telemetry",
        help="work with recorded traces (see docs/telemetry.md)",
    )
    commands = p.add_subparsers(dest="telemetry_command", required=True)
    export = commands.add_parser(
        "export",
        help="convert a JSONL span trace to Chrome/Perfetto trace.json "
             "(load in chrome://tracing or ui.perfetto.dev)",
    )
    export.add_argument("--trace", required=True, metavar="PATH",
                        help="the JSONL trace a --trace run recorded")
    export.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default: TRACE with a "
                             ".chrome.json suffix)")
    export.add_argument("--json", action="store_true",
                        help="print the export summary as JSON")


def _add_stages_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "stages", help="list pipeline stages and pluggable registries"
    )
    p.add_argument("--json", action="store_true")


def _add_dram_parser(subparsers) -> None:
    p = subparsers.add_parser("dram", help="DRAM energy studies (no training)")
    p.add_argument(
        "--voltages", type=float, nargs="+", default=None, metavar="V",
        help="supply voltages to price (default: the paper's Fig. 12a set, "
             "at or below the device's nominal supply)",
    )
    p.add_argument("--spec", default="lpddr3-1600-4gb", metavar="NAME",
                   help="DRAM device spec (see 'stages' for choices)")
    p.add_argument("--json", action="store_true")


def _add_tolerance_parser(subparsers) -> None:
    p = subparsers.add_parser("tolerance", help="error-tolerance analysis")
    p.add_argument("--dataset", default="mnist")
    p.add_argument("--neurons", type=int, default=60)
    p.add_argument("--train", type=int, default=150)
    p.add_argument("--test", type=int, default=80)
    p.add_argument("--bound", type=float, default=0.05)
    p.add_argument("--rates", type=float, nargs="+",
                   default=list(PAPER_BER_RATES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")


def _parse_size(text: str) -> int:
    """Parse a byte size with an optional K/M/G suffix (e.g. ``500M``)."""
    text = str(text).strip()
    multipliers = {"k": 1024, "m": 1024**2, "g": 1024**3}
    suffix = text[-1:].lower()
    if suffix in multipliers:
        return int(float(text[:-1]) * multipliers[suffix])
    return int(text)


def _add_cache_parser(subparsers) -> None:
    p = subparsers.add_parser("cache", help="manage the artifact disk cache")
    cache_commands = p.add_subparsers(dest="cache_command", required=True)
    prune = cache_commands.add_parser(
        "prune",
        help="evict least-recently-used artifacts down to a byte budget",
    )
    prune.add_argument("--cache-dir", required=True, metavar="DIR",
                       help="artifact-store directory to prune")
    prune.add_argument("--max-bytes", required=True, metavar="SIZE",
                       help="byte budget to shrink the cache to "
                            "(K/M/G suffixes allowed, e.g. 500M)")
    prune.add_argument("--dry-run", action="store_true",
                       help="report what LRU eviction would delete "
                            "without touching the store")
    prune.add_argument("--json", action="store_true")


def _add_lint_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "lint",
        help="run the project invariant checkers (see docs/lint.md)",
    )
    p.add_argument("--root", default=None, metavar="DIR",
                   help="tree to lint (default: the installed repro package)")
    p.add_argument("--check", action="store_true",
                   help="gate mode: exit 1 if any error/warning finding "
                        "exists (info never gates)")
    p.add_argument("--rules", nargs="+", metavar="RULE",
                   help="run only these rules (default: all)")
    p.add_argument("--report", metavar="FILE",
                   help="also write the full JSON report to FILE")
    p.add_argument("--json", action="store_true",
                   help="print the JSON report on stdout instead of text")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all subcommands attached."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SparkXD reproduction - resilient SNN inference on approximate DRAM",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(subparsers)
    _add_sweep_parser(subparsers)
    _add_cluster_parser(subparsers)
    _add_telemetry_parser(subparsers)
    _add_stages_parser(subparsers)
    _add_dram_parser(subparsers)
    _add_tolerance_parser(subparsers)
    _add_cache_parser(subparsers)
    _add_lint_parser(subparsers)
    return parser


def _base_config(args):
    from repro import SparkXDConfig

    overrides = dict(
        n_neurons=args.neurons,
        n_train=args.train,
        n_test=args.test,
        n_steps=args.steps,
        accuracy_bound=args.bound,
    )
    if getattr(args, "dataset", None) is not None:
        overrides["dataset"] = args.dataset
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return SparkXDConfig.small(**overrides)


def _cmd_run(args) -> int:
    import time

    from repro.pipeline import ArtifactStore, ExperimentPipeline
    from repro.pipeline.runner import RunRecord

    config = _base_config(args).with_overrides(
        representation=args.representation,
        mapping_policy=args.mapping,
        error_model=args.error_model,
        train_batch_size=args.train_batch_size,
        compute_dtype=args.compute_dtype,
        stage_encoding=args.stage_encoding,
    )
    if args.voltages:
        config = config.with_overrides(voltages=tuple(args.voltages))
    store = ArtifactStore(args.cache_dir) if args.cache_dir else ArtifactStore()
    pipeline = ExperimentPipeline(config, store=store)
    started = time.perf_counter()
    result = pipeline.run()
    wall_time_s = time.perf_counter() - started
    if args.json:
        record = RunRecord.from_result(
            result,
            wall_time_s=wall_time_s,
            cache_hits=store.stats.hits,
            cache_misses=store.stats.misses,
            stage_timings=pipeline.stage_timings,
        )
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.summary())
    if args.save_model:
        from repro.snn.serialization import save_model

        path = save_model(result.improved_model, args.save_model)
        if not args.json:
            print(f"improved model written to {path}")
    return 0


def _grid_from_args(args, base) -> dict:
    """Build the sweep grid dict the CLI axes describe."""
    from repro.analysis.sweeps import per_voltage_axis

    grid = {}
    if args.datasets != ["mnist"]:
        grid["dataset"] = list(args.datasets)
    if args.seeds and args.seeds != [base.seed]:
        grid["seed"] = list(args.seeds)
    if args.voltages:
        grid["voltages"] = per_voltage_axis(args.voltages)
    if args.sigmas:
        grid["weak_cell_sigma"] = list(args.sigmas)
    if args.mappings:
        grid["mapping_policy"] = list(args.mappings)
    if args.error_models:
        grid["error_model"] = list(args.error_models)
    if args.train_batch_sizes:
        grid["train_batch_size"] = list(args.train_batch_sizes)
    if args.compute_dtypes:
        grid["compute_dtype"] = list(args.compute_dtypes)
    if args.stage_encodings:
        grid["stage_encoding"] = list(args.stage_encodings)
    return grid


def _emit_records(args, records, title: str) -> None:
    """Print/write sweep records per the shared output flags."""
    from repro.analysis.export import (
        export_run_records,
        run_records_to_json,
        write_run_records_json,
    )
    from repro.analysis.reporting import format_table

    if args.json:
        print(run_records_to_json(records))
    else:
        rows = []
        for record in records:
            rows.append([
                record.run_id,
                json.dumps(record.params, default=str),
                f"{record.baseline_accuracy:.3f}",
                f"{record.improved_accuracy:.3f}",
                f"{record.ber_threshold}",
                f"{record.mean_energy_saving:.1%}",
                f"{record.cache_hits}/{record.cache_hits + record.cache_misses}",
            ])
        print(format_table(
            ["run", "params", "base acc", "impr acc", "BER_th",
             "mean saving", "cache"],
            rows,
            title=title,
        ))
    if args.csv:
        path = export_run_records(args.csv, records)
        if not args.json:
            print(f"records written to {path}")
    if args.out:
        path = write_run_records_json(args.out, records)
        if not args.json:
            print(f"records written to {path}")


def _cmd_sweep(args) -> int:
    from repro.pipeline import ArtifactStore, Runner

    base = _base_config(args)
    grid = _grid_from_args(args, base)
    store = ArtifactStore(args.cache_dir) if args.cache_dir else ArtifactStore()
    threads = None if args.threads_per_worker == 0 else args.threads_per_worker
    journal = _resolve_journal(args)
    if journal is None:
        records = Runner(
            base, store=store, max_workers=args.workers,
            threads_per_worker=threads,
        ).run(grid)
    else:
        # The journal belongs to the fleet's coordinator, so a journaled
        # sweep runs the fleet even at --workers 1.
        from repro.cluster import ClusterExecutor

        records = ClusterExecutor(
            base,
            store=store,
            journal=journal,
            resume=args.resume,
            compact_every=args.compact_every,
        ).run_local(grid, args.workers, threads_per_worker=threads)
    _emit_records(args, records, title=f"sweep: {len(records)} grid points")
    return 0


def _resolve_journal(args):
    """The journal path the ``--journal``/``--resume`` flags describe.

    ``--resume`` and ``--compact-every`` imply journaling; the bare
    ``--journal`` flag (no PATH) places the journal next to the store,
    which therefore requires ``--cache-dir`` — an in-memory store
    cannot resume anyway.
    """
    from pathlib import Path

    implied = args.resume or args.compact_every is not None
    journal = args.journal or ("auto" if implied else None)
    if journal is None:
        return None
    if journal == "auto":
        if not args.cache_dir:
            raise ValueError(
                "--journal/--resume without a PATH places the journal next "
                "to the store: pass --cache-dir (resume needs a disk-backed "
                "store to hold the artifacts) or an explicit --journal PATH"
            )
        return Path(args.cache_dir) / "journal.jsonl"
    return Path(journal)


def _format_bytes(n: float) -> str:
    """Human-readable byte count (binary units) for the fleet table."""
    n = float(n)
    for unit in ("B", "KiB", "MiB"):
        if n < 1024:
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}GiB"


def _render_top(status: dict) -> str:
    """One frame of the ``cluster status`` fleet view.

    Pure function over a ``GET /fleet`` reply so tests can feed canned
    payloads; tolerant of services predating the ``telemetry`` field
    (the table simply loses its metric columns).
    """
    from repro.analysis.reporting import format_table

    lines = []
    jobs = ", ".join(
        f"{state}={status.get(state, 0)}"
        for state in ("pending", "leased", "done", "failed")
    )
    lines.append(f"jobs: {jobs}")
    telemetry = status.get("telemetry") or {}
    fleet_counters = (telemetry.get("fleet") or {}).get("counters") or {}
    if fleet_counters:
        lines.append(
            "fleet: "
            f"leases={fleet_counters.get('plan.leases', 0):.0f} "
            f"requeues={fleet_counters.get('plan.requeues', 0):.0f} "
            f"sync-retries={fleet_counters.get('sync.retries', 0):.0f} "
            f"pulled {_format_bytes(fleet_counters.get('sync.pulled_bytes_peer', 0))} peer"
            f" / {_format_bytes(fleet_counters.get('sync.pulled_bytes_hub', 0))} hub"
        )
    workers = status.get("workers") or {}
    snapshots = telemetry.get("workers") or {}
    rows = []
    for name in sorted(workers):
        snapshot = snapshots.get(name) or {}
        counters = (snapshot.get("metrics") or {}).get("counters") or {}
        open_list = snapshot.get("open_spans") or []
        slowest = (
            f"{open_list[0]['name']} ({open_list[0]['age_s']:.1f}s)"
            if open_list else "-"
        )
        rows.append([
            name,
            f"{workers[name]:.1f}s",
            f"{counters.get('worker.jobs_done', 0):.0f}",
            f"{counters.get('worker.jobs_failed', 0):.0f}",
            f"{counters.get('sync.retries', 0):.0f}",
            _format_bytes(counters.get("sync.pulled_bytes_peer", 0)),
            _format_bytes(counters.get("sync.pulled_bytes_hub", 0)),
            slowest,
        ])
    if rows:
        lines.append(format_table(
            ["worker", "seen", "done", "failed", "retries",
             "peer in", "hub in", "slowest open span"],
            rows,
        ))
    else:
        lines.append("no workers registered")
    sweep_lines = _sweep_status_lines(status)
    if sweep_lines:
        lines.extend(sweep_lines)
    if status.get("failure"):
        lines.append(f"failure: {status['failure']}")
    return "\n".join(lines)


def _sweep_status_lines(status: dict) -> list:
    """Per-tenant lines of the fleet view: state, counts, journal lag.

    One line per entry of the ``GET /fleet`` reply's ``sweeps`` map.
    """
    lines = []
    sweeps = status.get("sweeps") or {}
    for sweep_id in sorted(sweeps):
        info = sweeps[sweep_id] or {}
        counts = ", ".join(
            f"{state}={info.get(state, 0)}"
            for state in ("pending", "leased", "done", "failed")
        )
        name = info.get("name")
        label = f"sweep {sweep_id}" + (f" ({name})" if name else "")
        line = f"{label} [{info.get('state', '?')}]: {counts}"
        journal = info.get("journal") or {}
        if journal:
            line += f" | journal lag {journal.get('lag', 0)}"
        if info.get("failure"):
            line += f" | failure: {info['failure']}"
        lines.append(line)
    return lines


def _cmd_cluster(args) -> int:
    from repro.pipeline import ArtifactStore

    if args.cluster_command == "worker":
        from repro.cluster import WorkerAgent

        store = (
            ArtifactStore(args.cache_dir) if args.cache_dir else ArtifactStore()
        )
        agent = WorkerAgent(
            args.coordinator,
            name=args.name,
            store=store,
            max_idle_s=args.max_idle_s,
            peer_port=args.peer_port,
            token=args.token,
        )
        stats = agent.run_forever()
        if agent.auth_error is not None:
            raise agent.auth_error  # main() prints it and exits 2
        if args.json:
            print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        else:
            print(
                f"worker {agent.name}: {stats.jobs_done} job(s) done, "
                f"{stats.jobs_failed} failed, "
                f"{stats.artifacts_pulled} pulled / "
                f"{stats.artifacts_pushed} pushed"
            )
        return 0 if not stats.jobs_failed else 1

    if args.cluster_command == "journal":
        from pathlib import Path

        from repro.cluster import SweepJournal

        if args.journal_command != "compact":
            raise ValueError(
                f"unknown journal command {args.journal_command!r}"
            )
        path = Path(args.path)
        if not path.exists():
            print(f"error: journal {path} does not exist", file=sys.stderr)
            return 1
        with SweepJournal(path, resume=True) as journal_file:
            summary = journal_file.compact()
        summary["path"] = str(path)
        summary["bytes"] = path.stat().st_size
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(
                f"compacted {path}: {summary['events_before']} event(s) -> "
                f"{summary['events_after']} ({summary['done']} done jobs, "
                f"{summary['bytes']} bytes)"
            )
        return 0

    if args.cluster_command == "status":
        import time

        from repro.cluster.http_api import ServiceClient

        client = ServiceClient(
            args.service, token=args.token, timeout=args.timeout
        )
        while True:
            status = client.fleet()
            if args.json:
                print(json.dumps(status, indent=2, sort_keys=True))
            else:
                print(_render_top(status))
            if not args.watch:
                break
            try:
                time.sleep(args.watch)
            except KeyboardInterrupt:
                break
            if not args.json:
                print()
        return 1 if status.get("failure") else 0

    if args.cluster_command == "serve":
        import time

        from repro.cluster import format_address, parse_address
        from repro.cluster.service import ExperimentService

        host, port = parse_address(args.bind)
        store = (
            ArtifactStore(args.cache_dir) if args.cache_dir else ArtifactStore()
        )
        service = ExperimentService(
            store=store,
            host=host,
            port=port,
            token=args.token,
            lease_timeout=args.lease_s,
            max_attempts=args.max_retries,
            journal_dir=args.journal_dir,
            compact_every=args.compact_every,
            shutdown_when_idle=args.shutdown_when_idle,
        )
        service.start()
        try:
            address = format_address(service.address)
            print(f"address:  {address}")
            print(f"workers:  repro cluster worker --coordinator {address}")
            print(f"clients:  repro cluster submit --service {address}")
            print(f"auth:     {'token required' if args.token else 'off'}")
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            service.stop()
        return 0

    if args.cluster_command == "submit":
        from repro.cluster.http_api import ServiceClient
        from repro.pipeline.runner import RunRecord

        base = _base_config(args)
        grid = _grid_from_args(args, base)
        client = ServiceClient(args.service, token=args.token)
        submitted = client.submit(base, grid, name=args.name)
        if not args.wait:
            if args.json:
                print(json.dumps(submitted, indent=2, sort_keys=True))
            else:
                print(
                    f"sweep {submitted['sweep_id']} "
                    f"[{submitted.get('state', '?')}]: "
                    f"{submitted.get('grid_points', '?')} grid point(s), "
                    f"{submitted.get('replayed_done', 0)} replayed done"
                )
            return 0
        final = client.wait(submitted["sweep_id"], timeout=args.wait_timeout)
        if final.get("state") != "done":
            print(
                f"sweep {submitted['sweep_id']} ended "
                f"{final.get('state', '?')}",
                file=sys.stderr,
            )
            return 1
        payload = client.results(submitted["sweep_id"])
        records = [
            RunRecord.from_dict(entry) for entry in payload.get("records", [])
        ]
        _emit_records(
            args,
            records,
            title=(
                f"sweep {submitted['sweep_id']}: "
                f"{len(records)} grid points"
            ),
        )
        return 0

    if args.cluster_command == "cancel":
        from repro.cluster.http_api import ServiceClient

        reply = ServiceClient(args.service, token=args.token).cancel(
            args.sweep_id
        )
        if args.json:
            print(json.dumps(reply, indent=2, sort_keys=True))
        else:
            print(
                f"sweep {reply['sweep_id']} [{reply.get('state', '?')}]: "
                f"{reply.get('leases_freed', 0)} lease(s) freed"
            )
        return 0

    if args.cluster_command == "results":
        from repro.cluster.http_api import ServiceClient
        from repro.pipeline.runner import RunRecord

        payload = ServiceClient(args.service, token=args.token).results(
            args.sweep_id
        )
        records = [
            RunRecord.from_dict(entry) for entry in payload.get("records", [])
        ]
        _emit_records(
            args,
            records,
            title=f"sweep {args.sweep_id}: {len(records)} grid points",
        )
        return 0

    raise ValueError(f"unknown cluster command {args.cluster_command!r}")


def _cmd_telemetry(args) -> int:
    from pathlib import Path

    from repro.telemetry import write_chrome_trace

    if args.telemetry_command == "export":
        trace = Path(args.trace)
        if not trace.is_file():
            print(f"error: trace {trace} does not exist", file=sys.stderr)
            return 1
        out = args.out or str(trace.with_suffix(".chrome.json"))
        summary = write_chrome_trace(str(trace), out)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(
                f"exported {summary['events']} span(s) from "
                f"{summary['pids']} process(es) to {summary['out']}"
            )
        return 0
    raise ValueError(f"unknown telemetry command {args.telemetry_command!r}")


def _cmd_stages(args) -> int:
    from repro.core.mapping_policy import MAPPING_POLICIES
    from repro.datasets import DATASETS
    from repro.dram.specs import DRAM_SPECS
    from repro.errors.models import ERROR_MODELS
    from repro.pipeline import default_stages

    stages = [
        {
            "name": stage.name,
            "requires": list(stage.requires),
            "provides": stage.provides,
            "config_fields": list(stage.fields),
        }
        for stage in default_stages()
    ]
    registries = {
        "datasets": list(DATASETS.names()),
        "error_models": list(ERROR_MODELS.names()),
        "mapping_policies": list(MAPPING_POLICIES.names()),
        "dram_specs": list(DRAM_SPECS.names()),
    }
    if args.json:
        print(json.dumps({"stages": stages, "registries": registries},
                         indent=2, sort_keys=True))
        return 0
    print("pipeline stages (execution order):")
    for stage in stages:
        requires = ", ".join(stage["requires"]) or "-"
        print(f"  {stage['name']:<20} requires: {requires:<22} "
              f"provides: {stage['provides']}")
    for kind, names in registries.items():
        print(f"{kind.replace('_', ' ')}: {', '.join(names)}")
    return 0


def _cmd_dram(args) -> int:
    from repro.analysis.reporting import format_table
    from repro.dram.commands import AccessCondition
    from repro.dram.energy import DramEnergyModel
    from repro.dram.specs import get_dram_spec

    spec = get_dram_spec(args.spec)
    nominal = spec.electrical.v_nominal_volts
    voltages = args.voltages or [v for v in PAPER_VOLTAGES if v <= nominal]
    model = DramEnergyModel(spec)
    rows = []
    for condition in AccessCondition:
        row = [condition.value]
        for v in voltages:
            row.append(f"{model.access_energy(condition, v).total_nj:.2f}")
        rows.append(row)
    savings = [model.energy_per_access_saving(v) for v in voltages]
    if args.json:
        payload = {
            "spec": spec.name,
            "voltages": list(voltages),
            "access_energy_nj": {
                condition.value: [
                    model.access_energy(condition, v).total_nj
                    for v in voltages
                ]
                for condition in AccessCondition
            },
            "per_access_savings": savings,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_table(
        ["condition"] + [f"{v:.3f}V [nJ]" for v in voltages],
        rows,
        title=f"Access energy - {spec.name}",
    ))
    print(f"\nper-access savings vs {nominal:.3f}V: "
          + "  ".join(f"{s:.2%}" for s in savings))
    return 0


def _cmd_tolerance(args) -> int:
    from repro.core.fault_aware_training import train_baseline
    from repro.core.tolerance_analysis import analyze_error_tolerance
    from repro.datasets import load_dataset
    from repro.errors.injection import ErrorInjector
    from repro.snn.quantization import Float32Representation

    rng = np.random.default_rng(args.seed)
    dataset = load_dataset(args.dataset, args.train, args.test)
    if not args.json:
        print(f"training baseline ({args.neurons} neurons on {dataset.name})...")
    model = train_baseline(dataset, args.neurons, epochs=2, rng=rng)
    if not args.json:
        print(f"baseline accuracy: {model.accuracy:.1%}")
    injector = ErrorInjector(Float32Representation(clip_range=(0, 1)), seed=1)
    report = analyze_error_tolerance(
        model, dataset, injector, rates=args.rates,
        baseline_accuracy=model.accuracy, accuracy_bound=args.bound, rng=rng,
    )
    if args.json:
        payload = {
            "baseline_accuracy": model.accuracy,
            "curve": [{"ber": ber, "accuracy": acc} for ber, acc in report.curve],
            "ber_threshold": report.ber_threshold,
            "min_voltage": report.min_voltage(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for ber, accuracy in report.curve:
        marker = "  <= tolerable" if report.meets_target(ber) else ""
        print(f"  BER {ber:.0e}: {accuracy:.1%}{marker}")
    print(f"maximum tolerable BER: {report.ber_threshold}")
    print(f"minimum supply voltage: {report.min_voltage():.3f} V")
    return 0


def _cmd_cache(args) -> int:
    from repro.pipeline import ArtifactStore

    if args.cache_command == "prune":
        store = ArtifactStore(args.cache_dir)
        report = store.prune(_parse_size(args.max_bytes), dry_run=args.dry_run)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        elif args.dry_run:
            print(
                f"dry run: would prune {report.removed_files} artifact(s), "
                f"freeing {report.freed_bytes} bytes; "
                f"{report.kept_files} artifact(s) "
                f"({report.kept_bytes} bytes) would remain"
            )
        else:
            print(
                f"pruned {report.removed_files} artifact(s), "
                f"freed {report.freed_bytes} bytes; "
                f"{report.kept_files} artifact(s) "
                f"({report.kept_bytes} bytes) remain"
            )
        return 0
    raise ValueError(f"unknown cache command {args.cache_command!r}")


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.lint import default_checkers, run_lint

    if args.root is not None:
        root = Path(args.root)
    else:
        import repro

        root = Path(repro.__file__).resolve().parent
        # Name a package under the working directory relatively, so a
        # report regenerated in any checkout holds no checkout path.
        cwd = Path.cwd().resolve()
        if root.is_relative_to(cwd):
            root = root.relative_to(cwd)

    checkers = default_checkers()
    if args.rules:
        known = {c.rule for c in checkers}
        unknown = [r for r in args.rules if r not in known]
        if unknown:
            raise ValueError(
                f"unknown rule(s) {unknown}; available: {sorted(known)}"
            )
        checkers = tuple(c for c in checkers if c.rule in args.rules)

    report = run_lint(root, checkers=checkers)
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.format())
        print(
            f"lint: {report.files_scanned} file(s), "
            f"{len(report.findings)} finding(s) "
            f"({report.suppressed} suppressed)"
        )
    if args.check and not report.ok:
        if not args.json:
            print(
                f"lint --check: {len(report.gating)} gating finding(s)",
                file=sys.stderr,
            )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` (default: process args) and run the subcommand."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "cluster": _cmd_cluster,
        "telemetry": _cmd_telemetry,
        "stages": _cmd_stages,
        "dram": _cmd_dram,
        "tolerance": _cmd_tolerance,
        "cache": _cmd_cache,
        "lint": _cmd_lint,
    }
    try:
        # ``telemetry export`` reuses --trace as its *input* path; for
        # every other command the shared flags switch telemetry on.
        if args.command != "telemetry" and (
            getattr(args, "log_level", None) or getattr(args, "trace", None)
        ):
            from repro.telemetry import configure_telemetry

            configure_telemetry(
                level=args.log_level, trace_path=args.trace
            )
        return handlers[args.command](args)
    except ValueError as error:
        # Config validation and registry lookups raise ValueError with
        # user-actionable messages (unknown names list the choices).
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:
        # Cluster error replies (auth rejections included) carry their
        # own user-actionable message; anything else keeps its traceback.
        from repro.cluster.http_api import ServiceError

        if isinstance(error, ServiceError):
            print(f"error: {error}", file=sys.stderr)
            return 2
        if isinstance(error, ConnectionError):
            print(
                f"error: cannot reach the service: {error}", file=sys.stderr
            )
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
