#!/usr/bin/env python
"""Distributed sweep throughput: localhost worker fleets vs the Runner.

Runs one fixed sweep grid through the in-process serial ``Runner``
(the baseline), then through ``ClusterExecutor.run_local`` with
1 / 2 / 4 localhost worker *subprocesses* — the one local-parallel
path, which ``Runner(max_workers=N)`` runs too.  Every run must
produce records value-identical to the serial baseline; the results go
to ``BENCH_cluster.json`` — the cluster half of the repo's performance
trajectory artifacts.

Additional scenarios ride along:

- **peer fabric** — a 2-worker sweep with several DRAM-side points per
  training chain (creation-order grants can hand a worker a job whose
  upstream artifacts the *other* worker computed).  Every pull is
  served worker-to-worker, so the coordinator's ``get`` path moves
  **zero** bytes (asserted), and the records must match serial;
- **kill-resume** (``--kill-resume``) — a ``repro sweep --workers 2
  --cache-dir C`` subprocess SIGKILLed once half of its jobs'
  artifacts are in ``C``, then the identical command run again.  The
  kill must land with work left, the rerun's records must be
  value-identical to the serial Runner, and the artifacts stored at
  the kill plus the rerun's cache misses must add up to the sweep's
  job count (no stored fingerprint executed again).  This is the CI
  crash-recovery smoke.

Usage::

    PYTHONPATH=src python benchmarks/perf_cluster.py           # full run
    PYTHONPATH=src python benchmarks/perf_cluster.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/perf_cluster.py --quick \\
        --kill-resume --skip-throughput   # CI kill-and-rerun smoke
    PYTHONPATH=src python benchmarks/perf_cluster.py --quick \\
        --skip-throughput --peer-fabric   # CI p2p smoke

The grid deliberately contains several *training-side* fingerprints
(a seed axis), so there is real work to distribute: each worker is a
fresh interpreter computing whole training chains, with artifacts
flowing back over the content-addressed sync layer.  The quick variant
doubles as the CI cluster smoke: an embedded single-shot service plus
2 localhost workers over a tiny 4-point sweep, asserting record
equality with the serial ``Runner`` (exit 1 on any divergence).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import SparkXDConfig
from repro.analysis.export import records_equivalent
from repro.cluster import ClusterExecutor
from repro.pipeline import ArtifactStore, Runner
from repro.pipeline.runner import RunRecord

FULL_CONFIG = dict(
    n_train=120, n_test=60, n_neurons=60, n_steps=60,
    baseline_epochs=1, ber_rates=(1e-5, 1e-3), accuracy_bound=0.5,
)
FULL_GRID = {"seed": [42, 43, 44, 45], "voltages": [(1.325,), (1.025,)]}
QUICK_CONFIG = dict(
    n_train=40, n_test=25, n_neurons=12, n_steps=30,
    baseline_epochs=1, ber_rates=(1e-5, 1e-3), accuracy_bound=0.5,
)
QUICK_GRID = {"seed": [42, 43], "voltages": [(1.325,), (1.025,)]}

FULL_FLEETS = (1, 2, 4)
QUICK_FLEETS = (2,)

# The peer-fabric scenario needs several DRAM-side points per training
# chain: once both chains finish, every dram-eval job is ready at once
# and creation-order grants hand workers jobs whose upstream artifacts
# live on the *other* worker.
FULL_FABRIC_GRID = {
    "seed": [42, 43],
    "voltages": [(1.325,), (1.250,), (1.175,), (1.100,), (1.025,)],
}
QUICK_FABRIC_GRID = {
    "seed": [42, 43],
    "voltages": [(1.325,), (1.175,), (1.025,)],
}

# The kill-resume scenario drives the real CLI, so its workload uses
# only CLI-expressible knobs (SparkXDConfig.small defaults otherwise).
FULL_CLI_ARGS = ["--neurons", "30", "--train", "80", "--test", "40",
                 "--steps", "40", "--bound", "0.5"]
FULL_CLI_CONFIG = dict(n_neurons=30, n_train=80, n_test=40, n_steps=40,
                       accuracy_bound=0.5, seed=42)
QUICK_CLI_ARGS = ["--neurons", "12", "--train", "40", "--test", "25",
                  "--steps", "30", "--bound", "0.5"]
QUICK_CLI_CONFIG = dict(n_neurons=12, n_train=40, n_test=25, n_steps=30,
                        accuracy_bound=0.5, seed=42)
CLI_GRID_ARGS = ["--seeds", "42", "43", "--voltages", "1.325", "1.025"]
CLI_GRID = {"seed": [42, 43], "voltages": [(1.325,), (1.025,)]}


def _distributed_run(config, grid, n_workers, lease_s=60.0):
    """One cluster sweep against a fresh fleet.

    Returns ``(records, seconds, executor)`` — the executor exposes the
    plan (whose per-job stats carry the transfer accounting) and the
    hub's own ``last_transfer_stats`` counters.
    """
    executor = ClusterExecutor(
        config,
        store=ArtifactStore(),
        lease_timeout=lease_s,
        wait_timeout=1800.0,
    )
    started = time.perf_counter()
    records = executor.run_local(grid, n_workers)
    return records, time.perf_counter() - started, executor


def run_benchmark(quick: bool) -> dict:
    config = SparkXDConfig.small(**(QUICK_CONFIG if quick else FULL_CONFIG))
    grid = QUICK_GRID if quick else FULL_GRID
    fleets = QUICK_FLEETS if quick else FULL_FLEETS
    n_points = 1
    for values in grid.values():
        n_points *= len(values)

    cpu_count = os.cpu_count() or 1
    print(
        f"{cpu_count} CPU core(s); each worker subprocess is BLAS-capped "
        "to 1 thread (distribution cannot beat serial on a single core — "
        "the equality check still holds everywhere)"
    )
    started = time.perf_counter()
    serial_records = Runner(config, store=ArtifactStore()).run(grid)
    serial_seconds = time.perf_counter() - started
    print(
        f"serial Runner       | {n_points} points | "
        f"{serial_seconds:7.2f}s | {n_points / serial_seconds:5.2f} points/s"
    )

    results = []
    for n_workers in fleets:
        records, seconds, _ = _distributed_run(config, grid, n_workers)
        identical = records_equivalent(serial_records, records)
        results.append({
            "workers": n_workers,
            "seconds": seconds,
            "points_per_sec": n_points / seconds,
            "speedup_vs_serial": serial_seconds / seconds,
            "records_match_serial": bool(identical),
        })
        print(
            f"cluster x{n_workers} workers | {n_points} points | "
            f"{seconds:7.2f}s | {n_points / seconds:5.2f} points/s | "
            f"vs serial {serial_seconds / seconds:5.2f}x | "
            f"identical={identical}"
        )
    return {
        "benchmark": "repro.cluster distributed sweep throughput",
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": cpu_count,
        "grid_points": n_points,
        "grid": {k: [list(v) if isinstance(v, tuple) else v for v in vs]
                 for k, vs in grid.items()},
        "serial_seconds": serial_seconds,
        "serial_points_per_sec": n_points / serial_seconds,
        "fleets": results,
    }


def _plan_transfer_totals(executor) -> dict:
    """Sum the per-job transfer accounting of the executor's last plan."""
    jobs = executor.last_plan.jobs.values()
    return {
        "bytes_pulled": sum(j.stats.get("pulled_bytes", 0) for j in jobs),
        "bytes_pushed": sum(j.stats.get("pushed_bytes", 0) for j in jobs),
        "bytes_pulled_peer": sum(
            j.stats.get("pulled_bytes_peer", 0) for j in jobs
        ),
        "bytes_pulled_hub": sum(
            j.stats.get("pulled_bytes_hub", 0) for j in jobs
        ),
        "wire_bytes_pulled": sum(
            j.stats.get("pulled_wire_bytes", 0) for j in jobs
        ),
        "wire_bytes_pushed": sum(
            j.stats.get("pushed_wire_bytes", 0) for j in jobs
        ),
        "artifacts_pulled": sum(j.stats.get("pulled", 0) for j in jobs),
        "peer_fallbacks": sum(j.stats.get("peer_fallbacks", 0) for j in jobs),
        "sync_retries": sum(j.stats.get("retries", 0) for j in jobs),
        "sync_s": sum(j.stats.get("sync_s", 0.0) for j in jobs),
    }


def run_peer_fabric_benchmark(quick: bool) -> dict:
    """The 2-worker fabric sweep.

    Creation-order grants can land a dram-eval job on the worker that
    did not compute its chain — the cross-worker traffic the fabric
    carries — but need not: a run whose jobs all stay with their
    chain's worker pulls nothing, so ``bytes_pulled_peer`` is reported,
    not gated (``test_downstream_job_pulls_its_chain_from_a_peer`` in
    tests/test_cluster_p2p.py gates the peer path deterministically).
    The coordinator's ``get`` path must serve zero bytes: the store
    starts empty, so every pulled key was computed by a live registered
    peer and the lease ``sources`` hints always cover it.
    """
    config = SparkXDConfig.small(**(QUICK_CONFIG if quick else FULL_CONFIG))
    grid = QUICK_FABRIC_GRID if quick else FULL_FABRIC_GRID
    serial_records = Runner(config, store=ArtifactStore()).run(grid)
    records, seconds, executor = _distributed_run(config, grid, n_workers=2)
    totals = _plan_transfer_totals(executor)
    hub = executor.last_transfer_stats
    print(
        f"peer fabric | {seconds:6.2f}s | hub get "
        f"{hub['get_count']:2d} blob(s) / {hub['get_bytes']:>9d} B | "
        f"peer {totals['bytes_pulled_peer']:>9d} B | "
        f"hub-pulled {totals['bytes_pulled_hub']:>9d} B"
    )
    return {
        "workers": 2,
        "grid": {k: [list(v) if isinstance(v, tuple) else v for v in vs]
                 for k, vs in grid.items()},
        "seconds": seconds,
        "records_match_serial": bool(records_equivalent(serial_records, records)),
        "hub": dict(hub),
        **totals,
    }


def _stored(cache: Path) -> int:
    """Artifacts in the coordinator's disk store: one per stored job."""
    return len(list(cache.glob("*/*.pkl")))


#: Seconds between store polls while waiting for the kill point: the
#: quick sweep takes ~1 s, so a coarse poll lets the kill land after
#: the last job and the rerun verify nothing.
KILL_POLL_S = 0.02


def run_kill_resume(quick: bool) -> dict:
    """SIGKILL ``sweep --workers 2 --cache-dir C`` at ~50%, rerun, verify.

    Drives the real CLI in a subprocess — the recipe an operator
    follows after a crash (docs/cluster.md, "Resuming a killed
    sweep"): the identical command again on the same cache.  Checks
    that the rerun's records are value-identical to the serial Runner
    and that the artifacts stored at the kill plus the rerun's cache
    misses add up to the sweep's job count: a stored fingerprint
    executed again would be one miss too many.
    """
    import tempfile

    cli_config = QUICK_CLI_CONFIG if quick else FULL_CLI_CONFIG
    cli_args = QUICK_CLI_ARGS if quick else FULL_CLI_ARGS
    serial_records = Runner(
        SparkXDConfig.small(**cli_config), store=ArtifactStore()
    ).run(CLI_GRID)
    n_jobs = 2 * 3 + len(CLI_GRID["voltages"]) * 2  # 2 chains + dram points
    kill_at = n_jobs // 2

    with tempfile.TemporaryDirectory(prefix="repro-kill-resume-") as tmp:
        tmp_path = Path(tmp)
        cache = tmp_path / "cache"
        out = tmp_path / "records.json"
        package_root = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [
            sys.executable, "-m", "repro", "sweep",
            *cli_args, *CLI_GRID_ARGS,
            "--workers", "2", "--cache-dir", str(cache), "--out", str(out),
        ]

        proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 1800.0
        while time.monotonic() < deadline:
            if _stored(cache) >= kill_at or proc.poll() is not None:
                break
            time.sleep(KILL_POLL_S)
        killed = proc.poll() is None
        if killed:
            proc.send_signal(signal.SIGKILL)
        proc.wait()
        stored_at_kill = _stored(cache)
        print(f"sweep {'SIGKILLed' if killed else 'finished'} with "
              f"{stored_at_kill}/{n_jobs} artifacts stored")

        rerun = subprocess.run(command, env=env, stdout=subprocess.DEVNULL)
        records = (
            [RunRecord.from_dict(e) for e in json.loads(out.read_text())]
            if rerun.returncode == 0 and out.exists()
            else []
        )
        result = {
            "killed_mid_sweep": bool(killed),
            "artifacts_at_kill": stored_at_kill,
            "total_jobs": n_jobs,
            "rerun_exit_code": rerun.returncode,
            "records_match_serial": bool(
                records and records_equivalent(serial_records, records)
            ),
            "rerun_cache_misses": sum(r.cache_misses for r in records),
        }
        print(f"rerun: exit {rerun.returncode}, "
              f"identical={result['records_match_serial']}, "
              f"cache misses={result['rerun_cache_misses']}")
        return result


def _kill_resume_failures(result: dict) -> list:
    """The crash-recovery gate: the SIGKILL left work for the rerun,
    the rerun matches serial, and it executed exactly the jobs whose
    artifacts the kill left unstored."""
    failures = []
    stored, total = result["artifacts_at_kill"], result["total_jobs"]
    if not (result["killed_mid_sweep"] and 0 < stored < total):
        failures.append(
            "kill-resume: the kill landed with no work left "
            f"(killed={result['killed_mid_sweep']}, "
            f"{stored}/{total} artifacts stored)"
        )
    if not result["records_match_serial"]:
        failures.append("the rerun sweep diverged from the serial Runner")
    elif stored + result["rerun_cache_misses"] != total:
        failures.append(
            f"{stored} artifacts stored at the kill + "
            f"{result['rerun_cache_misses']} rerun cache misses != "
            f"{total} jobs: the rerun re-executed stored work"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny sweep + 2 workers (the CI cluster smoke)")
    parser.add_argument("--kill-resume", action="store_true",
                        help="also SIGKILL a cached sweep at ~50% and "
                             "verify that rerunning it resumes (the "
                             "crash-recovery smoke)")
    parser.add_argument("--peer-fabric", action="store_true",
                        help="force the peer-fabric sweep even with "
                             "--skip-throughput (it always runs without)")
    parser.add_argument("--skip-throughput", action="store_true",
                        help="skip the fleet-throughput and peer-fabric "
                             "scans (combine with --kill-resume/"
                             "--peer-fabric to run only those)")
    parser.add_argument("--out", default="BENCH_cluster.json", metavar="PATH",
                        help="output JSON path (default: ./BENCH_cluster.json)")
    args = parser.parse_args(argv)
    if args.skip_throughput and not (args.kill_resume or args.peer_fabric):
        parser.error("--skip-throughput alone would run nothing; add "
                     "--kill-resume or --peer-fabric, or drop "
                     "--skip-throughput")

    failures = []
    if args.skip_throughput:
        payload = {
            "benchmark": "repro.cluster distributed sweep throughput",
            "quick": args.quick,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count() or 1,
        }
    else:
        payload = run_benchmark(args.quick)
        if not all(f["records_match_serial"] for f in payload["fleets"]):
            failures.append("a distributed sweep diverged from the serial Runner")

    if args.peer_fabric or not args.skip_throughput:
        fabric = payload["peer_fabric"] = run_peer_fabric_benchmark(args.quick)
        if not fabric["records_match_serial"]:
            failures.append("the peer-fabric sweep diverged from the serial Runner")
        if fabric["hub"]["get_bytes"] != 0:
            failures.append(
                "the coordinator served artifact get bytes "
                "(the fabric must carry every pull)"
            )

    if args.kill_resume:
        payload["kill_resume"] = run_kill_resume(args.quick)
        failures += _kill_resume_failures(payload["kill_resume"])

    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"results written to {out}")

    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
