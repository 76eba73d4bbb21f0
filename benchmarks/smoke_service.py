#!/usr/bin/env python
"""Experiment-service smoke: multi-tenant sweeps through the real CLI.

One ``repro cluster serve`` process hosts two overlapping sweeps
submitted by two separate ``repro cluster submit --wait`` client
processes over a shared 2-worker fleet, with token auth on. Contracts:

1. **Value identity** — both result sets are value-identical to the
   serial in-process Runner on the same grids (the acceptance bar of
   docs/cluster.md, now per tenant).
2. **Cancel is surgical** — a third sweep is cancelled mid-lease; its
   leases are freed, and the first two sweeps' results stay intact and
   fetchable afterwards.
3. **Auth is loud on every route** — an unauthenticated submit and an
   unauthenticated worker both exit non-zero with an ``auth`` error on
   stderr, and an unauthenticated artifact download from a live
   worker's peer port is answered 401.

Usage::

    PYTHONPATH=src python benchmarks/smoke_service.py

Exits non-zero on the first violated contract.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
TOKEN = "smoke-service-token"

CONFIG_ARGS = [
    "--neurons", "12", "--train", "40", "--test", "25", "--steps", "30",
    "--bound", "0.5",
]
SWEEP_A = ["--voltages", "1.325", "1.025"]
SWEEP_B = ["--voltages", "1.125"]
#: The cancel victim retrains (seed axis) at the full default workload
#: (no CONFIG_ARGS shrinkage), so its jobs hold leases for whole
#: training stages — a wide window to cancel into.  It never runs to
#: completion, so its size costs only the lease-to-cancel latency.
SWEEP_C = ["--seeds", "7", "8"]


def check(condition: bool, label: str) -> None:
    if not condition:
        print(f"FAIL: {label}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {label}")


def env_with_token(token: str = TOKEN) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"  # serve's banner must reach the pipe
    env["REPRO_CLUSTER_TOKEN"] = token
    return env


def cli(*args: str) -> list:
    return [sys.executable, "-m", "repro", *args]


def serial_reference(grid_args: list) -> list:
    result = subprocess.run(
        cli("sweep", *CONFIG_ARGS, *grid_args, "--json"),
        env=env_with_token(), capture_output=True, text=True, timeout=600,
    )
    check(result.returncode == 0, f"serial reference sweep {grid_args}")
    return json.loads(result.stdout)


def value_dicts(records: list) -> list:
    """Execution-independent record views (shared value-identity rule)."""
    sys.path.insert(0, SRC)
    from repro.analysis.export import run_record_value_dict
    from repro.pipeline.runner import RunRecord

    return [
        run_record_value_dict(RunRecord.from_dict(entry)) for entry in records
    ]


def start_service(workdir: Path) -> tuple:
    process = subprocess.Popen(
        cli(
            "cluster", "serve",
            "--bind", "127.0.0.1:0",
            "--cache-dir", str(workdir / "cache"),
        ),
        env=env_with_token(), stdout=subprocess.PIPE, text=True,
    )
    address = None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and not address:
        line = process.stdout.readline()
        if not line:
            break
        found = re.match(r"address:\s+(\S+)", line)
        if found:
            address = found.group(1)
    check(bool(address), f"service announced one address ({address})")
    return process, address


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a TemporaryDirectory)")
    args = parser.parse_args(argv)

    import tempfile

    context = None
    if args.workdir:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        context = tempfile.TemporaryDirectory()
        workdir = Path(context.name)

    serial_a = serial_reference(SWEEP_A)
    serial_b = serial_reference(SWEEP_B)

    service = None
    workers = []
    clients = []
    try:
        service, address = start_service(workdir)
        peer_port = free_port()
        for index in range(2):
            workers.append(subprocess.Popen(
                cli(
                    "cluster", "worker",
                    "--coordinator", address,
                    "--name", f"smoke-w{index}",
                    "--max-idle-s", "600",
                    *(["--peer-port", str(peer_port)] if index == 0 else []),
                ),
                env=env_with_token(),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ))

        # Two tenants, two separate client processes, overlapping in time.
        for name, grid_args in (("alpha", SWEEP_A), ("beta", SWEEP_B)):
            clients.append((name, grid_args, subprocess.Popen(
                cli(
                    "cluster", "submit", "--service", address,
                    "--name", name, *CONFIG_ARGS, *grid_args,
                    "--wait", "--wait-timeout", "600", "--json",
                ),
                env=env_with_token(),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )))
        results = {}
        for name, grid_args, client in clients:
            stdout, stderr = client.communicate(timeout=700)
            if client.returncode != 0:
                print(stderr, file=sys.stderr)
            check(client.returncode == 0, f"client {name} completed its sweep")
            results[name] = json.loads(stdout)
        check(
            value_dicts(results["alpha"]) == value_dicts(serial_a),
            "sweep alpha records value-identical to the serial Runner",
        )
        check(
            value_dicts(results["beta"]) == value_dicts(serial_b),
            "sweep beta records value-identical to the serial Runner",
        )

        # Third tenant: submit, wait for a live lease, cancel.
        submitted = subprocess.run(
            cli(
                "cluster", "submit", "--service", address,
                "--name", "doomed", *SWEEP_C, "--json",
            ),
            env=env_with_token(), capture_output=True, text=True, timeout=120,
        )
        check(submitted.returncode == 0, "third sweep submitted")
        doomed_id = json.loads(submitted.stdout)["sweep_id"]
        leased = 0
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            status = subprocess.run(
                cli("cluster", "status", "--service", address, "--json"),
                env=env_with_token(), capture_output=True, text=True,
                timeout=60,
            )
            check(status.returncode == 0, "status probe during third sweep")
            view = json.loads(status.stdout)["sweeps"][doomed_id]
            leased = view.get("leased", 0)
            if leased >= 1:
                break
            time.sleep(0.5)
        check(leased >= 1, f"third sweep reached a live lease ({leased})")
        cancelled = subprocess.run(
            cli(
                "cluster", "cancel", doomed_id,
                "--service", address, "--json",
            ),
            env=env_with_token(), capture_output=True, text=True, timeout=60,
        )
        check(cancelled.returncode == 0, "cancel request accepted")
        reply = json.loads(cancelled.stdout)
        check(reply["state"] == "cancelled", "third sweep is cancelled")
        check(
            reply["leases_freed"] >= 1,
            f"cancel freed its live lease(s) ({reply['leases_freed']})",
        )

        # The first two tenants are undisturbed: results still served,
        # still identical.
        for name, grid_args, _ in clients:
            sweep_id = json.loads(subprocess.run(
                cli("cluster", "status", "--service", address, "--json"),
                env=env_with_token(), capture_output=True, text=True,
                timeout=60,
            ).stdout)
            survivors = [
                sid for sid, view in sweep_id["sweeps"].items()
                if view.get("name") == name
            ]
            check(len(survivors) == 1, f"sweep {name} still registered")
            fetched = subprocess.run(
                cli(
                    "cluster", "results", survivors[0],
                    "--service", address, "--json",
                ),
                env=env_with_token(), capture_output=True, text=True,
                timeout=120,
            )
            check(
                fetched.returncode == 0,
                f"sweep {name} results fetchable after the cancel",
            )
            reference = serial_a if name == "alpha" else serial_b
            check(
                value_dicts(json.loads(fetched.stdout))
                == value_dicts(reference),
                f"sweep {name} results unchanged after the cancel",
            )

        # Auth is loud on every route: no token, no service.
        naked = env_with_token(token="")
        naked.pop("REPRO_CLUSTER_TOKEN", None)
        unauthenticated_submit = subprocess.run(
            cli(
                "cluster", "submit", "--service", address,
                *CONFIG_ARGS, *SWEEP_B, "--json",
            ),
            env=naked, capture_output=True, text=True, timeout=60,
        )
        check(
            unauthenticated_submit.returncode != 0
            and "auth" in unauthenticated_submit.stderr.lower(),
            "unauthenticated submit rejected",
        )
        unauthenticated_worker = subprocess.run(
            cli(
                "cluster", "worker", "--coordinator", address,
                "--max-idle-s", "5",
            ),
            env=naked, capture_output=True, text=True, timeout=60,
        )
        check(
            unauthenticated_worker.returncode != 0
            and "auth" in unauthenticated_worker.stderr.lower(),
            "unauthenticated worker rejected",
        )
        peer = http.client.HTTPConnection("127.0.0.1", peer_port, timeout=30)
        try:
            peer.request("GET", "/artifacts/train-baseline/any")
            peer_status = peer.getresponse().status
        finally:
            peer.close()
        check(
            peer_status == 401,
            f"unauthenticated artifact GET rejected by a worker's peer "
            f"port ({peer_status})",
        )
    finally:
        for process in [p for _, _, p in clients] + workers:
            if process.poll() is None:
                process.kill()
        if service is not None and service.poll() is None:
            service.terminate()
            try:
                service.wait(timeout=15)
            except subprocess.TimeoutExpired:
                service.kill()
        if context is not None:
            context.cleanup()
    print("service smoke: all contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
