"""In-process worker agents for the cluster tests.

Threads share the GIL and BLAS, so these fleets exercise protocol-level
concurrency, not compute throughput; the library's real local fleet is
:func:`repro.cluster.local_worker_processes`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Iterator, List

from repro.cluster import WorkerAgent


@contextlib.contextmanager
def local_worker_threads(
    address: Any, n_workers: int, **agent_kwargs
) -> Iterator[List[WorkerAgent]]:
    """``n_workers`` agents against ``address``, each on its own thread."""
    agents = [
        WorkerAgent(address, name=f"thread-worker-{i}", **agent_kwargs)
        for i in range(n_workers)
    ]
    threads = [
        threading.Thread(target=agent.run_forever, daemon=True) for agent in agents
    ]
    for thread in threads:
        thread.start()
    try:
        yield agents
    finally:
        for agent in agents:
            agent.stop()
        for thread in threads:
            thread.join(timeout=10.0)
