"""Content-addressed artifact sync: peer-first pulls, hub fallback.

Artifacts move by ``(stage, fingerprint)`` key, never by job identity:

- **pull** — before running a job, the worker downloads whichever
  upstream artifacts its local store is missing, *peer-first*: the
  lease grant's ``sources`` hints (built from the coordinator's
  routing table) name workers already holding the key, and the bytes
  move worker-to-worker with the very request a hub download
  makes (``GET /artifacts/{stage}/{digest}`` against the peer's
  endpoint).  A refused key, a dead peer, or a worker with no peers
  falls back transparently to the coordinator — the hub is always
  correct, peers are only faster;
- **push** — after running, the worker uploads every chain artifact
  the coordinator is missing (one ``has`` round trip filters the
  list, so nothing is ever re-sent).  Pushes always target the hub:
  the coordinator's store is the durable system of record that
  resume/journal replay validates against.

Both directions are idempotent: an upload of an already-present
fingerprint is acknowledged without a write (the store treats losing a
write race as a hit), and a pull that finds the key locally is free.
That makes the layer *resumable by retry* — and hub round trips are in
fact retried here, with bounded exponential backoff, so a transient
socket error (coordinator restart, SYN drop) never surfaces as a job
failure.  Peer requests are deliberately single-shot: the fallback
path *is* the retry.

Blobs compress on the wire (gzip, :func:`repro.cluster.protocol.
encode_blob`, announced in ``Content-Encoding``) whenever that shrinks
them; stats track raw and wire bytes separately so transfer accounting
stays honest.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cluster.http_api import ServiceClient, ServiceError
from repro.cluster.protocol import encode_blob
from repro.pipeline.store import MISS, ArtifactStore
from repro.telemetry import get_logger, get_metrics

LOG = get_logger(__name__)

Key = Tuple[str, str]  # (stage name, fingerprint)

#: Hub round trips are retried this many times before the error
#: propagates (peer requests are single-shot — fallback is the retry).
DEFAULT_MAX_ATTEMPTS = 3

#: First retry sleeps about this long; each further attempt doubles it.
DEFAULT_BACKOFF_S = 0.05

#: Peers get a shorter connect/read timeout than the hub: a dead peer
#: should cost one quick failure and a fallback, not a full hub
#: timeout per key.
PEER_TIMEOUT_S = 10.0


def _backoff_jitter() -> float:
    """A 1.0–1.5× factor from the clock's sub-millisecond noise.

    Derived from ``monotonic_ns`` rather than :mod:`random` — sync
    retries must not touch any RNG stream (seeded experiment code owns
    those; see the ``rng-discipline`` lint rule), and scheduling jitter
    needs no statistical quality, only decorrelation across workers.
    """
    return 1.0 + (time.monotonic_ns() % 1024) / 2048.0


class ArtifactSync:
    """Pull/push artifacts between ``store`` and the cluster fabric.

    Parameters
    ----------
    client:
        The coordinator (hub) client; peers are dialled with its token.
    store:
        The local artifact store.
    sources:
        Initial routing hints, ``[[stage, digest, [address, …]], …]``
        (the lease reply's ``sources`` field).
    dead_peers:
        Peer addresses already known dead, skipped without a dial; a
        peer that fails at the transport level is added to it.  A
        :class:`~repro.cluster.worker.WorkerAgent` passes one set to
        every job's sync, so a dead peer costs one timeout per agent.

    Hub round trips make :data:`DEFAULT_MAX_ATTEMPTS` attempts, the
    first retry sleeping about :data:`DEFAULT_BACKOFF_S`.
    """

    def __init__(
        self,
        client: ServiceClient,
        store: ArtifactStore,
        *,
        sources: Optional[Iterable[Sequence[Any]]] = None,
        dead_peers: Optional[Set[str]] = None,
    ):
        self.client = client
        self.store = store
        #: key -> peer addresses believed to hold it (coordinator hints).
        self.sources: Dict[Key, List[str]] = {}
        if sources:
            self.update_sources(sources)
        #: Addresses that failed at the transport level — skipped for
        #: every later key so one dead peer costs one timeout, not one
        #: per artifact.
        self.dead_peers = set() if dead_peers is None else dead_peers
        #: Cumulative wall-clock seconds spent in sync round trips.
        self.seconds = 0.0
        self.pulled = 0
        self.pushed = 0
        #: Cumulative artifact payload bytes moved in each direction —
        #: raw (decoded) sizes; the quantity the peer fabric exists to
        #: shrink on the hub.
        self.pulled_bytes = 0
        self.pushed_bytes = 0
        #: Actual on-the-wire sizes (differ from the raw counts only
        #: when gzip engaged).
        self.pulled_wire_bytes = 0
        self.pushed_wire_bytes = 0
        #: Raw pulled bytes split by who served them.
        self.pulled_bytes_peer = 0
        self.pulled_bytes_hub = 0
        #: Pulls that had peer candidates but were served by the hub.
        self.peer_fallbacks = 0
        #: Hub round trips that needed a retry after a transport error.
        self.retries = 0

    # ------------------------------------------------------------------
    # Routing table.

    def update_sources(self, triples: Iterable[Sequence[Any]]) -> None:
        """Merge ``[[stage, digest, [address, …]], …]`` routing hints."""
        for stage, digest, addresses in triples:
            self.sources[(str(stage), str(digest))] = [str(a) for a in addresses]

    # ------------------------------------------------------------------
    # Transport helpers.

    def _hub(self, label: str, call: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
        """One hub round trip, retried on *transport* errors only.

        Error replies (:class:`ServiceError`) are deterministic —
        retrying them just repeats the answer — so only :class:`OSError`
        (refused, reset or truncated connections) triggers the backoff
        loop.
        """
        for attempt in range(DEFAULT_MAX_ATTEMPTS):
            try:
                return call()
            except OSError:
                if attempt + 1 >= DEFAULT_MAX_ATTEMPTS:
                    raise
                self.retries += 1
                get_metrics().counter("sync.retries").inc()
                LOG.warning(
                    "hub round trip retrying after transport error",
                    extra={"sync_op": label, "attempt": attempt + 1},
                )
                time.sleep(DEFAULT_BACKOFF_S * (2.0 ** attempt) * _backoff_jitter())
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _download(client: ServiceClient, stage: str, digest: str) -> Optional[Dict[str, Any]]:
        """``GET`` one artifact from a hub or a peer; ``None`` on 404."""
        try:
            return client.http_request("GET", f"/artifacts/{stage}/{digest}")
        except ServiceError as error:
            if error.status == 404:
                return None
            raise

    def _peer_get(self, address: str, stage: str, digest: str) -> Optional[Dict[str, Any]]:
        """Single-shot peer download; ``None`` means try the next source.

        A transport-level failure (a dead peer, a truncated or corrupt
        body) adds the address to :attr:`dead_peers`; an error reply
        (the peer does not hold the key) does not — the peer is
        healthy, it just can't serve this one.
        """
        if address in self.dead_peers:
            return None
        peer = ServiceClient(address, token=self.client.token, timeout=PEER_TIMEOUT_S)
        try:
            return self._download(peer, stage, digest)
        except ServiceError:
            return None
        except OSError:
            self.dead_peers.add(address)
            return None

    def _keep(self, stage: str, digest: str, reply: Dict[str, Any], source: str) -> None:
        """Store one downloaded artifact and account for it."""
        blob = reply["blob"]
        self.store.put(stage, digest, pickle.loads(blob))
        self.pulled += 1
        self.pulled_bytes += len(blob)
        self.pulled_wire_bytes += int(reply["wire_bytes"])
        if source == "peer":
            self.pulled_bytes_peer += len(blob)
        else:
            self.pulled_bytes_hub += len(blob)
        metrics = get_metrics()
        metrics.counter("sync.pulled").inc()
        metrics.counter("sync.pulled_bytes").inc(len(blob))
        metrics.counter(f"sync.pulled_bytes_{source}").inc(len(blob))

    # ------------------------------------------------------------------
    def pull(self, stage: str, digest: str) -> bool:
        """Fetch one artifact into the local store; False if absent remotely.

        Tries each peer address the routing table names before the hub.  Every failure mode — dead peer, refusal,
        stale hint — falls through; only "nobody has it, hub included"
        returns False.
        """
        started = time.perf_counter()
        try:
            sources = self.sources.get((stage, digest), ())
            for address in sources:
                reply = self._peer_get(address, stage, digest)
                if reply is not None:
                    self._keep(stage, digest, reply, "peer")
                    return True
            if sources:
                self.peer_fallbacks += 1
                get_metrics().counter("sync.peer_fallbacks").inc()
            reply = self._hub("get", lambda: self._download(self.client, stage, digest))
            if reply is None:
                return False
            self._keep(stage, digest, reply, "hub")
            return True
        finally:
            self.seconds += time.perf_counter() - started

    def push(self, stage: str, digest: str) -> bool:
        """Upload one locally-cached artifact; False if not held locally."""
        started = time.perf_counter()
        try:
            artifact = self.store.get(stage, digest)
            if artifact is MISS:
                return False
            blob = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
            wire_blob, encoding = encode_blob(blob, ("gzip",))
            self._hub("put", lambda: self.client.http_request(
                "PUT", f"/artifacts/{stage}/{digest}", blob=wire_blob, encoding=encoding
            ))
            self.pushed += 1
            self.pushed_bytes += len(blob)
            self.pushed_wire_bytes += len(wire_blob)
            metrics = get_metrics()
            metrics.counter("sync.pushed").inc()
            metrics.counter("sync.pushed_bytes").inc(len(blob))
            return True
        finally:
            self.seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    def remote_has(self, keys: Iterable[Key]) -> List[Key]:
        """The subset of ``keys`` the coordinator already holds."""
        keys = list(keys)
        if not keys:
            return []
        started = time.perf_counter()
        try:
            payload = {"keys": [list(key) for key in keys]}
            reply = self._hub("has", lambda: self.client.http_request(
                "POST", "/artifacts/has", payload
            ))
            return [(str(s), str(d)) for s, d in reply.get("present", [])]
        finally:
            self.seconds += time.perf_counter() - started

    def pull_missing(self, keys: Iterable[Key]) -> int:
        """Pull every key the local store is missing; returns the count.

        A key with a ``sources`` hint goes peer-first; the rest come
        from the hub.
        """
        missing = [key for key in keys if key not in self.store]
        count = 0
        for stage, digest in missing:
            if self.pull(stage, digest):
                count += 1
        return count

    def push_missing(self, keys: Iterable[Key]) -> int:
        """Push every locally-held key the coordinator is missing."""
        keys = [key for key in keys if key in self.store]
        present = set(self.remote_has(keys))
        count = 0
        for stage, digest in keys:
            if (stage, digest) in present:
                continue
            if self.push(stage, digest):
                count += 1
        return count

    # ------------------------------------------------------------------
    def stats_dict(self) -> Dict[str, Any]:
        """Transfer accounting, for job stats and worker aggregation."""
        return {
            "sync_s": self.seconds,
            "pulled": self.pulled,
            "pushed": self.pushed,
            "pulled_bytes": self.pulled_bytes,
            "pushed_bytes": self.pushed_bytes,
            "pulled_wire_bytes": self.pulled_wire_bytes,
            "pushed_wire_bytes": self.pushed_wire_bytes,
            "pulled_bytes_peer": self.pulled_bytes_peer,
            "pulled_bytes_hub": self.pulled_bytes_hub,
            "peer_fallbacks": self.peer_fallbacks,
            "retries": self.retries,
        }
