"""Content-addressed artifact sync: peer-first pulls, hub fallback.

Artifacts move by ``(stage, fingerprint)`` key, never by job identity:

- **pull** — before running a job, the worker downloads whichever
  upstream artifacts its local store is missing.  With peer sync
  enabled the pull is *peer-first*: the coordinator's routing table
  (lease ``sources`` hints or an explicit ``locate`` round trip) names
  workers already holding the key, and the bytes move worker-to-worker
  over the same line protocol (``peer_get``).  A refused key, a dead
  peer, or a worker with no peers falls back transparently to the
  coordinator ``get`` — the hub is always correct, peers are only
  faster;
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
encode_blob`) when the receiver advertised the capability; stats track
raw and wire bytes separately so transfer accounting stays honest.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.protocol import (
    ClusterClient,
    ConnectionClosed,
    ProtocolError,
    encode_blob,
)
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
DEFAULT_PEER_TIMEOUT_S = 10.0


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
        The coordinator (hub) client.
    store:
        The local artifact store.
    worker:
        This worker's name — sent with ``locate`` so the coordinator
        excludes the requester from its own answers.
    sources:
        Initial routing hints, ``[[stage, digest, [address, …]], …]``
        (the lease reply's ``sources`` field).
    peer_sync:
        ``False`` disables peer pulls and ``locate`` entirely — every
        byte routes through the hub, bit-for-bit the pre-fabric
        behaviour.
    hub_caps:
        Wire capabilities the coordinator advertised in its ``hello``
        reply; uploads are only gzip-encoded when the hub declared it
        can decode them.
    compress:
        ``False`` additionally stops *advertising* gzip on downloads,
        forcing raw blobs both ways (tests, debugging).
    """

    def __init__(
        self,
        client: ClusterClient,
        store: ArtifactStore,
        *,
        worker: Optional[str] = None,
        sources: Optional[Iterable[Sequence[Any]]] = None,
        peer_sync: bool = True,
        hub_caps: Sequence[str] = (),
        compress: bool = True,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_s: float = DEFAULT_BACKOFF_S,
        peer_timeout: float = DEFAULT_PEER_TIMEOUT_S,
    ):
        self.client = client
        self.store = store
        self.worker = worker
        self.peer_sync = bool(peer_sync)
        self.hub_caps = tuple(str(c) for c in hub_caps)
        self.compress = bool(compress)
        self.max_attempts = max(1, int(max_attempts))
        self.backoff_s = float(backoff_s)
        self.peer_timeout = float(peer_timeout)
        #: key -> peer addresses believed to hold it (coordinator hints).
        self.sources: Dict[Key, List[str]] = {}
        if sources:
            self.update_sources(sources)
        #: Addresses that failed at the transport level this session —
        #: skipped for every later key so one dead peer costs one
        #: timeout, not one per artifact.
        self._dead_peers: set = set()
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

    def locate(self, keys: Iterable[Key]) -> int:
        """Ask the coordinator who holds ``keys``; merge into sources.

        Returns how many of the asked keys gained at least one peer
        address.  A no-op (0) with peer sync disabled.
        """
        keys = list(keys)
        if not keys or not self.peer_sync:
            return 0
        started = time.perf_counter()
        try:
            payload: Dict[str, Any] = {
                "op": "locate",
                "keys": [list(key) for key in keys],
            }
            if self.worker is not None:
                payload["worker"] = self.worker
            reply, _ = self._hub_request(payload)
            triples = reply.get("sources", [])
            self.update_sources(triples)
            return len(triples)
        finally:
            self.seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    # Transport helpers.

    def _accept(self) -> List[str]:
        return ["gzip"] if self.compress else []

    def _hub_request(
        self,
        payload: Dict[str, Any],
        blob: Optional[bytes] = None,
        encoding: Optional[str] = None,
    ) -> Tuple[Dict[str, Any], Optional[bytes]]:
        """One hub round trip, retried on *transport* errors only.

        Error replies and malformed frames (plain
        :class:`ProtocolError`) are deterministic — retrying them just
        repeats the answer — so only :class:`OSError` and
        :class:`ConnectionClosed` trigger the backoff loop.
        """
        for attempt in range(self.max_attempts):
            try:
                return self.client.request(payload, blob=blob, encoding=encoding)
            except (OSError, ConnectionClosed):
                if attempt + 1 >= self.max_attempts:
                    raise
                self.retries += 1
                get_metrics().counter("sync.retries").inc()
                LOG.warning(
                    "hub round trip retrying after transport error",
                    extra={"sync_op": payload.get("op"), "attempt": attempt + 1},
                )
                time.sleep(self.backoff_s * (2.0 ** attempt) * _backoff_jitter())
        raise AssertionError("unreachable")  # pragma: no cover

    def _peer_get(
        self, address: str, stage: str, digest: str
    ) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """Single-shot ``peer_get``; ``None`` means try the next source.

        A transport-level failure marks the address dead for the rest
        of this sync session; a clean refusal (peer evicted the key)
        does not — the peer is healthy, it just can't serve this one.
        """
        if address in self._dead_peers:
            return None
        peer = ClusterClient(address, timeout=self.peer_timeout)
        try:
            reply, blob = peer.request(
                {
                    "op": "peer_get",
                    "stage": stage,
                    "digest": digest,
                    "accept": self._accept(),
                },
                check=False,
            )
        except (OSError, ProtocolError):
            self._dead_peers.add(address)
            return None
        if reply.get("error") or not reply.get("found") or blob is None:
            return None
        return reply, blob

    # ------------------------------------------------------------------
    def pull(
        self,
        stage: str,
        digest: str,
        sources: Optional[Sequence[str]] = None,
    ) -> bool:
        """Fetch one artifact into the local store; False if absent remotely.

        Tries each peer address (``sources`` argument, else the routing
        table) before the hub.  Every failure mode — dead peer, refusal,
        stale hint — falls through; only "nobody has it, hub included"
        returns False.
        """
        started = time.perf_counter()
        try:
            candidates: Sequence[str] = ()
            if self.peer_sync:
                if sources is not None:
                    candidates = list(sources)
                else:
                    candidates = self.sources.get((stage, digest), ())
            for address in candidates:
                served = self._peer_get(address, stage, digest)
                if served is None:
                    continue
                reply, blob = served
                self.store.put(stage, digest, pickle.loads(blob))
                self.pulled += 1
                self.pulled_bytes += len(blob)
                self.pulled_wire_bytes += int(
                    reply.get("blob_wire_bytes", len(blob))
                )
                self.pulled_bytes_peer += len(blob)
                metrics = get_metrics()
                metrics.counter("sync.pulled").inc()
                metrics.counter("sync.pulled_bytes").inc(len(blob))
                metrics.counter("sync.pulled_bytes_peer").inc(len(blob))
                return True
            if candidates:
                self.peer_fallbacks += 1
                get_metrics().counter("sync.peer_fallbacks").inc()
            payload: Dict[str, Any] = {"op": "get", "stage": stage, "digest": digest}
            if self.compress:
                payload["accept"] = self._accept()
            reply, blob = self._hub_request(payload)
            if not reply.get("found") or blob is None:
                return False
            self.store.put(stage, digest, pickle.loads(blob))
            self.pulled += 1
            self.pulled_bytes += len(blob)
            self.pulled_wire_bytes += int(reply.get("blob_wire_bytes", len(blob)))
            self.pulled_bytes_hub += len(blob)
            metrics = get_metrics()
            metrics.counter("sync.pulled").inc()
            metrics.counter("sync.pulled_bytes").inc(len(blob))
            metrics.counter("sync.pulled_bytes_hub").inc(len(blob))
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
            # Encode only what the hub declared it can decode; a hub
            # that never said "gzip" gets raw bytes (mixed fleets).
            accept = self.hub_caps if self.compress else ()
            wire_blob, encoding = encode_blob(blob, accept)
            self._hub_request(
                {"op": "put", "stage": stage, "digest": digest},
                blob=wire_blob,
                encoding=encoding,
            )
            self.pushed += 1
            self.pushed_bytes += len(blob)
            self.pushed_wire_bytes += len(wire_blob)
            metrics = get_metrics()
            metrics.counter("sync.pushed").inc()
            metrics.counter("sync.pushed_bytes").inc(len(blob))
            return True
        finally:
            self.seconds += time.perf_counter() - started

    def peer_has(self, address: str, keys: Iterable[Key]) -> List[Key]:
        """Which of ``keys`` the peer at ``address`` currently holds.

        A cheap single-round-trip probe (no blobs move) for validating
        routing hints before bulk pulls and for fabric diagnostics;
        transport errors mark the peer dead exactly like a failed
        ``peer_get``.
        """
        keys = list(keys)
        if not keys or address in self._dead_peers:
            return []
        peer = ClusterClient(address, timeout=self.peer_timeout)
        try:
            reply, _ = peer.request(
                {"op": "peer_has", "keys": [list(key) for key in keys]}
            )
        except (OSError, ProtocolError):
            self._dead_peers.add(address)
            return []
        return [(str(s), str(d)) for s, d in reply.get("present", [])]

    # ------------------------------------------------------------------
    def remote_has(self, keys: Iterable[Key]) -> List[Key]:
        """The subset of ``keys`` the coordinator already holds."""
        keys = list(keys)
        if not keys:
            return []
        started = time.perf_counter()
        try:
            reply, _ = self._hub_request(
                {"op": "has", "keys": [list(key) for key in keys]}
            )
            return [(str(s), str(d)) for s, d in reply.get("present", [])]
        finally:
            self.seconds += time.perf_counter() - started

    def pull_missing(self, keys: Iterable[Key]) -> int:
        """Pull every key the local store is missing; returns the count.

        With peer sync on, keys that have no routing hint yet are
        batch-``locate``\\ d first, so even pulls outside a lease grant
        (resumed workers, eager prefetch) go peer-first.
        """
        missing = [key for key in keys if key not in self.store]
        if not missing:
            return 0
        if self.peer_sync:
            unknown = [key for key in missing if key not in self.sources]
            if unknown:
                self.locate(unknown)
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
