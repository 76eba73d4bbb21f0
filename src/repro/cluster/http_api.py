"""HTTP/JSON: the cluster's one wire.

Every exchange — a client managing sweeps, a worker leasing jobs and
moving artifacts, a worker pulling from a peer — is one request on a
fresh connection to a stdlib ``http.server.ThreadingHTTPServer``,
issued through :meth:`ServiceClient.http_request` and dispatched by
the one :data:`ROUTES` table:

==========  ================================  ==============================
``POST``    ``/sweeps``                       submit a sweep (config + grid
                                              in wire form); idempotent — an
                                              already-registered sweep_id
                                              reattaches
``GET``     ``/sweeps/{sweep_id}``            state, job counts, journal lag
``POST``    ``/sweeps/{sweep_id}/cancel``     withdraw: frees live leases
``GET``     ``/sweeps/{sweep_id}/results``    assembled RunRecords (409
                                              until the sweep is done)
``GET``     ``/fleet``                        whole-service view
``POST``    ``/worker/hello``                 register; ``peer_port`` joins
                                              the peer routing table
``POST``    ``/worker/lease``                 a job grant, ``wait`` or
                                              ``shutdown``
``POST``    ``/worker/heartbeat``             renew a lease
``POST``    ``/worker/complete``              report a finished job
``POST``    ``/worker/fail``                  report a job exception
``POST``    ``/artifacts/has``                filter keys to those held
``GET``     ``/artifacts/{stage}/{digest}``   download one pickle
``PUT``     ``/artifacts/{stage}/{digest}``   upload one pickle (idempotent)
==========  ================================  ==============================

The experiment service serves every route on one port.  Each worker
runs the same :class:`HttpEndpoint` over its local store, serving only
the download route (:data:`PEER_ROUTES`) to its peers.  The
``protocol-consistency`` lint rule checks every path a client emits
against this table, and every row against a client and a
``_route_<name>`` handler.

JSON bodies are capped at 16 MiB and refused before they are read.
Artifact bodies are raw pickles (``application/octet-stream``) without
a cap, gzip-encoded through the standard ``Accept-Encoding`` /
``Content-Encoding`` headers when that shrinks them
(:func:`~repro.cluster.protocol.encode_blob`).  An upload whose body
falls short of its ``Content-Length`` stores nothing.

Authentication: an endpoint started with a shared token requires
``Authorization: Bearer <token>`` on every route — the service's and
every worker's peer endpoint — and answers 401 with ``{"code":
"auth"}`` otherwise; :class:`ServiceClient` raises it as
:class:`ServiceAuthError`.  The token is a shared secret over plain
TCP, not TLS: run this only on networks you trust.
"""

from __future__ import annotations

import gzip
import hmac
import http.client
import json
import pickle
import socket
import threading
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.protocol import encode_blob, parse_address
from repro.core.config import SparkXDConfig
from repro.pipeline.store import MISS, ArtifactStore
from repro.telemetry import get_logger, get_metrics

LOG = get_logger(__name__)

#: The one route table: ``(method, path template, handler name)``.
#: Handler names bind to ``_route_<name>`` methods on
#: :class:`HttpEndpoint`; path placeholders use ``{param}`` syntax.
ROUTES: Tuple[Tuple[str, str, str], ...] = (
    ("POST", "/sweeps", "submit"),
    ("GET", "/sweeps/{sweep_id}", "status"),
    ("POST", "/sweeps/{sweep_id}/cancel", "cancel"),
    ("GET", "/sweeps/{sweep_id}/results", "results"),
    ("GET", "/fleet", "fleet"),
    ("POST", "/worker/hello", "hello"),
    ("POST", "/worker/lease", "lease"),
    ("POST", "/worker/heartbeat", "heartbeat"),
    ("POST", "/worker/complete", "complete"),
    ("POST", "/worker/fail", "fail"),
    ("POST", "/artifacts/has", "has"),
    ("GET", "/artifacts/{stage}/{digest}", "download"),
    ("PUT", "/artifacts/{stage}/{digest}", "upload"),
)

#: What a worker's peer endpoint serves: artifact downloads only.
PEER_ROUTES = frozenset({"download"})

#: JSON bodies above this size are refused before they are read.
#: Artifact uploads are not JSON and carry no cap.
MAX_JSON_BODY_BYTES = 16 * 1024 * 1024

#: Byte budget of an :class:`ArtifactEndpoint`'s pickle cache.
WIRE_CACHE_BYTES = 64 * 1024 * 1024


class ServiceError(RuntimeError):
    """An HTTP error reply from a cluster endpoint."""

    def __init__(self, status: int, message: str, payload: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.status = int(status)
        self.payload = dict(payload or {})


class ServiceAuthError(ServiceError):
    """The endpoint rejected our bearer token (or the lack of one)."""


# ----------------------------------------------------------------------
# Grid wire form (axis values may be tuples; JSON only has lists).


def grid_to_wire(grid: Mapping[str, Sequence[Any]]) -> Dict[str, List[Any]]:
    """JSON-safe grid: tuple axis values become lists."""
    return {
        str(key): [list(value) if isinstance(value, tuple) else value for value in values]
        for key, values in grid.items()
    }


def grid_from_wire(wire: Mapping[str, Sequence[Any]]) -> Dict[str, List[Any]]:
    """Inverse of :func:`grid_to_wire`: list axis values become tuples.

    Config sequence fields are tuples (``voltages``, ``ber_rates``), so
    axis values that arrive as JSON arrays are re-tupled — fingerprints
    are tuple/list agnostic (``canonical_form``), but the configs a
    service builds should be *exactly* what an in-process caller would
    have built.
    """
    return {
        str(key): [tuple(value) if isinstance(value, list) else value for value in values]
        for key, values in wire.items()
    }


# ----------------------------------------------------------------------
# Artifact serving.


class ArtifactEndpoint:
    """One store's artifacts as raw pickles: the download and upload
    side of the hub and of every worker's peer endpoint.

    Serving from the exact uploaded bytes keeps round trips
    byte-identical and avoids re-pickling per pull, while a byte-bounded
    LRU of those pickles keeps memory from doubling on large sweeps (an
    evicted entry is re-pickled from the store on demand; a blob bigger
    than the whole budget is served but never cached).  The lock covers
    only bookkeeping — never pickling or store I/O — so transfers stay
    concurrent.  Transfer counters tell how many bytes this endpoint
    served (get) and received (put).
    """

    def __init__(self, store: ArtifactStore):
        self.store = store
        self._lock = threading.Lock()
        self._cache: "OrderedDict[Tuple[str, str], bytes]" = OrderedDict()
        self.cached_bytes = 0
        self._counts = dict.fromkeys(
            ("get_count", "get_bytes", "get_wire_bytes", "put_count", "put_bytes"), 0
        )

    def get(
        self, stage: str, digest: str, accept: Sequence[str] = ()
    ) -> Optional[Tuple[bytes, Optional[str]]]:
        """``(wire_blob, encoding)`` for one key, ``None`` if not held."""
        key = (stage, digest)
        with self._lock:
            blob = self._cache.get(key)
            if blob is not None:
                self._cache.move_to_end(key)
        if blob is None:
            artifact = self.store.get(stage, digest)
            if artifact is MISS:
                return None
            blob = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
            self._remember(key, blob)
        wire_blob, encoding = encode_blob(blob, accept)
        self._count(get_count=1, get_bytes=len(blob), get_wire_bytes=len(wire_blob))
        return wire_blob, encoding

    def put(self, stage: str, digest: str, blob: bytes) -> bool:
        """Store one uploaded pickle; ``False`` if the key was already held.

        An already-present fingerprint (double completion, resumed
        worker) is a hit, not a rewrite.  No endpoint-wide lock: the
        store publish is atomic and treats a lost race as a hit, and
        ``put_bytes`` never unpickles on disk-backed stores, keeping a
        long-running service's memory bounded.
        """
        self._count(put_count=1, put_bytes=len(blob))
        if (stage, digest) in self.store:
            return False
        self.store.put_bytes(stage, digest, blob)
        self._remember((stage, digest), blob)
        return True

    def _remember(self, key: Tuple[str, str], blob: bytes) -> None:
        if len(blob) > WIRE_CACHE_BYTES:
            return
        with self._lock:
            old = self._cache.pop(key, None)
            if old is not None:
                self.cached_bytes -= len(old)
            self._cache[key] = blob
            self.cached_bytes += len(blob)
            while self.cached_bytes > WIRE_CACHE_BYTES and len(self._cache) > 1:
                _, evicted = self._cache.popitem(last=False)
                self.cached_bytes -= len(evicted)

    def _count(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self._counts[name] += delta

    def transfer_stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


# ----------------------------------------------------------------------
# Server side.


@dataclass
class _Request:
    """One parsed request as a route handler sees it."""

    params: Dict[str, str]
    body: Any  # a JSON object, or the raw bytes of an upload
    headers: Any
    client_host: str


class _Server(ThreadingHTTPServer):
    # Shutdown never waits on a stalled client; handler threads are
    # daemons and finish (or die) on their own.
    block_on_close = False
    # Every request is a fresh connection: let a fleet's bursts queue.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], endpoint: "HttpEndpoint"):
        if ":" in address[0]:
            self.address_family = socket.AF_INET6
        self.endpoint = endpoint
        super().__init__(address, _Handler)

    def server_bind(self) -> None:
        # Skip HTTPServer's getfqdn() of the bind host: a reverse DNS
        # lookup that can stall startup where DNS is down, for a name
        # only CGI reads.
        super(HTTPServer, self).server_bind()


class _Handler(BaseHTTPRequestHandler):
    # Headers and body leave in two writes; Nagle would hold the body
    # back for the client's delayed ACK of the headers.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:
        pass  # one stderr line per request would drown --json output

    def do_GET(self) -> None:
        self.server.endpoint.handle(self)

    do_POST = do_PUT = do_GET


class HttpEndpoint:
    """One stdlib HTTP server dispatching :data:`ROUTES`.

    The experiment service passes itself as ``service`` and serves every
    route; a worker passes none and serves only :data:`PEER_ROUTES`
    over ``artifacts`` (its own store).  Route handlers run on the
    server's per-connection threads and call straight into the
    thread-safe service and its plans.
    """

    def __init__(
        self,
        artifacts: ArtifactEndpoint,
        *,
        service: Any = None,
        token: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.artifacts = artifacts
        self.service = service
        self.token = token
        self.routes = [
            row for row in ROUTES if service is not None or row[2] in PEER_ROUTES
        ]
        self._server = _Server((host, int(port)), self)
        self.address: Tuple[str, int] = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "HttpEndpoint":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            # The default 0.5 s poll would delay every shutdown().
            kwargs={"poll_interval": 0.05},
            name=f"repro-http-{self.address[1]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- request plumbing ----------------------------------------------
    def handle(self, request: BaseHTTPRequestHandler) -> None:
        try:
            status, payload = self._respond(request)
        except Exception as error:  # surface, never kill the listener
            LOG.exception("request failed", extra={"route": request.path})
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        encoding = None
        if isinstance(payload, dict):
            body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
            content_type = "application/json"
        else:
            (body, encoding), content_type = payload, "application/octet-stream"
        try:
            request.send_response(status)
            request.send_header("Content-Type", content_type)
            request.send_header("Content-Length", str(len(body)))
            if encoding is not None:
                request.send_header("Content-Encoding", encoding)
            request.end_headers()
            request.wfile.write(body)
        except OSError:
            pass  # requester vanished; every request stands alone

    def _respond(self, request: BaseHTTPRequestHandler) -> Tuple[int, Any]:
        path = request.path.split("?", 1)[0]
        name, params = self._match(request.command, path)
        try:
            length = int(request.headers.get("Content-Length") or 0)
        except ValueError:
            return 400, {"error": "malformed Content-Length"}
        if name != "upload" and length > MAX_JSON_BODY_BYTES:
            return 413, {"error": f"request body of {length} bytes too large"}
        # Read the body even for requests about to be refused: closing
        # on unread bytes resets the connection before the reply lands.
        raw = request.rfile.read(length) if length > 0 else b""
        if not self._authorized(request.headers.get("Authorization", "")):
            get_metrics().counter("cluster.auth_rejects").inc()
            return 401, {
                "error": "authentication required: bad or missing bearer token",
                "code": "auth",
            }
        if name is None:
            return 404, {"error": f"no route for {request.command} {path}"}
        if len(raw) < length:
            return 400, {"error": f"body truncated at {len(raw)}/{length} bytes"}
        encoding = request.headers.get("Content-Encoding", "identity")
        if encoding == "gzip":
            try:
                raw = gzip.decompress(raw)
            except (OSError, EOFError) as error:
                return 400, {"error": f"corrupt gzip body: {error}"}
        elif encoding != "identity":
            return 400, {"error": f"unknown Content-Encoding {encoding!r}"}
        body: Any = raw
        if name != "upload":
            try:
                body = json.loads(raw) if raw else {}
            except json.JSONDecodeError as error:
                return 400, {"error": f"invalid JSON body: {error}"}
            if not isinstance(body, dict):
                return 400, {"error": "JSON body must be an object"}
        handler = getattr(self, f"_route_{name}")
        return handler(_Request(params, body, request.headers, request.client_address[0]))

    def _authorized(self, supplied: str) -> bool:
        if self.token is None:
            return True
        scheme, _, credential = supplied.partition(" ")
        return scheme.lower() == "bearer" and hmac.compare_digest(
            credential.strip(), self.token
        )

    def _match(self, method: str, path: str) -> Tuple[Optional[str], Dict[str, str]]:
        segments = [s for s in path.split("/") if s]
        for route_method, template, name in self.routes:
            template_segments = [s for s in template.split("/") if s]
            if route_method != method or len(template_segments) != len(segments):
                continue
            params: Dict[str, str] = {}
            for expected, actual in zip(template_segments, segments):
                if expected.startswith("{") and expected.endswith("}"):
                    params[expected[1:-1]] = actual
                elif expected != actual:
                    break
            else:
                return name, params
        return None, {}

    # -- control routes --------------------------------------------------
    def _route_submit(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        body = request.body
        wire_config = body.get("base_config")
        wire_grid = body.get("grid")
        if not isinstance(wire_config, dict) or not isinstance(wire_grid, dict):
            return 400, {
                "error": "submit body requires 'base_config' and 'grid' objects"
            }
        try:
            config = SparkXDConfig.from_wire(wire_config)
            grid = grid_from_wire(wire_grid)
        except (TypeError, ValueError, KeyError) as error:
            return 400, {"error": f"bad sweep description: {error}"}
        resume = body.get("resume", "auto")
        if resume != "auto" and not isinstance(resume, bool):
            return 400, {
                "error": "'resume' must be \"auto\", true or false, "
                f"got {resume!r}"
            }
        name = body.get("name")
        try:
            managed = self.service.submit(
                config,
                grid,
                name=None if name is None else str(name),
                resume=resume,
            )
        except ValueError as error:
            return 400, {"error": str(error)}
        return 200, self.service.describe(managed.sweep_id)

    def _route_status(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        try:
            return 200, self.service.describe(request.params["sweep_id"])
        except KeyError:
            return 404, {"error": f"unknown sweep {request.params['sweep_id']!r}"}

    def _route_cancel(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        try:
            return 200, self.service.cancel(request.params["sweep_id"])
        except KeyError:
            return 404, {"error": f"unknown sweep {request.params['sweep_id']!r}"}

    def _route_results(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        sweep_id = request.params["sweep_id"]
        try:
            records = self.service.results(sweep_id)
        except KeyError:
            return 404, {"error": f"unknown sweep {sweep_id!r}"}
        except RuntimeError as error:
            # Not done / failed (PlanFailed) / cancelled: a state
            # conflict — the client may poll status and retry.  Any
            # other error is a fault and takes handle()'s logged 500.
            return 409, {
                "error": str(error),
                "state": self.service.describe(sweep_id).get("state"),
            }
        return 200, {
            "sweep_id": sweep_id,
            "records": [record.to_dict() for record in records],
        }

    def _route_fleet(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        return 200, self.service.fleet()

    # -- worker routes ---------------------------------------------------
    def _worker(self, request: _Request) -> str:
        """The requesting worker's name; ingests the telemetry snapshot
        a worker request may carry."""
        worker = str(request.body.get("worker", "anonymous"))
        self.service.ingest_telemetry(worker, request.body.get("telemetry"))
        return worker

    def _route_hello(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        worker = self._worker(request)
        # The worker advertises only its peer *port*; its reachable
        # host is whatever address this very request came from.
        return 200, self.service.hello(
            worker, request.client_host, request.body.get("peer_port")
        )

    def _route_lease(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        worker = self._worker(request)
        return 200, self.service.lease(worker, request.body.get("holding"))

    def _route_heartbeat(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        worker = self._worker(request)
        plan = self.service.plan(request.body.get("sweep_id"))
        job_id = str(request.body.get("job_id"))
        return 200, {"ok": plan is not None and plan.heartbeat(worker, job_id)}

    def _route_complete(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        worker = self._worker(request)
        plan = self.service.plan(request.body.get("sweep_id"))
        job_id = str(request.body.get("job_id"))
        ok = plan is not None and plan.complete(
            worker, job_id, request.body.get("stats") or {}
        )
        # ``holding``: how many keys the routing table now credits to
        # this worker; a matching local count skips the next re-report.
        return 200, {"ok": ok, "holding": self.service.registry.holding_count(worker)}

    def _route_fail(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        worker = self._worker(request)
        plan = self.service.plan(request.body.get("sweep_id"))
        if plan is not None:
            plan.fail(
                worker, str(request.body.get("job_id")), str(request.body.get("error", ""))
            )
        return 200, {"ok": True}

    # -- artifact routes -------------------------------------------------
    def _route_has(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        keys = [(str(s), str(d)) for s, d in request.body.get("keys", [])]
        store = self.artifacts.store
        return 200, {"present": [list(key) for key in keys if key in store]}

    def _route_download(self, request: _Request) -> Tuple[int, Any]:
        accept = [
            coding.split(";")[0].strip()
            for coding in request.headers.get("Accept-Encoding", "").split(",")
        ]
        served = self.artifacts.get(
            request.params["stage"], request.params["digest"], accept
        )
        if served is None:
            # A refusal, not a fault: evicted or never held here.
            return 404, {"error": "artifact not held here", "found": False}
        return 200, served

    def _route_upload(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        stored = self.artifacts.put(
            request.params["stage"], request.params["digest"], request.body
        )
        return 200, {"ok": True, "stored": stored}


# ----------------------------------------------------------------------
# Client side.


class ServiceClient:
    """The one cluster client (stdlib ``http.client``).

    ``address`` accepts ``host:port`` strings, ``(host, port)`` tuples
    or full ``http://host:port`` URLs.  Every exchange funnels through
    :meth:`http_request`, whose literal paths are what the
    ``protocol-consistency`` lint rule checks against :data:`ROUTES`.
    """

    def __init__(
        self,
        address: Any,
        token: Optional[str] = None,
        timeout: float = 30.0,
    ):
        if isinstance(address, str) and address.startswith("http://"):
            address = address[len("http://"):].rstrip("/")
        self.address = parse_address(address)
        self.token = token
        self.timeout = float(timeout)

    def http_request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        *,
        blob: Optional[bytes] = None,
        encoding: Optional[str] = None,
    ) -> Dict[str, Any]:
        """One request on a fresh connection.

        ``payload`` travels as a JSON body; ``blob`` as a raw artifact
        body, with the ``Content-Encoding`` :func:`encode_blob` chose.
        A JSON reply returns as its object; an artifact reply as
        ``{"blob": raw bytes, "wire_bytes": n}``, gzip already undone.
        Error statuses raise :class:`ServiceError` (auth rejections the
        sharper :class:`ServiceAuthError`, so callers fail loud instead
        of retrying through a deployment error).  A refused, dropped or
        truncated connection, or an undecodable body, raises
        :class:`ConnectionError` — an :class:`OSError`, like every
        other transport failure — so retry and peer-fallback paths see
        one kind of transport trouble.
        """
        headers = {"Accept-Encoding": "gzip"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        body: Optional[bytes] = None
        if blob is not None:
            body = blob
            headers["Content-Type"] = "application/octet-stream"
            if encoding is not None:
                headers["Content-Encoding"] = encoding
        elif payload is not None:
            body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(*self.address, timeout=self.timeout)
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except http.client.HTTPException as error:
            raise ConnectionError(f"{method} {path}: {type(error).__name__}: {error}") from error
        finally:
            connection.close()
        wire_bytes = len(raw)
        reply_encoding = response.getheader("Content-Encoding", "identity")
        if reply_encoding == "gzip":
            try:
                raw = gzip.decompress(raw)
            except (OSError, EOFError) as error:
                raise ConnectionError(f"{method} {path}: corrupt gzip body: {error}") from error
        elif reply_encoding != "identity":
            raise ConnectionError(f"{method} {path}: unknown Content-Encoding {reply_encoding!r}")
        if response.status < 400 and (
            response.getheader("Content-Type") == "application/octet-stream"
        ):
            return {"blob": raw, "wire_bytes": wire_bytes}
        try:
            reply = json.loads(raw) if raw else {}
        except json.JSONDecodeError as error:
            raise ServiceError(
                response.status, f"non-JSON reply from {method} {path}: {error}"
            ) from error
        if not isinstance(reply, dict):
            raise ServiceError(response.status, "reply must be a JSON object")
        if response.status >= 400:
            message = str(reply.get("error") or f"HTTP {response.status}")
            if reply.get("code") == "auth":
                raise ServiceAuthError(response.status, message, reply)
            raise ServiceError(response.status, message, reply)
        return reply

    # -- lifecycle helpers ---------------------------------------------
    def submit(
        self,
        base_config: SparkXDConfig,
        grid: Mapping[str, Sequence[Any]],
        name: Optional[str] = None,
        resume: Any = "auto",
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "base_config": base_config.to_wire(),
            "grid": grid_to_wire(grid),
            "resume": resume,
        }
        if name is not None:
            payload["name"] = str(name)
        return self.http_request("POST", "/sweeps", payload)

    def status(self, sweep_id: str) -> Dict[str, Any]:
        return self.http_request("GET", f"/sweeps/{sweep_id}")

    def cancel(self, sweep_id: str) -> Dict[str, Any]:
        return self.http_request("POST", f"/sweeps/{sweep_id}/cancel")

    def results(self, sweep_id: str) -> Dict[str, Any]:
        return self.http_request("GET", f"/sweeps/{sweep_id}/results")

    def fleet(self) -> Dict[str, Any]:
        return self.http_request("GET", "/fleet")

    def wait(self, sweep_id: str, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Poll every 0.25 s until the sweep leaves ``running``; returns
        its final status.

        The in-process service's loop
        (:func:`~repro.cluster.service.wait_for_sweep`) over ``GET
        /sweeps/{id}``, with the same errors; ``GET /fleet`` supplies
        the workers' last-contact ages once ``timeout`` elapses.
        """
        from repro.cluster.service import wait_for_sweep

        return wait_for_sweep(
            lambda: self.status(sweep_id),
            lambda: self.fleet().get("workers") or {},
            self.address,
            timeout=timeout,
            poll_s=0.25,
        )


__all__ = [
    "ArtifactEndpoint",
    "HttpEndpoint",
    "PEER_ROUTES",
    "ROUTES",
    "ServiceAuthError",
    "ServiceClient",
    "ServiceError",
    "grid_from_wire",
    "grid_to_wire",
]
