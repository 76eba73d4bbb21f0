"""HTTP/JSON control plane for the experiment service.

The second listener of :class:`~repro.cluster.service.ExperimentService`
— a deliberately minimal, stdlib-only HTTP/1.1 endpoint (one request
per connection, ``Connection: close``) that exposes sweep lifecycle
management to *clients*, while workers keep speaking the line protocol:

=========  =========================  =================================
``POST``   ``/sweeps``                submit a sweep (config + grid in
                                      wire form); idempotent — an
                                      already-registered sweep_id
                                      reattaches instead of duplicating
``GET``    ``/sweeps/{sweep_id}``     state, job counts, journal lag
``POST``   ``/sweeps/{sweep_id}/cancel``  withdraw: frees live leases
``GET``    ``/sweeps/{sweep_id}/results`` assembled RunRecords (409
                                      until the sweep is done)
``GET``    ``/fleet``                 whole-service view: totals,
                                      per-sweep breakdown, worker ages,
                                      transfers, merged telemetry
=========  =========================  =================================

The route table is the module-level :data:`ROUTES` constant — the
``protocol-consistency`` lint rule cross-checks it against the paths
:class:`ServiceClient` emits (both directions), exactly as it does for
the line-protocol op table.

Authentication mirrors the line plane: a service started with a shared
token requires ``Authorization: Bearer <token>`` on every request and
answers 401 with ``{"code": "auth"}`` otherwise;
:class:`ServiceClient` raises :class:`ServiceAuthError` on it.  Like
the artifact planes, run this only on networks you trust — the token
is a shared secret over plain TCP, not TLS.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import http.client
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.protocol import parse_address
from repro.core.config import SparkXDConfig
from repro.telemetry import get_logger, get_metrics

LOG = get_logger(__name__)

#: Default control-plane TCP port (line protocol default + 1).
DEFAULT_HTTP_PORT = 8753

#: The registered control-plane surface: ``(method, path template,
#: handler name)``.  Handler names bind to ``_route_<name>`` methods on
#: :class:`HttpControlPlane`; path placeholders use ``{param}`` syntax.
#: Lint (`protocol-consistency`) verifies every client-emitted path has
#: a route here, every route has a handler method, and every route is
#: actually exercised by a client emitter.
ROUTES: Tuple[Tuple[str, str, str], ...] = (
    ("POST", "/sweeps", "submit"),
    ("GET", "/sweeps/{sweep_id}", "status"),
    ("POST", "/sweeps/{sweep_id}/cancel", "cancel"),
    ("GET", "/sweeps/{sweep_id}/results", "results"),
    ("GET", "/fleet", "fleet"),
)

#: Response bodies above this size are not worth logging at debug.
MAX_REQUEST_BODY_BYTES = 16 * 1024 * 1024


class ServiceError(RuntimeError):
    """An HTTP error reply from the experiment service."""

    def __init__(self, status: int, message: str, payload: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.status = int(status)
        self.payload = dict(payload or {})


class ServiceAuthError(ServiceError):
    """The service rejected our bearer token (or the lack of one)."""


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
# Server side.


class HttpControlPlane:
    """Asyncio HTTP/1.1 handler bound to one experiment service.

    One request per connection keeps this as stateless as the line
    protocol: no keep-alive bookkeeping, no pipelining, trivially
    restartable clients.  Handlers run in the event loop's default
    thread pool because they take plan/service locks and may assemble
    records.
    """

    def __init__(self, service: Any, token: Optional[str] = None):
        self.service = service
        self.token = token

    # -- request plumbing ----------------------------------------------
    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._respond(reader)
        except Exception as error:  # surface, never kill the listener
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        reason = {
            200: "OK",
            400: "Bad Request",
            401: "Unauthorized",
            404: "Not Found",
            405: "Method Not Allowed",
            409: "Conflict",
            500: "Internal Server Error",
        }.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client vanished; the protocol is stateless
        finally:
            writer.close()

    async def _respond(self, reader: asyncio.StreamReader) -> Tuple[int, Dict[str, Any]]:
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            return 400, {"error": "request line too long"}
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if not self._authorized(headers):
            get_metrics().counter("service.http_auth_rejects").inc()
            return 401, {
                "error": "authentication required: bad or missing bearer token",
                "code": "auth",
            }
        body: Optional[Dict[str, Any]] = None
        length = int(headers.get("content-length", 0) or 0)
        if length:
            if length > MAX_REQUEST_BODY_BYTES:
                return 400, {"error": f"request body of {length} bytes too large"}
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as error:
                return 400, {"error": f"invalid JSON body: {error}"}
            if not isinstance(body, dict):
                return 400, {"error": "JSON body must be an object"}
        path = target.split("?", 1)[0]
        handler, params = self._match(method, path)
        if handler is None:
            return 404, {"error": f"no route for {method} {path}"}
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, handler, params, body or {})

    def _authorized(self, headers: Mapping[str, str]) -> bool:
        if self.token is None:
            return True
        supplied = headers.get("authorization", "")
        scheme, _, credential = supplied.partition(" ")
        return scheme.lower() == "bearer" and hmac.compare_digest(
            credential.strip(), self.token
        )

    def _match(
        self, method: str, path: str
    ) -> Tuple[Optional[Callable[[Dict[str, str], Dict[str, Any]], Tuple[int, Dict[str, Any]]]], Dict[str, str]]:
        segments = [s for s in path.split("/") if s]
        for route_method, template, name in ROUTES:
            if route_method != method:
                continue
            template_segments = [s for s in template.split("/") if s]
            if len(template_segments) != len(segments):
                continue
            params: Dict[str, str] = {}
            for expected, actual in zip(template_segments, segments):
                if expected.startswith("{") and expected.endswith("}"):
                    params[expected[1:-1]] = actual
                elif expected != actual:
                    break
            else:
                return getattr(self, f"_route_{name}"), params
        return None, {}

    # -- route handlers (run in the default executor) -------------------
    def _route_submit(
        self, params: Dict[str, str], body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
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

    def _route_status(
        self, params: Dict[str, str], body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            return 200, self.service.describe(params["sweep_id"])
        except KeyError:
            return 404, {"error": f"unknown sweep {params['sweep_id']!r}"}

    def _route_cancel(
        self, params: Dict[str, str], body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            return 200, self.service.cancel(params["sweep_id"])
        except KeyError:
            return 404, {"error": f"unknown sweep {params['sweep_id']!r}"}

    def _route_results(
        self, params: Dict[str, str], body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        sweep_id = params["sweep_id"]
        try:
            records = self.service.results(sweep_id)
        except KeyError:
            return 404, {"error": f"unknown sweep {sweep_id!r}"}
        except Exception as error:
            # Not done / failed / cancelled: a state conflict, not a
            # protocol error — the client may poll status and retry.
            return 409, {
                "error": str(error),
                "state": self.service.describe(sweep_id).get("state"),
            }
        return 200, {
            "sweep_id": sweep_id,
            "records": [record.to_dict() for record in records],
        }

    def _route_fleet(
        self, params: Dict[str, str], body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        return 200, self.service.fleet()


# ----------------------------------------------------------------------
# Client side.


class ServiceClient:
    """Synchronous control-plane client (stdlib ``http.client``).

    ``address`` accepts ``host:port`` strings, ``(host, port)`` tuples
    or full ``http://host:port`` URLs.  Every helper funnels through
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
        self.address = parse_address(address, default_port=DEFAULT_HTTP_PORT)
        self.token = token
        self.timeout = float(timeout)

    def http_request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One request/response exchange; raises :class:`ServiceError`.

        Auth rejections (``"code": "auth"``) raise the sharper
        :class:`ServiceAuthError` so callers can fail loud instead of
        retrying through a deployment error.
        """
        host, port = self.address
        headers = {"Content-Type": "application/json", "Connection": "close"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        body = (
            None
            if payload is None
            else json.dumps(payload, sort_keys=True, default=str)
        )
        connection = http.client.HTTPConnection(host, port, timeout=self.timeout)
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        try:
            reply = json.loads(raw) if raw else {}
        except json.JSONDecodeError as error:
            raise ServiceError(
                response.status, f"non-JSON reply from service: {error}"
            ) from error
        if not isinstance(reply, dict):
            raise ServiceError(response.status, "service reply must be an object")
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

    def wait(
        self,
        sweep_id: str,
        timeout: Optional[float] = None,
        poll_s: float = 0.25,
    ) -> Dict[str, Any]:
        """Poll until the sweep leaves ``running``; returns final status.

        Raises :class:`~repro.cluster.plan.PlanFailed` on a failed
        sweep and ``DistributionTimeout`` (same type the embedded
        service raises) when ``timeout`` elapses first.
        """
        import time as _time

        from repro.cluster.service import DistributionTimeout
        from repro.cluster.plan import PlanFailed

        deadline = None if timeout is None else _time.monotonic() + float(timeout)
        while True:
            status = self.status(sweep_id)
            state = status.get("state")
            if state == "failed":
                raise PlanFailed(str(status.get("failure") or "sweep failed"))
            if state in ("done", "cancelled"):
                return status
            if deadline is not None and _time.monotonic() > deadline:
                counts = {
                    key: int(status.get(key, 0))
                    for key in ("pending", "leased", "done", "failed")
                }
                raise DistributionTimeout(
                    f"sweep {sweep_id} incomplete after {timeout}s "
                    f"(job states: {counts})",
                    counts=counts,
                    worker_ages={},
                )
            _time.sleep(max(0.05, float(poll_s)))


__all__ = [
    "DEFAULT_HTTP_PORT",
    "HttpControlPlane",
    "ROUTES",
    "ServiceAuthError",
    "ServiceClient",
    "ServiceError",
    "grid_from_wire",
    "grid_to_wire",
]
