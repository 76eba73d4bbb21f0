"""The cluster line protocol: one JSON header line, optional raw blob.

Every exchange between a worker and the coordinator is a single
request/response over a fresh TCP connection:

- the requester sends one JSON object on one ``\\n``-terminated line;
- if the object carries ``"blob_bytes": n``, exactly ``n`` raw bytes
  follow the newline (artifact payloads — pickles, never JSON-escaped);
- the responder answers with one JSON line (plus an optional blob,
  framed the same way).

Keeping the protocol connection-per-request makes both sides trivially
restartable: there is no session state to resume, a half-written request
is simply dropped by the server, and a worker that lost connectivity
retries the identical idempotent request.  See ``docs/cluster.md`` for
the full operation table.

Security note: artifact blobs are pickles, exactly like the disk cache
(:mod:`repro.pipeline.store`).  Only run coordinators/workers on hosts
and networks you trust, as you would with any shared build cache.
"""

from __future__ import annotations

import gzip
import json
import socket
from typing import Any, BinaryIO, Dict, Optional, Sequence, Tuple

#: Upper bound on one JSON header line.  Headers carry configs and job
#: descriptions, never artifacts; anything larger is a protocol error.
MAX_HEADER_BYTES = 4 * 1024 * 1024

#: Default coordinator TCP port (chosen from the unassigned range).
DEFAULT_PORT = 8752

#: Optional wire capabilities this build understands.  A responder
#: advertises them in its ``hello`` reply; a requester only *sends* an
#: encoded blob (or asks for one via ``"accept"``) after seeing the
#: capability, so mixed-version fleets degrade to the raw-blob protocol
#: instead of mis-framing.
PROTOCOL_CAPS: Tuple[str, ...] = ("gzip",)

#: Blobs below this size are never compressed: the gzip header and the
#: extra syscalls cost more than the bytes they save.
GZIP_MIN_BYTES = 1024

#: Compression level 1: artifact pickles are mostly float arrays, where
#: higher levels burn CPU for single-digit-percent gains on a path
#: whose point is cutting *transfer* time.
GZIP_LEVEL = 1


class ProtocolError(RuntimeError):
    """A malformed frame, oversized header, or error reply."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection mid-message."""


class AuthError(ProtocolError):
    """The peer rejected our token (or the lack of one).

    Raised by :class:`ClusterClient` whenever an error reply carries
    ``"code": "auth"`` — *regardless* of ``check=False``, because an
    authentication mismatch is a deployment error no retry loop can
    recover from: callers must surface it loudly, not poll through it.
    """


def parse_address(address: Any, default_port: int = DEFAULT_PORT) -> Tuple[str, int]:
    """Normalise ``"host:port"`` / ``"host"`` / ``(host, port)`` forms.

    IPv6 literals use the standard bracket syntax — ``[::1]:8752`` or
    bare ``[::1]`` — and a bare multi-colon string is treated as an
    IPv6 host with the default port (never split at its last colon).
    """
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    text = str(address).strip()
    if text.startswith("["):
        host, bracket, rest = text[1:].partition("]")
        if not bracket or (rest and not rest.startswith(":")):
            raise ValueError(f"malformed bracketed address {text!r}")
        return host, int(rest[1:]) if rest else default_port
    if text.count(":") > 1:
        return text, default_port  # bare IPv6 literal, no port
    if ":" in text:
        host, _, port = text.partition(":")
        return host or "127.0.0.1", int(port)
    return text or "127.0.0.1", default_port


def format_address(address: Tuple[str, int]) -> str:
    host, port = address
    if ":" in host:
        return f"[{host}]:{port}"  # IPv6: round-trips through parse_address
    return f"{host}:{port}"


# ----------------------------------------------------------------------
# Blob encodings.


def encode_blob(
    blob: bytes,
    accept: Sequence[str],
    min_bytes: int = GZIP_MIN_BYTES,
) -> Tuple[bytes, Optional[str]]:
    """Compress ``blob`` for the wire iff the peer accepts it *and* it pays.

    Returns ``(wire_blob, encoding)`` where ``encoding`` is ``None``
    (send raw) or ``"gzip"``.  Incompressible payloads (already-packed
    arrays) are sent raw even when gzip is accepted — the receiver never
    sees an encoding that grew the payload.
    """
    if "gzip" not in accept or len(blob) < min_bytes:
        return blob, None
    encoded = gzip.compress(blob, compresslevel=GZIP_LEVEL)
    if len(encoded) >= len(blob):
        return blob, None
    return encoded, "gzip"


# ----------------------------------------------------------------------
# Framing.


def build_frame(
    payload: Dict[str, Any],
    blob: Optional[bytes] = None,
    encoding: Optional[str] = None,
) -> Tuple[bytes, Optional[bytes]]:
    """Serialise one message into ``(header_line, blob)``.

    The pure half of :func:`send_message`, shared with the asyncio
    transport (:mod:`repro.cluster.service`): normalises the
    ``blob_bytes``/``blob_encoding`` keys and enforces the header size
    limit, leaving the actual writing to the caller.
    """
    payload = dict(payload)
    if blob is not None:
        payload["blob_bytes"] = len(blob)
        if encoding is not None:
            payload["blob_encoding"] = encoding
        else:
            payload.pop("blob_encoding", None)
    else:
        payload.pop("blob_bytes", None)
        payload.pop("blob_encoding", None)
    line = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    if len(line) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header of {len(line)} bytes exceeds protocol limit")
    return line, blob


def parse_header(line: bytes) -> Dict[str, Any]:
    """Decode one header line into its payload dict (no blob handling)."""
    if len(line) > MAX_HEADER_BYTES:
        raise ProtocolError("header line exceeds protocol limit")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"invalid header line: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(f"header must be a JSON object, got {type(payload)}")
    return payload


def decode_wire_blob(payload: Dict[str, Any], blob: bytes) -> bytes:
    """Undo the announced ``blob_encoding`` (popped from ``payload``).

    The pure half of :func:`recv_message`'s decode step, shared with the
    asyncio transport: surfaces the wire size as
    ``payload["blob_wire_bytes"]`` and raises on unknown encodings.
    """
    encoding = payload.pop("blob_encoding", None)
    if encoding is None:
        return blob
    if encoding != "gzip":
        raise ProtocolError(f"unknown blob encoding {encoding!r}")
    payload["blob_wire_bytes"] = len(blob)
    try:
        return gzip.decompress(blob)
    except (OSError, EOFError) as error:
        raise ProtocolError(f"corrupt gzip blob: {error}") from error


def send_message(
    wfile: BinaryIO,
    payload: Dict[str, Any],
    blob: Optional[bytes] = None,
    encoding: Optional[str] = None,
) -> None:
    """Write one header line (and the blob it announces, if any).

    ``encoding`` names how ``blob`` was encoded for the wire (today only
    ``"gzip"``, from :func:`encode_blob`); the receiver's
    :func:`recv_message` decodes transparently.  Only pass an encoding
    the peer advertised — see :data:`PROTOCOL_CAPS`.
    """
    line, blob = build_frame(payload, blob, encoding)
    wfile.write(line)
    if blob is not None:
        wfile.write(blob)
    wfile.flush()


def recv_message(rfile: BinaryIO) -> Tuple[Dict[str, Any], Optional[bytes]]:
    """Read one header line and its announced blob (if any).

    A ``blob_encoding`` announced by the sender is decoded here, so
    callers always receive the *raw* blob bytes; the on-the-wire size is
    surfaced as ``payload["blob_wire_bytes"]`` for transfer accounting.
    An unknown encoding is a protocol error (the capability handshake
    exists precisely so this never happens between in-tree peers).
    """
    line = rfile.readline(MAX_HEADER_BYTES + 1)
    if not line:
        raise ConnectionClosed("peer closed the connection before a header")
    payload = parse_header(line)
    blob: Optional[bytes] = None
    size = payload.pop("blob_bytes", None)
    if size is not None:
        size = int(size)
        if size < 0:
            raise ProtocolError(f"negative blob size {size}")
        chunks = []
        remaining = size
        while remaining:
            chunk = rfile.read(remaining)
            if not chunk:
                raise ConnectionClosed(
                    f"peer closed mid-blob ({size - remaining}/{size} bytes)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        blob = decode_wire_blob(payload, b"".join(chunks))
    return payload, blob


# ----------------------------------------------------------------------
# Client.


class ClusterClient:
    """Issues single request/response exchanges against a coordinator.

    ``token`` — the shared cluster secret — is stamped onto every
    outgoing payload when set.  A coordinator without auth ignores the
    unknown key; a coordinator *with* auth rejects token-less requests
    with ``"code": "auth"``, which this client raises as
    :class:`AuthError` so mixed fleets fail loud, not silent (the same
    degradation contract as the gzip capability handshake).
    """

    def __init__(self, address: Any, timeout: float = 30.0, token: Optional[str] = None):
        self.address = parse_address(address)
        self.timeout = timeout
        self.token = token

    def request(
        self,
        payload: Dict[str, Any],
        blob: Optional[bytes] = None,
        check: bool = True,
        encoding: Optional[str] = None,
    ) -> Tuple[Dict[str, Any], Optional[bytes]]:
        """One round trip; raises :class:`ProtocolError` on error replies.

        With ``check=False`` error replies (``{"ok": false, "error":
        ...}``) are returned to the caller instead of raised — except
        auth rejections, which raise :class:`AuthError` unconditionally.
        ``encoding`` passes through to :func:`send_message` for blobs
        already encoded with :func:`encode_blob`.
        """
        if self.token is not None:
            payload = dict(payload)
            payload.setdefault("token", self.token)
        with socket.create_connection(self.address, timeout=self.timeout) as sock:
            with sock.makefile("rb") as rfile, sock.makefile("wb") as wfile:
                send_message(wfile, payload, blob, encoding=encoding)
                reply, reply_blob = recv_message(rfile)
        if reply.get("error"):
            if reply.get("code") == "auth":
                raise AuthError(str(reply["error"]))
            if check:
                raise ProtocolError(str(reply["error"]))
        return reply, reply_blob
