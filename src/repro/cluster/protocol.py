"""Cluster addresses and the artifact blob encoding.

Every cluster exchange is one HTTP request on a fresh connection (see
:mod:`repro.cluster.http_api`); this module holds the wire helpers
both ends share: ``host:port`` address parsing and the gzip rule for
artifact bodies.

Security note: artifact blobs are pickles, exactly like the disk cache
(:mod:`repro.pipeline.store`).  Only run services and workers on hosts
and networks you trust, as you would with any shared build cache.
"""

from __future__ import annotations

import gzip
import ipaddress
from typing import Any, Optional, Sequence, Tuple

#: Default service TCP port (chosen from the unassigned range).
DEFAULT_PORT = 8752

#: Blobs below this size are never compressed: the gzip header and the
#: extra syscalls cost more than the bytes they save.
GZIP_MIN_BYTES = 1024

#: Compression level 1: artifact pickles are mostly float arrays, where
#: higher levels burn CPU for single-digit-percent gains on a path
#: whose point is cutting *transfer* time.
GZIP_LEVEL = 1


def parse_address(address: Any) -> Tuple[str, int]:
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
        return host, int(rest[1:]) if rest else DEFAULT_PORT
    if text.count(":") > 1:
        return text, DEFAULT_PORT  # bare IPv6 literal, no port
    if ":" in text:
        host, _, port = text.partition(":")
        return host or "127.0.0.1", int(port)
    return text or "127.0.0.1", DEFAULT_PORT


def is_loopback_host(host: str) -> bool:
    """Whether ``host`` (an IP literal or ``localhost``) is loopback."""
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return host == "localhost"


def format_address(address: Tuple[str, int]) -> str:
    host, port = address
    if ":" in host:
        return f"[{host}]:{port}"  # IPv6: round-trips through parse_address
    return f"{host}:{port}"


def encode_blob(blob: bytes, accept: Sequence[str]) -> Tuple[bytes, Optional[str]]:
    """Compress ``blob`` for the wire iff the receiver accepts it *and* it pays.

    Returns ``(wire_blob, encoding)`` where ``encoding`` is ``None``
    (send raw) or ``"gzip"`` — the ``Content-Encoding`` to announce.
    Incompressible payloads (already-packed arrays) are sent raw even
    when gzip is accepted — the receiver never sees an encoding that
    grew the payload.
    """
    if "gzip" not in accept or len(blob) < GZIP_MIN_BYTES:
        return blob, None
    encoded = gzip.compress(blob, compresslevel=GZIP_LEVEL)
    if len(encoded) >= len(blob):
        return blob, None
    return encoded, "gzip"
