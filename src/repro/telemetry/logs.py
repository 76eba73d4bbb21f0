"""Structured JSON logging plus the shared telemetry entrypoint.

Library code logs through ``get_logger(__name__)`` (the ``log-discipline``
lint rule bans bare ``print(...)`` diagnostics outside the CLI and
benchmark surfaces).  Nothing is configured by default: un-configured,
only WARNING+ records reach stderr via logging's last-resort handler,
so importing the library stays silent on the happy path.

:func:`configure_telemetry` is the single switch the CLI flags flip —
``--log-level`` installs a JSON-lines handler on the ``repro`` logger
hierarchy, ``--trace`` installs the span :class:`~repro.telemetry.spans.TraceWriter`.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any, Dict, Optional

from repro.telemetry import spans

__all__ = [
    "JsonLineFormatter",
    "configure_telemetry",
    "get_logger",
    "telemetry_log_level",
]

#: Attributes present on every LogRecord; anything else arrived via
#: ``extra=`` and is surfaced in the JSON payload.
_STANDARD_RECORD_FIELDS = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}

_HANDLER_NAME = "repro-telemetry"


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record: ts/level/logger/message + extras."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        ctx = spans.current_context()
        if ctx is not None:
            payload["trace_id"] = ctx["trace_id"]
        for key, value in record.__dict__.items():
            if key not in _STANDARD_RECORD_FIELDS and not key.startswith("_"):
                payload[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


def get_logger(name: str) -> logging.Logger:
    """The telemetry logger for a module; pass ``__name__``."""

    if not name:
        raise ValueError("get_logger() requires a module name")
    return logging.getLogger(name)


def configure_telemetry(
    level: Optional[str] = None,
    trace_path: Optional[str] = None,
) -> None:
    """Shared entrypoint behind the ``--log-level`` / ``--trace`` flags.

    Idempotent: reconfiguring replaces the previously-installed JSON
    handler and trace writer rather than stacking them.  Structured log
    records go to stderr (stdout stays reserved for CLI user-facing
    output and ``--json`` payloads).
    """

    if level is not None:
        numeric = logging.getLevelName(str(level).upper())
        if not isinstance(numeric, int):
            raise ValueError(f"unknown log level: {level!r}")
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            if handler.get_name() == _HANDLER_NAME:
                root.removeHandler(handler)
        handler = logging.StreamHandler(sys.stderr)
        handler.set_name(_HANDLER_NAME)
        handler.setFormatter(JsonLineFormatter())
        root.addHandler(handler)
        root.setLevel(numeric)
    if trace_path is not None:
        spans.configure_tracing(trace_path)


def telemetry_log_level() -> Optional[str]:
    """The level name :func:`configure_telemetry` installed, else ``None``."""

    root = logging.getLogger("repro")
    if any(h.get_name() == _HANDLER_NAME for h in root.handlers):
        return logging.getLevelName(root.level)
    return None
