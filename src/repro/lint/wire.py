"""protocol-consistency: every wire route has both ends implemented.

The cluster's one wire (``cluster/http_api.py``) is stringly typed:
clients emit ``http_request("POST", "/worker/lease", ...)`` calls while
the endpoint dispatches on a ``ROUTES`` table of ``(method,
path_template, handler_name)`` rows.  Nothing but this rule connects
the two — a typo'd or half-added route surfaces only at runtime as a
404 (or as a handler no client can ever reach).  Every client, worker
and peer request goes through that table, so the rule cross-checks it
in both directions:

- a path **emitted** anywhere under ``cluster/``
  (``.http_request(METHOD, PATH)``, constant or f-string —
  placeholders match template parameters) with no ``ROUTES`` row is
  an *error* (guaranteed 404);
- a ``ROUTES`` row no client emits is a *warning* (dead or drifted
  wire surface);
- a ``ROUTES`` row naming a handler with no ``_route_<name>`` function
  in the module is an *error* (dispatch would die at request time).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.base import (
    Checker,
    SourceModule,
    attribute_chain,
    const_str,
    enclosing_symbols,
)
from repro.lint.findings import Finding


class ProtocolConsistencyChecker(Checker):
    rule = "protocol-consistency"
    description = (
        "HTTP paths emitted under cluster/ must match a ROUTES row, and "
        "every row must have an in-tree emitter and a _route_ handler"
    )

    # ------------------------------------------------------------------
    def check_project(self, modules: Sequence[SourceModule]) -> Iterator[Finding]:
        route_modules = [
            m for m in modules if m.relpath.endswith("cluster/http_api.py")
        ]
        if not route_modules:
            return
        routes: Dict[Tuple[str, str], List[Tuple[SourceModule, int, str]]] = {}
        for module in route_modules:
            for method, path, handler, line in _http_routes(module.tree):
                key = (method.upper(), _normalize_http_path(path))
                routes.setdefault(key, []).append((module, line, handler))
        emitted: Dict[Tuple[str, str], List[Tuple[SourceModule, int, str]]] = {}
        for module in modules:
            if "cluster/" not in module.relpath:
                continue
            for method, path, line, symbol in _emitted_http_requests(module.tree):
                key = (method.upper(), _normalize_http_path(path))
                emitted.setdefault(key, []).append((module, line, symbol))

        for key in sorted(set(emitted) - set(routes)):
            method, path = key
            for module, line, symbol in emitted[key]:
                yield Finding(
                    rule=self.rule,
                    severity="error",
                    path=module.relpath,
                    line=line,
                    symbol=symbol or path,
                    message=(
                        f"HTTP request {method} {path!r} is emitted here "
                        "but matches no row of the ROUTES table; the call "
                        "can only produce a 404"
                    ),
                )
        for key in sorted(routes):
            method, path = key
            for module, line, handler in routes[key]:
                # The route table and the control client live in the
                # same module by design — any in-tree emission (same
                # module included) matches.
                if key not in emitted:
                    yield Finding(
                        rule=self.rule,
                        severity="warning",
                        path=module.relpath,
                        line=line,
                        symbol=handler or path,
                        message=(
                            f"ROUTES row {method} {path!r} has no in-tree "
                            "client emitting it; dead wire surface drifts "
                            "silently (add an emitter, or suppress if it "
                            "serves external tooling)"
                        ),
                    )
                function_name = f"_route_{handler}"
                if function_name not in _defined_functions(module.tree):
                    yield Finding(
                        rule=self.rule,
                        severity="error",
                        path=module.relpath,
                        line=line,
                        symbol=handler or path,
                        message=(
                            f"ROUTES row {method} {path!r} names handler "
                            f"{handler!r} but the module defines no "
                            f"{function_name}(); dispatch would fail at "
                            "request time"
                        ),
                    )


# ----------------------------------------------------------------------
# Route and request extraction.


def _normalize_http_path(path: str) -> str:
    """Collapse template parameters and f-string holes to ``{}``.

    ``/sweeps/{sweep_id}/cancel`` (route template) and the client's
    ``f"/sweeps/{sweep_id}/cancel"`` (already hole-collapsed by
    :func:`_fstring_path`) both normalise to ``/sweeps/{}/cancel``.
    """
    return re.sub(r"\{[^{}/]*\}", "{}", path)


def _fstring_path(node: ast.JoinedStr) -> Optional[str]:
    """An f-string as a path pattern: interpolations become ``{}``."""
    parts: List[str] = []
    for value in node.values:
        if isinstance(value, ast.FormattedValue):
            parts.append("{}")
            continue
        text = const_str(value)
        if text is None:
            return None
        parts.append(text)
    return "".join(parts)


def _path_pattern(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.JoinedStr):
        return _fstring_path(node)
    return const_str(node)


def _http_routes(tree: ast.AST):
    """``(method, path, handler, line)`` rows of a ``ROUTES`` table.

    Recognises plain and annotated assignments to a name ending in
    ``ROUTES`` whose value is a tuple/list of 3-tuples of string
    constants.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id.endswith("ROUTES")):
            continue
        if not isinstance(value, (ast.Tuple, ast.List)):
            continue
        for row in value.elts:
            if not isinstance(row, (ast.Tuple, ast.List)) or len(row.elts) != 3:
                continue
            method, path, handler = (const_str(e) for e in row.elts)
            if method is not None and path is not None and handler is not None:
                yield method, path, handler, row.lineno


def _emitted_http_requests(tree: ast.AST):
    """``(method, path, line, scope)`` for ``http_request(...)`` calls.

    Matches direct and attribute calls (``self.http_request`` /
    ``client.http_request``) whose first two arguments are a constant
    method string and a constant-or-f-string path.
    """
    symbols = enclosing_symbols(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or len(node.args) < 2:
            continue
        if isinstance(node.func, ast.Name):
            name = node.func.id
        else:
            name = (attribute_chain(node.func) or "").rpartition(".")[2]
        if name != "http_request":
            continue
        method = const_str(node.args[0])
        path = _path_pattern(node.args[1])
        if method is not None and path is not None:
            yield method, path, node.lineno, symbols.get(node, "")


def _defined_functions(tree: ast.AST) -> Set[str]:
    """Every function/method name defined anywhere in the module."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


__all__ = ["ProtocolConsistencyChecker"]
