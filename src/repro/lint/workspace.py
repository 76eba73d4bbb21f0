"""workspace-discipline: fused loops must not allocate per step.

The fused training loop and the frozen inference loop
(``DiehlCookNetwork._run_batch_stdp_fused`` / ``_run_batch_frozen``)
run the per-timestep simulation allocation-free: every intermediate
lives in a buffer the method allocates once, before its time loop, and
reuses across steps.  A numpy allocation sneaking back into the
``for t in range(n_steps)`` body silently reintroduces per-step
garbage pressure — the regression this rule catches at review time
instead of in the benchmark history.

The rule inspects functions whose name contains ``fused`` or
``frozen`` and flags, inside any ``for ... in range(...)`` body:

- calls to numpy allocators (``np.zeros``, ``np.empty_like``,
  ``np.array``, ``np.concatenate``, ``np.flatnonzero``, …);
- calls to allocating ufuncs/reductions (``np.add``, ``np.multiply``,
  ``np.sum``, ``np.clip``, …) **without** an ``out=`` argument;
- ``.copy()`` / ``.astype(...)`` / ``.sum()`` / ``.any()`` /
  ``.all()`` method calls (each returns a fresh array) without
  ``out=``.

Findings are warnings; a deliberate per-step allocation (e.g. a ragged
tail path) can be annotated ``# lint: disable=workspace-discipline``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.lint.base import Checker, SourceModule, attribute_chain, enclosing_symbols
from repro.lint.findings import Finding

#: Function-name markers of the allocation-free loop discipline.
_FUSED_MARKERS = ("fused", "frozen")

#: numpy calls that always allocate a fresh array.
_NUMPY_ALLOCATORS = {
    "zeros",
    "empty",
    "ones",
    "full",
    "zeros_like",
    "empty_like",
    "ones_like",
    "full_like",
    "array",
    "asarray",
    "ascontiguousarray",
    "arange",
    "linspace",
    "concatenate",
    "stack",
    "vstack",
    "hstack",
    "copy",
    "flatnonzero",
    "nonzero",
    "where",
    "repeat",
    "tile",
    "broadcast_to",
}

#: numpy ufuncs/reductions that allocate *unless* given ``out=``.
_NUMPY_OUT_CAPABLE = {
    "add",
    "subtract",
    "multiply",
    "divide",
    "true_divide",
    "power",
    "exp",
    "maximum",
    "minimum",
    "clip",
    "greater",
    "greater_equal",
    "less",
    "less_equal",
    "equal",
    "not_equal",
    "logical_and",
    "logical_or",
    "sum",
    "prod",
    "matmul",
    "dot",
}

#: Array methods returning fresh arrays unless redirected with ``out=``.
_ALLOCATING_METHODS = {"copy", "astype", "sum", "any", "all", "dot"}


def _has_out_keyword(call: ast.Call) -> bool:
    return any(kw.arg == "out" for kw in call.keywords)


def _numpy_aliases(tree: ast.Module) -> Set[str]:
    """Local names bound to the numpy module (``np``, ``numpy``, …)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy":
                    aliases.add(item.asname or "numpy")
    return aliases


def _is_range_loop(node: ast.For) -> bool:
    call = node.iter
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "range"
    )


class WorkspaceDisciplineChecker(Checker):
    rule = "workspace-discipline"
    description = (
        "fused/frozen simulation loops must reuse workspace buffers — "
        "no numpy allocations inside their per-step range loops"
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        aliases = _numpy_aliases(module.tree)
        symbols = enclosing_symbols(module.tree)
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = func.name.lower()
            if not any(marker in name for marker in _FUSED_MARKERS):
                continue
            for loop in ast.walk(func):
                if isinstance(loop, ast.For) and _is_range_loop(loop):
                    yield from self._check_loop_body(
                        loop, module, aliases, symbols
                    )

    # ------------------------------------------------------------------
    def _check_loop_body(
        self,
        loop: ast.For,
        module: SourceModule,
        aliases: Set[str],
        symbols: Dict[ast.AST, str],
    ) -> Iterator[Finding]:
        for stmt in loop.body + loop.orelse:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                reason = self._classify(node, aliases)
                if reason is not None:
                    yield Finding(
                        rule=self.rule,
                        severity="warning",
                        path=module.relpath,
                        line=node.lineno,
                        symbol=symbols.get(node, ""),
                        message=reason,
                    )

    def _classify(self, call: ast.Call, aliases: Set[str]):
        chain = attribute_chain(call.func)
        if chain is not None:
            head, _, member = chain.partition(".")
            if head in aliases and member:
                member = member.split(".")[0]
                if member in _NUMPY_ALLOCATORS:
                    return (
                        f"np.{member}() allocates a fresh array every loop "
                        "step; hoist it into a reused workspace buffer"
                    )
                if member in _NUMPY_OUT_CAPABLE and not _has_out_keyword(call):
                    return (
                        f"np.{member}() without out= allocates its result "
                        "every loop step; write into a workspace buffer "
                        "with out="
                    )
                return None
        # Method calls: obj.copy() / obj.astype(...) / reductions.
        if isinstance(call.func, ast.Attribute):
            method = call.func.attr
            if method in _ALLOCATING_METHODS and not _has_out_keyword(call):
                return (
                    f".{method}() returns a fresh array every loop step; "
                    "hoist it out of the loop or reuse a workspace buffer"
                )
        return None


__all__ = ["WorkspaceDisciplineChecker"]
