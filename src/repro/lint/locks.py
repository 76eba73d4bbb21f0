"""lock-discipline: attributes guarded by ``self._lock`` stay guarded.

The coordinator dispatches worker requests on a thread pool
(``ExperimentService``), which makes several classes' internal locks
load-bearing: every request thread mutates plan/store state through
them.  The convention this rule enforces:

- a class that creates a ``threading.Lock``/``RLock`` attribute owns a
  *guarded set* — every ``self.<attr>`` touched (read or written)
  inside one of its ``with self.<lock>:`` blocks;
- any method that **mutates** a guarded attribute outside such a block
  is flagged (reads are not: lock-free reads are sometimes deliberate
  and carry their own comments);
- construction-time methods are exempt — ``__init__`` and friends run
  before the object is shared, as do helpers reachable *only* from
  them;
- methods whose name ends in ``_locked`` declare "caller holds the
  lock" and are treated as lock-held throughout — the flip side is
  that a shared-state helper *without* the suffix claims to be safe to
  call from anywhere, which is exactly the latent hazard this rule
  surfaces.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.base import Checker, SourceModule, attribute_chain
from repro.lint.findings import Finding

#: Methods that run before (or while) the instance is private to one
#: thread: construction, copy/pickle protocol, finalisation.
_CONSTRUCTION_METHODS = {
    "__init__",
    "__new__",
    "__del__",
    "__getstate__",
    "__setstate__",
    "__init_subclass__",
}

_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}


class LockDisciplineChecker(Checker):
    rule = "lock-discipline"
    description = (
        "attributes touched under `with self._lock` must only be mutated "
        "under it (or in construction / `_locked`-suffixed methods)"
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    # ------------------------------------------------------------------
    def _check_class(self, module: SourceModule, cls: ast.ClassDef) -> Iterator[Finding]:
        methods = [
            child
            for child in cls.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs = _lock_attributes(methods)
        if not lock_attrs:
            return
        exempt = _exempt_methods(methods)
        # Pass 1: the guarded set — every self attribute touched under a
        # lock anywhere in the class (including _locked helpers, whose
        # whole body is lock-held by convention).
        guarded: Set[str] = set()
        accesses: Dict[str, List[Tuple[str, int, bool, bool]]] = {}
        for method in methods:
            held = method.name.endswith("_locked")
            touches = _self_attribute_touches(method, lock_attrs, held)
            accesses[method.name] = touches
            for attr, _line, under_lock, _mutation in touches:
                if under_lock:
                    guarded.add(attr)
        guarded -= lock_attrs
        if not guarded:
            return
        # Pass 2: mutations of guarded attributes outside any lock.
        for method in methods:
            if method.name in exempt:
                continue
            for attr, line, under_lock, mutation in accesses[method.name]:
                if mutation and not under_lock and attr in guarded:
                    yield Finding(
                        rule=self.rule,
                        severity="error",
                        path=module.relpath,
                        line=line,
                        symbol=f"{cls.name}.{method.name}",
                        message=(
                            f"{cls.name}.{method.name} mutates self.{attr} "
                            f"outside `with self.{sorted(lock_attrs)[0]}` but "
                            "other methods access it under the lock; hold the "
                            "lock here, or rename the method with a `_locked` "
                            "suffix if every caller already holds it"
                        ),
                    )


# ----------------------------------------------------------------------


def _lock_attributes(methods) -> Set[str]:
    """Names of self attributes assigned a Lock/RLock/Condition."""
    locks: Set[str] = set()
    for method in methods:
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            chain = attribute_chain(node.value.func) or ""
            if chain.split(".")[-1] not in _LOCK_FACTORIES:
                continue
            for target in node.targets:
                attr = _self_attr(target, first_arg(method))
                if attr is not None:
                    locks.add(attr)
    return locks


def _exempt_methods(methods) -> Set[str]:
    """Construction methods plus helpers reachable only from them."""
    calls: Dict[str, Set[str]] = {m.name: set() for m in methods}
    self_names = {m.name: first_arg(m) for m in methods}
    for method in methods:
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                chain = attribute_chain(node.func)
                if chain is None:
                    continue
                parts = chain.split(".")
                if len(parts) == 2 and parts[0] == self_names[method.name]:
                    calls[method.name].add(parts[1])
    exempt = {name for name in calls if name in _CONSTRUCTION_METHODS}
    # A helper is exempt iff it is called somewhere in the class and
    # every in-class call site sits in an exempt method.
    changed = True
    while changed:
        changed = False
        for method in methods:
            name = method.name
            if name in exempt:
                continue
            callers = {m for m, callees in calls.items() if name in callees}
            if callers and callers <= exempt:
                exempt.add(name)
                changed = True
    return exempt


def first_arg(method) -> Optional[str]:
    args = method.args.posonlyargs + method.args.args
    return args[0].arg if args else None


def _self_attr(node: ast.AST, self_name: Optional[str]) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``<self>.attr``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


def _root_self_attr(node: ast.AST, self_name: Optional[str]) -> Optional[str]:
    """The self attribute at the root of an attribute/subscript chain.

    ``self.jobs[id]`` → ``jobs``; ``self.stats.hits`` → ``stats``;
    plain locals → ``None``.
    """
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        attr = _self_attr(node, self_name)
        if attr is not None:
            return attr
        node = node.value
    return None


def _self_attribute_touches(
    method, lock_attrs: Set[str], lock_held: bool
) -> List[Tuple[str, int, bool, bool]]:
    """Every ``(attr, line, under_lock, is_mutation)`` touch in ``method``."""
    self_name = first_arg(method)
    touches: List[Tuple[str, int, bool, bool]] = []
    if self_name is None:
        return touches

    def is_lock_context(item: ast.withitem) -> bool:
        attr = _self_attr(item.context_expr, self_name)
        return attr is not None and attr in lock_attrs

    def mutated_roots(node: ast.AST) -> List[Tuple[str, int]]:
        roots: List[Tuple[str, int]] = []
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            for element in _flatten_targets(target):
                attr = _root_self_attr(element, self_name)
                if attr is not None:
                    roots.append((attr, element.lineno))
        return roots

    def visit(node: ast.AST, under: bool) -> None:
        if isinstance(node, ast.With):
            inner = under or any(is_lock_context(item) for item in node.items)
            for item in node.items:
                visit(item, under)
            for child in node.body:
                visit(child, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not method:
            return  # nested defs get their own analysis if ever needed
        for attr, line in mutated_roots(node):
            touches.append((attr, line, under, True))
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node, self_name)
            if attr is not None:
                touches.append((attr, node.lineno, under, False))
        for child in ast.iter_child_nodes(node):
            visit(child, under)

    for statement in method.body:
        visit(statement, lock_held)
    return touches


def _flatten_targets(node: ast.AST):
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _flatten_targets(element)
    elif isinstance(node, ast.Starred):
        yield from _flatten_targets(node.value)
    else:
        yield node
