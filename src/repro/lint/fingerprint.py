"""fingerprint-completeness: stages declare every config field they read.

The artifact cache (`repro.pipeline.store`) is sound only if a stage's
``fields`` tuple names **every** config attribute its computation
depends on — a read outside the tuple means two configs differing on
that attribute alias onto one cached artifact, silently serving the
wrong result (the same bug class as PR 5's prefix collision, but on the
config side).

For each class that declares a ``fields`` tuple and a ``run`` method,
the checker traces attribute reads of the config object:

- directly (``context.config.attr`` and local aliases like
  ``cfg = context.config``);
- through context properties (``context.dataset`` → whatever the
  context class's ``dataset`` property reads from ``self.config``,
  transitively through sibling properties);
- through same-module helper functions that receive the config as an
  argument (``helper(cfg)`` → the helper's reads of that parameter,
  recursively).

Reads the tracer can see but the ``fields`` tuple omits are **errors**.
Declared fields never read *and not inherited from an upstream stage's
declaration* are **info** (they may feed cross-package helpers the
tracer cannot see).  Passing the whole config to a function defined
outside the module marks the stage *escaped*: unused-field analysis is
skipped for it, since any field might be read on the far side.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.base import Checker, SourceModule, attribute_chain
from repro.lint.findings import Finding

#: Attribute names that are access machinery, never config fields.
_NON_FIELD_ATTRS = {"with_overrides", "to_wire", "from_wire"}


class FingerprintCompletenessChecker(Checker):
    rule = "fingerprint-completeness"
    description = (
        "every config attribute a stage (or its helpers) reads must "
        "appear in the stage's `fields` fingerprint tuple"
    )

    def check_project(self, modules: Sequence[SourceModule]) -> Iterator[Finding]:
        fields = self._discover_config_fields(modules)
        for module in modules:
            yield from self._check_module(module, fields)

    @staticmethod
    def _discover_config_fields(modules) -> Optional[Set[str]]:
        """The ``SparkXDConfig`` dataclass fields parsed from the scanned
        tree's ``core/config.py``.  Reads of other attribute names
        (helper methods, derived properties) are ignored."""
        for module in modules:
            if not module.relpath.endswith("core/config.py"):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == "SparkXDConfig":
                    return {
                        child.target.id
                        for child in node.body
                        if isinstance(child, ast.AnnAssign)
                        and isinstance(child.target, ast.Name)
                    }
        return None

    # ------------------------------------------------------------------
    def _check_module(
        self, module: SourceModule, config_fields: Optional[Set[str]]
    ) -> Iterator[Finding]:
        stages = [
            node
            for node in module.tree.body
            if isinstance(node, ast.ClassDef) and _declared_fields_node(node) is not None
        ]
        if not stages:
            return
        constants = _module_tuple_constants(module.tree)
        helpers = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.FunctionDef)
        }
        contexts = _context_property_reads(module.tree, helpers)
        provides: Dict[str, Tuple[str, ...]] = {}
        declared_by_class: Dict[str, Tuple[str, ...]] = {}
        for cls in stages:
            declared = _resolve_fields(_declared_fields_node(cls), constants)
            declared_by_class[cls.name] = declared
            provided = _class_const(cls, "provides")
            if isinstance(provided, str):
                provides[provided] = declared

        for cls in stages:
            declared = declared_by_class[cls.name]
            run = next(
                (
                    child
                    for child in cls.body
                    if isinstance(child, ast.FunctionDef) and child.name == "run"
                ),
                None,
            )
            if run is None or declared is None:
                continue
            reads, escaped = _trace_run(run, contexts, helpers)
            if config_fields is not None:
                reads = {
                    (attr, line) for attr, line in reads if attr in config_fields
                }
            declared_set = set(declared)
            for attr, line in sorted(reads, key=lambda item: (item[1], item[0])):
                if attr in declared_set or attr in _NON_FIELD_ATTRS:
                    continue
                yield Finding(
                    rule=self.rule,
                    severity="error",
                    path=module.relpath,
                    line=line,
                    symbol=f"{cls.name}.run",
                    message=(
                        f"{cls.name} reads config.{attr} but its `fields` "
                        "tuple does not declare it: two configs differing "
                        f"only on {attr!r} would share one cached artifact; "
                        "add it to the stage's field group (or suppress if "
                        "the read is deliberately fingerprint-neutral)"
                    ),
                )
            if escaped:
                continue  # config handed to cross-module code: any field may be read
            inherited: Set[str] = set()
            requires = _class_const(cls, "requires") or ()
            for requirement in requires:
                inherited.update(provides.get(requirement, ()))
            read_names = {attr for attr, _line in reads}
            fields_node = _declared_fields_node(cls)
            for attr in sorted(set(declared) - read_names - inherited):
                yield Finding(
                    rule=self.rule,
                    severity="info",
                    path=module.relpath,
                    line=fields_node.lineno,
                    symbol=f"{cls.name}.fields",
                    message=(
                        f"{cls.name} declares {attr!r} in `fields` but no "
                        "traceable read uses it; a spurious field splits the "
                        "cache without changing results (it may feed a "
                        "cross-package helper the tracer cannot see)"
                    ),
                )


# ----------------------------------------------------------------------
# Declared-field resolution.


def _declared_fields_node(cls: ast.ClassDef):
    for child in cls.body:
        if isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Name) and target.id == "fields":
                    return child
        elif isinstance(child, ast.AnnAssign):
            if (
                isinstance(child.target, ast.Name)
                and child.target.id == "fields"
                and child.value is not None
            ):
                return child
    return None


def _class_const(cls: ast.ClassDef, name: str):
    for child in cls.body:
        value = None
        if isinstance(child, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == name for t in child.targets
            ):
                value = child.value
        elif isinstance(child, ast.AnnAssign):
            if isinstance(child.target, ast.Name) and child.target.id == name:
                value = child.value
        if value is None:
            continue
        try:
            return ast.literal_eval(value)
        except ValueError:
            return None
    return None


def _module_tuple_constants(tree: ast.Module) -> Dict[str, Tuple[str, ...]]:
    """Module-level ``NAME = ("a", ...)`` / ``NAME = OTHER + (...)`` tuples."""
    constants: Dict[str, Tuple[str, ...]] = {}
    for node in tree.body:
        targets: List[ast.Name] = []
        value = None
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets, value = [node.target], node.value
        if not targets or value is None:
            continue
        resolved = _eval_tuple(value, constants)
        if resolved is not None:
            for target in targets:
                constants[target.id] = resolved
    return constants


def _eval_tuple(node: ast.AST, constants) -> Optional[Tuple[str, ...]]:
    if isinstance(node, (ast.Tuple, ast.List)):
        items: List[str] = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                items.append(element.value)
            else:
                return None
        return tuple(items)
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _eval_tuple(node.left, constants)
        right = _eval_tuple(node.right, constants)
        if left is not None and right is not None:
            return left + right
    return None


def _resolve_fields(node, constants) -> Optional[Tuple[str, ...]]:
    if node is None:
        return None
    return _eval_tuple(node.value, constants)


# ----------------------------------------------------------------------
# Read tracing.

Reads = Set[Tuple[str, int]]  # (config attribute, line of the read)


def _context_property_reads(
    tree: ast.Module, helpers: Dict[str, ast.FunctionDef]
) -> Dict[str, Dict[str, Set[str]]]:
    """Per context class: property name → config attributes it reads.

    A *context class* stores its config as ``self.config`` in
    ``__init__``.  Properties may read each other (``self.other_prop``);
    the closure is taken so a stage touching one property inherits the
    whole dependency set.
    """
    result: Dict[str, Dict[str, Set[str]]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not _stores_config(node):
            continue
        direct: Dict[str, Set[str]] = {}
        references: Dict[str, Set[str]] = {}
        for method in node.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            self_name = _first_arg(method)
            if self_name is None:
                continue
            reads, refs = _method_config_reads(method, self_name, helpers)
            direct[method.name] = {attr for attr, _line in reads}
            references[method.name] = refs
        # Transitive closure over sibling-property references.
        changed = True
        while changed:
            changed = False
            for name, refs in references.items():
                for ref in refs:
                    extra = direct.get(ref, set()) - direct[name]
                    if extra:
                        direct[name] |= extra
                        changed = True
        result[node.name] = direct
    return result


def _stores_config(cls: ast.ClassDef) -> bool:
    for method in cls.body:
        if isinstance(method, ast.FunctionDef) and method.name == "__init__":
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and target.attr == "config"
                            and isinstance(target.value, ast.Name)
                        ):
                            return True
    return False


def _first_arg(fn: ast.FunctionDef) -> Optional[str]:
    args = fn.args.posonlyargs + fn.args.args
    return args[0].arg if args else None


def _method_config_reads(
    method: ast.FunctionDef, self_name: str, helpers, _depth: int = 0
) -> Tuple[Reads, Set[str]]:
    """Config reads inside a context method + sibling attrs it touches."""
    config_exprs = {f"{self_name}.config"}
    # Local aliases: cfg = self.config
    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and attribute_chain(node.value) in config_exprs
            ):
                config_exprs.add(target.id)
    reads: Reads = set()
    refs: Set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Attribute):
            base = attribute_chain(node.value)
            if base in config_exprs:
                reads.add((node.attr, node.lineno))
            elif base == self_name and node.attr != "config":
                refs.add(node.attr)
        elif isinstance(node, ast.Call):
            reads |= _helper_call_reads(node, config_exprs, helpers, _depth)
    return reads, refs


def _helper_call_reads(
    call: ast.Call, config_exprs: Set[str], helpers, depth: int, seen=None
) -> Reads:
    """Reads caused by passing a config expression into a module helper."""
    if depth > 4:
        return set()
    seen = seen if seen is not None else set()
    if not isinstance(call.func, ast.Name) or call.func.id not in helpers:
        return set()
    helper = helpers[call.func.id]
    if helper.name in seen:
        return set()
    reads: Reads = set()
    params = [a.arg for a in helper.args.posonlyargs + helper.args.args]
    bound: List[str] = []
    for index, arg in enumerate(call.args):
        if attribute_chain(arg) in config_exprs and index < len(params):
            bound.append(params[index])
    for keyword in call.keywords:
        if keyword.arg is not None and attribute_chain(keyword.value) in config_exprs:
            bound.append(keyword.arg)
    for param in bound:
        reads |= _function_param_reads(
            helper, param, helpers, depth + 1, seen | {helper.name}
        )
    # Reads are attributed to the call site: the fingerprint belongs to
    # the stage whose run triggered them.
    return {(attr, call.lineno) for attr, _line in reads}


def _function_param_reads(
    fn: ast.FunctionDef, param: str, helpers, depth: int, seen
) -> Reads:
    config_exprs = {param}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and attribute_chain(node.value) in config_exprs
            ):
                config_exprs.add(target.id)
    reads: Reads = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            if attribute_chain(node.value) in config_exprs:
                reads.add((node.attr, node.lineno))
        elif isinstance(node, ast.Call):
            reads |= _helper_call_reads(node, config_exprs, helpers, depth, seen)
    return reads


def _trace_run(
    run: ast.FunctionDef,
    contexts: Dict[str, Dict[str, Set[str]]],
    helpers: Dict[str, ast.FunctionDef],
) -> Tuple[Reads, bool]:
    """All config reads reachable from one stage ``run`` + escape flag."""
    args = [a.arg for a in run.args.posonlyargs + run.args.args]
    if len(args) < 2:
        return set(), False
    context_name = args[1]
    config_exprs = {f"{context_name}.config"}
    for node in ast.walk(run):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and attribute_chain(node.value) in config_exprs
            ):
                config_exprs.add(target.id)
    # Merge the property maps of every context class in the module: the
    # run signature is untyped, so the class cannot be pinned down —
    # unioning is conservative in the right direction (more reads seen).
    properties: Dict[str, Set[str]] = {}
    for mapping in contexts.values():
        for prop, attrs in mapping.items():
            properties.setdefault(prop, set()).update(attrs)

    reads: Reads = set()
    escaped = False
    for node in ast.walk(run):
        if isinstance(node, ast.Attribute):
            base = attribute_chain(node.value)
            if base in config_exprs and node.attr != "config":
                reads.add((node.attr, node.lineno))
            elif base == context_name and node.attr != "config":
                for attr in properties.get(node.attr, ()):
                    reads.add((attr, node.lineno))
        elif isinstance(node, ast.Call):
            reads |= _helper_call_reads(node, config_exprs, helpers, 0)
            if not isinstance(node.func, ast.Name) or node.func.id not in helpers:
                # Config object passed whole into code the tracer cannot
                # follow (imported function, method call)?
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if attribute_chain(arg) in config_exprs:
                        escaped = True
    return reads, escaped


__all__ = ["FingerprintCompletenessChecker"]
