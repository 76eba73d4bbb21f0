"""Checker framework: parsed source modules and the checker base class.

Everything is pure ``ast`` — the linted code is **never imported**, so
checkers run against broken branches, fixture files with deliberate
violations, and trees whose dependencies are absent.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union

from repro.lint.findings import Finding, parse_suppressions


@dataclass
class SourceModule:
    """One parsed python file under the linted root."""

    path: Path  # absolute
    relpath: str  # posix form, relative to the linted root
    text: str
    tree: ast.Module
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Dotted module name relative to the root (best effort)."""
        parts = Path(self.relpath).with_suffix("").parts
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)


class ParseFailure(ValueError):
    """A file under the root is not valid python."""

    def __init__(self, relpath: str, error: SyntaxError):
        super().__init__(f"{relpath}: {error}")
        self.relpath = relpath
        self.lineno = int(error.lineno or 1)


def load_source_module(path: Union[str, Path], root: Union[str, Path]) -> SourceModule:
    path, root = Path(path), Path(root)
    text = path.read_text(encoding="utf-8")
    relpath = path.relative_to(root).as_posix() if path.is_relative_to(root) else path.name
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        raise ParseFailure(relpath, error) from error
    return SourceModule(
        path=path,
        relpath=relpath,
        text=text,
        tree=tree,
        suppressions=parse_suppressions(text),
    )


def iter_python_files(root: Union[str, Path]) -> Iterator[Path]:
    """Every ``*.py`` under ``root`` in stable (sorted) order."""
    root = Path(root)
    if root.is_file():
        yield root
        return
    yield from sorted(root.rglob("*.py"))


class Checker(abc.ABC):
    """One project invariant, expressed as an AST pass.

    Subclasses set :attr:`rule` (the stable rule id used in reports and
    ``# lint: disable=`` comments) and implement either
    :meth:`check_module` (per-file rules) or :meth:`check_project`
    (cross-file rules — the protocol checker needs both sides of the
    wire at once).
    """

    #: Stable rule identifier (kebab-case).
    rule: str = ""
    #: One-line description of the invariant the rule protects.
    description: str = ""

    def check_project(self, modules: Sequence[SourceModule]) -> Iterator[Finding]:
        for module in modules:
            yield from self.check_module(module)

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        return iter(())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.rule!r})"


# ----------------------------------------------------------------------
# Shared AST helpers.


def attribute_chain(node: ast.AST) -> Optional[str]:
    """Dotted form of a ``Name``/``Attribute`` chain, else ``None``.

    ``np.random.default_rng`` → ``"np.random.default_rng"``; anything
    rooted in a call or subscript is not a plain chain.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def enclosing_symbols(tree: ast.Module) -> Dict[ast.AST, str]:
    """Map every node to its ``Class.method`` style qualified scope."""
    symbols: Dict[ast.AST, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_scope = scope
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                child_scope = f"{scope}.{child.name}" if scope else child.name
            symbols[child] = child_scope
            visit(child, child_scope)

    symbols[tree] = ""
    visit(tree, "")
    return symbols


def const_str(node: ast.AST) -> Optional[str]:
    """The string value of a constant node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


__all__ = [
    "Checker",
    "ParseFailure",
    "SourceModule",
    "attribute_chain",
    "const_str",
    "enclosing_symbols",
    "iter_python_files",
    "load_source_module",
]
