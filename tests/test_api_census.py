"""Every public top-level function and class in ``src/`` has a non-test caller,
and no module imports a name it never uses.

Code whose only callers are tests is test code: it belongs in
``tests/`` (an oracle) or nowhere.  The census parses ``src/`` and
looks for a reference to each public top-level symbol in ``src/`` (its
own definition and the package ``__init__`` re-exports excluded),
``benchmarks/``, ``examples/`` and ``perfbench/``.  A reference is an
attribute, an import, a string that is an identifier or a dotted path
naming the symbol (as perfbench's ``LAYERS`` table names the functions
it wraps), or a bare name in a file that imports or defines the
symbol: a local variable that only shares its name is not a caller.
Methods are left out: names like ``step`` or ``run`` collide across
classes.

An unused import is a reference the census would count, so the second
check keeps every import in ``src/``, ``tests/``, ``benchmarks/`` and
``examples/`` used.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")
DOTTED = re.compile(r"^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$")

#: Kept symbols whose only callers are tests, each with its reason.
ALLOWED = {
    "load_model": "the read half of the CLI's --save-model",
    "load_run_records": "the read half of write_run_records_json",
}


def _bound_names(tree):
    """Names a module binds by an import anywhere or a top-level def or class."""
    bound = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    return bound


def _references(path):
    """name -> line numbers referencing it in one file."""
    tree = ast.parse(path.read_text())
    reexports = path.name == "__init__.py" and path.is_relative_to(ROOT / "src")
    bound = _bound_names(tree)
    found = defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id in bound:
                found[node.id].append(node.lineno)
        elif isinstance(node, ast.Attribute):
            found[node.attr].append(node.lineno)
        elif reexports:
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for part in alias.name.split("."):
                    found[part].append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.match(node.value):
                for part in node.value.split("."):
                    found[part].append(node.lineno)
    return found


def _public_definitions():
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield path, node


def _test_only_symbols():
    references = {
        path: _references(path)
        for folder in CALLER_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    unreferenced = {}
    for path, node in _public_definitions():
        own = range(node.lineno, node.end_lineno + 1)
        if not any(
            not (where == path and line in own)
            for where, found in references.items()
            for line in found.get(node.name, ())
        ):
            unreferenced[node.name] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return unreferenced


def test_no_public_symbol_is_test_only():
    unreferenced = _test_only_symbols()
    stray = {name: where for name, where in unreferenced.items() if name not in ALLOWED}
    assert not stray, (
        "public src/ symbols with no caller outside tests/ (move an oracle "
        f"into tests/, delete the rest): {stray}"
    )
    stale = sorted(set(ALLOWED) - set(unreferenced))
    assert not stale, f"allowlisted symbols now have callers or are gone: {stale}"


def test_a_same_named_local_is_not_a_reference(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def helper(weights):\n"
        "    connectivity = weights > 0\n"
        "    return connectivity.mean()\n"
    )
    assert "connectivity" not in _references(module)
    module.write_text(
        "from repro.snn.pruning import connectivity\n"
        "\n"
        "def helper(weights):\n"
        "    return connectivity(weights)\n"
    )
    assert _references(module)["connectivity"] == [1, 4]


def _unused_imports(path):
    """(line, imported name) of every import ``path`` never uses.

    ``__future__`` imports, names listed in ``__all__`` and ``# noqa``
    lines are exempt.
    """
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exported:
                unused.append((node.lineno, alias.name))
    return unused


def test_no_unused_imports():
    """``__init__.py`` files re-export; the lint fixtures are parsed, never run."""
    unused = {}
    for folder in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            relative = path.relative_to(ROOT)
            if path.name == "__init__.py" or relative.parts[:2] == (
                "tests",
                "lint_fixtures",
            ):
                continue
            for line, name in _unused_imports(path):
                unused[f"{relative}:{line}"] = name
    assert not unused, f"imported names never used: {unused}"


def test_unused_import_check_sees_through_exemptions(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "from typing import Any, Dict\n"
        "import numpy as np\n"
        "__all__ = ['Any']\n"
        "x: Dict = {}\n"
        "print(np.pi)\n"
    )
    assert _unused_imports(module) == [(2, "os")]
