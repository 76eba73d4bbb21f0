"""Every public top-level function and class in ``src/``, and every public
method and property of such a class, has a non-test caller, and no module
imports a name it never uses.

Code whose only callers are tests is test code: it belongs in
``tests/`` (an oracle) or nowhere.  The census parses ``src/`` and
looks for a reference to each public top-level symbol in ``src/`` (its
own definition and the package ``__init__`` re-exports excluded),
``benchmarks/``, ``examples/`` and ``perfbench/``.  A reference is an
attribute, an import, a string that is an identifier or a dotted path
naming the symbol (as perfbench's ``LAYERS`` table names the functions
it wraps), or a bare name in a file that imports or defines the
symbol: a local variable that only shares its name is not a caller.

The member census does the same for every public method and property
of a public top-level ``src/`` class, counting references the same way
(the member's own lines excluded).  Names collide across classes
(``run``, ``summary``, ``total_time_ns``): a reference to one counts
for every class that defines the name, so the member census can miss
a test-only member but never flags a used one.

An unused import is a reference the census would count, so the
unused-import check keeps every import in ``src/``, ``tests/``, ``benchmarks/`` and
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

#: Kept public methods and properties whose only callers are tests,
#: each with its reason.
ALLOWED_MEMBERS = {}


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


def _public_members():
    """(path, class, member) of every public method and property of a
    public top-level ``src/`` class; dunders and ``_`` names are private."""
    for path, node in _public_definitions():
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield path, node, item


def _unreferenced(definitions):
    """key -> location of each ``(key, path, node)`` whose name has no
    reference outside ``tests/`` but its own lines."""
    references = {
        path: _references(path)
        for folder in CALLER_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    unreferenced = {}
    for key, path, node in definitions:
        own = range(node.lineno, node.end_lineno + 1)
        if not any(
            not (where == path and line in own)
            for where, found in references.items()
            for line in found.get(node.name, ())
        ):
            unreferenced[key] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return unreferenced


def _assert_no_test_only(unreferenced, allowed, kind):
    stray = {name: where for name, where in unreferenced.items() if name not in allowed}
    assert not stray, (
        f"public src/ {kind} with no caller outside tests/ (move an oracle "
        f"into tests/, delete the rest): {stray}"
    )
    stale = sorted(set(allowed) - set(unreferenced))
    assert not stale, f"allowlisted {kind} now have callers or are gone: {stale}"


def test_no_public_symbol_is_test_only():
    unreferenced = _unreferenced(
        (node.name, path, node) for path, node in _public_definitions()
    )
    _assert_no_test_only(unreferenced, ALLOWED, "symbols")


def test_no_public_member_is_test_only():
    unreferenced = _unreferenced(
        (f"{cls.name}.{node.name}", path, node) for path, cls, node in _public_members()
    )
    _assert_no_test_only(unreferenced, ALLOWED_MEMBERS, "members")


def test_a_member_only_tests_call_is_flagged():
    # ``coordinate_of`` has callers only in tests/ (the DRAM oracle);
    # ``execute`` is called by the DRAM evaluation.
    path = ROOT / "src" / "repro" / "dram" / "organization.py"

    def member(name):
        node = ast.parse(f"def {name}(self):\n    pass\n").body[0]
        return (f"DramOrganization.{name}", path, node)

    unreferenced = _unreferenced([member("coordinate_of"), member("execute")])
    assert unreferenced == {
        "DramOrganization.coordinate_of": "src/repro/dram/organization.py:1"
    }


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
