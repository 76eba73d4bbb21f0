"""Every public top-level function and class in ``src/`` has a non-test caller.

Code whose only callers are tests is test code: it belongs in
``tests/`` (an oracle) or nowhere.  The census parses ``src/`` and
looks for a reference to each public top-level symbol in ``src/`` (its
own definition and the package ``__init__`` re-exports excluded),
``benchmarks/``, ``examples/`` and ``perfbench/``.  A reference is a
name, an attribute, an import, or a string that is an identifier or a
dotted path naming the symbol (as perfbench's ``LAYERS`` table names
the functions it wraps).  Methods are left out: names like ``step`` or
``run`` collide across classes.
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
    "sample_drive": "the scalar drive oracle of the batched kernels' tests",
}


def _references(path):
    """name -> line numbers referencing it in one file."""
    tree = ast.parse(path.read_text())
    reexports = path.name == "__init__.py" and path.is_relative_to(ROOT / "src")
    found = defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
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
