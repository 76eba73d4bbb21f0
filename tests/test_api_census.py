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

The parameter census asks the same of options: each defaulted
parameter (positional or keyword-only) and each ``**kwargs`` of a
public top-level ``src/`` function, or of a public method or
``__init__`` of a public top-level class, needs a call outside
``tests/`` that passes it.  A call passes a parameter by keyword, or
positionally at or past its index; a call with ``*`` or ``**``
unpacking passes every parameter, and a ``**kwargs`` needs a keyword
the signature does not name.  Calls match by name, as members do:
``f(...)`` and ``x.f(...)`` count for every definition named ``f``,
and a class is called as ``C(...)``, as ``cls(...)`` in its own
classmethods and as ``super().__init__(...)`` in a subclass.  An
``__init__`` inherited from a private base counts as each public
subclass's own.  So the census can miss a test-only option (a
same-named caller elsewhere hides it; a call through a registry or a
variable is not seen at all, which is why such a call never counts),
but it never flags an option a caller passes.  Fields of parameter
dataclasses are out of scope: they are model constants the oracle
grids vary.

The constant census asks each public module-level name assigned in
``src/`` for a read outside ``tests/``; a read in its own module counts.

``__all__`` lists are never references: a name a module merely exports
has no caller.  An unused import is a reference the census would
count, so the unused-import check keeps every import in ``src/``,
``tests/``, ``benchmarks/`` and ``examples/`` used.
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

#: Kept options that only tests pass, each with its reason.
ALLOWED_PARAMETERS = {
    "main(argv)": "tests drive the CLI in process",
    "SweepPlan(clock)": "tests substitute a fake clock",
    "ClusterExecutor(address)": "a deployment setting: the address the service binds",
    "ClusterExecutor(token)": "a deployment setting: the fleet's credential",
    "WorkerAgent(max_jobs)": (
        "the peer-pull and requeue tests stop a worker after N jobs to fix "
        "which worker computes what"
    ),
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


def _is_all(node):
    """Whether ``node`` assigns ``__all__``."""
    return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in getattr(node, "targets", [getattr(node, "target", None)])
    )


def _references(path):
    """name -> line numbers referencing it in one file."""
    tree = ast.parse(path.read_text())
    reexports = path.name == "__init__.py" and path.is_relative_to(ROOT / "src")
    bound = _bound_names(tree)
    exports = {
        id(item)
        for node in tree.body
        if _is_all(node)
        for item in ast.walk(node)
    }
    found = defaultdict(list)
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
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


def _public_definitions(paths=None):
    for path in paths if paths is not None else sorted((ROOT / "src").rglob("*.py")):
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


def _decorators(node):
    return {
        getattr(item, "id", getattr(item, "attr", None)) for item in node.decorator_list
    }


def _top_level_classes(paths):
    """name -> (path, ClassDef) of every top-level class in ``paths``."""
    classes = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, (path, node))
    return classes


def _base_names(node):
    return [getattr(base, "id", getattr(base, "attr", None)) for base in node.bases]


def _own_init(node):
    return next(
        (item for item in node.body
         if isinstance(item, ast.FunctionDef) and item.name == "__init__"),
        None,
    )


def _init_provider(name, classes, seen=()):
    """The class (by name) whose ``__init__`` a ``name(...)`` call runs;
    ``None`` when it comes from outside the parsed files."""
    if name not in classes or name in seen:
        return None
    if _own_init(classes[name][1]) is not None:
        return name
    for base in _base_names(classes[name][1]):
        provider = _init_provider(base, classes, seen + (name,))
        if provider is not None:
            return provider
    return None


def _init_key(name, classes):
    """The public class whose ``__init__`` census entry a ``name(...)``
    call counts for: the defining class, or the caller's own name when
    the ``__init__`` comes from a private base."""
    provider = _init_provider(name, classes)
    if provider is None or not provider.startswith("_"):
        return provider
    return None if name.startswith("_") else name


def _parameter_definitions(paths, classes):
    """``(label, call name, init key, path, function, offset)`` of every
    function the parameter census covers; ``offset`` drops ``self``."""
    for path, node in _public_definitions(paths):
        if not isinstance(node, ast.ClassDef):
            yield node.name, node.name, None, path, node, 0
            continue
        for item in node.body:
            if isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not item.name.startswith("_"):
                offset = 0 if "staticmethod" in _decorators(item) else 1
                yield f"{node.name}.{item.name}", item.name, None, path, item, offset
        if _init_key(node.name, classes) == node.name:
            provider_path, provider = classes[_init_provider(node.name, classes)]
            yield node.name, None, node.name, provider_path, _own_init(provider), 1


def _options(function, offset):
    """``(name, positional index or None)`` of each option of
    ``function``, and the set of names its signature binds."""
    args = function.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    options = [
        (arg.arg, index - offset)
        for index, arg in enumerate(positional)
        if index >= first_default
    ]
    options += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    if args.kwarg is not None:
        options.append((f"**{args.kwarg.arg}", None))
    return options, {arg.arg for arg in positional + args.kwonlyargs}


class _Calls(ast.NodeVisitor):
    """Every call in one file: ``(line, names, unpacked, positional
    count, keywords)``, where ``names`` also holds the class a
    ``cls(...)`` or ``super().__init__(...)`` call constructs."""

    def __init__(self):
        self.calls = []
        self._class_stack, self._in_classmethod = [], []

    def visit_ClassDef(self, node):
        self._class_stack.append(node)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node):
        self._in_classmethod.append("classmethod" in _decorators(node))
        self.generic_visit(node)
        self._in_classmethod.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", getattr(func, "attr", None))
        names = {name}
        enclosing = self._class_stack[-1] if self._class_stack else None
        if name == "cls" and enclosing and self._in_classmethod[-1:] == [True]:
            names.add(enclosing.name)
        elif (
            name == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"
            and enclosing
        ):
            names.update(_base_names(enclosing))
        self.calls.append((
            node.lineno,
            names,
            any(isinstance(arg, ast.Starred) for arg in node.args)
            or any(keyword.arg is None for keyword in node.keywords),
            sum(not isinstance(arg, ast.Starred) for arg in node.args),
            {keyword.arg for keyword in node.keywords if keyword.arg is not None},
        ))
        self.generic_visit(node)


def _test_only_parameters(definition_paths, caller_paths):
    """label -> location of each option no call in ``caller_paths`` passes."""
    classes = _top_level_classes(definition_paths)
    by_name = defaultdict(list)
    for path in caller_paths:
        visitor = _Calls()
        visitor.visit(ast.parse(path.read_text()))
        for line, names, *passed in visitor.calls:
            for name in names:
                by_name[name].append((path, line, *passed))
    flagged = {}
    for label, name, init_key, path, function, offset in _parameter_definitions(
        definition_paths, classes
    ):
        if init_key is None:
            calls = by_name[name]
        else:
            calls = [
                call
                for caller, found in by_name.items()
                if _init_key(caller, classes) == init_key
                for call in found
            ]
        own = range(function.lineno, function.end_lineno + 1)
        calls = [call for call in calls if not (call[0] == path and call[1] in own)]
        options, named = _options(function, offset)
        for option, index in options:
            if not any(
                unpacked
                or (bool(keywords - named) if option.startswith("**") else (
                    option in keywords or (index is not None and n_positional > index)
                ))
                for _, _, unpacked, n_positional, keywords in calls
            ):
                where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path.name
                flagged[f"{label}({option})"] = f"{where}:{function.lineno}"
    return flagged


def _caller_paths():
    return [path for folder in CALLER_DIRS for path in sorted((ROOT / folder).rglob("*.py"))]


def test_no_parameter_is_test_only():
    flagged = _test_only_parameters(sorted((ROOT / "src").rglob("*.py")), _caller_paths())
    _assert_no_test_only(flagged, ALLOWED_PARAMETERS, "parameters")


def test_a_parameter_only_tests_pass_is_flagged(tmp_path):
    library = tmp_path / "library.py"
    library.write_text(
        "class _Base:\n"
        "    def __init__(self, size=1, spread=0.5):\n"
        "        pass\n"
        "\n"
        "class Model(_Base):\n"
        "    @classmethod\n"
        "    def wide(cls):\n"
        "        return cls(size=8)\n"
        "\n"
        "class Fixed(_Base):\n"
        "    pass\n"
        "\n"
        "class Tuned(Model):\n"
        "    def __init__(self, gain=1.0):\n"
        "        super().__init__(spread=gain)\n"
        "\n"
        "def scale(x, factor=2, offset=0, *, mode='linear', **extra):\n"
        "    return x * factor + offset\n"
        "\n"
        "def run(x, steps=3, verbose=False):\n"
        "    return x\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from library import Tuned, run, scale\n"
        "\n"
        "scale(1, 3)\n"                       # factor, by position
        "scale(1, mode='log', colour='red')\n"  # mode by keyword, **extra
        "run(*[1, 2, 3])\n"                   # unpacking passes everything
        "Tuned()\n"
    )
    flagged = _test_only_parameters([library], [library, caller])
    assert flagged == {
        "scale(offset)": "library.py:17",
        "Fixed(size)": "library.py:2",
        "Fixed(spread)": "library.py:2",
        "Tuned(gain)": "library.py:14",
    }


def _public_constants(path):
    """(name, statement) of each public module-level name ``path`` assigns."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("_"):
                    yield name.id, node


def _test_only_constants(definition_paths, caller_paths):
    """name -> location of each public module-level name assigned in
    ``definition_paths`` that neither its own module nor a file in
    ``caller_paths`` reads."""
    references = {path: _references(path) for path in caller_paths}
    unread = {}
    for path in definition_paths:
        tree = ast.parse(path.read_text())
        read_here = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name, statement in _public_constants(path):
            own = range(statement.lineno, statement.end_lineno + 1)
            if name in read_here or any(
                not (where == path and line in own)
                for where, found in references.items()
                for line in found.get(name, ())
            ):
                continue
            where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path.name
            unread[name] = f"{where}:{statement.lineno}"
    return unread


def test_no_public_constant_is_test_only():
    unread = _test_only_constants(sorted((ROOT / "src").rglob("*.py")), _caller_paths())
    assert not unread, f"public src/ constants read only by tests/: {unread}"


def test_a_constant_only_tests_read_is_flagged(tmp_path):
    library = tmp_path / "library.py"
    library.write_text(
        "LIMIT = 3\n"
        "RATIO = 4.0\n"
        "NAMES = ('a', 'b')\n"
        "SCALE, _HIDDEN = 2, 1\n"
        "TABLE: dict = {}\n"
        "WIDTH = 8\n"
        "__all__ = ['NAMES']\n"
        "\n"
        "def clip(x):\n"
        "    return min(x, LIMIT)\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text(
        "import library\n"
        "from library import SCALE\n"
        "\n"
        "print(library.RATIO * SCALE)\n"  # an attribute read, an imported name
        "SITES = ['library.WIDTH']\n"     # a dotted path naming it
    )
    # LIMIT is read in its own module; NAMES only in ``__all__``.
    assert _test_only_constants([library], [library, caller]) == {
        "NAMES": "library.py:3",
        "TABLE": "library.py:5",
    }


def test_all_is_not_a_reference(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def helper():\n"
        "    pass\n"
        "\n"
        "__all__ = ['helper']\n"
    )
    assert "helper" not in _references(module)


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
