"""Every name a ``repro`` module exports in ``__all__`` resolves.

``from repro.<module> import *`` fails on a stale ``__all__`` entry only
when someone star-imports, so a deleted function can leave its export
behind unnoticed; this walks every package and module of ``repro``
(``repro.__main__`` excepted: importing it runs the CLI).
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name != "repro.__main__"
)


def test_every_subpackage_is_listed():
    packages = [
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    assert len(packages) > 10
    assert set(packages) <= set(MODULES)
    assert len(MODULES) > 80  # their modules too


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
