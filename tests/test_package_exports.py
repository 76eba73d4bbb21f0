"""Every name a ``repro`` package exports in ``__all__`` resolves.

``from repro.<pkg> import *`` fails on a stale ``__all__`` entry only
when someone star-imports, so a deleted function can leave its export
behind unnoticed; this walks the top-level package and each subpackage.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def test_every_subpackage_is_listed():
    assert len(PACKAGES) > 10


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
