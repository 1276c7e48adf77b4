"""The public surface of every ``repro`` package.

Two rules, checked package by package:

* an attribute named after one of the package's submodules is that
  submodule, so ``import repro.x.y as m`` always gives the module (a
  ``from repro.x.y import y`` in the package would rebind it);
* every name in ``__all__`` resolves.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def submodule_names(package) -> list:
    # ``__main__`` runs the CLI when imported.
    return sorted(
        info.name
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    )


@pytest.mark.parametrize("name", PACKAGES)
def test_submodule_attributes_are_the_submodules(name):
    package = importlib.import_module(name)
    shadowed = []
    for sub in submodule_names(package):
        module = importlib.import_module(f"{name}.{sub}")
        if getattr(package, sub) is not module:
            shadowed.append(sub)
    assert shadowed == []


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    missing = [
        n for n in getattr(package, "__all__", ()) if not hasattr(package, n)
    ]
    assert missing == []
