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


def test_root_dir_lists_all():
    """``repro`` imports its re-exports on first access (PEP 562); in a
    fresh interpreter, before any is read, ``dir(repro)`` lists every
    name in ``__all__`` all the same."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(repro.__file__).resolve().parent.parent)
    script = (
        "import repro\n"
        "print(sorted(set(repro.__all__) - set(dir(repro))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_root_binds_each_name_once():
    value = repro.QueueAnalyticEngine
    assert vars(repro)["QueueAnalyticEngine"] is value
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
