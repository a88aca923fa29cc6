"""Every name in a fairkit module's ``__all__`` exists and is listed once.

Tools that walk ``__all__`` (tracing wrappers, ``from fairkit.x import *``)
call ``getattr`` on each entry, so a stale entry breaks them.
"""

import importlib
import pkgutil

import pytest

import fairkit

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(fairkit.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_once(name):
    module = importlib.import_module(f"fairkit.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted({n for n in exported if exported.count(n) > 1}) == []


def test_library_modules_declare_all():
    # the CLI module is the one without: its public names are its commands
    assert [n for n in MODULES if not hasattr(importlib.import_module(f"fairkit.{n}"), "__all__")] == ["cli"]
