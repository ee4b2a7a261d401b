"""Every name a plethy module lists in __all__ resolves in that module, so a
deleted entry point cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import plethy

MODULES = ["plethy"] + [f"plethy.{m.name}" for m in pkgutil.iter_modules(plethy.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [attr for attr in exported if not hasattr(mod, attr)] == [], name
