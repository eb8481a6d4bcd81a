"""The public names: a name left in an `__all__` after its definition is
deleted fails here rather than in a user's `from wsn_multipath import *`."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import wsn_multipath

MODULES = sorted(f"wsn_multipath.{m.name}"
                 for m in pkgutil.iter_modules(wsn_multipath.__path__))


@pytest.mark.parametrize("module_name", ["wsn_multipath", *MODULES])
def test_every_listed_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_package_reexports_only_submodule_exports():
    exported = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            exported.setdefault(name, getattr(module, name))
    assert len(wsn_multipath.__all__) == len(set(wsn_multipath.__all__))
    stray = [name for name in wsn_multipath.__all__
             if name not in exported or getattr(wsn_multipath, name) is not exported[name]]
    assert stray == []
