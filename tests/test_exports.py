"""The public surface: every name that a module of the package exports
resolves."""

import importlib
import pkgutil

import pytest

import fhnlse

MODULES = ["fhnlse", *(f"fhnlse.{m.name}" for m in pkgutil.iter_modules(fhnlse.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_name_in_all(name):
    """A stale ``__all__`` entry makes ``from <module> import *`` raise; a
    module without ``__all__`` exports its public names."""
    namespace = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert set(exported) <= namespace.keys()
