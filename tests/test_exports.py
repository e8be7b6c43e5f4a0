"""Every name in a module's ``__all__`` resolves, so a deleted helper cannot
leave a stale export behind."""

import importlib
import pkgutil

import pytest

import hypersheaf

MODULES = sorted(m.name for m in pkgutil.iter_modules(hypersheaf.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"hypersheaf.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
