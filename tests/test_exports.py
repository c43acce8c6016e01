"""Every exported name resolves: a removal must not leave a stale entry in an __all__."""

import importlib
import pkgutil

import pytest

import primeladder

MODULES = sorted(info.name for info in pkgutil.iter_modules(primeladder.__path__))


def test_package_exports_resolve():
    assert [name for name in primeladder.__all__ if not hasattr(primeladder, name)] == []
    assert len(set(primeladder.__all__)) == len(primeladder.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"primeladder.{name}")
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
