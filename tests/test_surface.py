"""Every name in a module's ``__all__`` and in the package's resolves, and
each package name is its module's own object: ``import *`` and any tool that
looks up every exported name fail on a stale export."""

import pytest

import acmbundles
from acmbundles import chern, constraints, extensions

MODULES = (chern, constraints, extensions)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_exports_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_are_the_modules_objects():
    owners = {name: module for module in MODULES for name in module.__all__}
    for name in acmbundles.__all__:
        value = getattr(acmbundles, name)
        if name != "__version__":
            assert name in owners, name
            assert value is getattr(owners[name], name), name
