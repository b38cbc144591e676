"""Every name in a module's ``__all__`` and in the package's resolves, and
each package name is its module's own object: ``import *`` and any tool that
looks up every exported name fail on a stale export.  The package exports
exactly its modules' ``__all__`` lists, each name once."""

import pytest

import acmbundles
from acmbundles import chern, constraints, extensions

MODULES = (chern, constraints, extensions)
EXPORTS = ["__version__", *chern.__all__, *constraints.__all__, *extensions.__all__]


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


def test_package_exports_each_module_list_once():
    assert acmbundles.__all__ == EXPORTS
    assert len(set(EXPORTS)) == len(EXPORTS)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from acmbundles import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(EXPORTS)
