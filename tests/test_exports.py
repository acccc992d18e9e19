"""Every name a linkbridge module lists in ``__all__`` exists in it, so an
entry left behind by a deletion fails here instead of at a star import."""

import importlib
import pkgutil

import pytest

import linkbridge

MODULES = ["linkbridge"] + [
    f"linkbridge.{info.name}" for info in pkgutil.iter_modules(linkbridge.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
