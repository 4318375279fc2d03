"""Every name a ``bodyplate`` module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import bodyplate

MODULES = ["bodyplate"] + [
    f"bodyplate.{m.name}" for m in pkgutil.iter_modules(bodyplate.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
