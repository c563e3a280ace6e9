import importlib
import pkgutil

import pytest

import emdscalp

MODULES = [emdscalp, *(importlib.import_module(f"emdscalp.{info.name}")
                       for info in pkgutil.iter_modules(emdscalp.__path__))]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)] == []
