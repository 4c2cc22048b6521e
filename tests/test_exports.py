"""Every exported name resolves: each module's `__all__` and the package's
re-exports, so a deleted function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import mlca_trends

MODULES = sorted(info.name for info in pkgutil.iter_modules(mlca_trends.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"mlca_trends.{name}")
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_package_reexports_are_their_modules_exports():
    reexports = {
        attr: value for attr, value in vars(mlca_trends).items()
        if not attr.startswith("_") and getattr(value, "__module__", "").startswith("mlca_trends.")
    }
    assert {"system_impact", "amortized_cards", "EstimateInterval"} <= reexports.keys()
    for attr, value in reexports.items():
        module = importlib.import_module(value.__module__)
        assert getattr(module, attr) is value, attr
        assert attr in getattr(module, "__all__", (attr,)), attr
