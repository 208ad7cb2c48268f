import importlib

import pytest

import statrate

MODULES = ("channels", "evalmc", "learn", "mismatch", "rateselect", "specfun")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"statrate.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_all_resolves():
    missing = [attr for attr in statrate.__all__ if not hasattr(statrate, attr)]
    assert missing == []
    assert len(set(statrate.__all__)) == len(statrate.__all__)
