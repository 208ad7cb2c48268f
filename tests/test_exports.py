import importlib
import runpy
from pathlib import Path

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


def test_traced_names_resolve():
    # the benchmark's --trace mode wraps these names; a deletion must fail here,
    # not only in the benchmark's own self-test
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spans = runpy.run_path(str(child), run_name="perfbench_child")["SPANS"]
    missing = []
    for targets in spans.values():
        for module_name, attr in targets:
            module = importlib.import_module(f"statrate.{module_name}")
            if "." in attr:
                # a method is wrapped on the class that defines it
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and meth in vars(cls)
            else:
                found = hasattr(module, attr)
            if not found:
                missing.append(f"{module_name}.{attr}")
    assert missing == []
