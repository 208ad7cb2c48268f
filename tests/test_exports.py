import ast
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


def test_src_imports_no_heavy_scipy():
    # their import costs start-up time; scipy.special covers the kernels, and
    # only specfun imports it, inside a function, so that it loads on first use
    banned = ("scipy.optimize", "scipy.stats", "scipy.integrate")
    src = Path(__file__).resolve().parents[1] / "src" / "statrate"
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_function = {id(node) for fn in ast.walk(tree)
                       if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                       for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            lazy_special = path.name == "specfun.py" and id(node) in in_function
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if any(name == b or name.startswith(b + ".") for b in banned)
                      or ((name == "scipy.special" or name.startswith("scipy.special."))
                          and not lazy_special)]
    assert found == []


def test_readme_python_example_runs(capsys):
    # the README's library example, as printed there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    rate, meta_prob, omega = map(float, capsys.readouterr().out.split())
    assert rate > 0.0
    # the PCR design meets xi = 1e-2 exactly; 10^4 trials give an SE of 1e-3
    assert abs(meta_prob - 1e-2) <= 4e-3
    assert 0.0 < omega < 1.0
