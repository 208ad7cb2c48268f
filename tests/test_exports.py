import ast
import importlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import statrate

MODULES = ("channels", "evalmc", "learn", "mismatch", "rateselect", "specfun")
CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def run_fresh(code):
    """Run code in a fresh interpreter, where statrate has loaded nothing yet."""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"statrate.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_all_resolves():
    missing = [attr for attr in statrate.__all__ if not hasattr(statrate, attr)]
    assert missing == []
    assert len(set(statrate.__all__)) == len(statrate.__all__)


def test_star_import_binds_the_defining_objects():
    # the lazy exports give what the eager imports gave: each name the object
    # its submodule defines under it
    run_fresh(
        "import importlib\n"
        "import statrate\n"
        "ns = {}\n"
        "exec('from statrate import *', ns)\n"
        "names = [n for n in ns if n != '__builtins__']\n"
        "assert sorted(names) == sorted(statrate.__all__), names\n"
        "for name in statrate.__all__:\n"
        "    obj = ns[name]\n"
        "    assert obj.__module__.startswith('statrate.'), name\n"
        "    assert getattr(importlib.import_module(obj.__module__), name) is obj, name\n")


def test_dir_lists_every_export_before_first_use():
    run_fresh("import statrate\n"
              "missing = set(statrate.__all__) - set(dir(statrate))\n"
              "assert missing == set(), missing\n")


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        getattr(statrate, "no_such_name")
    assert not hasattr(statrate, "no_such_name")


def test_traced_modules_are_package_attributes():
    # the benchmark's tracer reads each module it wraps as statrate.<module>
    spans = runpy.run_path(str(CHILD), run_name="perfbench_child")["SPANS"]
    modules = sorted({module for targets in spans.values() for module, _ in targets})
    assert "cli" in modules
    run_fresh("import importlib\n"
              "import statrate\n"
              f"for m in {modules!r}:\n"
              "    assert getattr(statrate, m) is importlib.import_module('statrate.' + m), m\n")


def test_pool_threads_loading_scipy_special_write_the_serial_bytes(tmp_path):
    # in a fresh interpreter the workers = 2 sweep runs first, so its two pool
    # threads are the first to load scipy.special, for their PCR calibrations
    outputs = {}
    for workers in (2, 1):
        outputs[workers] = tmp_path / f"out{workers}.csv"
        (tmp_path / f"cfg{workers}.txt").write_text(
            "model = rayleigh\nselector = nonparametric\nconstraint = pcr\n"
            "eps = 1e-2\nxi = 0.1\nn = 1000\ntrials = 40\nseed = 5\n"
            f"axis = n\naxis_values = 1000, 2000\nworkers = {workers}\n"
            f"output = {outputs[workers]}\n")
    cfgs = [str(tmp_path / f"cfg{w}.txt") for w in (2, 1)]
    run_fresh(
        "import os\n"
        "import sys\n"
        "import statrate.cli\n"
        "os.cpu_count = lambda: 2  # so the pool is built\n"
        "assert 'scipy.special' not in sys.modules\n"
        f"for cfg in {cfgs!r}:\n"
        "    assert statrate.cli.main(['sweep', cfg]) == 0\n")
    assert outputs[2].read_bytes() == outputs[1].read_bytes()
    assert len(outputs[1].read_bytes().splitlines()) == 3


def test_traced_names_resolve():
    # the benchmark's --trace mode wraps these names; a deletion must fail here,
    # not only in the benchmark's own self-test
    spans = runpy.run_path(str(CHILD), run_name="perfbench_child")["SPANS"]
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
