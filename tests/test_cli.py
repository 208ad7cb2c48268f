import ast
import contextlib
import csv
import gc
import io
import itertools
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statrate import cli
from statrate.cli import MISMATCH_HEADER, SWEEP_HEADER, _parse_kv_file, main
from statrate.errors import ConfigError
from statrate.rateselect import FAMILIES, epsn_rayleigh_ar, epsn_rayleigh_pcr

GOLDEN_SWEEP_HEADER = (
    "axis_name,axis_value,rate_mean,rate_stddev,"
    "mean_outage,mean_outage_ci_lo,mean_outage_ci_hi,"
    "meta_prob,meta_prob_ci_lo,meta_prob_ci_hi,"
    "omega,omega_ci_lo,omega_ci_hi,"
    "zero_rate_fraction,trials,seed"
)
GOLDEN_MISMATCH_HEADER = (
    "param_name,param_value,selector,"
    "mean_outage_numeric,mean_outage_approx,"
    "meta_prob_numeric,meta_prob_chernoff"
)


def run_process(*argv):
    """`python -m statrate argv` in a fresh interpreter, for what runs at exit."""
    return subprocess.run(
        [sys.executable, "-m", "statrate", *argv],
        capture_output=True, text=True)


def _print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_cli(*argv):
    """main(argv) in this process, seen as run_process sees it: the exit code
    (argparse's too), stdout, and stderr with each warning printed as a fresh
    interpreter prints it and a sweep's progress lines. The root logger and
    the warning filters are restored afterwards."""
    out, err = io.StringIO(), io.StringIO()
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()  # so that sweep's basicConfig logs to err, as at start-up
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("default")
            warnings.showwarning = _print_warning
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


@pytest.fixture(scope="module")
def mean_one_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("samples") / "ones.txt"
    p.write_text("1.0\n" * 100)
    return str(p)


@pytest.fixture(scope="module")
def file_500(tmp_path_factory):
    p = tmp_path_factory.mktemp("samples") / "s500.txt"
    p.write_text("".join(f"{0.5 + 0.001 * i}\n" for i in range(500)))
    return str(p)


class TestEpsn:
    def test_rayleigh_ar_n1(self):
        res = run_cli("epsn", "--family", "rayleigh", "--constraint", "ar",
                      "--eps", "1e-3", "--n", "1")
        assert res.returncode == 0
        assert res.stdout.strip() == "1.00050016662e-03"

    def test_rayleigh_pcr(self):
        res = run_cli("epsn", "--family", "rayleigh", "--constraint", "pcr",
                      "--eps", "1e-4", "--xi", "1e-3", "--n", "100")
        assert res.returncode == 0
        assert res.stdout.strip() == "7.47559729474e-05"

    def test_powerlaw_asym_ar_echoes_eps(self):
        res = run_cli("epsn", "--family", "powerlaw-asym", "--constraint", "ar",
                      "--eps", "1e-3", "--n", "100")
        assert res.returncode == 0
        assert res.stdout.strip() == "1.00000000000e-03"

    def test_pcr_without_xi_is_usage_error(self):
        res = run_cli("epsn", "--family", "rayleigh", "--constraint", "pcr",
                      "--eps", "1e-3", "--n", "10")
        assert res.returncode == 2
        assert "invalid arguments: PCR target requires a confidence level xi" in res.stderr

    def test_ar_with_xi_is_usage_error(self):
        res = run_cli("epsn", "--family", "rayleigh", "--constraint", "ar",
                      "--eps", "1e-3", "--xi", "0.1", "--n", "10")
        assert res.returncode == 2

    def test_nonasym_without_beta_is_usage_error(self):
        res = run_cli("epsn", "--family", "powerlaw-nonasym", "--constraint", "pcr",
                      "--eps", "1e-2", "--xi", "0.1", "--n", "100000")
        assert res.returncode == 2

    def test_n_takes_the_config_integer_forms(self, capsys):
        argv = ["epsn", "--family", "rayleigh", "--constraint", "ar", "--eps", "1e-3", "--n"]
        assert main(argv + ["1e5"]) == 0
        assert main(argv + ["100000"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1.00000000500e-03"] * 2
        for bad in ("1.5", "1e400", "ten"):
            with pytest.raises(SystemExit) as exc:
                main(argv + [bad])
            assert exc.value.code == 2
            assert "argument --n" in capsys.readouterr().err

    def test_gamma_inverse_at_huge_shape_stops_polishing(self):
        # the bound reaches the inverse at a = l - 1 of about 5e17, where the
        # Newton density overflows; that element's polish stops instead of
        # raising, and the bound stays below xi (its own warning)
        res = run_cli("epsn", "--family", "powerlaw-nonasym", "--constraint", "pcr",
                      "--eps", "0.9", "--n", "1e18", "--xi", "0.1", "--beta", "0.5")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "4.99999999950e-01"
        assert "Traceback" not in res.stderr and "OverflowError" not in res.stderr

    def test_out_of_range_eps(self):
        res = run_cli("epsn", "--family", "rayleigh", "--constraint", "ar",
                      "--eps", "1.5", "--n", "10")
        assert res.returncode == 2
        assert "invalid arguments" in res.stderr


class TestRate:
    def test_zero_rate_with_note(self, file_500):
        res = run_cli("rate", "--selector", "nonparametric", "--constraint", "ar",
                      "--eps", "1e-3", "--sample", file_500)
        assert res.returncode == 0
        assert res.stdout.strip() == "0"
        assert "zero-rate" in res.stderr

    def test_nonparametric_pcr_at_tiny_xi_is_pcr_feasible(self, tmp_path):
        # l = 734, the largest index whose meta-probability is at most 1e-20;
        # reading the tail as 1 - betainc took l = 761 and printed 9.57364718749
        sample = tmp_path / "ranks.txt"
        sample.write_text("".join(f"{i}\n" for i in range(1, 10_001)))
        res = run_cli("rate", "--selector", "nonparametric", "--constraint", "pcr",
                      "--eps", "0.1", "--xi", "1e-20", "--sample", str(sample))
        assert res.returncode == 0
        assert res.stdout == f"{math.log2(1 + 734):.11e}\n" == "9.52160043972e+00\n"

    def test_plugin_rayleigh_mean_one(self, mean_one_file):
        res = run_cli("rate", "--selector", "plugin-rayleigh", "--constraint", "ar",
                      "--eps", "1e-3", "--sample", mean_one_file)
        assert res.returncode == 0
        assert res.stdout.strip() == "1.44269528140e-03"

    def test_powerlaw_insufficient_tail_exit_3(self, mean_one_file):
        res = run_cli("rate", "--selector", "powerlaw-asym", "--constraint", "ar",
                      "--eps", "1e-3", "--beta", "0.01", "--sample", mean_one_file)
        assert res.returncode == 3

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0\n2.0\noops\n")
        res = run_cli("rate", "--selector", "plugin-rayleigh", "--constraint", "ar",
                      "--eps", "1e-3", "--sample", str(p))
        assert res.returncode == 4
        assert "line 3" in res.stderr

    def test_missing_sample_file(self, tmp_path):
        res = run_cli("rate", "--selector", "plugin-rayleigh", "--constraint", "ar",
                      "--eps", "1e-3", "--sample", str(tmp_path / "nope.txt"))
        assert res.returncode == 4

    def test_beta_on_non_powerlaw_selector(self, mean_one_file):
        res = run_cli("rate", "--selector", "rayleigh", "--constraint", "ar",
                      "--eps", "1e-3", "--beta", "0.1", "--sample", mean_one_file)
        assert res.returncode == 2

    def test_powerlaw_clustered_tiny_tail(self, tmp_path):
        # the fitted alpha_hat overflows on this tail; the rate must not
        p = tmp_path / "tiny.txt"
        p.write_text("".join(f"{1e-300 * (1.0 + 1e-12 * i)!r}\n" for i in range(1000)))
        res = run_cli("rate", "--selector", "powerlaw-asym", "--constraint", "ar",
                      "--eps", "1e-3", "--beta", "0.05", "--sample", str(p))
        assert res.returncode == 0
        assert "Warning" not in res.stderr
        assert float(res.stdout) == pytest.approx(1.4427e-300, rel=1e-4, abs=0)

    def test_powerlaw_clustered_huge_tail(self, tmp_path):
        # (l/n) exp(-z_l/kappa) underflows on this tail; the rate reads z_l
        x = [1e300 * (1.0 + 1e-12 * i) for i in range(1000)]
        p = tmp_path / "huge.txt"
        p.write_text("".join(f"{v!r}\n" for v in x))
        res = run_cli("rate", "--selector", "powerlaw-asym", "--constraint", "ar",
                      "--eps", "1e-3", "--beta", "0.05", "--sample", str(p))
        assert res.returncode == 0, res.stderr
        assert "Warning" not in res.stderr
        z = [math.log(v) for v in x[:50]]
        q = z[-1] + (z[-1] - math.fsum(z) / 50) * math.log(1000 * 1e-3 / 50)
        assert float(res.stdout) == pytest.approx(q / math.log(2.0), rel=1e-12)
        assert res.stdout.strip() == "9.96578428466e+02"

    def test_underflowed_powerlaw_level_is_zero_rate(self, tmp_path):
        # l = 3 of n = 300 at xi = 1e-12: eps_n = (l/n) e^u* underflows to 0
        p = tmp_path / "s300.txt"
        p.write_text("".join(f"{0.5 + 0.001 * i}\n" for i in range(300)))
        res = run_cli("rate", "--selector", "powerlaw-nonasym", "--constraint", "pcr",
                      "--eps", "1e-2", "--xi", "1e-12", "--beta", "0.01", "--sample", str(p))
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "0"
        assert "zero-rate" in res.stderr
        assert "Warning" not in res.stderr

    def test_level_rounding_to_one_has_no_rate(self, tmp_path):
        # eps_n = 1 - 7.7e-20 rounds to 1.0: no quantile level, so exit 3
        p = tmp_path / "s100.txt"
        p.write_text("".join(f"{0.5 + 0.001 * i}\n" for i in range(100)))
        res = run_cli("rate", "--selector", "rayleigh", "--constraint", "ar",
                      "--eps", "0.9999999999999999", "--sample", str(p))
        assert res.returncode == 3, res.stderr
        assert res.stdout == ""
        assert "eps_n=1.0" in res.stderr and "eps=0.9999999999999999" in res.stderr
        assert "n=100" in res.stderr

    def test_asymptotic_pcr_level_above_one_has_no_rate(self, tmp_path):
        # for xi > 0.5 the asymptotic back-off raises the level: 1.03 here
        res = run_cli("epsn", "--family", "powerlaw-asym", "--constraint", "pcr",
                      "--eps", "0.9", "--xi", "0.9", "--n", "10", "--beta", "0.9")
        assert res.returncode == 0
        assert res.stdout.strip() == "1.03017313520e+00"
        p = tmp_path / "s10.txt"
        p.write_text("".join(f"{0.5 + 0.1 * i}\n" for i in range(10)))
        res = run_cli("rate", "--selector", "powerlaw-asym", "--constraint", "pcr",
                      "--eps", "0.9", "--xi", "0.9", "--beta", "0.9", "--sample", str(p))
        assert res.returncode == 3, res.stdout
        assert res.stdout == ""
        assert "eps_n=1.03017313520" in res.stderr and "xi=0.9" in res.stderr

    def test_overflowing_asymptotic_pcr_level_has_no_rate(self, tmp_path):
        # for xi > 0.5 the back-off eps * exp(-shift) has -shift in the
        # thousands here (Vbar is about 4.9e7 at beta = 1e-6): past every double
        res = run_cli("epsn", "--family", "powerlaw-asym", "--constraint", "pcr",
                      "--eps", "0.001", "--n", "3", "--xi", "0.99", "--beta", "1e-06")
        assert res.returncode == 3, res.stderr
        assert res.stdout == "" and "Traceback" not in res.stderr
        assert "eps=0.001, xi=0.99, beta=1e-06, n=3" in res.stderr
        p = tmp_path / "s100.txt"
        p.write_text("".join(f"{0.5 + 0.01 * i}\n" for i in range(100)))
        res = run_cli("rate", "--selector", "powerlaw-asym", "--constraint", "pcr",
                      "--eps", "0.001", "--xi", "0.9999999999999999", "--beta", "1e-06",
                      "--sample", str(p))
        assert res.returncode == 3, res.stderr
        assert res.stdout == "" and "Traceback" not in res.stderr
        assert "eps=0.001, xi=0.9999999999999999, beta=1e-06, n=100" in res.stderr

    @pytest.mark.parametrize("flags, values", [
        # g = -log(1 - eps_n) is about 6, and g times the mean 5e307 passes DBL_MAX
        (("--selector", "rayleigh", "--constraint", "pcr", "--eps", "0.9",
          "--xi", "0.9999999999999999"), [1e308] * 50 + [1.0] * 50),
        # the fitted log-quantile of this tail is past log(DBL_MAX)
        (("--selector", "powerlaw-asym", "--constraint", "ar", "--eps", "0.9",
          "--beta", "0.01"), [10.0 ** (305 + i / 3) for i in range(10)] + [1.5e308] * 990)],
        ids=["mean", "powerlaw"])
    def test_overflowing_rate_is_a_usage_error(self, tmp_path, flags, values):
        p = tmp_path / "huge.txt"
        p.write_text("".join(f"{v!r}\n" for v in values))
        res = run_cli("rate", *flags, "--sample", str(p))
        assert res.returncode == 2, res.stdout
        assert res.stdout == ""
        assert "invalid arguments: non-finite rate" in res.stderr
        assert "RuntimeWarning" not in res.stderr

    def test_zero_in_powerlaw_tail_is_insufficient_tail_data(self, tmp_path):
        p = tmp_path / "zeros.txt"
        p.write_text("0\n" * 20 + "".join(f"{0.5 + 0.001 * i}\n" for i in range(980)))
        res = run_cli("rate", "--selector", "powerlaw-asym", "--constraint", "ar",
                      "--eps", "1e-2", "--beta", "0.05", "--sample", str(p))
        assert res.returncode == 3, res.stderr
        assert "20 of the l=50 smallest of n=1000 values are 0" in res.stderr


# exit code and stdout of every flag combination, as the CLI gave them while
# it checked the flags itself. Per family or selector, one entry for each
# (constraint, --xi given, --beta given) in the order of
# itertools.product(("ar", "pcr"), (False, True), (False, True)): the stdout
# line of an exit 0, the flag ("xi" or "beta") a flag error names (exit 2),
# or 2 for an exit 2 that is no flag error
_X, _B = "xi", "beta"
EPSN_TABLE = {
    "rayleigh": ["1.00005000124e-02", _B, _X, _X, _X, _X, "8.85384608599e-03", _B],
    "powerlaw-asym": ["1.00000000000e-02", "1.00000000000e-02", _X, _X, _X, _X, _B,
                      "3.40147212566e-03"],
    "powerlaw-nonasym": [_B, 2, _X, _X, _X, _X, _B, "3.80053097701e-05"],
}
RATE_TABLE = {
    "rayleigh": ["1.08268096033e-02", _B, _X, _X, _X, _X, "1.02379394832e-02", _B],
    "nonparametric": ["5.88804567016e-01", _B, _X, _X, _X, _X, "5.85923976959e-01", _B],
    "powerlaw-asym": [_B, "5.89515506509e-01", _X, _X, _X, _X, _B, "5.84105803687e-01"],
    "powerlaw-nonasym": [_B, 2, _X, _X, _X, _X, _B, "5.76052399524e-01"],
    "plugin-rayleigh": ["1.08267011979e-02", _B, _X, _X, _X, _X, "1.08267011979e-02", _B],
    "plugin-nonparametric": ["5.89763486985e-01", _B, _X, _X, _X, _X,
                             "5.89763486985e-01", _B],
}
_FLAGS = list(itertools.product(("ar", "pcr"), (False, True), (False, True)))


def _flag_cases(table):
    return [(name, *flags, want) for name, wants in table.items()
            for flags, want in zip(_FLAGS, wants)]


class TestFlagCombinations:
    """Flag errors are the library's: main returns 2, argparse never exits."""

    def check(self, capsys, argv, xi, beta, want):
        argv += (["--xi", "0.1"] if xi else []) + (["--beta", "0.05"] if beta else [])
        try:
            code = main(argv)
        except SystemExit as exc:
            pytest.fail(f"argparse exited with {exc.code}; the library checks flags")
        out, err = capsys.readouterr()
        if want in (_X, _B, 2):
            assert (code, out) == (2, "")
            if want != 2:
                assert err.startswith("invalid arguments:") and want in err
                assert "usage:" not in err
        else:
            assert (code, out) == (0, want + "\n")

    @pytest.mark.parametrize("family,constraint,xi,beta,want", _flag_cases(EPSN_TABLE))
    def test_epsn(self, capsys, family, constraint, xi, beta, want):
        self.check(capsys, ["epsn", "--family", family, "--constraint", constraint,
                            "--eps", "1e-2", "--n", "100"], xi, beta, want)

    @pytest.mark.parametrize("selector,constraint,xi,beta,want", _flag_cases(RATE_TABLE))
    def test_rate(self, capsys, tmp_path, file_500, selector, constraint, xi, beta, want):
        # a flag error is reported before the sample file is opened
        sample = str(tmp_path / "absent.txt") if want in (_X, _B) else file_500
        self.check(capsys, ["rate", "--selector", selector, "--constraint", constraint,
                            "--eps", "1e-2", "--sample", sample], xi, beta, want)


HEAVY_SCIPY = ("scipy.optimize", "scipy.stats", "scipy.integrate")
# loaded on first use: by a command that evaluates a special function, and
# by a sweep that starts a thread pool
SPECIAL = "scipy.special"
POOL = "concurrent.futures.thread"
# what a process pool would load; no command loads either
FORK = ("multiprocessing", "concurrent.futures.process")


def modules_after(code):
    """The names in sys.modules of a fresh interpreter after running code."""
    script = code + "import sys\nprint(','.join(sys.modules))\n"
    # a fresh process: this one has imported scipy.stats already
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.splitlines()[-1].split(","))


def scipy_loaded(code):
    """The HEAVY_SCIPY modules, SPECIAL and POOL a fresh interpreter holds
    after running code."""
    return modules_after(code) & {*HEAVY_SCIPY, SPECIAL, POOL}


def main_script(argv, status=0):
    """Code that imports statrate.cli and, given argv, runs main(argv),
    exiting non-zero unless main returns or exits with status."""
    return (
        "import sys\n"
        "import statrate.cli\n"
        f"argv = {list(argv)!r}\n"
        "try:\n"
        "    got = statrate.cli.main(argv) if argv else 0\n"
        "except SystemExit as exc:\n"
        "    got = exc.code\n"
        f"if got != {status!r}:\n"
        "    sys.exit(f'main gave {got}')\n")


def statrate_loaded_by(*argv):
    """The statrate submodules a fresh interpreter holds after importing
    statrate.cli and, given argv, running main(argv), and whether it holds
    csv or logging."""
    loaded = modules_after(main_script(argv))
    return ({m for m in loaded if m.startswith("statrate.")},
            not {"csv", "logging"}.isdisjoint(loaded))


def scipy_loaded_by(*argv, status=0):
    """The HEAVY_SCIPY modules, SPECIAL and POOL a fresh interpreter holds
    after importing statrate.cli and, given argv, running main(argv)."""
    return scipy_loaded(main_script(argv, status))


# AR calibrations are closed forms: eps_n or l without a special function
AR_RATE_SELECTORS = [["rayleigh"], ["nonparametric"], ["plugin-rayleigh"],
                     ["plugin-nonparametric"], ["powerlaw-asym", "--beta", "0.1"]]
AR_EPSN_FAMILIES = ["rayleigh", "powerlaw-asym"]

# what argument parsing and the exit-code mapping need; epsn and rate load no more
CLI_MODULES = {f"statrate.{m}" for m in ("cli", "errors", "learn", "rateselect", "specfun")}


def pool_script(argv):
    """main_script(argv) that fails unless main builds one two-thread pool,
    with scipy.special not loaded by then. cpu_count is pinned so the pool
    is built."""
    return (
        "import concurrent.futures\n"
        "import os\n"
        "import sys\n"
        "seen = []\n"
        "class Spy(concurrent.futures.ThreadPoolExecutor):\n"
        "    def __init__(self, max_workers):\n"
        "        seen.append((max_workers, 'scipy.special' in sys.modules))\n"
        "        super().__init__(max_workers)\n"
        "concurrent.futures.ThreadPoolExecutor = Spy\n"
        "os.cpu_count = lambda: 2\n"
        + main_script(argv)
        + "assert seen == [(2, False)], seen\n")


class TestColdStart:
    def test_import_loads_no_heavy_scipy(self):
        assert scipy_loaded_by() == set()

    def test_rayleigh_ar_rate_loads_no_heavy_scipy(self, file_500):
        assert scipy_loaded_by("rate", "--selector", "rayleigh", "--constraint", "ar",
                               "--eps", "1e-3", "--sample", file_500) == set()

    @pytest.mark.parametrize("selector", AR_RATE_SELECTORS, ids=lambda s: s[0])
    def test_ar_rate_loads_no_scipy_special(self, file_500, selector):
        assert scipy_loaded_by("rate", "--selector", *selector, "--constraint", "ar",
                               "--eps", "1e-2", "--sample", file_500) == set()

    @pytest.mark.parametrize("family", AR_EPSN_FAMILIES)
    def test_ar_epsn_loads_no_scipy_special(self, family):
        assert scipy_loaded_by("epsn", "--family", family, "--constraint", "ar",
                               "--eps", "1e-3", "--n", "1000") == set()

    def test_rayleigh_ar_sweep_loads_no_scipy_special(self, tmp_path):
        cfg = write_sweep_config(tmp_path / "cfg.txt", tmp_path / "out.csv")
        assert scipy_loaded_by("sweep", cfg) == set()

    # the Rayleigh quantile a tail selector's draws go through is a closed form too
    @pytest.mark.parametrize("selector", AR_RATE_SELECTORS[1:], ids=lambda s: s[0])
    def test_rayleigh_ar_sweep_of_every_family_loads_no_scipy_special(self, tmp_path,
                                                                     selector):
        beta = f"beta = {selector[2]}\n" if selector[1:] else ""
        cfg = write_sweep_config(tmp_path / "cfg.txt", tmp_path / "out.csv",
                                 drop=("selector", "axis_values"),
                                 extra=f"selector = {selector[0]}\n{beta}"
                                       "axis_values = 1000, 100000\n")
        assert scipy_loaded_by("sweep", cfg) == set()

    @pytest.mark.parametrize("argv", [
        ["--help"], ["rate", "--help"],
        # an argparse usage error, then a level the target rejects
        ["epsn", "--family", "rayleigh", "--constraint", "ar", "--eps", "1e-3",
         "--n", "10", "--xi", "0.1"],
        ["epsn", "--family", "rayleigh", "--constraint", "pcr", "--eps", "1e-3",
         "--n", "10", "--xi", "2"]], ids=["help", "rate-help", "usage", "invalid"])
    def test_help_and_usage_errors_load_no_scipy_special(self, argv):
        status = 0 if "--help" in argv else 2
        assert scipy_loaded_by(*argv, status=status) == set()

    def test_config_error_loads_no_scipy_special(self, tmp_path):
        # rejected while the pcr designs are built, before any calibration
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("param = k\nparam_values = 1\nselectors = rayleigh-pcr\n"
                       f"eps = 1e-4\nxi = 2\nn = 100\noutput = {tmp_path / 'o.csv'}\n")
        assert scipy_loaded_by("mismatch", str(cfg), status=2) == set()

    def test_pooled_pcr_points_load_scipy_special_themselves(self, tmp_path):
        # threads share the module, so the sweep loads nothing up front: the
        # first PCR calibration on a pool thread imports it
        cfg = write_sweep_config(tmp_path / "cfg.txt", tmp_path / "out.csv",
                                 drop=("constraint",),
                                 extra="constraint = pcr\nxi = 0.1\nworkers = 2\n")
        assert scipy_loaded(pool_script(["sweep", cfg])) == {SPECIAL, POOL}
        with open(tmp_path / "out.csv") as fh:
            assert len(fh.read().splitlines()) == 3

    def test_pooled_rayleigh_ar_sweep_loads_no_scipy_special(self, tmp_path):
        # on Rayleigh truth every AR point is closed forms, pooled or not
        cfg = write_sweep_config(tmp_path / "cfg.txt", tmp_path / "out.csv",
                                 drop=("selector",),
                                 extra="selector = nonparametric\nworkers = 2\n")
        assert scipy_loaded(pool_script(["sweep", cfg])) == {POOL}
        with open(tmp_path / "out.csv") as fh:
            assert len(fh.read().splitlines()) == 3

    def test_pooled_sweep_starts_no_process(self, tmp_path):
        # the points run on threads: nothing forks, spawns or pickles
        cfg = write_sweep_config(tmp_path / "cfg.txt", tmp_path / "out.csv",
                                 drop=("constraint",),
                                 extra="constraint = pcr\nxi = 0.1\nworkers = 2\n")
        loaded = modules_after(pool_script(["sweep", cfg]))
        assert POOL in loaded
        assert loaded.isdisjoint(FORK)

    def test_import_statrate_loads_no_submodule(self):
        loaded = modules_after("import statrate\n")
        assert "statrate" in loaded
        assert [m for m in loaded if m.startswith("statrate.") or m == "numpy"] == []

    def test_import_cli_loads_what_parsing_needs(self):
        assert statrate_loaded_by() == (CLI_MODULES, False)

    @pytest.mark.parametrize("argv", [
        ["epsn", "--family", "rayleigh", "--constraint", "ar", "--eps", "1e-3", "--n", "100"],
        ["epsn", "--family", "powerlaw-nonasym", "--constraint", "pcr", "--eps", "1e-2",
         "--xi", "0.05", "--n", "100000", "--beta", "0.01"],
        ["rate", "--selector", "nonparametric", "--constraint", "pcr", "--eps", "1e-2",
         "--xi", "0.1", "--sample"],
        ["rate", "--selector", "powerlaw-nonasym", "--beta", "0.1", "--constraint", "pcr",
         "--eps", "1e-2", "--xi", "0.1", "--sample"],
    ], ids=["epsn-ar", "epsn-pcr", "rate-nonparametric-pcr", "rate-powerlaw-pcr"])
    def test_epsn_and_rate_load_no_further_statrate_module(self, file_500, argv):
        if argv[-1] == "--sample":
            argv = [*argv, file_500]
        assert statrate_loaded_by(*argv)[0] == CLI_MODULES

    @pytest.mark.parametrize("selector", AR_RATE_SELECTORS, ids=lambda s: s[0])
    def test_ar_rate_loads_no_further_module(self, file_500, selector):
        # not csv or logging either; scipy.special would bring logging in
        assert statrate_loaded_by("rate", "--selector", *selector, "--constraint", "ar",
                                  "--eps", "1e-2", "--sample", file_500) == (CLI_MODULES, False)

    @pytest.mark.parametrize("param,selectors", [
        ("k", "rayleigh-ar"), ("m", "rayleigh-ar, rayleigh-pcr")])
    def test_mismatch_loads_no_evalmc(self, tmp_path, param, selectors):
        # every column is a closed form or a Poisson sum: no row is simulated
        xi = "xi = 1e-2\n" if "pcr" in selectors else ""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"param = {param}\nparam_values = 0.5, 2\nselectors = {selectors}\n"
                       f"eps = 1e-3\n{xi}n = 100\noutput = {tmp_path / 'out.csv'}\n")
        loaded, _ = statrate_loaded_by("mismatch", str(cfg))
        assert loaded == CLI_MODULES | {"statrate.channels", "statrate.mismatch"}

    def test_sweep_loads_no_mismatch(self, tmp_path):
        cfg = write_sweep_config(tmp_path / "cfg.txt", tmp_path / "out.csv")
        loaded, _ = statrate_loaded_by("sweep", cfg)
        assert loaded == CLI_MODULES | {"statrate.channels", "statrate.evalmc"}

    def test_nonparametric_pcr_rate_loads_no_heavy_scipy(self, file_500):
        assert scipy_loaded_by("rate", "--selector", "nonparametric", "--constraint", "pcr",
                               "--eps", "1e-2", "--xi", "0.1", "--sample", file_500) == {SPECIAL}

    def test_rayleigh_pcr_epsn_loads_no_heavy_scipy(self):
        # the Erlang quantile needs scipy.special, and nothing heavier
        assert scipy_loaded_by("epsn", "--family", "rayleigh", "--constraint", "pcr",
                               "--eps", "1e-4", "--xi", "1e-3", "--n", "100") == {SPECIAL}

    def test_powerlaw_nonasym_epsn_loads_no_heavy_scipy(self):
        assert scipy_loaded_by("epsn", "--family", "powerlaw-nonasym", "--constraint", "pcr",
                               "--eps", "1e-2", "--xi", "0.05", "--n", "100000",
                               "--beta", "0.01") == {SPECIAL}

    def test_nakagami_mismatch_loads_no_heavy_scipy(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = m\n"
            "param_values = 0.5, 2\n"
            "selectors = rayleigh-ar, rayleigh-pcr\n"
            "eps = 1e-4\n"
            "xi = 1e-2\n"
            "n = 1000\n"
            f"output = {tmp_path / 'out.csv'}\n")
        assert scipy_loaded_by("mismatch", str(cfg)) == {SPECIAL}

    def test_rician_mismatch_loads_no_heavy_scipy(self, tmp_path):
        # the numeric meta-probability is the nc_chi2_sf Poisson mixture
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\n"
            "param_values = 0.5, 10\n"
            "selectors = rayleigh-ar, rayleigh-pcr\n"
            "eps = 1e-4\n"
            "xi = 1e-2\n"
            "n = 1000\n"
            f"output = {tmp_path / 'out.csv'}\n")
        assert scipy_loaded_by("mismatch", str(cfg)) == {SPECIAL}

    def test_marcum_q1_loads_no_heavy_scipy(self):
        assert scipy_loaded(
            "from statrate.specfun import marcum_q1\n"
            "marcum_q1(3.0, 4.0)\n") == {SPECIAL}

    def test_rician_mean_outage_loads_no_heavy_scipy(self):
        assert scipy_loaded(
            "from statrate.channels import Rician\n"
            "from statrate.mismatch import mean_outage_mismatch\n"
            "mean_outage_mismatch(Rician(1.0, 10.0), 1e-4, 10000)\n") == {SPECIAL}


README_EPSN = ["epsn", "--family", "rayleigh", "--constraint", "pcr", "--eps", "1e-3",
               "--xi", "1e-2", "--n", "100"]


class TestExit:
    def test_process_freezes_gc_at_exit(self):
        # atexit runs handlers last-in first-out: one registered before the
        # import runs after the freeze, and stdout is still flushed after it
        script = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
            "import statrate.cli\n"
            f"rc = statrate.cli.main({README_EPSN!r})\n"
            "print('frozen in main:', gc.get_freeze_count() > 0, gc.isenabled())\n"
            "sys.exit(rc)\n")
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [
            "8.01859052505e-04", "frozen in main: False True", "frozen at exit: True"]

    def test_in_process_main_leaves_gc_alone(self, capsys):
        assert main(README_EPSN) == 0
        assert capsys.readouterr().out == "8.01859052505e-04\n"
        assert gc.get_freeze_count() == 0
        assert gc.isenabled()


def write_sweep_config(path, out, extra="", drop=()):
    lines = {
        "model": "model = rayleigh",
        "lam": "lam = 1.0",
        "selector": "selector = rayleigh",
        "constraint": "constraint = ar",
        "eps": "eps = 1e-2",
        "n": "n = 20",
        "trials": "trials = 5",
        "seed": "seed = 11",
        "axis": "axis = n",
        "axis_values": "axis_values = 10, 20",
        "output": f"output = {out}",
    }
    for key in drop:
        lines.pop(key, None)
    text = "# sweep smoke config\n" + "\n".join(lines.values()) + "\n" + extra
    path.write_text(text)
    return str(path)


class TestSweep:
    def test_smoke_and_golden_header(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = write_sweep_config(tmp_path / "cfg.txt", out)
        res = run_cli("sweep", cfg)
        assert res.returncode == 0
        assert res.stdout.strip() == f"wrote 2 rows to {out}"
        content = out.read_text().splitlines()
        assert content[0] == GOLDEN_SWEEP_HEADER
        assert len(content) == 3
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["axis_value"] == "1.00000000000e+01"
        assert rows[1]["axis_value"] == "2.00000000000e+01"
        assert all(r["trials"] == "5" and r["seed"] == "11" for r in rows)

    def test_byte_identical_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        res1 = run_cli("sweep", write_sweep_config(tmp_path / "c1.txt", out1))
        res2 = run_cli("sweep", write_sweep_config(tmp_path / "c2.txt", out2))
        assert res1.returncode == 0 and res2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        # the pool's shutdown at exit runs, and so does the logging's flush
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        c1 = write_sweep_config(tmp_path / "c1.txt", out1, extra="workers = 1\n")
        c2 = write_sweep_config(tmp_path / "c2.txt", out2, extra="workers = 2\n")
        res1, res2 = run_process("sweep", c1), run_process("sweep", c2)
        assert res1.returncode == 0 and res2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        progress = ["sweep n=10.0 done (1/2)", "sweep n=20.0 done (2/2)"]
        assert res1.stderr.splitlines() == res2.stderr.splitlines() == progress

    def test_seeds_differing_above_2_53_stay_distinct(self, tmp_path):
        # 2^53 + 1 has no double of its own, so a float parse merges it with 2^53
        rows = {}
        for seed in (2**53, 2**53 + 1):
            out = tmp_path / f"{seed}.csv"
            cfg = write_sweep_config(tmp_path / f"{seed}.txt", out, drop=("seed",),
                                     extra=f"seed = {seed}\n")
            assert run_cli("sweep", cfg).returncode == 0
            rows[seed] = list(csv.DictReader(out.open()))
            assert all(r["seed"] == str(seed) for r in rows[seed])
        assert rows[2**53][0]["rate_mean"] != rows[2**53 + 1][0]["rate_mean"]

    def test_integer_keys_accept_exponent_form_only_when_finite(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg = write_sweep_config(tmp_path / "c.txt", out, drop=("trials",),
                                 extra="trials = 5e0\n")
        assert run_cli("sweep", cfg).returncode == 0
        assert all(r["trials"] == "5" for r in csv.DictReader(out.open()))
        cfg = write_sweep_config(tmp_path / "c.txt", out, drop=("trials",),
                                 extra="trials = inf\n")
        assert run_cli("sweep", cfg).returncode == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_sweep_config(tmp_path / "c.txt", tmp_path / "o.csv",
                                 extra="wat = 1\n")
        res = run_cli("sweep", cfg)
        assert res.returncode == 2
        assert "wat" in res.stderr

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = write_sweep_config(tmp_path / "c.txt", tmp_path / "o.csv",
                                 extra="eps = 2e-2\n")
        res = run_cli("sweep", cfg)
        assert res.returncode == 2
        assert "duplicate" in res.stderr

    def test_malformed_line_rejected(self, tmp_path):
        cfg = write_sweep_config(tmp_path / "c.txt", tmp_path / "o.csv",
                                 extra="just some words\n")
        assert run_cli("sweep", cfg).returncode == 2

    @pytest.mark.parametrize("drop,line,message", [
        ((), "k =", "c.txt:13: expected 'key = value'"),
        ((), "= 3", "c.txt:13: expected 'key = value'"),
        (("model",), "model = foo",
         "key 'model': expected one of rayleigh, rician, nakagami, got 'foo'"),
        (("axis_values",), "axis_values = ,", "key 'axis_values': expected a comma-separated list"),
    ], ids=["empty-value", "empty-key", "choice", "empty-list"])
    def test_line_or_value_that_does_not_parse_rejected(self, tmp_path, drop, line, message):
        cfg = write_sweep_config(tmp_path / "c.txt", tmp_path / "o.csv", drop=drop,
                                 extra=line + "\n")
        res = run_cli("sweep", cfg)
        assert res.returncode == 2
        assert res.stderr.startswith("config error: ") and message in res.stderr, res.stderr

    def test_axis_epsilon_sets_the_target_of_each_point(self, tmp_path):
        # a point's stream is keyed by its position, so the eps = 0.1 point of an
        # epsilon sweep is the second point of an n sweep at eps = 0.1
        out, ref = tmp_path / "eps.csv", tmp_path / "ref.csv"
        cfg = write_sweep_config(tmp_path / "c.txt", out, drop=("axis", "axis_values"),
                                 extra="axis = epsilon\naxis_values = 1e-3, 1e-1\n")
        assert run_cli("sweep", cfg).returncode == 0
        cfg = write_sweep_config(tmp_path / "r.txt", ref, drop=("eps", "axis_values"),
                                 extra="eps = 1e-1\naxis_values = 20, 20\n")
        assert run_cli("sweep", cfg).returncode == 0
        rows, refs = list(csv.DictReader(out.open())), list(csv.DictReader(ref.open()))
        assert [(r["axis_name"], r["axis_value"]) for r in rows] == [
            ("epsilon", "1.00000000000e-03"), ("epsilon", "1.00000000000e-01")]
        assert float(rows[0]["rate_mean"]) < float(rows[1]["rate_mean"])
        for row in (rows[1], refs[1]):
            del row["axis_name"], row["axis_value"]
        assert rows[1] == refs[1]

    def test_missing_key_rejected(self, tmp_path):
        cfg = write_sweep_config(tmp_path / "c.txt", tmp_path / "o.csv",
                                 drop=("trials",))
        res = run_cli("sweep", cfg)
        assert res.returncode == 2
        assert "trials" in res.stderr

    def test_axis_xi_requires_pcr(self, tmp_path):
        cfg = write_sweep_config(tmp_path / "c.txt", tmp_path / "o.csv")
        text = cfg and (tmp_path / "c.txt").read_text()
        text = text.replace("axis = n", "axis = xi")
        (tmp_path / "c.txt").write_text(text)
        res = run_cli("sweep", str(tmp_path / "c.txt"))
        assert res.returncode == 2
        assert "xi is only meaningful for a PCR target, got kind 'ar'" in res.stderr
        assert not (tmp_path / "o.csv").exists()

    def test_axis_beta_requires_powerlaw_selector(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg = write_sweep_config(tmp_path / "c.txt", out, drop=("axis", "axis_values"),
                                 extra="axis = beta\naxis_values = 0.05, 0.1\n")
        res = run_cli("sweep", cfg)
        assert res.returncode == 2
        assert ("beta is only meaningful for power-law selectors, got family 'rayleigh'"
                in res.stderr)
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli("sweep", str(tmp_path / "absent.txt")).returncode == 4

    def test_non_finite_n_axis_value_is_usage_error(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg = write_sweep_config(tmp_path / "c.txt", out, drop=("axis_values",),
                                 extra="axis_values = 100, inf\n")
        res = run_cli("sweep", cfg)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_axis_k_on_nakagami_model_rejected(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg = write_sweep_config(
            tmp_path / "c.txt", out, drop=("model", "axis", "axis_values"),
            extra="model = nakagami\nm = 0.5\naxis = k\naxis_values = 1, 2\n")
        res = run_cli("sweep", cfg)
        assert res.returncode == 2
        assert "axis 'k'" in res.stderr
        assert not out.exists()

    def test_overflowing_scale_is_reported_once(self, tmp_path):
        # the finite-rate check reports the overflow, numpy does not. The
        # Nakagami mean is about m lam = 2e308; at n = 1 the Rayleigh mean
        # lam * S passes the float maximum for S above 1.06, and at n = 10 the
        # Rician (k = 0) mean for X/2 / n above 1.06. A power-law tail of inf
        # values gives an inf - inf in the fit
        mean = "selector = rayleigh\nconstraint = ar"
        for model, selector in (
                ("nakagami\nm = 2\nlam = 1e308\nn = 100\naxis_values = 100", mean),
                ("rayleigh\nlam = 1.7e308\nn = 1\naxis_values = 1", mean),
                ("rician\nk = 0\nlam = 1.7e308\nn = 10\naxis_values = 10", mean),
                ("rayleigh\nlam = 1.7e308\nn = 10\naxis_values = 10",
                 "selector = powerlaw-nonasym\nbeta = 0.999\nconstraint = pcr\nxi = 0.1")):
            out = tmp_path / "x.csv"
            cfg = write_sweep_config(
                tmp_path / "cfg.txt", out,
                drop=("model", "lam", "n", "trials", "axis_values", "selector",
                      "constraint"),
                extra=f"trials = 50\nmodel = {model}\n{selector}\n")
            res = run_cli("sweep", cfg)
            assert res.returncode == 2
            assert "non-finite rate" in res.stderr
            assert "RuntimeWarning" not in res.stderr
            assert not out.exists()

    @pytest.mark.parametrize("selector", [
        "selector = rayleigh\nconstraint = ar",
        "selector = nonparametric\nconstraint = pcr\nxi = 0.1",
        "selector = powerlaw-nonasym\nbeta = 0.05\nconstraint = pcr\nxi = 0.1"],
        ids=["mean", "order-statistic", "tail"])
    @pytest.mark.parametrize("model", ["rician\nk = 3", "nakagami\nm = 2"])
    def test_csv_bytes_identical_across_reruns_and_workers(self, monkeypatch, tmp_path,
                                                           model, selector):
        # the tail (l = 50 and 100) spans two and three blocks; in this process
        # sweep must not configure the root logger
        monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: None)
        outputs = []
        for tag, workers in zip("abc", (1, 1, 2)):
            out = tmp_path / f"out_{tag}.csv"
            cfg = write_sweep_config(
                tmp_path / f"cfg_{tag}.txt", out,
                drop=("model", "selector", "constraint", "n", "trials", "axis_values"),
                extra=f"model = {model}\n{selector}\nn = 1000\ntrials = 1500\n"
                      f"axis_values = 1000, 2000\nworkers = {workers}\n")
            assert main(["sweep", cfg]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_huge_scale_mean_stays_finite(self, tmp_path):
        # lam = 1e308 at n = 100: lam * (S / n) stays below the float maximum
        out = tmp_path / "x.csv"
        cfg = write_sweep_config(
            tmp_path / "cfg.txt", out, drop=("lam", "n", "axis_values"),
            extra="lam = 1e308\nn = 100\naxis_values = 100\n")
        res = run_cli("sweep", cfg)
        assert res.returncode == 0, res.stderr
        assert "RuntimeWarning" not in res.stderr
        (row,) = csv.DictReader(out.open())
        del row["axis_name"]
        assert all(math.isfinite(float(v)) for v in row.values())

    def test_level_rounding_to_one_has_no_rate(self, tmp_path):
        out = tmp_path / "x.csv"
        cfg = write_sweep_config(tmp_path / "cfg.txt", out, drop=("eps", "n", "axis_values"),
                                 extra="eps = 0.999999\nn = 1\naxis_values = 1\n")
        res = run_cli("sweep", cfg)
        assert res.returncode == 3, res.stderr
        assert "eps_n=1.0" in res.stderr and "eps=0.999999" in res.stderr
        assert not out.exists()

    def test_draws_underflowing_to_zero_are_insufficient_tail_data(self, tmp_path):
        # lam = 1e-320 is a valid scale, but its smallest draws are 0
        out = tmp_path / "x.csv"
        cfg = write_sweep_config(
            tmp_path / "cfg.txt", out, drop=("lam", "selector", "n", "axis_values"),
            extra="lam = 1e-320\nselector = powerlaw-asym\nbeta = 0.05\n"
                  "n = 10000\naxis_values = 10000\n")
        res = run_cli("sweep", cfg)
        assert res.returncode == 3, res.stderr
        assert re.search(r"\d+ of the l=500 smallest of n=10000 values are 0", res.stderr)
        assert not out.exists()

    @pytest.mark.parametrize("beta,n,l", [(5e-324, 1, 0), (0.5, 2, 1)])
    def test_powerlaw_tail_narrower_than_two_fails_as_rate_does(self, tmp_path, beta, n, l):
        # ceil(beta n) = 0 (a subnormal beta) or 1: no tail to fit, not the
        # nonparametric zero-rate regime, so sweep exits 3 as rate does
        message = f"tail fit needs ceil(beta*n) >= 2 values, got l={l} (n={n})"
        sample = tmp_path / "s.txt"
        sample.write_text("".join(f"{1.0 + i}\n" for i in range(n)))
        res = run_cli("rate", "--selector", "powerlaw-asym", "--constraint", "ar",
                      "--eps", "0.5", "--beta", repr(beta), "--sample", str(sample))
        assert (res.returncode, res.stderr) == (3, f"no solution: {message}\n")
        out = tmp_path / "x.csv"
        cfg = write_sweep_config(
            tmp_path / "cfg.txt", out, drop=("selector", "eps", "n", "axis_values"),
            extra=f"selector = powerlaw-asym\neps = 0.5\nbeta = {beta!r}\n"
                  f"n = {n}\naxis_values = {n}\n")
        res = run_cli("sweep", cfg)
        assert res.returncode == 3, res.stderr
        assert res.stderr.endswith(f"no solution: {message}\n")
        assert not out.exists()


def mp_log_mgf(k, m, t):
    """log E[e^(t Y)], t < 1, of the noncentral gamma law (k, m) at unit scale."""
    return -m * mpmath.log(1 - t) + k * t / (1 - t)


def mp_log_min(f, hi, points=400):
    """The least f(s) on a log-spaced grid of (1e-9 hi, hi): where each f(s)
    bounds a log-probability, so does the least."""
    return min(f(hi * mpmath.mpf(10) ** (-9 * i / points)) for i in range(1, points))


class TestMismatch:
    def test_k_sweep_signs(self, tmp_path):
        out = tmp_path / "mk.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\n"
            "param_values = 0, 1, 3\n"
            "selectors = rayleigh-ar\n"
            "eps = 1e-4\n"
            "n = 100\n"
            f"output = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 0
        content = out.read_text().splitlines()
        assert content[0] == GOLDEN_MISMATCH_HEADER
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        by_k = {float(r["param_value"]): r for r in rows}
        assert float(by_k[0.0]["mean_outage_numeric"]) == pytest.approx(1e-4, abs=1e-9)
        for k in (1.0, 3.0):
            assert float(by_k[k]["mean_outage_numeric"]) < 1e-4

    def test_m_sweep_optimism(self, tmp_path):
        out = tmp_path / "mm.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = m\n"
            "param_values = 0.5, 0.7\n"
            "selectors = rayleigh-ar\n"
            "eps = 1e-4\n"
            "n = 100\n"
            f"output = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 0
        for row in csv.DictReader(out.open()):
            assert float(row["mean_outage_numeric"]) > 1e-4

    def test_powerlaw_selectors_are_rejected(self, tmp_path):
        # a power-law design under a mismatched truth is a sweep along k or m
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        for selector in ("powerlaw-asym-ar", "powerlaw-asym-pcr"):
            cfg.write_text(
                "param = k\n"
                "param_values = 1\n"
                f"selectors = rayleigh-ar, {selector}\n"
                "eps = 1e-2\n"
                "n = 1000\n"
                f"output = {out}\n")
            res = run_cli("mismatch", str(cfg))
            assert res.returncode == 2
            assert res.stderr == (
                "config error: key 'selectors': expected one of rayleigh-ar, "
                f"rayleigh-pcr, got {selector!r}\n")
            assert not out.exists()

    def test_pcr_selector_requires_xi(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\n"
            "param_values = 1\n"
            "selectors = rayleigh-pcr\n"
            "eps = 1e-4\n"
            "n = 100\n"
            f"output = {tmp_path / 'x.csv'}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 2
        assert "xi" in res.stderr

    @pytest.mark.parametrize("extra", ["beta = 0.05", "trials = 10", "seed = 3"])
    def test_monte_carlo_keys_are_unknown(self, tmp_path, extra):
        # the table simulates nothing, so it has no tail fraction, trials or seed
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\n"
            "param_values = 1\n"
            "selectors = rayleigh-ar\n"
            "eps = 1e-4\n"
            "n = 100\n"
            f"{extra}\n"
            f"output = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 2
        assert res.stderr == f"config error: unknown keys: {extra.split()[0]}\n"
        assert not out.exists()

    def test_non_finite_model_parameter_is_usage_error(self, tmp_path):
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\n"
            "param_values = 1, nan\n"
            "selectors = rayleigh-ar\n"
            "eps = 1e-3\n"
            "n = 100\n"
            f"output = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 2
        assert "k must be finite" in res.stderr
        assert not out.exists()

    def test_poisson_mean_beyond_exact_k_is_usage_error(self, tmp_path):
        # n k = 1e22: the Rician Poisson sum cannot step in doubles there
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\n"
            "param_values = 1e20\n"
            "selectors = rayleigh-ar\n"
            "eps = 1e-4\n"
            "n = 100\n"
            f"output = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 2
        assert "Poisson mean must be below 2^52" in res.stderr
        assert not out.exists()

    def test_rician_k_beyond_scipy_range_is_usage_error(self, tmp_path):
        # scipy's Rician quantile is nan at k = 1e11; the error must name k
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\n"
            "param_values = 1e11\n"
            "selectors = rayleigh-ar\n"
            "eps = 1e-4\n"
            "n = 1\n"
            f"output = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 2
        assert "k=100000000000.0, lam=1.0" in res.stderr
        assert "x=nan" not in res.stderr
        assert not out.exists()

    def test_rician_k_where_ncfdtr_gives_nan_is_usage_error(self, tmp_path):
        # scipy's ncfdtr gives nan inside the mean outage's Poisson mixture here
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\n"
            "param_values = 700\n"
            "selectors = rayleigh-ar\n"
            "eps = 1e-3\n"
            "n = 100\n"
            f"output = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 2
        assert res.stderr.startswith("invalid arguments: ") and "k=700.0" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("param,value,k,m", [("m", "200", 0, 200), ("k", "1e3", 1000, 1)])
    def test_tables_where_alpha_at_unit_scale_is_zero(self, tmp_path, param, value, k, m):
        # alpha = exp(-k) / Gamma(m + 1) rounds to 0 here; formed in logs, every
        # column is written and equals its mpmath oracle, which is below the
        # smallest double in each cell, so each is 0. The weak-n oracle is its
        # formula; the others are Chernoff bounds min_s E[e^(s Z)] of their
        # events {Z >= 0}, read on a grid of s, so each is an upper bound
        eps, xi, n = 1e-3, 1e-2, 100
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"param = {param}\nparam_values = {value}\n"
            "selectors = rayleigh-ar, rayleigh-pcr\n"
            f"eps = {eps}\nxi = {xi}\nn = {n}\noutput = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 0, res.stderr
        rows = list(csv.DictReader(out.open()))
        assert [row["selector"] for row in rows] == ["rayleigh-ar", "rayleigh-pcr"]
        for row, eps_n in zip(rows, (epsn_rayleigh_ar(eps, n), epsn_rayleigh_pcr(eps, xi, n))):
            with mpmath.workdps(40):
                g = -mpmath.log1p(-mpmath.mpf(eps_n))
                log_alpha = -k - mpmath.loggamma(m + 1)
                # the exact threshold n F^-1(eps)/g is at least n y0/g, as F(y0) <= eps
                y0 = mpmath.mpf(m + k) / 2
                assert mp_log_min(lambda s: mp_log_mgf(k, m, -s) + s * y0, 1e6) < math.log(eps)
                # the tilt's threshold (eps/alpha)^(1/m)/g at unit scale
                thr = mpmath.exp((math.log(eps) - log_alpha) / m) / g
                log_oracle = {
                    # P[g S/n - Y >= 0], S the training sum of n powers Y
                    "mean_outage_numeric": mp_log_min(
                        lambda s: mp_log_mgf(n * k, n * m, s * g / n) + mp_log_mgf(k, m, -s),
                        n / g),
                    "mean_outage_approx": log_alpha + m * mpmath.log(eps * (m + k)),
                    "meta_prob_numeric": mp_log_min(
                        lambda t: mp_log_mgf(n * k, n * m, t) - t * n * y0 / g, 1),
                    "meta_prob_chernoff": mp_log_min(
                        lambda t: n * (mp_log_mgf(k, m, t) - t * thr), 1),
                }
            for col, log_value in log_oracle.items():
                # below half the smallest subnormal, which rounds to 0
                assert log_value < math.log(math.ulp(0.0)) - math.log(2.0), (col, log_value)
                assert row[col] == "0.00000000000e+00", (col, row[col])

    def test_rician_k800_writes_the_approximations(self, tmp_path):
        # exp(-800) is 0, so alpha is no double; the approximation columns,
        # formed in logs, are written (the weak-n value and the bound round to 0)
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\nparam_values = 800\n"
            "selectors = rayleigh-ar, rayleigh-pcr\neps = 1e-3\nxi = 1e-2\n"
            f"n = 100\noutput = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 0, res.stderr
        rows = list(csv.DictReader(out.open()))
        assert [row["selector"] for row in rows] == ["rayleigh-ar", "rayleigh-pcr"]
        assert {row[col] for row in rows for col in MISMATCH_HEADER[3:]} == {
            "0.00000000000e+00"}

    def test_lam_key_is_rejected(self, tmp_path):
        # every column is a function of the law (k, m) alone, so a scale would
        # change nothing the table says
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\nparam_values = 0, 1, 10\nlam = 2.0\n"
            "selectors = rayleigh-ar, rayleigh-pcr\neps = 1e-3\nxi = 1e-2\n"
            f"n = 100\noutput = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 2
        assert res.stderr == "config error: unknown keys: lam\n"
        assert not out.exists()

    def test_rician_k100_chernoff_column(self, tmp_path):
        # the tilt once rounded 1 - lam t* to 0 here (ZeroDivisionError)
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\n"
            "param_values = 100\n"
            "selectors = rayleigh-ar, rayleigh-pcr\n"
            "eps = 1e-3\n"
            "xi = 1e-2\n"
            "n = 100\n"
            f"output = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 0, res.stderr
        rows = list(csv.DictReader(out.open()))
        assert [float(r["meta_prob_chernoff"]) for r in rows] == [0.0, 0.0]

    def test_chernoff_column_where_eps_power_underflows(self, tmp_path):
        # eps^(1/m) = 1e-400 underflows before the division by g, about 1e-200,
        # and the tilt once raised "degenerate tilt equation (ratio 0.0 ...)"
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = m\n"
            "param_values = 0.5\n"
            "selectors = rayleigh-ar, rayleigh-pcr\n"
            "eps = 1e-200\n"
            "xi = 1e-2\n"
            "n = 100\n"
            f"output = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 0, res.stderr
        assert "RuntimeWarning: optimal tilt is non-positive" in res.stderr
        rows = list(csv.DictReader(out.open()))
        assert [float(r["meta_prob_chernoff"]) for r in rows] == [1.0, 1.0]

    def test_each_degenerate_tilt_row_warns_with_its_law(self, tmp_path):
        # at n = 1 the AR threshold sits below the mean at m = 0.5 and 1, so
        # both rows degenerate; the warning once printed one line for both
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = m\n"
            "param_values = 0.5, 1\n"
            "selectors = rayleigh-ar\n"
            "eps = 1e-3\n"
            "n = 1\n"
            f"output = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 0, res.stderr
        warned = re.findall(r"RuntimeWarning: optimal tilt is non-positive .* at "
                            r"k=(\S+), m=(\S+), eps_n=(\S+), n=(\d+);", res.stderr)
        eps_n = repr(epsn_rayleigh_ar(1e-3, 1))
        assert warned == [("0.0", "0.5", eps_n, "1"), ("0.0", "1.0", eps_n, "1")]
        rows = list(csv.DictReader(out.open()))
        assert [float(r["meta_prob_chernoff"]) for r in rows] == [1.0, 1.0]

    def test_nakagami_tiny_eps(self, tmp_path):
        # the Nakagami quantile at eps = 1e-30 used to end in a traceback
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = m\n"
            "param_values = 2.0\n"
            "selectors = rayleigh-ar\n"
            "eps = 1e-30\n"
            "n = 100\n"
            f"output = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 0, res.stderr
        row, = csv.DictReader(out.open())
        assert float(row["meta_prob_numeric"]) == 0.0
        assert 0.0 < float(row["mean_outage_numeric"]) < 1e-30

    def test_weak_n_column_where_its_power_overflows(self, tmp_path):
        # (eps m)^m passes the largest double at m = 170, eps = 0.7369, while
        # alpha (eps m)^m = (eps m)^m / Gamma(m + 1) is about 6e49; at m = 1000,
        # eps = 0.99 the product itself is past it
        with mpmath.workdps(40):
            finite = float((mpmath.mpf(0.7369) * 170) ** 170 / mpmath.factorial(170))
        for m, eps, xi, want in ((170, 0.7369, 1.2e-7, finite), (1000, 0.99, 0.1, math.inf)):
            out = tmp_path / "x.csv"
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(
                "param = m\n"
                f"param_values = {m}\n"
                "selectors = rayleigh-ar, rayleigh-pcr\n"
                f"eps = {eps}\n"
                f"xi = {xi}\n"
                "n = 1000\n"
                f"output = {out}\n")
            res = run_cli("mismatch", str(cfg))
            assert res.returncode == 0, res.stderr
            rows = list(csv.DictReader(out.open()))
            assert len(rows) == 2
            # the column prints 12 digits; the value is within 2e-14 of the oracle
            assert [row["mean_outage_approx"] for row in rows] == [f"{want:.11e}"] * 2

    @pytest.mark.parametrize("selector,xi", [("rayleigh-ar", None), ("rayleigh-pcr", "0.9")])
    def test_rayleigh_level_rounding_to_one_has_no_rate(self, tmp_path, capsys, selector, xi):
        # eps_n rounds to 1 at eps = 0.999999, n = 1, as in rate and sweep
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\n"
            "param_values = 1\n"
            f"selectors = {selector}\n"
            "eps = 0.999999\n"
            + ("" if xi is None else f"xi = {xi}\n") +
            "n = 1\n"
            f"output = {out}\n")
        assert main(["mismatch", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("no solution: quantile level eps_n=1.0 is not below 1")
        given = "eps=0.999999, " + ("" if xi is None else f"xi={xi}, ") + "n=1"
        assert f"({given})" in err
        assert not out.exists()

    def test_unknown_selector(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\n"
            "param_values = 1\n"
            "selectors = oracle\n"
            "eps = 1e-4\n"
            "n = 100\n"
            f"output = {tmp_path / 'x.csv'}\n")
        assert run_cli("mismatch", str(cfg)).returncode == 2


_MISMATCH_BASE = {"param": "k", "param_values": "1", "selectors": "rayleigh-ar",
                  "eps": "1e-2", "n": "100"}


class TestConfigKeyCombinations:
    """A key is given exactly when what it configures is used: k with the
    rician model, m with the nakagami model, xi with a pcr-designed selector."""

    @pytest.mark.parametrize("command,keys,fault,decider", [
        ("sweep", {"k": "1"}, "k", "model"),
        ("sweep", {"m": "2"}, "m", "model"),
        ("sweep", {"model": "rician", "k": "1", "m": "2"}, "m", "model"),
        ("sweep", {"model": "rician"}, "k", "model"),
        ("sweep", {"model": "nakagami"}, "m", "model"),
        ("sweep", {"model": "nakagami", "m": "2", "k": "1"}, "k", "model"),
        ("mismatch", {"selectors": "rayleigh-ar, rayleigh-pcr"}, "xi", "selectors"),
        ("mismatch", {"xi": "0.1"}, "xi", "selectors"),
    ])
    def test_key_combination_rejected(self, tmp_path, command, keys, fault, decider):
        out, cfg = tmp_path / "o.csv", tmp_path / "c.txt"
        if command == "sweep":
            write_sweep_config(cfg, out, drop=("model",), extra="".join(
                f"{key} = {value}\n" for key, value in {"model": "rayleigh", **keys}.items()))
        else:
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in
                                   {**_MISMATCH_BASE, **keys, "output": out}.items()))
        res = run_cli(command, str(cfg))
        assert res.returncode == 2
        assert res.stderr.startswith("config error: "), res.stderr
        for name in (fault, decider):
            assert re.search(rf"(?<![\w-]){name}\b", res.stderr), (name, res.stderr)
        assert not out.exists()


_BIG_N = "1" + "0" * 400  # an exact integer past the largest double


def _past_double_config(tmp_path, command, **keys):
    """A sweep or mismatch config with keys replaced, and its output path."""
    out, cfg = tmp_path / f"{command}.csv", tmp_path / f"{command}.txt"
    if command == "sweep":
        write_sweep_config(cfg, out, drop=keys, extra="".join(
            f"{key} = {value}\n" for key, value in keys.items()))
    else:
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in
                               {**_MISMATCH_BASE, **keys, "output": out}.items()))
    return str(cfg), out


class TestPastDoubleRange:
    """A log Gamma or an integer n past the largest double ends in a value or
    an exit 2 that names its argument, never in a traceback."""

    def test_epsn_at_n_1e306_prints_a_level(self):
        res = run_cli("epsn", "--family", "rayleigh", "--constraint", "pcr",
                      "--eps", "1e-3", "--xi", "1e-2", "--n", "1e306")
        assert res.returncode == 0, res.stderr
        assert 0.0 < float(res.stdout) < 1.0

    @pytest.mark.parametrize("command,keys", [
        ("sweep", {"model": "nakagami", "m": "1e306", "selector": "nonparametric"}),
        ("mismatch", {"param": "m", "param_values": "1e306", "n": "1"})])
    def test_nakagami_m_1e306_names_m(self, tmp_path, command, keys):
        cfg, out = _past_double_config(tmp_path, command, **keys)
        res = run_cli(command, cfg)
        assert res.returncode == 2
        assert res.stderr.startswith("invalid arguments: m must be "), res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("family", cli._EPSN_FAMILIES)
    def test_epsn_n_past_double_names_n(self, family):
        beta = [] if family == "rayleigh" else ["--beta", "0.1"]
        res = run_cli("epsn", "--family", family, "--constraint", "pcr", "--eps", "1e-3",
                      "--xi", "1e-2", *beta, "--n", _BIG_N)
        assert res.returncode == 2
        assert res.stderr.startswith("invalid arguments: n must be at most the largest double")

    @pytest.mark.parametrize("command,keys", [
        ("sweep", {"n": _BIG_N, "axis": "epsilon", "axis_values": "1e-2"}),
        ("mismatch", {"n": _BIG_N})])
    def test_config_n_past_double_names_n(self, tmp_path, command, keys):
        cfg, out = _past_double_config(tmp_path, command, **keys)
        res = run_cli(command, cfg)
        assert res.returncode == 2
        assert res.stderr.startswith("invalid arguments: n must be at most the largest double")
        assert not out.exists()


class TestMismatchExitContract:
    @settings(deadline=None, max_examples=60)
    @given(law=st.tuples(st.just("k"), st.floats(0.0, 1e4))
           | st.tuples(st.just("m"), st.floats(0.5, 1e3)),
           eps=st.floats(1e-8, 0.99), xi=st.floats(1e-8, 0.5),
           n=st.sampled_from([1, 10, 1000, 10**4]))
    # a log Gamma(m + 1) and an integer n past the largest double once raised
    # OverflowError
    @example(law=("m", 1e306), eps=1e-2, xi=1e-2, n=1)
    @example(law=("k", 1.0), eps=1e-2, xi=1e-2, n=10**400)
    def test_exit_code_in_contract(self, tmp_path_factory, law, eps, xi, n):
        param, value = law
        base = tmp_path_factory.getbasetemp()
        cfg = base / "mismatch_contract.cfg"
        cfg.write_text(
            f"param = {param}\n"
            f"param_values = {value!r}\n"
            "selectors = rayleigh-ar, rayleigh-pcr\n"
            f"eps = {eps!r}\n"
            f"xi = {xi!r}\n"
            f"n = {n}\n"
            f"output = {base / 'mismatch_contract.csv'}\n")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["mismatch", str(cfg)])
        assert code in (0, 2, 3)
        # the tilt's own degenerate-bound warnings only, none from numpy
        assert [str(w.message) for w in caught if "encountered" in str(w.message)] == []
        assert_names_fault(code, err.getvalue(), {
            "param": param, "param_values": value, param: value, "selectors": "",
            "eps": eps, "xi": xi, "n": n, "output": ""})


class TestSweepExitContract:
    # k = param, m = 0.5 + param: chndtrix time grows as sqrt(k), so k stays
    # at most 1e3 and a tail at most l = 100 values of 50 trials
    @settings(deadline=None, max_examples=100)
    @given(model=st.sampled_from(["rayleigh", "rician", "nakagami"]),
           param=st.floats(0.0, 1e3), lam=st.sampled_from([1e-320, 1.0, 1.7e308])
           | st.floats(-320.0, 308.23).map(lambda e: 10.0 ** e),
           selector=st.sampled_from(FAMILIES), constraint=st.sampled_from(["ar", "pcr"]),
           eps=st.floats(1e-8, 0.99), xi=st.floats(1e-8, 0.99), beta=st.floats(1e-3, 0.1),
           n=st.integers(1, 1000), trials=st.integers(1, 50))
    # a Rician CDF past y = 2^1023 once overflowed to 1 with a numpy warning
    @example(model="rician", param=0.0, lam=1.7e308, selector="nonparametric",
             constraint="ar", eps=0.5, xi=0.1, beta=0.1, n=100, trials=50)
    # a tail of l = 1 (exit 3) once gave neither beta nor n, and an AR target
    # for the non-asymptotic family (exit 2) named no key
    @example(model="rayleigh", param=0.0, lam=1.0, selector="powerlaw-nonasym",
             constraint="pcr", eps=0.5, xi=0.5, beta=0.0625, n=1, trials=1)
    @example(model="rayleigh", param=0.0, lam=1.0, selector="powerlaw-nonasym",
             constraint="ar", eps=0.5, xi=0.5, beta=0.0625, n=1, trials=1)
    # a Nakagami m = 1e306, whose log Gamma(m + 1) overflows, once raised
    # OverflowError; an integer n past the largest double is rejected as given
    @example(model="nakagami", param=1e306, lam=1.0, selector="nonparametric",
             constraint="ar", eps=1e-2, xi=0.1, beta=0.1, n=100, trials=5)
    @example(model="rayleigh", param=0.0, lam=1.0, selector="rayleigh",
             constraint="ar", eps=1e-2, xi=0.1, beta=0.1, n=10**400, trials=5)
    def test_exit_code_in_contract(self, tmp_path_factory, model, param, lam, selector,
                                   constraint, eps, xi, beta, n, trials):
        base = tmp_path_factory.getbasetemp()
        cfg = base / "sweep_contract.cfg"
        law = {"rician": f"k = {param!r}\n", "nakagami": f"m = {0.5 + param!r}\n"}
        cfg.write_text(
            f"model = {model}\n{law.get(model, '')}lam = {lam!r}\n"
            f"selector = {selector}\nconstraint = {constraint}\neps = {eps!r}\n"
            + (f"xi = {xi!r}\n" if constraint == "pcr" else "")
            + (f"beta = {beta!r}\n" if "powerlaw" in selector else "")
            + f"n = {n}\ntrials = {trials}\nseed = 5\naxis = n\naxis_values = {n}\n"
            f"workers = 1\noutput = {base / 'sweep_contract.csv'}\n")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["sweep", str(cfg)])
        assert code in (0, 2, 3, 4)
        assert [str(w.message) for w in caught if "encountered" in str(w.message)] == []
        given = {"model": model, "lam": lam, "selector": selector, "constraint": constraint,
                 "eps": eps, "n": n, "trials": trials, "seed": 5, "axis": "n",
                 "axis_values": n, "workers": 1, "output": ""}
        given.update({"rician": {"k": param}, "nakagami": {"m": 0.5 + param}}.get(model, {}))
        given.update({"xi": xi} if constraint == "pcr" else {})
        given.update({"beta": beta} if "powerlaw" in selector else {})
        assert_names_fault(code, err.getvalue(), given)


_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_sample_values = st.sampled_from(
    [0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e308, 1.7976931348623157e308]) | st.floats(
    0.0, 1.7976931348623157e308)
# ties come from the sampled values, and a single value from a one-value list
_samples = st.lists(_sample_values, min_size=1, max_size=300) | st.tuples(
    _sample_values, st.integers(1, 2000)).map(lambda vc: [vc[0]] * vc[1])


def assert_names_fault(code, err, given):
    """An exit 2 names a flag or config key that was given, and an exit 3
    one of the given values it could not meet, as name=value; given maps
    each name to its value as parsed."""
    if code == 2:
        assert any(re.search(rf"(?<![\w-]){re.escape(name)}\b", err) for name in given), err
    if code == 3:
        assert any(f"{name}={value}" in err for name, value in given.items()), err


def _main_in_contract(argv, constraint, xi, beta, **given):
    """main(argv + the flags the target and family take) in-process: the
    exit code is in the contract, no numpy warning escapes, stdout is never
    inf or nan and an exit 2 or 3 names its fault (assert_names_fault, with
    the flags and given). TestFlagCombinations covers the other flag sets."""
    argv += ["--constraint", constraint] + (["--xi", repr(xi)] if constraint == "pcr" else [])
    argv += ["--beta", repr(beta)] if "powerlaw" in argv[2] else []
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert [str(w.message) for w in caught if "encountered" in str(w.message)] == []
    flags = {flag[2:]: value for flag, value in zip(argv[1::2], argv[2::2])}
    for name in ("eps", "xi", "beta"):
        if name in flags:
            flags[name] = float(flags[name])
    assert_names_fault(code, err.getvalue(), {**flags, **given})
    stdout = out.getvalue().strip()
    assert stdout.lower().lstrip("+-") not in ("inf", "nan"), argv
    if code == 0:
        assert math.isfinite(float(stdout)), argv


class TestEpsnRateExitContract:
    @settings(deadline=None, max_examples=150)
    @given(family=st.sampled_from(cli._EPSN_FAMILIES), constraint=st.sampled_from(["ar", "pcr"]),
           eps=st.floats(1e-300, 1.0 - 1e-16), xi=_unit, beta=_unit,
           n=st.integers(1, 10**18) | st.sampled_from([1, 2, 10**18]))
    # the two faults test_exit_code_in_contract of sweep found, in epsn
    @example(family="powerlaw-nonasym", constraint="pcr", eps=0.5, xi=0.5, beta=0.5, n=1)
    @example(family="powerlaw-nonasym", constraint="ar", eps=0.5, xi=0.5, beta=0.5, n=1)
    # a shape whose log Gamma overflows, and an n past the largest double, once
    # raised OverflowError
    @example(family="rayleigh", constraint="pcr", eps=1e-3, xi=1e-2, beta=0.5, n=int(1e306))
    @example(family="powerlaw-asym", constraint="pcr", eps=1e-3, xi=1e-2, beta=0.1, n=10**400)
    def test_epsn(self, family, constraint, eps, xi, beta, n):
        _main_in_contract(["epsn", "--family", family, "--eps", repr(eps), "--n", str(n)],
                          constraint, xi, beta)

    @settings(deadline=None, max_examples=150)
    @given(selector=st.sampled_from(FAMILIES), constraint=st.sampled_from(["ar", "pcr"]),
           eps=st.floats(1e-300, 1.0 - 1e-16), xi=_unit, beta=_unit, values=_samples)
    @example(selector="powerlaw-nonasym", constraint="pcr", eps=0.5, xi=0.5, beta=0.5,
             values=[0.0])
    # a tail of identical values (exit 3) once gave neither l nor n
    @example(selector="powerlaw-asym", constraint="ar", eps=0.5, xi=0.5, beta=0.5,
             values=[5e-324] * 3)
    @example(selector="powerlaw-nonasym", constraint="ar", eps=0.5, xi=0.5, beta=0.5,
             values=[0.0])
    def test_rate(self, tmp_path_factory, selector, constraint, eps, xi, beta, values):
        p = tmp_path_factory.getbasetemp() / "rate_contract.txt"
        p.write_text("".join(f"{v!r}\n" for v in values))
        _main_in_contract(["rate", "--selector", selector, "--eps", repr(eps),
                           "--sample", str(p)], constraint, xi, beta, n=len(values))


# config text: no line breaks, no control characters
_CFG_CHARS = st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"),
                           blacklist_characters="#=")
_cfg_tokens = st.text(_CFG_CHARS, min_size=1).map(str.strip).filter(bool)
_cfg_values = st.lists(st.sampled_from(["=", ""]) | _cfg_tokens, min_size=1).map(
    "".join).map(str.strip).filter(bool)
_noise_lines = st.lists(st.sampled_from(["", "   ", "# note", "  # k = v"]))


class TestParseKvFile:
    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        p = tmp_path / "kv.txt"
        p.write_text("\ufeffparam = k\nn = 100\n", encoding="utf-8")
        assert _parse_kv_file(str(p)) == {"param": "k", "n": "100"}


class TestParseKvFileProperties:
    @settings(deadline=None)
    @given(entries=st.dictionaries(_cfg_tokens, _cfg_values, max_size=8),
           noise=_noise_lines, data=st.data())
    def test_round_trip(self, tmp_path_factory, entries, noise, data):
        lines = [f"{k} = {v}" for k, v in entries.items()]
        for extra in noise:
            lines.insert(data.draw(st.integers(0, len(lines))), extra)
        p = tmp_path_factory.getbasetemp() / "kv.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert _parse_kv_file(str(p)) == entries

    @settings(deadline=None)
    @given(entries=st.dictionaries(_cfg_tokens, _cfg_values, min_size=1, max_size=8),
           bad_line=_cfg_tokens, data=st.data())
    def test_duplicate_key_or_missing_equals_rejected(self, tmp_path_factory, entries,
                                                      bad_line, data):
        lines = [f"{k} = {v}" for k, v in entries.items()]
        key = data.draw(st.sampled_from(sorted(entries)))
        at = data.draw(st.integers(0, len(lines)))
        bad = data.draw(st.sampled_from([f"{key} = again", bad_line]))
        if bad != bad_line:
            # a repeat is reported where it occurs, after the first use
            at = max(at, lines.index(f"{key} = {entries[key]}") + 1)
        lines.insert(at, bad)
        p = tmp_path_factory.getbasetemp() / "kv_bad.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f":{at + 1}:"):
            _parse_kv_file(str(p))


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_keys(label):
    """The backquoted keys of the README's `<label> keys:` list, up to `output`."""
    text = " ".join(README.read_text().split())
    listing = text.split(f"{label} keys: ", 1)[1].split("`output`.", 1)[0] + "`output`"
    return re.findall(r"`(\w+)`", listing)


def readme_section(heading):
    """The README's text under `heading`, up to the next heading."""
    return re.split(r"^#+ ", README.read_text().split(f"\n{heading}\n", 1)[1], flags=re.M)[0]


def collected_tests(path):
    """The names pytest collects from a test file, read with ast: each
    module-level `test*` function, `Test*` class and `Test*::test*` method."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            names.add(node.name)
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef) and item.name.startswith("test"))
    return names


def library_tag_faults(text):
    """The bullets of `text` that end in no `[test_<file>::<name>]` tag, and
    the tags that name no test collected from tests/test_<file>.py."""
    bullets = re.findall(r"^- (.*(?:\n  .*)*)", text, re.M)
    untagged = [b for b in bullets if not re.search(r"\[test_\w+(::\w+)+\]$", b)]
    unknown = []
    for tag in re.findall(r"\[(test_\w+(?:::\w+)+)\]", text):
        module, name = tag.split("::", 1)
        path = README.parent / "tests" / f"{module}.py"
        if not (path.is_file() and name in collected_tests(path)):
            unknown.append(tag)
    return untagged, unknown


class TestReadmeContract:
    def test_library_claims_name_collected_tests(self):
        text = README.read_text().split("\n## Library\n", 1)[1].split("\n## Command line\n")[0]
        assert library_tag_faults(text) == ([], [])
        # an untagged bullet, and tags naming no class, method or file, are faults
        faults = library_tag_faults(
            "- tagged [test_cli::TestReadmeContract] [test_cli::TestRate::test_parse_error_reports_line]\n"
            "- untagged,\n  over two lines\n"
            "- [test_cli::TestNoSuchClass] [test_cli::TestRate::test_no_such_method]\n"
            "- [test_no_such_file::test_x] [test_cli::collected_tests]\n")
        assert faults == (["untagged,\n  over two lines"],
                          ["test_cli::TestNoSuchClass", "test_cli::TestRate::test_no_such_method",
                           "test_no_such_file::test_x", "test_cli::collected_tests"])

    def test_exit_codes(self, tmp_path, mean_one_file, capsys):
        listed = re.findall(r"^- `(\d+)` - ", readme_section("### Exit codes"), re.M)
        epsn = ["epsn", "--family", "rayleigh", "--constraint", "ar", "--n", "10", "--eps"]
        rate = ["rate", "--selector", "powerlaw-asym", "--constraint", "ar", "--eps", "1e-3",
                "--beta", "0.01", "--sample"]
        examples = {
            0: epsn + ["1e-3"],
            2: epsn + ["2"],
            3: rate + [mean_one_file],  # a tail of l = 1 value: too short to fit
            4: rate + [str(tmp_path / "missing.txt")],
        }
        assert sorted(int(code) for code in listed) == sorted(examples)
        for code, argv in examples.items():
            assert main(argv) == code, capsys.readouterr().err

    def test_example_command_lines(self, tmp_path):
        lines = [line for line in readme_section("## Command line").splitlines()
                 if line.startswith("statrate ")]
        assert [line.split()[1] for line in lines] == ["epsn", "rate", "sweep", "mismatch"]
        (tmp_path / "gains.txt").write_text("".join(f"{0.01 * i}\n" for i in range(1, 201)))
        write_sweep_config(tmp_path / "sweep.cfg", "sweep.csv")
        (tmp_path / "mismatch.cfg").write_text(
            "param = k\nparam_values = 0, 1\nselectors = rayleigh-ar\n"
            "eps = 1e-3\nn = 100\noutput = mismatch.csv\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = []
        for line in lines:
            res = subprocess.run([sys.executable, "-m", *shlex.split(line)], cwd=tmp_path,
                                 env=env, capture_output=True, text=True)
            assert res.returncode == 0, (line, res.stderr)
            out.append(res.stdout)
        # rate: l = floor(eps (n + 1)) = 2, the 2nd smallest gain is 0.02, log2(1.02)
        assert out[:2] == ["8.01859052505e-04\n", "2.85691521968e-02\n"]
        assert out[2:] == ["wrote 2 rows to sweep.csv\n", "wrote 2 rows to mismatch.csv\n"]
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3
        assert len((tmp_path / "mismatch.csv").read_text().splitlines()) == 3

    def test_powerlaw_mismatch_sweep(self, monkeypatch, tmp_path):
        # the README's sweep of a power-law design along a Rician k: point i's
        # mean outage and meta-probability are evaluate's at axis_index i
        from statrate.channels import Rician
        from statrate.evalmc import EvalConfig, evaluate
        from statrate.rateselect import ReliabilityTarget, SelectorSpec

        block, = (b for b in re.findall(r"^```\n(.*?)^```", readme_section("### Config files"),
                                        re.S | re.M) if "selector = powerlaw-asym" in b)
        (tmp_path / "sweep.cfg").write_text(block)
        monkeypatch.chdir(tmp_path)
        assert run_cli("sweep", "sweep.cfg").returncode == 0
        keys = _parse_kv_file("sweep.cfg")
        assert (keys["model"], keys["axis"]) == ("rician", "k")
        rows = list(csv.DictReader((tmp_path / keys["output"]).open()))
        values = [float(v) for v in keys["axis_values"].split(",")]
        assert len(rows) == len(values) > 1
        for i, (value, row) in enumerate(zip(values, rows)):
            report = evaluate(EvalConfig(
                Rician(1.0, value), SelectorSpec(keys["selector"], beta=float(keys["beta"])),
                ReliabilityTarget(float(keys["eps"]), keys["constraint"], float(keys["xi"])),
                int(keys["n"]), int(keys["trials"]), int(keys["seed"])), axis_index=i)
            assert row["mean_outage"] == cli._fmt(report.mean_outage.value)
            assert row["meta_prob"] == cli._fmt(report.meta_prob.value)

    def test_csv_headers(self):
        blocks = re.findall(r"^```\w*\n(.*?)^```", README.read_text(), re.S | re.M)
        headers = {b.split(",", 1)[0]: "".join(b.split()) for b in blocks}
        assert headers["axis_name"] == ",".join(SWEEP_HEADER) == GOLDEN_SWEEP_HEADER
        assert headers["param_name"] == ",".join(MISMATCH_HEADER) == GOLDEN_MISMATCH_HEADER

    @pytest.mark.parametrize("command,label,values", [
        ("sweep", "Sweep", {"model": "rayleigh", "selector": "rayleigh", "constraint": "ar",
                            "axis": "n", "axis_values": "10"}),
        ("mismatch", "Mismatch", {"param": "k", "param_values": "1",
                                  "selectors": "rayleigh-ar"}),
    ])
    def test_config_keys(self, monkeypatch, tmp_path, command, label, values):
        # every key the README lists is read, and one it does not list is rejected
        keys = readme_keys(label)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("".join(f"{key} = {values.get(key, '1')}\n" for key in keys)
                       + "unlisted = 1\n")
        read = []
        take = cli._take
        monkeypatch.setattr(cli, "_take", lambda entries, key, *a, **kw: (
            read.append(key), take(entries, key, *a, **kw))[1])
        with pytest.raises(ConfigError, match="^unknown keys: unlisted$"):
            getattr(cli, f"cmd_{command}")(SimpleNamespace(config=str(cfg)))
        assert sorted(read) == sorted(keys)
