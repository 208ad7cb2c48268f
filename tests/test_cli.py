import csv
import math
import subprocess
import sys
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statrate.cli import _parse_kv_file, main
from statrate.errors import ConfigError

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


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "statrate", *argv],
        capture_output=True, text=True)


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
        assert "usage" in res.stderr

    def test_ar_with_xi_is_usage_error(self):
        res = run_cli("epsn", "--family", "rayleigh", "--constraint", "ar",
                      "--eps", "1e-3", "--xi", "0.1", "--n", "10")
        assert res.returncode == 2

    def test_nonasym_without_beta_is_usage_error(self):
        res = run_cli("epsn", "--family", "powerlaw-nonasym", "--constraint", "pcr",
                      "--eps", "1e-2", "--xi", "0.1", "--n", "100000")
        assert res.returncode == 2

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


HEAVY_SCIPY = ("scipy.optimize", "scipy.stats", "scipy.integrate")


def heavy_scipy_loaded(code):
    """The HEAVY_SCIPY modules a fresh interpreter holds after running code."""
    script = code + (
        "import sys\n"
        f"print(','.join(m for m in {HEAVY_SCIPY!r} if m in sys.modules))\n")
    # a fresh process: this one has imported scipy.stats already
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    last = res.stdout.splitlines()[-1]
    return set(last.split(",")) - {""}


def scipy_loaded_by(*argv):
    """The HEAVY_SCIPY modules a fresh interpreter holds after
    importing statrate.cli and, given argv, running main(argv)."""
    return heavy_scipy_loaded(
        "import sys\n"
        "import statrate.cli\n"
        f"argv = {list(argv)!r}\n"
        "if argv and statrate.cli.main(argv) != 0:\n"
        "    sys.exit('main failed')\n")


class TestColdStart:
    def test_import_loads_no_heavy_scipy(self):
        assert scipy_loaded_by() == set()

    def test_rayleigh_ar_rate_loads_no_heavy_scipy(self, file_500):
        assert scipy_loaded_by("rate", "--selector", "rayleigh", "--constraint", "ar",
                               "--eps", "1e-3", "--sample", file_500) == set()

    def test_nonparametric_pcr_rate_loads_no_heavy_scipy(self, file_500):
        assert scipy_loaded_by("rate", "--selector", "nonparametric", "--constraint", "pcr",
                               "--eps", "1e-2", "--xi", "0.1", "--sample", file_500) == set()

    def test_rayleigh_pcr_epsn_loads_no_heavy_scipy(self):
        assert scipy_loaded_by("epsn", "--family", "rayleigh", "--constraint", "pcr",
                               "--eps", "1e-4", "--xi", "1e-3", "--n", "100") == set()

    def test_powerlaw_nonasym_epsn_loads_no_heavy_scipy(self):
        assert scipy_loaded_by("epsn", "--family", "powerlaw-nonasym", "--constraint", "pcr",
                               "--eps", "1e-2", "--xi", "0.05", "--n", "100000",
                               "--beta", "0.01") == set()

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
        assert scipy_loaded_by("mismatch", str(cfg)) == set()

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
        assert scipy_loaded_by("mismatch", str(cfg)) == set()

    def test_marcum_q1_loads_no_heavy_scipy(self):
        assert heavy_scipy_loaded(
            "from statrate.specfun import marcum_q1\n"
            "marcum_q1(3.0, 4.0)\n") == set()

    def test_rician_mean_outage_loads_no_heavy_scipy(self):
        assert heavy_scipy_loaded(
            "from statrate.channels import Rician\n"
            "from statrate.mismatch import mean_outage_mismatch\n"
            "mean_outage_mismatch(Rician(1.0, 10.0), 1e-4, 10000)\n") == set()


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
        lines.pop(key)
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
        out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        c1 = write_sweep_config(tmp_path / "c1.txt", out1, extra="workers = 1\n")
        c4 = write_sweep_config(tmp_path / "c4.txt", out4, extra="workers = 4\n")
        assert run_cli("sweep", c1).returncode == 0
        assert run_cli("sweep", c4).returncode == 0
        assert out1.read_bytes() == out4.read_bytes()

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
        assert "axis 'xi' requires a PCR target" in res.stderr
        assert not (tmp_path / "o.csv").exists()

    def test_axis_beta_requires_powerlaw_selector(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg = write_sweep_config(tmp_path / "c.txt", out, drop=("axis", "axis_values"),
                                 extra="axis = beta\naxis_values = 0.05, 0.1\n")
        res = run_cli("sweep", cfg)
        assert res.returncode == 2
        assert "beta is only meaningful for power-law selectors" in res.stderr
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
        # the drawn powers overflow; the finite-rate check says so, numpy does not
        out = tmp_path / "x.csv"
        cfg = write_sweep_config(
            tmp_path / "cfg.txt", out, drop=("lam", "n", "axis_values"),
            extra="lam = 1e308\nn = 100\naxis_values = 100\n")
        res = run_cli("sweep", cfg)
        assert res.returncode == 2
        assert "non-finite rate" in res.stderr
        assert "RuntimeWarning" not in res.stderr
        assert not out.exists()


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

    def test_powerlaw_selector_rows_have_nan_approx(self, tmp_path):
        out = tmp_path / "mp.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "param = k\n"
            "param_values = 1\n"
            "selectors = powerlaw-asym-ar\n"
            "eps = 1e-2\n"
            "beta = 0.05\n"
            "n = 1000\n"
            "trials = 20\n"
            f"output = {out}\n")
        res = run_cli("mismatch", str(cfg))
        assert res.returncode == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert rows[0]["selector"] == "powerlaw-asym-ar"
        assert rows[0]["mean_outage_approx"] == "nan"
        assert rows[0]["meta_prob_chernoff"] == "nan"
        assert math.isfinite(float(rows[0]["mean_outage_numeric"]))

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

    def test_powerlaw_selector_requires_beta_and_trials(self, tmp_path):
        base = ("param = k\n"
                "param_values = 1\n"
                "selectors = powerlaw-asym-ar\n"
                "eps = 1e-2\n"
                "n = 1000\n"
                f"output = {tmp_path / 'x.csv'}\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(base + "trials = 10\n")
        assert run_cli("mismatch", str(cfg)).returncode == 2
        cfg2 = tmp_path / "cfg2.txt"
        cfg2.write_text(base + "beta = 0.05\n")
        assert run_cli("mismatch", str(cfg2)).returncode == 2

    def test_trials_and_seed_need_powerlaw_selector(self, tmp_path):
        base = ("param = k\n"
                "param_values = 1\n"
                "selectors = rayleigh-ar\n"
                "eps = 1e-4\n"
                "n = 100\n"
                f"output = {tmp_path / 'x.csv'}\n")
        for extra in ("trials = 10\n", "seed = 3\n"):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(base + extra)
            res = run_cli("mismatch", str(cfg))
            assert res.returncode == 2
            assert "power-law" in res.stderr

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

    def test_model_power_law_beyond_double_range_is_usage_error(self, tmp_path):
        # the weak-n and Chernoff columns need the model's alpha; where it is
        # no finite positive normal double the error names the parameters
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.txt"
        cases = (("m", "5", "1e-300", "m=5.0", "alpha = inf"),
                 ("m", "200", "1.0", "m=200.0", "alpha = 0.0"),
                 ("k", "1e3", "1.0", "k=1000.0", "alpha = 0.0"))
        for param, value, lam, name, alpha in cases:
            cfg.write_text(
                f"param = {param}\n"
                f"param_values = {value}\n"
                f"lam = {lam}\n"
                "selectors = rayleigh-ar, rayleigh-pcr\n"
                "eps = 1e-3\n"
                "xi = 1e-2\n"
                "n = 100\n"
                f"output = {out}\n")
            res = run_cli("mismatch", str(cfg))
            assert res.returncode == 2, res.stderr
            assert name in res.stderr and f"lam={float(lam)}" in res.stderr
            assert alpha in res.stderr
            assert "Traceback" not in res.stderr
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
        # (eps m lam)^m passes the largest double at m = 170, eps = 0.7369,
        # while alpha (eps m lam)^m = (eps m)^m / Gamma(m + 1) is about 6e49;
        # at m = 1000, lam = 0.0054, eps = 0.99 the product itself is past it
        with mpmath.workdps(40):
            finite = float((mpmath.mpf(0.7369) * 170) ** 170 / mpmath.factorial(170))
        for lam, m, eps, xi, want in ((1.0, 170, 0.7369, 1.2e-7, finite),
                                      (0.0054, 1000, 0.99, 0.1, math.inf)):
            out = tmp_path / "x.csv"
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(
                "param = m\n"
                f"param_values = {m}\n"
                f"lam = {lam}\n"
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


_lams = st.sampled_from([1e-300, 1.0, 1e300]) | st.floats(-300.0, 300.0).map(
    lambda e: 10.0 ** e)


class TestMismatchExitContract:
    @settings(deadline=None, max_examples=60)
    @given(param=st.sampled_from(["k", "m"]), data=st.data(), lam=_lams,
           eps=st.floats(1e-8, 0.99), xi=st.floats(1e-8, 0.5),
           n=st.sampled_from([1, 10, 1000, 10**4]))
    def test_exit_code_in_contract(self, tmp_path_factory, param, data, lam, eps, xi, n):
        value = data.draw(st.floats(0.0, 1e4) if param == "k" else st.floats(0.5, 1e3))
        base = tmp_path_factory.getbasetemp()
        cfg = base / "mismatch_contract.cfg"
        cfg.write_text(
            f"param = {param}\n"
            f"param_values = {value!r}\n"
            f"lam = {lam!r}\n"
            "selectors = rayleigh-ar, rayleigh-pcr\n"
            f"eps = {eps!r}\n"
            f"xi = {xi!r}\n"
            f"n = {n}\n"
            f"output = {base / 'mismatch_contract.csv'}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["mismatch", str(cfg)])
        assert code in (0, 2, 3)
        # the tilt's own degenerate-bound warnings only, none from numpy
        assert [str(w.message) for w in caught if "encountered" in str(w.message)] == []


# config text: no line breaks, no control characters
_CFG_CHARS = st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"),
                           blacklist_characters="#=")
_cfg_tokens = st.text(_CFG_CHARS, min_size=1).map(str.strip).filter(bool)
_cfg_values = st.lists(st.sampled_from(["=", ""]) | _cfg_tokens, min_size=1).map(
    "".join).map(str.strip).filter(bool)
_noise_lines = st.lists(st.sampled_from(["", "   ", "# note", "  # k = v"]))


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
