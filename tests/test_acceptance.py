"""End-to-end acceptance suite.

Ten release criteria, one test each, run in order. Every test prints a
single PASS/FAIL line (visible under ``pytest -s``) with its measured
runtime, and fails if it exceeds the stated budget. Analytic identities
are checked at tight tolerances; Monte Carlo checks use fixed seeds and
confidence-interval containment.
"""

import contextlib
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp

from statrate.channels import Nakagami, Rayleigh, Rician
from statrate.evalmc import EvalConfig, evaluate
from statrate.learn import TrainingSample, fit_ascending_tails
from statrate.mismatch import (
    mean_outage_mismatch,
    mean_outage_weak_n,
    meta_prob_mismatch,
)
from statrate.rateselect import (
    FAMILY_NONPARAMETRIC,
    FAMILY_POWERLAW_ASYM,
    FAMILY_POWERLAW_NONASYM,
    FAMILY_RAYLEIGH,
    PCR,
    ReliabilityTarget,
    SelectorSpec,
    calibrate,
    epsn_powerlaw,
    epsn_rayleigh_ar,
    epsn_rayleigh_pcr,
    nonparam_l_ar,
    nonparam_l_pcr,
    select_rate,
)
from statrate.specfun import (
    inv_reg_lower_gamma,
    log_gamma,
    marcum_q1,
    reg_inc_beta,
    reg_lower_gamma,
    std_normal_quantile,
)


_Z95 = 1.9599639845400545  # the 97.5% normal quantile


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


@contextlib.contextmanager
def _criterion(num, label, budget_s):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, (
            f"criterion {num} took {elapsed:.1f}s, budget {budget_s:.0f}s")
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        print(f"{status} criterion {num:2d}: {label} "
              f"({elapsed:.2f}s, budget {budget_s:.0f}s)")


def test_criterion_01_rayleigh_ar_exact_inverse():
    with _criterion(1, "Rayleigh AR back-off inverts the exact mean outage", 1.0):
        for eps in (1e-3, 1e-4, 1e-5):
            for n in (1, 10, 100, 1000, 10000):
                eps_n = epsn_rayleigh_ar(eps, n)
                # the closed form 1 - (1 + g/n)^-n, g = -log(1-eps_n)
                achieved = -math.expm1(-n * math.log1p(-math.log1p(-eps_n) / n))
                assert abs(achieved - eps) <= 1e-12


def test_criterion_02_rayleigh_pcr_exact_and_scale_free():
    with _criterion(2, "Rayleigh PCR back-off hits xi exactly and is scale-free", 10.0):
        for eps in (1e-3, 1e-4, 1e-5):
            for n in (1, 10, 100, 1000, 10000):
                for xi in (1e-3, 1e-2, 1e-1):
                    eps_n = epsn_rayleigh_pcr(eps, xi, n)
                    # the closed form: the Gamma(n, 1) tail past the threshold
                    meta = sp.gammaincc(n, n * math.log1p(-eps) / math.log1p(-eps_n))
                    assert abs(meta - xi) <= 1e-8
        # mean-power independence, once through the numeric-integration
        # path and once through the full selector + evaluator path
        for n in (10, 1000):
            eps_n = epsn_rayleigh_pcr(1e-3, 1e-2, n)
            vals = [meta_prob_mismatch(Rayleigh(lam), eps_n, 1e-3, n)
                    for lam in (0.1, 10.0)]
            assert abs(vals[0] - vals[1]) <= 1e-9
        target = ReliabilityTarget(1e-3, kind=PCR, xi=1e-2)
        reports = [evaluate(EvalConfig(Rayleigh(lam), SelectorSpec(FAMILY_RAYLEIGH),
                                       target, 100, 2000, 991))
                   for lam in (0.1, 10.0)]
        assert abs(reports[0].meta_prob.value - reports[1].meta_prob.value) <= 1e-9


def _nonparametric_outages(model, target, n, trials, seed):
    """The outage F(2^R - 1) of the nonparametric rate on trials full samples
    of n draws: model.sample, the selector's l-th order statistic, model.cdf."""
    cal = calibrate(SelectorSpec(FAMILY_NONPARAMETRIC), target, n)
    rng = _rng(seed)
    rates = np.concatenate([cal.rates(model.sample(rng, 250 * n).reshape(250, n))
                            for _ in range(trials // 250)])
    return model.cdf(np.expm1(rates * math.log(2.0)))


def test_criterion_03_nonparametric_distribution_free_identities():
    with _criterion(3, "non-parametric outage laws hold for two distinct truths", 120.0):
        eps, n, trials = 1e-2, 10**4, 2000
        l_ar = nonparam_l_ar(eps, n)
        exact_outage = l_ar / (n + 1)
        l_pcr = nonparam_l_pcr(eps, 0.1, n)
        exact_meta = 1.0 - reg_inc_beta(float(l_pcr), float(n + 1 - l_pcr), eps)
        # four runs, four seeds: AR at seed, PCR at seed + 1. The checks are
        # the 95% normal CI of the mean outage and the Wilson CI of the
        # meta-probability, which holds exact_meta iff this score test passes
        for model, seed in ((Rayleigh(1.0), 2044), (Nakagami(1.0, 2.0), 2046)):
            q = _nonparametric_outages(model, ReliabilityTarget(eps), n, trials, seed)
            assert abs(q.mean() - exact_outage) <= _Z95 * q.std(ddof=1) / math.sqrt(trials)
            q = _nonparametric_outages(model, ReliabilityTarget(eps, kind=PCR, xi=0.1),
                                       n, trials, seed + 1)
            meta = np.count_nonzero(q > eps) / trials
            assert abs(meta - exact_meta) <= _Z95 * math.sqrt(
                exact_meta * (1.0 - exact_meta) / trials)


def test_criterion_04_zero_rate_threshold():
    with _criterion(4, "non-parametric AR rate is zero exactly below n = 1/eps - 1", 30.0):
        rng = _rng(941)
        for eps in (1e-2, 1e-3):
            boundary = math.ceil(1.0 / eps)
            for n, expect_zero in ((boundary - 2, True), (boundary, False)):
                assert (nonparam_l_ar(eps, n) == 0) is expect_zero
                sample = TrainingSample(Rayleigh(1.0).sample(rng, n))
                rate = select_rate(SelectorSpec(FAMILY_NONPARAMETRIC),
                                   ReliabilityTarget(eps), sample)
                if expect_zero:
                    assert rate == 0.0
                else:
                    assert rate > 0.0


def test_criterion_05_throughput_consistency():
    with _criterion(5, "throughput ratio approaches 1 (parametric) and lifts off at n ~ 1/eps (non-parametric)", 300.0):
        eps = 1e-3
        target = ReliabilityTarget(eps)
        parametric = SelectorSpec(FAMILY_RAYLEIGH)
        rep10 = evaluate(EvalConfig(Rayleigh(1.0), parametric, target, 10, 10**4, 951))
        assert rep10.throughput_ratio.value >= 0.95
        rep100 = evaluate(EvalConfig(Rayleigh(1.0), parametric, target, 100, 10**4, 952))
        assert rep100.throughput_ratio.value >= 0.99
        nonparametric = SelectorSpec(FAMILY_NONPARAMETRIC)
        for n in (100, 998):
            rep = evaluate(EvalConfig(Rayleigh(1.0), nonparametric, target, n, 200, 953))
            assert rep.throughput_ratio.value == 0.0
            assert rep.zero_rate_fraction == 1.0
        rep_big = evaluate(EvalConfig(Rayleigh(1.0), nonparametric, target,
                                      10**4, 10**4, 954))
        assert rep_big.throughput_ratio.value >= 0.5


def test_criterion_06_mismatch_signs_and_magnitudes():
    with _criterion(6, "model mismatch shifts the mean outage in the predicted direction and size", 60.0):
        eps, n = 1e-4, 1000
        eps_n = epsn_rayleigh_ar(eps, n)
        for k in (1.0, 3.0, 7.0):
            model = Rician(1.0, k)
            numeric = mean_outage_mismatch(model, eps_n, n)
            weak = mean_outage_weak_n(model, eps_n)
            assert numeric < eps
            assert abs(weak - numeric) <= 0.10 * numeric
        for m in (0.5, 0.7, 0.9):
            model = Nakagami(1.0, m)
            numeric = mean_outage_mismatch(model, eps_n, n)
            weak = mean_outage_weak_n(model, eps_n)
            assert numeric > eps
            assert abs(weak - numeric) <= 0.10 * numeric
        spot_k3 = mean_outage_mismatch(Rician(1.0, 3.0), eps_n, n)
        assert spot_k3 == pytest.approx(1.99e-5, rel=0.10)
        spot_m05 = mean_outage_mismatch(Nakagami(1.0, 0.5), eps_n, n)
        assert spot_m05 == pytest.approx(7.98e-3, rel=0.10)


def _rayleigh_tails(rng, rows, n, l):
    """rows x the l smallest of n Rayleigh(1) powers, each row ascending.

    Renyi: the i-th smallest of n uniforms is 1 - exp(-sum_{j<i} E_j / (n - j))
    for i.i.d. Exp(1) E_j; Rayleigh.quantile maps them to powers.
    """
    spacings = rng.standard_exponential((rows, l)) / (n - np.arange(l))
    return Rayleigh(1.0).quantile(-np.expm1(-np.cumsum(spacings, axis=1)))


def test_criterion_07_tail_estimator_convergence():
    with _criterion(7, "tail-exponent estimate converges and its quantile variance matches theory", 600.0):
        # beta = 0.01: each fit reads the l = n / 100 smallest of n values
        for n, lo, hi, seed in ((10**4, 0.9, 1.1, 971), (10**6, 0.97, 1.03, 972)):
            khats, _ = fit_ascending_tails(_rayleigh_tails(_rng(seed), 200, n, n // 100), n)
            assert lo <= float(np.median(khats)) <= hi
        n, reps, eps, beta = 10**5, 10**4, 1e-4, 0.01
        l = n // 100
        rng = _rng(973)
        quantiles = np.concatenate([
            # fitted log-quantile in its order-statistic form
            z_l + kappa * math.log(n * eps / l)
            for kappa, z_l in (fit_ascending_tails(_rayleigh_tails(rng, 1000, n, l), n)
                               for _ in range(reps // 1000))])
        # true kappa = 1, so the predicted variance is Vbar / n
        vbar = (1.0 - beta + math.log(eps / beta) ** 2) / beta
        ratio = float(np.var(quantiles, ddof=1) / (vbar / n))
        assert 0.85 <= ratio <= 1.15


def test_criterion_08_powerlaw_pcr_calibration():
    with _criterion(8, "power-law PCR meta-probability is calibrated at the design point", 600.0):
        eps, xi, beta, n, trials = 1e-2, 1e-1, 0.01, 10**5, 10**4
        target = ReliabilityTarget(eps, kind=PCR, xi=xi)
        assert (epsn_powerlaw(target, n, beta, mode="non-asymptotic")
                <= epsn_powerlaw(target, n, beta, mode="asymptotic"))
        rep_asym = evaluate(EvalConfig(Rayleigh(1.0),
                                       SelectorSpec(FAMILY_POWERLAW_ASYM, beta=beta),
                                       target, n, trials, 981))
        assert xi / 2 <= rep_asym.meta_prob.value <= 2 * xi
        rep_nonasym = evaluate(EvalConfig(Rayleigh(1.0),
                                          SelectorSpec(FAMILY_POWERLAW_NONASYM, beta=beta),
                                          target, n, trials, 982))
        assert rep_nonasym.meta_prob.value <= 2 * xi


def test_criterion_09_special_function_oracles():
    with _criterion(9, "special-function kernel agrees with independent oracles", 60.0):
        assert log_gamma(11.0) == pytest.approx(math.log(math.factorial(10)), rel=1e-12)

        erlang2 = 1.0 - 3.0 * math.exp(-2.0)
        assert reg_lower_gamma(2.0, 2.0) == pytest.approx(erlang2, rel=1e-12)
        assert inv_reg_lower_gamma(2.0, erlang2) == pytest.approx(2.0, abs=1e-9)

        exact_tail = math.fsum(math.comb(1000, j) * 0.01**j * 0.99**(1000 - j)
                               for j in range(6, 1001))
        got = reg_inc_beta(6.0, 995.0, 0.01)
        assert got == pytest.approx(exact_tail, rel=1e-10)
        # exact tail is 0.93386; a 0.9329 reading is the Poisson(10)
        # shortcut for the same tail, not the binomial value
        assert got == pytest.approx(0.9339, abs=5e-5)

        # defining integral, with exp(-(x^2+a^2)/2) I0(ax) rewritten as
        # exp(-(x-a)^2/2) i0e(ax) to stay finite at large x
        oracle, _ = scipy.integrate.quad(
            lambda x: x * math.exp(-0.5 * (x - 1.0) ** 2) * sp.i0e(x),
            2.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=200)
        q12 = marcum_q1(1.0, 2.0)
        assert q12 == pytest.approx(oracle, rel=1e-10)
        # oracle gives 0.26901206..., so a 0.2690124 reading is off in
        # its final digit
        assert q12 == pytest.approx(0.2690124, abs=5e-7)

        erfc_inverse = math.sqrt(2.0) * float(sp.erfcinv(2.0 * 0.01))
        assert std_normal_quantile(0.01) == pytest.approx(erfc_inverse, abs=1e-9)
        assert std_normal_quantile(0.01) == pytest.approx(2.3263479, abs=5e-8)

        rng = _rng(992)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            l = int(rng.integers(1, n + 1))
            x = float(rng.uniform(0.005, 0.995))
            binom_tail = math.fsum(math.comb(n, j) * x**j * (1.0 - x) ** (n - j)
                                   for j in range(l, n + 1))
            assert abs(reg_inc_beta(float(l), float(n + 1 - l), x) - binom_tail) <= 1e-9


def test_criterion_10_sweep_determinism(tmp_path):
    # the rayleigh mean family in one partial block, and nonparametric order
    # statistics (l = 87 and 84), whose 1600 trials are one partial block of
    # 2^16 rows
    sweeps = {
        "mean": ("selector = rayleigh\nconstraint = ar\nn = 20\ntrials = 50\n"
                 "seed = 11\naxis = n\naxis_values = 10, 20\n", (1, 1, 4)),
        "tail": ("selector = nonparametric\nconstraint = pcr\nxi = 0.1\n"
                 "n = 10000\ntrials = 1600\nseed = 12\naxis = xi\n"
                 "axis_values = 0.1, 0.05\n", (1, 1, 2)),
    }
    with _criterion(10, "sweep CSV is byte-identical across reruns and worker counts", 60.0):
        for name, (body, worker_counts) in sweeps.items():
            outputs = []
            for tag, workers in zip("abc", worker_counts):
                out = tmp_path / f"out_{name}_{tag}.csv"
                cfg = tmp_path / f"cfg_{name}_{tag}.txt"
                cfg.write_text(
                    "model = rayleigh\n"
                    "lam = 1.0\n"
                    "eps = 1e-2\n"
                    + body +
                    f"workers = {workers}\n"
                    f"output = {out}\n")
                res = subprocess.run([sys.executable, "-m", "statrate", "sweep", str(cfg)],
                                     capture_output=True, text=True)
                assert res.returncode == 0, res.stderr
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]
            assert outputs[0] == outputs[2]
