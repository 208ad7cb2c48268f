import itertools
import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sp
import scipy.stats

from statrate.channels import Nakagami, Rayleigh, Rician
from statrate.mismatch import (
    chernoff_tilt,
    mean_outage_exact_rayleigh,
    mean_outage_mismatch,
    mean_outage_power_law,
    mean_outage_weak_n,
    meta_prob_exact_rayleigh,
    meta_prob_mismatch,
)
from statrate.rateselect import epsn_rayleigh_ar, epsn_rayleigh_pcr


# laws whose alpha at lam = 1 is 0 or subnormal (Rician k from about 708,
# Nakagami m from about 171)
FAR_K = (708.0, 800.0, 1000.0)
FAR_M = (171.0, 200.0, 1000.0)


def mp_nakagami_mean_outage(m, eps_n, n):
    """I_x(m, n m) at x = g/(n+g), g = -log(1-eps_n), at 40 digits."""
    with mpmath.workdps(40):
        g = -mpmath.log1p(-mpmath.mpf(eps_n))
        return mpmath.betainc(m, n * m, 0, g / (n + g), regularized=True)


def mp_chernoff_bound(model, eps_n, eps, n):
    """The tilt bound exp(n (log M(t*) - t* thr)) to at least 50 digits.

    Every model is a noncentral gamma law (k, m) of scale lam, with MGF
    M(t) = (1 - lam t)^-m exp(k lam t / (1 - lam t)); t* solves
    M'(t)/M(t) = thr = (eps/alpha)^kappa / g, g = -log(1-eps_n), and the
    bound is 1 where t* <= 0.
    """
    k = mpmath.mpf(getattr(model, "k", 0))
    m = mpmath.mpf(getattr(model, "m", 1))
    lam = mpmath.mpf(model.lam)
    # 1 - lam t* cancels about k/4.6 digits (65 at k = 300), so 130 working
    # digits, and more from k = 280 on
    with mpmath.workdps(max(130, 60 + int(k) // 4)):
        # alpha = e^-k / Gamma(m+1) / lam^m and kappa = 1/m for all three laws
        alpha = mpmath.exp(-k) / mpmath.gamma(m + 1) / lam ** m
        thr = (eps / alpha) ** (1 / m) / -mpmath.log1p(-mpmath.mpf(eps_n))
        # k lam/(1 - lam t)^2 + m lam/(1 - lam t) = thr: a quadratic in 1 - lam t
        r = thr / lam
        t = (1 - (m + mpmath.sqrt(m * m + 4 * r * k)) / (2 * r)) / lam
        if t <= 0:
            return mpmath.mpf(1)
        log_mgf = k * lam * t / (1 - lam * t) - m * mpmath.log(1 - lam * t)
        return mpmath.exp(n * (log_mgf - t * thr))


def rician_mixture_mean_outage(k, eps_n, n):
    """Rician mean outage as the double-Poisson Beta mixture
    sum_j sum_i Pois(j; k) Pois(i; n k) I_x(1+j, n+i), x = g/(n+g):
    the gain and the training sum are Poisson mixtures of gammas. Each
    Poisson's weights are normalised over its support, which cancels the
    common rounding of i log(n k) in the pmf (6e-11 at n k = 1e5)."""
    g = -math.log1p(-eps_n)

    def weights(mu):
        support = np.arange(max(0, int(mu - 40 * math.sqrt(mu) - 60)),
                            int(mu + 40 * math.sqrt(mu) + 60))
        pmf = scipy.stats.poisson.pmf(support, mu)
        return support, pmf / pmf.sum()
    (j, wj), (i, wi) = weights(k), weights(n * k)
    return float(np.sum(np.outer(wj, wi) * sp.betainc(1.0 + j[:, None], n + i[None, :],
                                                      g / (n + g))))


class TestMeanOutageExactRayleigh:
    def test_inverse_pair(self):
        eps_n = epsn_rayleigh_ar(1e-3, 50)
        assert mean_outage_exact_rayleigh(eps_n, 50) == pytest.approx(1e-3, abs=1e-12)
        for eps in (1e-4, 1e-2, 0.3):
            for n in (1, 7, 100, 10**4):
                got = mean_outage_exact_rayleigh(epsn_rayleigh_ar(eps, n), n)
                assert got == pytest.approx(eps, abs=1e-12)

    def test_vanishes_with_eps_n(self):
        assert mean_outage_exact_rayleigh(1e-300, 10) < 1e-290

    def test_n_equals_one(self):
        # 1 - (1 - ln(0.999))^(-1)
        got = mean_outage_exact_rayleigh(1e-3, 1)
        assert got == pytest.approx(0.000999500333167, rel=1e-10)
        assert got == pytest.approx(9.9950e-4, abs=5e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            mean_outage_exact_rayleigh(0.0, 10)
        with pytest.raises(ValueError):
            mean_outage_exact_rayleigh(1e-3, 0)


class TestMetaProbExactRayleigh:
    def test_plug_in_failure_mode(self):
        # eps_n = eps: the sample mean overshoots half the time
        for n in (10, 100, 1000):
            assert meta_prob_exact_rayleigh(1e-3, 1e-3, n) > 0.4

    def test_pcr_design_hits_xi(self):
        for eps in (1e-4, 1e-2):
            for xi in (1e-3, 0.1):
                for n in (1, 10, 300):
                    eps_n = epsn_rayleigh_pcr(eps, xi, n)
                    assert meta_prob_exact_rayleigh(eps_n, eps, n) == pytest.approx(
                        xi, abs=1e-8)

    def test_monotone_in_eps_n(self):
        # strictly increasing until the tail saturates to 1 in floating point
        levels = [1e-4, 5e-4, 1e-3, 1.5e-3, 2e-3]
        vals = [meta_prob_exact_rayleigh(e, 1e-3, 50) for e in levels]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert meta_prob_exact_rayleigh(1e-2, 1e-3, 50) >= vals[-1]

    def test_range(self):
        v = meta_prob_exact_rayleigh(0.5, 1e-3, 5)
        assert 0.0 <= v <= 1.0


class TestMeanOutageMismatch:
    def test_rayleigh_numeric_is_exact(self):
        for lam in (0.5, 1.0, 3.0):
            got = mean_outage_mismatch(Rayleigh(lam), 1e-3, 100)
            assert got == pytest.approx(mean_outage_exact_rayleigh(1e-3, 100), abs=1e-15)

    def test_nakagami_m1_matches_rayleigh(self):
        for eps_n, n in [(1e-4, 10), (1e-3, 100), (1e-2, 1000), (0.1, 1)]:
            got = mean_outage_mismatch(Nakagami(1.0, 1.0), eps_n, n)
            assert got == pytest.approx(mean_outage_exact_rayleigh(eps_n, n), rel=1e-14)

    def test_nakagami_mpmath_oracle(self):
        for n in (1, 2, 10, 10**4):
            for m in (0.5, 1.0, 10.0):
                for eps_n in (0.1, 1e-3, epsn_rayleigh_ar(1e-4, n)):
                    want = mp_nakagami_mean_outage(m, eps_n, n)
                    got = mean_outage_mismatch(Nakagami(2.0, m), eps_n, n)
                    assert abs(got - want) <= 1e-12 * want, (n, m, eps_n)

    def test_rician_beta_mixture_oracle(self):
        # eps_n down to URLLC levels, where an absolute error floor would show
        for n in (1, 2, 10, 100, 10**4):
            for k in (0.0, 0.5, 1.0, 10.0):
                for eps_n in (0.1, 1e-3, epsn_rayleigh_ar(1e-4, n), 1e-9, 1e-12):
                    want = rician_mixture_mean_outage(k, eps_n, n)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = mean_outage_mismatch(Rician(2.0, k), eps_n, n)
                    assert abs(got - want) <= 1e-12 * want, (n, k, eps_n)

    def test_rician_k0_matches_rayleigh(self):
        for eps_n, n in [(1e-3, 10), (1e-2, 100), (1e-9, 2), (1e-4, 10**4)]:
            got = mean_outage_mismatch(Rician(1.0, 0.0), eps_n, n)
            want = mean_outage_exact_rayleigh(eps_n, n)
            assert abs(got - want) <= 1e-12 * want, (n, eps_n)

    def test_rician_large_n_in_bounded_memory(self):
        # about 2e6 Poisson terms at n k = 1e10, which must not be held
        # at once; the value is the one a single-window sum gives
        tracemalloc.start()
        try:
            got = mean_outage_mismatch(Rician(1.0, 10.0), 1e-4, 10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(5.0189959622570326e-08, rel=1e-12, abs=0)
        assert peak < 1e6

    def test_rician_poisson_mean_beyond_exact_k_is_rejected(self):
        # n k = 1e22: K + 1 rounds to K there, so the sum cannot step
        with pytest.raises(ValueError, match="2\\^52"):
            mean_outage_mismatch(Rician(1.0, 1e20), 1e-4, 100)

    def test_rician_k_where_ncfdtr_gives_nan_is_rejected(self):
        # scipy's ncfdtr gives nan for some Poisson terms at k = 700, n = 100
        with pytest.raises(ValueError, match=r"Rician\(lam=1\.0, k=700\.0\) at n=100"):
            mean_outage_mismatch(Rician(1.0, 700.0), 1e-3, 100)

    def test_weak_n_rician_k0_is_identity(self):
        assert mean_outage_weak_n(Rician(1.0, 0.0), 1e-4) == pytest.approx(1e-4, rel=1e-12)

    def test_weak_n_rician_k3(self):
        # (k+1) e^(-k) eps
        got = mean_outage_weak_n(Rician(1.0, 3.0), 1e-4)
        assert got == pytest.approx(4.0 * math.exp(-3.0) * 1e-4, rel=1e-12)
        assert got == pytest.approx(1.9915e-5, abs=5e-10)

    def test_weak_n_nakagami_half(self):
        # 0.5^0.5 / Gamma(1.5) * sqrt(eps)
        got = mean_outage_weak_n(Nakagami(1.0, 0.5), 1e-4)
        assert got == pytest.approx(
            math.sqrt(0.5) / math.gamma(1.5) * math.sqrt(1e-4), rel=1e-12)
        assert got == pytest.approx(7.979e-3, abs=5e-7)

    @pytest.mark.parametrize("m,lam,level", [(170.0, 1.0, 0.7369), (150.0, 0.5, 0.9),
                                             (0.5, 1e150, 1e-4), (3.0, 1e-100, 1e-6)])
    def test_weak_n_and_power_law_where_the_power_overflows(self, m, lam, level):
        # (level m lam)^m can pass the largest double where the product,
        # (level m)^m / Gamma(m + 1) for Nakagami, is finite
        model = Nakagami(lam, m)
        with mpmath.workdps(40):
            want = float((mpmath.mpf(level) * m) ** m / mpmath.gamma(m + 1))
        assert mean_outage_weak_n(model, level) == pytest.approx(
            want, rel=1e-13, abs=0)
        g = -math.log1p(-level)
        with mpmath.workdps(40):
            lead = float((mpmath.mpf(g) * m) ** m / mpmath.gamma(m + 1))
        # 1 + (1 - kappa) / (2 n kappa^2) var / mean^2, kappa = 1/m and var / mean^2 = 1/m
        correction = 1.0 + (1.0 - 1.0 / m) * m / (2.0 * 100)
        assert mean_outage_power_law(model, level, 100) == pytest.approx(
            lead * correction, rel=1e-13, abs=0)

    @pytest.mark.parametrize("model,mean_per_lam,rel_var", [
        (Nakagami(1e300, 0.5), (1, 2), (2, 1)), (Nakagami(1e200, 1.5), (3, 2), (2, 3)),
        (Rician(1e300, 2.0), (3, 1), (5, 9)), (Rayleigh(1e300), (1, 1), (1, 1))])
    def test_power_law_where_the_variance_overflows(self, model, mean_per_lam, rel_var):
        # var = m lam^2 (lam^2 (1 + 2k) for Rician) is inf from lam of about
        # 1.3e154 on, yet var / mean^2 is lam-free: 1/m, (1 + 2k)/(1 + k)^2
        eps_n, n = 1e-4, 100
        with mpmath.workdps(40):
            lam, k, m = (mpmath.mpf(v) for v in (model.lam, model.k, model.m))
            alpha = mpmath.exp(-k) * lam ** -m / mpmath.gamma(m + 1)
            mean = lam * mean_per_lam[0] / mean_per_lam[1]
            kappa = 1 / m
            lead = alpha * (-mpmath.log1p(-mpmath.mpf(eps_n)) * mean) ** (1 / kappa)
            correction = 1 + (1 - kappa) / (2 * n * kappa ** 2) * rel_var[0] / rel_var[1]
            want = float(lead * correction)
        assert mean_outage_power_law(model, eps_n, n) == pytest.approx(
            want, rel=1e-13, abs=0)

    def test_weak_n_scale_free(self):
        for lam in (0.1, 1.0, 10.0):
            got = mean_outage_weak_n(Rician(lam, 3.0), 1e-4)
            assert got == pytest.approx(4.0 * math.exp(-3.0) * 1e-4, rel=1e-10)

    def test_pessimism_optimism_signs(self):
        # Rayleigh-designed rate on Rician: conservative; on Nakagami m<1: optimistic
        n = 10**3
        eps = 1e-4
        eps_n = epsn_rayleigh_ar(eps, n)
        for k in (1.0, 3.0, 7.0):
            assert mean_outage_mismatch(Rician(1.0, k), eps_n, n) < eps
        for m in (0.5, 0.7, 0.9):
            assert mean_outage_mismatch(Nakagami(1.0, m), eps_n, n) > eps

    def test_power_law_approximation_fidelity(self):
        # second-order expansion within 10% of the numeric value
        eps = 1e-4
        models = [Rician(1.0, 0.0), Rician(1.0, 1.0), Rician(1.0, 3.0), Rician(1.0, 7.0),
                  Nakagami(1.0, 0.5), Nakagami(1.0, 1.0), Nakagami(1.0, 2.0),
                  Nakagami(1.0, 3.0)]
        for n in (10**3, 10**4):
            eps_n = epsn_rayleigh_ar(eps, n)
            for model in models:
                numeric = mean_outage_mismatch(model, eps_n, n)
                approx = mean_outage_power_law(model, eps_n, n)
                assert abs(approx - numeric) / numeric <= 0.10

    def test_weak_n_independence_of_n(self):
        # numeric values at AR design levels barely move between n=1e2 and 1e4
        eps = 1e-4
        models = [Rician(1.0, 1.0), Rician(1.0, 3.0), Rician(1.0, 7.0),
                  Nakagami(1.0, 0.5), Nakagami(1.0, 0.7), Nakagami(1.0, 0.9)]
        for model in models:
            lo = mean_outage_mismatch(model, epsn_rayleigh_ar(eps, 10**2), 10**2)
            hi = mean_outage_mismatch(model, epsn_rayleigh_ar(eps, 10**4), 10**4)
            assert abs(lo - hi) / hi <= 0.05

    @pytest.mark.parametrize("column", [
        lambda truth, level: mean_outage_mismatch(truth, level, 10),
        mean_outage_weak_n,
        lambda truth, level: mean_outage_power_law(truth, level, 10)],
        ids=["exact", "weak_n", "power_law"])
    def test_model_and_level_validation(self, column):
        with pytest.raises(TypeError):
            column(object(), 1e-3)
        for level in (0.0, 1.0, -1e-3, 1.5):
            with pytest.raises(ValueError, match="must be in \\(0, 1\\)"):
                column(Rayleigh(1.0), level)

    def test_model_validation(self):
        with pytest.raises(TypeError):
            mean_outage_mismatch(object(), 1e-3, 10)

    def test_power_law_sample_size_validation(self):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            mean_outage_power_law(Rayleigh(1.0), 1e-3, 0)


class TestMetaProbMismatch:
    def test_rayleigh_numeric_is_exact(self):
        for lam in (0.1, 1.0, 10.0):
            got = meta_prob_mismatch(Rayleigh(lam), 5e-4, 1e-3, 100)
            assert got == pytest.approx(
                meta_prob_exact_rayleigh(5e-4, 1e-3, 100), abs=1e-9)

    def test_law_formulas_give_the_rayleigh_closed_forms(self):
        # the law (0, 1) through the noncentral F mixture and nc_chi2_sf;
        # the meta-probability's threshold F^-1(eps)/lam rounds apart from
        # log(1-eps), and a far tail grows that by up to its log-slope
        for n, lam, eps, xi in itertools.product(
                (1, 10, 1000, 10**5), (0.3, 7.0), (1e-6, 1e-2, 0.3), (1e-3, 0.7)):
            for eps_n in (epsn_rayleigh_ar(eps, n), epsn_rayleigh_pcr(eps, xi, n)):
                model = Rayleigh(lam)
                assert mean_outage_mismatch(model, eps_n, n) == pytest.approx(
                    mean_outage_exact_rayleigh(eps_n, n), rel=1e-15, abs=0)
                assert meta_prob_mismatch(model, eps_n, eps, n) == pytest.approx(
                    meta_prob_exact_rayleigh(eps_n, eps, n), rel=1e-12, abs=0)

    def test_nakagami_m1_matches_rayleigh(self):
        got = meta_prob_mismatch(Nakagami(1.0, 1.0), 5e-4, 1e-3, 100)
        assert got == pytest.approx(meta_prob_exact_rayleigh(5e-4, 1e-3, 100), abs=1e-9)

    def test_nakagami_tiny_eps(self):
        # the Nakagami quantile at eps = 1e-30 used to raise a RuntimeError
        eps, n = 1e-30, 100
        # x^2/2 ~ P(2, x) = eps puts the quantile near 1.4e-15; eps_n = 7e-16
        # moves the threshold n x/g to the middle of Gamma(2 n)
        with mpmath.workdps(40):
            x = mpmath.findroot(
                lambda t: mpmath.gammainc(2, 0, t, regularized=True) - mpmath.mpf(eps),
                mpmath.sqrt(2 * mpmath.mpf(eps)))
            thr = x * n / -mpmath.log1p(-mpmath.mpf(7e-16))
            want = float(mpmath.gammainc(2 * n, thr, mpmath.inf, regularized=True))
        assert 0.1 < want < 0.9
        got = meta_prob_mismatch(Nakagami(3.0, 2.0), 7e-16, eps, n)
        assert got == pytest.approx(want, rel=1e-10)
        # at the AR design level the threshold is ~ 1e17: the tail is 0
        assert meta_prob_mismatch(Nakagami(1.0, 2.0), epsn_rayleigh_ar(eps, n), eps, n) == 0.0

    def test_rician_k0_matches_rayleigh(self):
        got = meta_prob_mismatch(Rician(1.0, 0.0), 5e-4, 1e-3, 100)
        assert got == pytest.approx(meta_prob_exact_rayleigh(5e-4, 1e-3, 100), abs=1e-8)

    def test_scale_invariance(self):
        vals = [meta_prob_mismatch(Rician(lam, 2.0), 5e-4, 1e-3, 50)
                for lam in (0.1, 1.0, 10.0)]
        for v in vals:
            assert v == pytest.approx(vals[0], rel=1e-9, abs=0)

    def test_numeric_value_is_free_of_lam(self):
        # the threshold is read at lam = 1, so a subnormal lam or one near the
        # largest double, where quantile(eps) n / g over- or underflowed, keeps it
        eps, xi, n = 1e-3, 1e-2, 100
        eps_n = epsn_rayleigh_pcr(eps, xi, n)
        for model in (Rayleigh, Rician, Nakagami):
            law = (2.0,) if model is not Rayleigh else ()
            vals = {meta_prob_mismatch(model(lam, *law), eps_n, eps, n)
                    for lam in (1e-318, 1.0, 1e306, 1e308)}
            assert len(vals) == 1
            if model is Rayleigh:
                assert vals.pop() == pytest.approx(xi, rel=1e-12)

    def test_approximations_are_free_of_lam(self):
        # formed in logs from the law at unit scale, so a lam where the model's
        # own alpha leaves the normal doubles, and a law where alpha at lam = 1
        # is 0 or subnormal, keep the weak-n, power-law and Chernoff values
        eps, n = 1e-3, 100
        eps_n = epsn_rayleigh_pcr(eps, 1e-2, n)
        laws = ([(Rayleigh, ()), (Rician, (2.0,)), (Nakagami, (2.0,))]
                + [(Rician, (k,)) for k in FAR_K] + [(Nakagami, (m,)) for m in FAR_M])
        for model, law in laws:
            def cells(lam):
                truth = model(lam, *law)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # degenerate tilts
                    return (mean_outage_weak_n(truth, eps),
                            mean_outage_power_law(truth, eps_n, n),
                            chernoff_tilt(truth, eps_n, eps, n))

            for lam in (1e-318, 1e-300, 1e300, 1e306, 1e308):
                assert cells(lam) == cells(1.0), (model, law, lam)

    @pytest.mark.parametrize("model", [Rician(1.0, k) for k in FAR_K]
                             + [Nakagami(1.0, m) for m in FAR_M], ids=repr)
    def test_approximations_where_alpha_is_no_normal_double_mpmath_oracle(self, model):
        k, m = model.k, model.m
        for level in (1e-3, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            with mpmath.workdps(50):
                log_alpha = -k - mpmath.loggamma(m + 1)
                log_power = m * mpmath.log(mpmath.mpf(level) * (m + k))
                want = mpmath.exp(log_alpha + log_power)
            got = mean_outage_weak_n(model, level)
            if want > sys.float_info.max:
                assert got == math.inf
            elif want >= sys.float_info.min:
                # the relative error is that of the rounded log, whose terms
                # reach 5912 in magnitude at m = 1000 (2.7e-13 at level 0.3)
                rel = max(1e-13, 2.0 ** -52 * float(abs(log_alpha) + abs(log_power)))
                assert got == pytest.approx(float(want), rel=rel, abs=0), level
            else:
                assert got < sys.float_info.min
        for n in (10, 10**4):
            for eps in (0.5, 1e-2, 1e-3, 1e-5):
                levels = [epsn_rayleigh_ar(eps, n)] + [
                    epsn_rayleigh_pcr(eps, xi, n) for xi in (1e-2, 1e-6)]
                for eps_n in levels:
                    want = mp_chernoff_bound(model, eps_n, eps, n)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        got = chernoff_tilt(model, eps_n, eps, n)
                    if want >= 1e-300:
                        assert got == pytest.approx(float(want), rel=1e-12, abs=0), (n, eps)
                    else:
                        assert got < 1e-300, (n, eps, eps_n)

    def test_rician_underflow_is_zero_in_bounded_memory(self):
        # the true value is below the smallest double; computing that 0
        # must not take memory that grows with a truncation window
        n = 10_000
        eps_n = epsn_rayleigh_pcr(1e-4, 1e-2, n)
        tracemalloc.start()
        try:
            got = meta_prob_mismatch(Rician(1.0, 10.0), eps_n, 1e-4, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == 0.0
        assert peak < 10e6

    @pytest.mark.parametrize("column", [meta_prob_mismatch, chernoff_tilt],
                             ids=["exact", "chernoff"])
    def test_model_and_level_validation(self, column):
        with pytest.raises(TypeError):
            column(object(), 1e-3, 1e-3, 10)
        for level in (0.0, 1.0, -1e-3, 1.5):
            with pytest.raises(ValueError, match="eps_n must be in"):
                column(Rayleigh(1.0), level, 1e-3, 10)
            with pytest.raises(ValueError, match="eps must be in"):
                column(Rayleigh(1.0), 1e-3, level, 10)


class TestChernoffTilt:
    def test_nakagami_m1_vs_rayleigh_numeric_order_of_magnitude(self):
        n = 10**3
        eps = 1e-4
        eps_n = epsn_rayleigh_pcr(eps, 1e-2, n)
        bound = chernoff_tilt(Nakagami(1.0, 1.0), eps_n, eps, n)
        exact = meta_prob_exact_rayleigh(eps_n, eps, n)
        assert exact == pytest.approx(1e-2, abs=1e-8)
        assert 0.1 <= bound / exact <= 10.0

    def test_bound_upper_bounds_numeric(self):
        n = 10**3
        eps = 1e-4
        eps_n = epsn_rayleigh_pcr(eps, 1e-2, n)
        for model in [Nakagami(1.0, 1.0), Nakagami(1.0, 2.0), Rician(1.0, 1.0)]:
            bound = chernoff_tilt(model, eps_n, eps, n)
            numeric = meta_prob_mismatch(model, eps_n, eps, n)
            assert 0.0 <= bound <= 1.0
            assert bound >= numeric

    def test_nonpositive_tilt_degenerates(self):
        # AR design: the threshold sits below the mean, no useful tilt
        n = 100
        eps_n = epsn_rayleigh_ar(1e-3, n)
        with pytest.warns(RuntimeWarning, match="optimal tilt is non-positive"):
            assert chernoff_tilt(Nakagami(1.0, 1.0), eps_n, 1e-3, n) == 1.0

    def test_underflowed_ratio_degenerates(self):
        # eps^(1/m) / g = 1e-400 / 0.69 underflows the ratio r to 0, where the
        # root w is infinite: the bound degenerates to 1 as it does at
        # eps = 1e-150, where r is about 1e-300 (it once raised "ratio 0.0")
        for eps in (1e-150, 1e-200):
            with pytest.warns(RuntimeWarning, match="optimal tilt is non-positive"):
                assert chernoff_tilt(Nakagami(1.0, 0.5), 0.5, eps, 10) == 1.0

    def test_threshold_past_every_double_bounds_by_zero(self):
        # Rician(1e-300, 800): r, about eps e^k / g at unit scale, passes the
        # largest double; the bound exp(-n r (1 + o(1))) is 0, where the tilt
        # once raised "ratio inf"
        n = 100
        for eps_n in (epsn_rayleigh_ar(1e-3, n), epsn_rayleigh_pcr(1e-3, 1e-2, n)):
            assert chernoff_tilt(Rician(1e-300, 800.0), eps_n, 1e-3, n) == 0.0

    def test_mpmath_oracle(self):
        # at k >= 80 the Rician tilt once rounded 1 - lam t* to 0
        checked = 0
        for lam in (0.5, 1.0, 3.0):
            models = ([Rayleigh(lam)]
                      + [Rician(lam, k) for k in (0.5, 1.0, 2.5, 10.0, 100.0, 300.0)]
                      + [Nakagami(lam, m) for m in (0.5, 1.5, 3.0, 10.0)])
            for model in models:
                for n in (10, 10**4):
                    for eps in (1e-2, 1e-3, 1e-5):
                        levels = [epsn_rayleigh_ar(eps, n)] + [
                            epsn_rayleigh_pcr(eps, xi, n) for xi in (1e-2, 1e-6)]
                        for eps_n in levels:
                            want = mp_chernoff_bound(model, eps_n, eps, n)
                            with warnings.catch_warnings():
                                warnings.simplefilter("ignore", RuntimeWarning)
                                got = chernoff_tilt(model, eps_n, eps, n)
                            if want >= 1e-300:
                                assert got == pytest.approx(float(want), rel=1e-12, abs=0), (
                                    model, n, eps, eps_n)
                                checked += want < 1.0
                            else:
                                # at underflow: compared absolutely
                                assert got < 1e-300, (model, n, eps, eps_n)
        assert checked >= 100

    def test_model_validation(self):
        with pytest.raises(TypeError):
            chernoff_tilt(3.14, 1e-3, 1e-3, 10)
