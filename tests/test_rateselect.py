import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from statrate import rateselect as rs
from statrate.channels import Rayleigh
from statrate.errors import InsufficientTailDataError, NoSolutionError
from statrate.learn import TrainingSample, fit_ascending_tails, sample_rows
from statrate.mismatch import mean_outage_mismatch, meta_prob_mismatch
from statrate.rateselect import (
    AR,
    FAMILIES,
    PCR,
    Calibration,
    ReliabilityTarget,
    SelectorSpec,
    calibrate,
    epsn_powerlaw,
    epsn_rayleigh_ar,
    epsn_rayleigh_pcr,
    make_rate_fn,
    nonparam_l_ar,
    nonparam_l_pcr,
    plug_in_nonparam_index,
    select_rate,
)

RNG = lambda s: np.random.Generator(np.random.Philox(key=np.array([s, 0], dtype=np.uint64)))


def binom_cdf(n, eps, k):
    """P[Bin(n, eps) <= k], exact for the double eps: the PCR meta-probability
    1 - I_eps(k+1, n-k) of the (k+1)-th smallest of n values."""
    p, d = eps.as_integer_ratio()  # eps = p / d
    acc, p_j = 0, 1
    for j in range(k + 1):  # Horner: sum_j C(n, j) p^j (d - p)^(k - j)
        acc = acc * (d - p) + math.comb(n, j) * p_j
        p_j *= p
    return Fraction(acc * (d - p) ** (n - k), d**n)


def _rate(family, sample, beta=None, **level):
    """The rate of one sample under a Calibration holding eps_n or l."""
    x = np.asarray(sample)
    cal = Calibration(SelectorSpec(family, beta=beta), x.size, **level)
    return cal.rates(x[None])[0]


class TestReliabilityTarget:
    def test_epsilon_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                ReliabilityTarget(bad)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ReliabilityTarget(1e-3, kind="average")

    def test_pcr_requires_xi(self):
        with pytest.raises(ValueError):
            ReliabilityTarget(1e-3, kind=PCR)
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                ReliabilityTarget(1e-3, kind=PCR, xi=bad)
        ReliabilityTarget(1e-3, kind=PCR, xi=0.1)

    def test_ar_forbids_xi(self):
        with pytest.raises(ValueError, match="^xi is only meaningful for a PCR target, "
                                             "got kind 'ar'$"):
            ReliabilityTarget(1e-3, kind=AR, xi=0.1)


class TestSelectorSpec:
    def test_family_validation(self):
        with pytest.raises(ValueError):
            SelectorSpec("gaussian")

    def test_powerlaw_requires_beta(self):
        for fam in ("powerlaw-asym", "powerlaw-nonasym"):
            with pytest.raises(ValueError):
                SelectorSpec(fam)
            for bad in (0.0, 1.0, -0.1):
                with pytest.raises(ValueError):
                    SelectorSpec(fam, beta=bad)
            SelectorSpec(fam, beta=0.01)

    def test_other_families_forbid_beta(self):
        for fam in ("rayleigh", "nonparametric", "plugin-rayleigh", "plugin-nonparametric"):
            with pytest.raises(ValueError, match="^beta is only meaningful for power-law "
                                                 f"selectors, got family '{fam}'$"):
                SelectorSpec(fam, beta=0.1)
            SelectorSpec(fam)


class TestEpsnRayleighAr:
    def test_n_equals_one(self):
        got = epsn_rayleigh_ar(1e-3, 1)
        # oracle 1 - exp(-eps/(1-eps))
        assert got == pytest.approx(-math.expm1(-1e-3 / (1.0 - 1e-3)), rel=1e-14)
        assert got == pytest.approx(1.0005001666248414e-3, rel=1e-13)
        assert got == pytest.approx(1.00050e-3, abs=5e-9)

    def test_n_equals_100(self):
        got = epsn_rayleigh_ar(1e-3, 100)
        assert got == pytest.approx(1.0000050000162455e-3, rel=1e-13)
        assert got == pytest.approx(1.00001e-3, abs=1e-8)

    def test_large_n_limit(self):
        assert epsn_rayleigh_ar(1e-3, 10**6) == pytest.approx(1e-3, rel=1e-9)

    def test_naive_formula_agreement(self):
        # direct transcription with pow, accurate at moderate eps
        for eps in (0.01, 0.1, 0.3):
            for n in (1, 2, 7, 50):
                naive = 1.0 - math.exp(-n * ((1.0 - eps) ** (-1.0 / n) - 1.0))
                assert epsn_rayleigh_ar(eps, n) == pytest.approx(naive, rel=1e-12)

    def test_exact_mean_outage_inverse(self):
        for eps in (1e-4, 1e-3, 1e-2):
            for n in (1, 10, 137):
                g = -math.log1p(-epsn_rayleigh_ar(eps, n))
                # the closed-form mean outage 1 - (1 + g/n)^-n
                assert -math.expm1(-n * math.log1p(g / n)) == pytest.approx(eps, abs=1e-12)

    def test_domain(self):
        for bad_eps in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                epsn_rayleigh_ar(bad_eps, 10)
        for bad_n in (0, -1, 2.5):
            with pytest.raises(ValueError):
                epsn_rayleigh_ar(1e-3, bad_n)


class TestEpsnRayleighPcr:
    def test_frozen_grid_scan_value(self):
        assert epsn_rayleigh_pcr(1e-4, 1e-3, 100) == pytest.approx(
            7.475597294738379e-5, rel=1e-12)

    def test_back_substitution(self):
        # the Erlang tail at the returned level must hit xi
        for eps in (1e-4, 1e-3, 1e-2):
            for xi in (1e-3, 1e-2, 0.1):
                for n in (1, 3, 10, 100, 1000):
                    eps_n = epsn_rayleigh_pcr(eps, xi, n)
                    lhs = scipy.special.gammaincc(
                        n, n * math.log1p(-eps) / math.log1p(-eps_n))
                    assert abs(lhs - xi) <= 1e-8

    def test_xi_near_half_approaches_ar(self):
        ar = epsn_rayleigh_ar(1e-3, 10**4)
        pcr = epsn_rayleigh_pcr(1e-3, 0.4999, 10**4)
        assert abs(pcr - ar) / ar < 0.10

    def test_conservativeness_ordering(self):
        for eps in (1e-3, 1e-2):
            for n in (10, 100, 1000):
                ar = epsn_rayleigh_ar(eps, n)
                prev = 0.0
                for xi in (0.01, 0.1, 0.45):
                    v = epsn_rayleigh_pcr(eps, xi, n)
                    assert v <= ar
                    assert v > prev
                    prev = v

    def test_lambda_invariance_of_realized_reliability(self):
        # neither eps_n takes a scale argument, and the realized mean
        # outage / meta-probability agree across scales
        n = 50
        eps_ar = epsn_rayleigh_ar(1e-3, n)
        eps_pcr = epsn_rayleigh_pcr(1e-3, 1e-2, n)
        p_ar = [mean_outage_mismatch(Rayleigh(lam), eps_ar, n) for lam in (0.1, 1.0, 10.0)]
        p_meta = [meta_prob_mismatch(Rayleigh(lam), eps_pcr, 1e-3, n)
                  for lam in (0.1, 1.0, 10.0)]
        for v in p_ar:
            assert v == pytest.approx(p_ar[0], abs=1e-9)
            assert v == pytest.approx(1e-3, abs=1e-9)
        for v in p_meta:
            assert v == pytest.approx(p_meta[0], abs=1e-9)
            assert v == pytest.approx(1e-2, abs=1e-8)

    def test_mpmath_oracle_with_exact_xi(self):
        # T = Q^-1(n, xi) solved at 40 digits for the double xi itself;
        # going through 1 - xi would lose up to 1.1e-16 / xi relative
        eps = 1e-4
        for n in (1, 10, 10**3, 10**5):
            for xi in (1e-2, 1e-4, 1e-6, 1e-9):
                with mpmath.workdps(40):
                    a, q = mpmath.mpf(n), mpmath.mpf(xi)
                    t = mpmath.mpf(float(scipy.special.gammainccinv(n, xi)))
                    for _ in range(100):
                        residual = q - mpmath.gammainc(a, t, mpmath.inf, regularized=True)
                        step = residual / mpmath.exp(
                            (a - 1) * mpmath.log(t) - t - mpmath.loggamma(a))
                        t -= step
                        if abs(step) < t * mpmath.mpf(10) ** -35:
                            break
                    want = -mpmath.expm1(a * mpmath.log1p(-mpmath.mpf(eps)) / t)
                    got = epsn_rayleigh_pcr(eps, xi, n)
                    assert abs((got - want) / want) <= 1e-13, (n, xi, got, want)

    def test_domain(self):
        with pytest.raises(ValueError):
            epsn_rayleigh_pcr(1e-3, 0.0, 10)
        with pytest.raises(ValueError):
            epsn_rayleigh_pcr(1e-3, 1.0, 10)


class TestNonparamIndices:
    def test_ar_examples(self):
        assert nonparam_l_ar(1e-3, 999) == 1
        assert nonparam_l_ar(1e-3, 998) == 0
        assert nonparam_l_ar(1e-2, 1000) == 10

    def test_ar_never_exceeds_n(self):
        assert nonparam_l_ar(0.9, 3) == 3

    def test_pcr_frozen_example_with_binomial_oracle(self):
        # feasibility 1 - I_eps(l, n+1-l) = P[Bin(n, eps) <= l-1]
        n, eps, xi = 1000, 1e-2, 0.1
        oracle = 0
        for l in range(1, 40):
            if binom_cdf(n, eps, l - 1) <= xi:
                oracle = l
        assert oracle == 6
        assert nonparam_l_pcr(eps, xi, n) == 6

    @pytest.mark.parametrize("n,eps,xi,want", [
        (10**4, 0.1, 1e-15, 770), (10**4, 0.1, 1e-20, 734), (1000, 0.1, 1e-17, 30)])
    def test_pcr_at_tiny_xi_is_the_largest_feasible_index(self, n, eps, xi, want):
        # 1 - betainc cancels near a tail of 1e-16, and accepted 771, 761 and 32
        assert binom_cdf(n, eps, want - 1) <= xi < binom_cdf(n, eps, want)
        assert nonparam_l_pcr(eps, xi, n) == want

    def test_pcr_maximality(self):
        for eps, xi, n in [(1e-2, 0.1, 1000), (0.05, 0.3, 200), (1e-3, 0.5, 5000),
                           (0.2, 0.01, 50)]:
            l = nonparam_l_pcr(eps, xi, n)
            if l >= 1:
                assert 1.0 - scipy.special.betainc(l, n + 1 - l, eps) <= xi
            if l < n:
                assert 1.0 - scipy.special.betainc(l + 1, n - l, eps) > xi

    def test_pcr_zero_when_even_first_order_stat_infeasible(self):
        # 1 - I_eps(1, n) = (1-eps)^n = 0.990... > xi
        assert nonparam_l_pcr(1e-4, 1e-3, 100) == 0

    def test_plug_in_examples(self):
        assert plug_in_nonparam_index(1e-3, 1000) == 2
        assert plug_in_nonparam_index(1e-3, 100) == 1
        assert plug_in_nonparam_index(0.5, 3) == 2

    def test_plug_in_capped_at_n(self):
        assert plug_in_nonparam_index(0.9, 4) == 4


class TestExactPcrCalibrations:
    @settings(deadline=None, max_examples=200)
    @given(n_index=st.integers(1, 10**6), n_mean=st.integers(1, 10**5),
           eps=st.floats(1e-6, 0.5, exclude_min=True), log10_xi=st.floats(-30.0, -0.3))
    def test_meta_probability_at_small_xi(self, n_index, n_mean, eps, log10_xi):
        xi = 10.0**log10_xi
        # the largest index whose upper tail (Boost's betaincc, accurate where
        # 1 - betainc has cancelled to nothing) is at most xi
        n = n_index
        l = nonparam_l_pcr(eps, xi, n)
        assert l == 0 or scipy.special.betaincc(l, n + 1 - l, eps) <= xi
        assert l == n or scipy.special.betaincc(l + 1, n - l, eps) > xi
        # the exact meta-probability Q(n, n log(1-eps) / log(1-eps_n)) at 40
        # digits; the threshold is scipy's gammainccinv, whose relative error
        # the steep far tail (xi down to 1e-30) multiplies
        n = n_mean
        eps_n = epsn_rayleigh_pcr(eps, xi, n)
        with mpmath.workdps(40):
            x = n * mpmath.log1p(-mpmath.mpf(eps)) / mpmath.log1p(-mpmath.mpf(eps_n))
            meta = mpmath.gammainc(n, x, mpmath.inf, regularized=True)
            assert abs(meta / mpmath.mpf(xi) - 1) <= 5e-12, (n, eps, xi)


class TestEpsnPowerlawAsymptotic:
    def test_vbar_frozen(self):
        assert rs._vbar(1e-4, 0.01) == pytest.approx(2219.7592441913584, rel=1e-12)
        assert rs._vbar(1e-4, 0.01) == pytest.approx(2219.76, abs=5e-3)

    def test_pcr_frozen(self):
        got = epsn_powerlaw(ReliabilityTarget(1e-4, PCR, 1e-2), 10**6, 0.01)
        assert got == pytest.approx(8.961886865435574e-5, rel=1e-12)
        assert got == pytest.approx(8.962e-5, abs=5e-9)

    def test_pcr_matches_direct_formula(self):
        for eps, xi, n, beta in [(1e-4, 1e-2, 10**6, 0.01), (1e-3, 0.1, 10**4, 0.05),
                                 (1e-2, 1e-3, 500, 0.2)]:
            vbar = (1.0 - beta + math.log(eps / beta) ** 2) / beta
            direct = eps * math.exp(-math.sqrt(vbar / n) * scipy.stats.norm.isf(xi))
            got = epsn_powerlaw(ReliabilityTarget(eps, PCR, xi), n, beta)
            assert got == pytest.approx(direct, rel=1e-12)

    def test_ar_identity(self):
        for eps in (1e-4, 1e-2, 0.3):
            for n in (10, 10**6):
                assert epsn_powerlaw(ReliabilityTarget(eps), n, 0.1) == eps

    def test_overflowed_vbar(self):
        # Vbar = inf at a subnormal beta: xi = 1/2 has no back-off (the
        # shift is 0, not inf * 0 = nan), xi > 1/2 no level, xi < 1/2 level 0
        assert rs._vbar(0.5, 5e-324) == math.inf
        assert epsn_powerlaw(ReliabilityTarget(0.5, PCR, 0.5), 1, 5e-324) == 0.5
        with pytest.raises(NoSolutionError, match="shift=-inf"):
            epsn_powerlaw(ReliabilityTarget(0.5, PCR, 0.7), 1, 5e-324)
        assert epsn_powerlaw(ReliabilityTarget(0.5, PCR, 0.3), 1, 5e-324) == 0.0

    def test_validation(self):
        t = ReliabilityTarget(1e-3, PCR, 0.1)
        with pytest.raises(TypeError):
            epsn_powerlaw((1e-3, PCR, 0.1), 100, 0.1)
        with pytest.raises(ValueError):
            epsn_powerlaw(t, 100, 0.0)
        with pytest.raises(ValueError):
            epsn_powerlaw(t, 100, 0.1, mode="exact")


class TestEpsnPowerlawNonAsymptotic:
    EPS, XI, BETA, N = 1e-2, 0.1, 0.01, 10**5
    L = 1000

    @staticmethod
    def _bound_min(eps_n, l, n, eps, pts=2_000_001):
        # independent dense-grid evaluation of the split bound
        # min over tau of 1 - I_tau(l, n+1-l) + P(l-1, l log(eps/tau)/log(n eps_n/l))
        log_ratio = math.log(n * eps_n / l)
        lt = np.linspace(math.log(eps), 0.0, pts)
        term1 = 1.0 - scipy.special.betainc(l, n + 1 - l, np.exp(lt))
        term2 = scipy.special.gammainc(l - 1, l * (math.log(eps) - lt) / log_ratio)
        return float(np.min(term1 + term2))

    def test_root_hits_xi(self):
        target = ReliabilityTarget(self.EPS, PCR, self.XI)
        eps_n = epsn_powerlaw(target, self.N, self.BETA, mode="non-asymptotic")
        assert eps_n == pytest.approx(0.00956943928420231, rel=1e-10)
        assert 0.0 < eps_n < self.L / self.N
        resid = self._bound_min(eps_n, self.L, self.N, self.EPS) - self.XI
        assert abs(resid) <= 1e-6
        # the bound is increasing in eps_n, so it brackets xi
        assert self._bound_min(0.98 * eps_n, self.L, self.N, self.EPS) < self.XI
        assert self._bound_min(1.02 * eps_n, self.L, self.N, self.EPS) > self.XI

    @staticmethod
    def _mp_level(eps, xi, n, beta, iters=32):
        # eps_n = (l/n) e^u* with u* the maximum over log tau of
        # u_tau = l log(eps/tau) / P^-1(l-1, xi - (1 - I_tau(l, n+1-l))),
        # at 40 digits: 1 - I_tau is the binomial sum P[Bin(n, tau) <= l-1],
        # P^-1 a root of mpmath's gammainc, and the maximum a golden-section
        # search between the neighbours of the best of 100001 double points
        l = math.ceil(beta * n)
        with mpmath.workdps(40):
            log_eps = mpmath.log(eps)

            def u_tau(lt):
                tau = mpmath.exp(lt)
                ratio = tau / (1 - tau)
                term = lower = (1 - tau) ** n
                for k in range(1, l):
                    term *= ratio * (n - k + 1) / k
                    lower += term
                slack = xi - lower
                if slack <= 0:
                    return -mpmath.inf
                g = mpmath.findroot(
                    lambda x: mpmath.gammainc(l - 1, 0, x, regularized=True) - slack,
                    scipy.special.gammaincinv(l - 1, float(slack)))
                return l * (log_eps - lt) / g

            lt = np.linspace(math.log(eps), 0.0, 100001)
            slack = xi - (1.0 - scipy.special.betainc(l, n + 1 - l, np.exp(lt)))
            with np.errstate(divide="ignore", invalid="ignore"):
                grid = l * (math.log(eps) - lt) / scipy.special.gammaincinv(l - 1, slack)
            j = int(np.argmax(np.where(slack > 0, grid, -np.inf)))
            a = mpmath.mpf(lt[max(j - 1, 0)])
            b = mpmath.mpf(lt[min(j + 1, lt.size - 1)])
            r = (mpmath.sqrt(5) - 1) / 2
            c, d = b - r * (b - a), a + r * (b - a)
            uc, ud = u_tau(c), u_tau(d)
            for _ in range(iters):
                if uc >= ud:
                    b, d, ud = d, c, uc
                    c = b - r * (b - a)
                    uc = u_tau(c)
                else:
                    a, c, uc = c, d, ud
                    d = a + r * (b - a)
                    ud = u_tau(d)
            return float(mpmath.mpf(l) / n * mpmath.exp(max(uc, ud)))

    @pytest.mark.parametrize("eps, xi, n, beta", [
        (1e-2, 0.1, 10**5, 0.01),
        (1e-2, 0.05, 10**5, 0.01),
        (1e-2, 0.1, 10**4, 0.01),
        (1e-2, 0.1, 10**3, 0.01),
        (1e-3, 1e-2, 10**5, 0.05),
        # tau = 1 leaves slack xi > 0, so u_1 bounds u* below for any xi
        (1e-2, 1e-12, 10**5, 0.01),
    ])
    def test_mpmath_oracle(self, eps, xi, n, beta):
        got = epsn_powerlaw(ReliabilityTarget(eps, PCR, xi), n, beta, mode="non-asymptotic")
        assert got == pytest.approx(self._mp_level(eps, xi, n, beta), rel=4e-15, abs=0)

    @pytest.mark.parametrize("eps, xi, n, beta", [
        (1e-5, 1e-9, 10**4, 0.005),
        (1e-5, 1e-9, 10**3, 0.05),
        (1e-3, 1e-2, 10**3, 0.005),
        (1e-3, 0.1, 10**4, 0.002),
        (1e-4, 1e-6, 10**4, 0.02),
        (1e-2, 0.1, 500, 0.02),
    ])
    def test_mpmath_oracle_at_small_l(self, eps, xi, n, beta):
        # l = 5 to 200, cells fixed before the first run. The relative error
        # of scipy's gamma inverse reaches eps_n = (l/n) e^u* times |u*|,
        # which grows as eps falls: the worst measured was 1.27e-14, at
        # eps = 1e-5 and l = 50
        got = epsn_powerlaw(ReliabilityTarget(eps, PCR, xi), n, beta, mode="non-asymptotic")
        assert got == pytest.approx(self._mp_level(eps, xi, n, beta), rel=2e-14, abs=0)

    def test_more_conservative_than_asymptotic(self):
        target = ReliabilityTarget(self.EPS, PCR, self.XI)
        nonasym = epsn_powerlaw(target, self.N, self.BETA, mode="non-asymptotic")
        asym = epsn_powerlaw(target, self.N, self.BETA)
        assert nonasym <= asym

    def test_smaller_xi_smaller_epsn(self):
        tight = epsn_powerlaw(ReliabilityTarget(self.EPS, PCR, 0.05), self.N,
                              self.BETA, mode="non-asymptotic")
        loose = epsn_powerlaw(ReliabilityTarget(self.EPS, PCR, 0.1), self.N,
                              self.BETA, mode="non-asymptotic")
        assert tight < loose

    def test_l_equals_two_falls_back(self):
        target = ReliabilityTarget(1e-2, PCR, 0.1)
        with pytest.warns(RuntimeWarning):
            got = epsn_powerlaw(target, 200, 0.01, mode="non-asymptotic")
        assert got == epsn_powerlaw(target, 200, 0.01, mode="asymptotic")

    def test_l_below_two_raises(self):
        with pytest.raises(InsufficientTailDataError):
            epsn_powerlaw(ReliabilityTarget(1e-2, PCR, 0.1), 100, 0.01,
                          mode="non-asymptotic")

    def test_ar_mode_rejected(self):
        with pytest.raises(ValueError):
            epsn_powerlaw(ReliabilityTarget(1e-2), 10**4, 0.01, mode="non-asymptotic")

    def test_bound_stuck_below_xi_warns(self):
        # l far below n*eps: the bound's supremum is already under xi
        target = ReliabilityTarget(0.1, PCR, 0.1)
        with pytest.warns(RuntimeWarning):
            got = epsn_powerlaw(target, 10**4, 0.001, mode="non-asymptotic")
        assert 0.0 < got < 10 / 10**4


class TestRateFunctions:
    def test_rayleigh_frozen(self):
        got = _rate("rayleigh", [1.0], eps_n=1e-3)
        assert got == pytest.approx(0.0014426952813983453, rel=1e-12)
        assert got == pytest.approx(0.0014427, abs=5e-8)

    def test_rayleigh_equals_outage_capacity_at_mle(self):
        rng = RNG(21)
        for n in (1, 10, 100):
            s = TrainingSample(Rayleigh(2.0).sample(rng, n))
            for eps_n in (1e-4, 1e-2):
                assert _rate("rayleigh", s.values, eps_n=eps_n) == pytest.approx(
                    Rayleigh(s.values.mean()).epsilon_outage_capacity(eps_n), rel=1e-14)

    def test_rayleigh_scaling_response(self):
        rng = RNG(22)
        vals = Rayleigh(1.0).sample(rng, 64)
        for eps_n in (1e-3, 0.2):
            got = _rate("rayleigh", 2.0 * vals, eps_n=eps_n)
            mean2 = 2.0 * vals.mean()
            expect = math.log1p(-mean2 * math.log1p(-eps_n)) / math.log(2.0)
            assert got == pytest.approx(expect, rel=1e-15)

    def test_rayleigh_vanishes_with_eps_n(self):
        assert _rate("rayleigh", [1.0, 2.0], eps_n=1e-300) < 1e-290

    def test_rayleigh_domain(self):
        # eps_n is checked where it is solved, before any Calibration
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError, match="eps"):
                epsn_rayleigh_ar(bad, 10)
            with pytest.raises(ValueError, match="eps"):
                epsn_rayleigh_pcr(bad, 0.1, 10)

    def test_nonparam_examples(self):
        assert _rate("nonparametric", [3.0], l=1) == pytest.approx(2.0, rel=1e-15)
        assert _rate("nonparametric", [1.0, 3.0, 7.0], l=2) == pytest.approx(2.0, rel=1e-15)

    def test_nonparam_monotone_in_l(self):
        x = RNG(23).exponential(size=30)
        rates = [_rate("nonparametric", x, l=l) for l in range(1, 31)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_nonparam_index_errors(self):
        # calibrated indices never leave [0, n]; l = 0 is the zero rate
        for n in (1, 2, 10):
            for eps in (1e-3, 0.5, 0.999):
                for l in (nonparam_l_ar(eps, n), nonparam_l_pcr(eps, 0.1, n),
                          plug_in_nonparam_index(eps, n)):
                    assert 0 <= l <= n
        assert _rate("nonparametric", [1.0, 2.0], l=0) == 0.0

    def test_powerlaw_frozen(self):
        # the l = 3 smallest log-values are log(0.3) - (2, 1, 0), so the
        # beta = 0.3 fit has kappa_hat = 1 and alpha_hat = 1
        x = [0.3 * math.exp(-2.0), 0.3 * math.exp(-1.0), 0.3] + list(range(1, 8))
        got = _rate("powerlaw-asym", x, beta=0.3, eps_n=1e-3)
        assert got == pytest.approx(math.log2(1.001), rel=1e-13)
        assert got == pytest.approx(0.0014420, abs=5e-8)

    def test_powerlaw_monotone_in_eps_n(self):
        x = RNG(24).exponential(size=400)
        grid = [1e-6, 1e-4, 1e-2, 0.3, 0.9]
        rates = [_rate("powerlaw-asym", x, beta=0.05, eps_n=e) for e in grid]
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert _rate("powerlaw-asym", x, beta=0.05, eps_n=1e-12) < rates[0]


class TestSelectRate:
    def test_parametric_ar_frozen(self):
        # rounds to 0.0014427 (a 0.0014428 reading is off in its last digit)
        s = TrainingSample([1.0] * 100)
        got = select_rate(SelectorSpec("rayleigh"), ReliabilityTarget(1e-3), s)
        assert got == pytest.approx(0.0014427024949005948, rel=1e-12)
        assert got == pytest.approx(0.0014427, abs=5e-8)

    def test_parametric_pcr_dispatch(self):
        s = TrainingSample([1.0] * 100)
        got = select_rate(SelectorSpec("rayleigh"),
                          ReliabilityTarget(1e-3, PCR, 1e-2), s)
        eps_n = epsn_rayleigh_pcr(1e-3, 1e-2, 100)
        assert got == _rate("rayleigh", s.values, eps_n=eps_n)

    def test_nonparam_zero_rate(self):
        s = TrainingSample(RNG(25).exponential(size=500))
        got = select_rate(SelectorSpec("nonparametric"), ReliabilityTarget(1e-3), s)
        assert got == 0.0

    def test_nonparam_ar_dispatch(self):
        s = TrainingSample(RNG(26).exponential(size=1000))
        got = select_rate(SelectorSpec("nonparametric"), ReliabilityTarget(1e-2), s)
        assert got == _rate("nonparametric", s.values, l=10)

    def test_nonparam_pcr_dispatch(self):
        s = TrainingSample(RNG(27).exponential(size=1000))
        got = select_rate(SelectorSpec("nonparametric"),
                          ReliabilityTarget(1e-2, PCR, 0.1), s)
        assert got == _rate("nonparametric", s.values, l=6)

    def test_plugin_rayleigh_is_outage_capacity_at_mle(self):
        s = TrainingSample(RNG(28).exponential(size=50))
        got = select_rate(SelectorSpec("plugin-rayleigh"), ReliabilityTarget(1e-3), s)
        assert got == pytest.approx(
            Rayleigh(s.values.mean()).epsilon_outage_capacity(1e-3), rel=1e-14)

    def test_plugin_nonparam_dispatch(self):
        s = TrainingSample(RNG(29).exponential(size=1000))
        got = select_rate(SelectorSpec("plugin-nonparametric"), ReliabilityTarget(1e-3), s)
        assert got == _rate("plugin-nonparametric", s.values, l=2)

    def test_powerlaw_asym_ar_dispatch(self):
        s = TrainingSample(RNG(30).exponential(size=2000))
        got = select_rate(SelectorSpec("powerlaw-asym", beta=0.05), ReliabilityTarget(1e-3), s)
        assert got == _rate("powerlaw-asym", s.values, beta=0.05, eps_n=1e-3)
        l = 100  # ceil(0.05 n)
        kappa, z_l = fit_ascending_tails(np.sort(s.values)[:l][None], s.n)
        alpha_hat = (l / s.n) * math.exp(-z_l[0] / kappa[0])
        assert got == pytest.approx(math.log1p(math.exp(
            kappa[0] * math.log(1e-3 / alpha_hat))) / math.log(2.0), rel=1e-13)

    def test_all_families_produce_finite_rates(self):
        s = TrainingSample(RNG(31).exponential(size=10**4))
        for fam in FAMILIES:
            beta = 0.01 if fam.startswith("powerlaw") else None
            target = ReliabilityTarget(1e-2, PCR, 0.1)
            rate = select_rate(SelectorSpec(fam, beta=beta), target, s)
            assert math.isfinite(rate) and rate >= 0.0

    def test_make_rate_fn_reusable(self):
        fn = make_rate_fn(SelectorSpec("rayleigh"), ReliabilityTarget(1e-3), 100)
        rng = RNG(32)
        for _ in range(3):
            s = TrainingSample(Rayleigh(1.0).sample(rng, 100))
            assert fn(s) == _rate("rayleigh", s.values, eps_n=epsn_rayleigh_ar(1e-3, 100))

    def test_make_rate_fn_type_errors(self):
        with pytest.raises(TypeError):
            make_rate_fn("rayleigh", ReliabilityTarget(1e-3), 100)
        with pytest.raises(TypeError):
            make_rate_fn(SelectorSpec("rayleigh"), (1e-3, AR), 100)
        with pytest.raises(ValueError):
            make_rate_fn(SelectorSpec("rayleigh"), ReliabilityTarget(1e-3), 0)


class TestCalibrate:
    TARGETS = (ReliabilityTarget(1e-2), ReliabilityTarget(1e-2, PCR, 0.1))

    def _designs(self):
        for fam in FAMILIES:
            beta = 0.05 if fam.startswith("powerlaw") else None
            for target in self.TARGETS:
                if fam == "powerlaw-nonasym" and target.kind == AR:
                    continue  # the finite-sample bound is PCR only
                yield SelectorSpec(fam, beta=beta), target

    def test_batch_rows_equal_single_sample_selection(self):
        samples = RNG(33).exponential(size=(5, 2000))
        for selector, target in self._designs():
            batch = calibrate(selector, target, 2000).rates(samples)
            assert batch.shape == (5,)
            for row, rate in zip(samples, batch):
                # bitwise: a scalar selection is a batch of one
                assert select_rate(selector, target, TrainingSample(row)) == rate
                assert calibrate(selector, target, 2000).rates(row[None])[0] == rate

    def test_holds_the_solved_level_or_index(self):
        n, eps, xi = 2000, 1e-2, 0.1
        pcr = ReliabilityTarget(eps, PCR, xi)
        assert calibrate(SelectorSpec("rayleigh"), pcr, n).eps_n == epsn_rayleigh_pcr(eps, xi, n)
        assert calibrate(SelectorSpec("rayleigh"), self.TARGETS[0], n).eps_n == epsn_rayleigh_ar(eps, n)
        assert calibrate(SelectorSpec("nonparametric"), pcr, n).l == nonparam_l_pcr(eps, xi, n)
        assert calibrate(SelectorSpec("plugin-nonparametric"), pcr, n).l == plug_in_nonparam_index(eps, n)
        assert calibrate(SelectorSpec("plugin-rayleigh"), pcr, n).eps_n == eps
        cal = calibrate(SelectorSpec("powerlaw-nonasym", beta=0.05), pcr, n)
        assert cal.eps_n == epsn_powerlaw(pcr, n, 0.05, mode="non-asymptotic")
        assert cal.l is None

    def test_zero_index_gives_zero_rates(self):
        cal = calibrate(SelectorSpec("nonparametric"), ReliabilityTarget(1e-3), 100)
        assert cal.l == 0
        rates = cal.rates(RNG(34).exponential(size=(3, 100)))
        assert rates.tolist() == [0.0, 0.0, 0.0]

    def test_mean_rate_finite_when_the_row_sum_overflows(self):
        cal = calibrate(SelectorSpec("rayleigh"), ReliabilityTarget(1e-3), 4)
        g = -math.log1p(-cal.eps_n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = cal.rates(np.full((1, 4), 1e308))
        assert big[0] == pytest.approx(math.log2(1.0 + g * 1e308), rel=1e-14)
        # rows whose mean is finite keep their bytes
        rows = RNG(35).exponential(size=(3, 4))
        mixed = cal.rates(np.vstack([rows, np.full((1, 4), 1e308)]))
        assert mixed[:3].tobytes() == cal.rates(rows).tobytes()
        assert mixed[3] == big[0]

    def test_stat_rates_of_the_row_means_are_the_rates(self):
        rows = RNG(36).exponential(size=(5, 40))
        for family in ("rayleigh", "plugin-rayleigh"):
            cal = calibrate(SelectorSpec(family), ReliabilityTarget(1e-2, PCR, 0.1), 40)
            assert cal.width is None
            assert cal.stat_rates(rows.mean(axis=1)).tobytes() == cal.rates(rows).tobytes()
        cal = calibrate(SelectorSpec("rayleigh"), ReliabilityTarget(0.999999), 1)
        with pytest.raises(NoSolutionError, match="eps_n=1.0"):
            cal.stat_rates(np.ones(1))

    def test_stat_rates_takes_the_width(self):
        # the l-th smallest alone for a nonparametric family (nothing at
        # l = 0), the l smallest for power-law
        target = ReliabilityTarget(0.05, PCR, 0.1)
        samples = RNG(37).exponential(size=(4, 200))
        for family, beta, n, width in (("nonparametric", None, 200, 1),
                                       ("plugin-nonparametric", None, 200, 1),
                                       ("powerlaw-asym", 0.05, 200, 10),
                                       ("nonparametric", None, 20, 0)):
            cal = calibrate(SelectorSpec(family, beta=beta), target, n)
            assert cal.width == width
            l = width if cal.l is None else cal.l
            tail = np.sort(samples[:, :n], axis=1)[:, l - width:l]
            assert cal.stat_rates(tail).tobytes() == cal.rates(samples[:, :n]).tobytes()
            with pytest.raises(ValueError, match=rf"\(B, {width}\)"):
                cal.stat_rates(np.sort(samples, axis=1)[:, :width + 1])

    def test_stat_rates_of_integers_and_scalars_are_those_of_float_arrays(self):
        # stat_rates rates a float copy of whatever it is given
        target = ReliabilityTarget(0.05, PCR, 0.1)
        for family, beta in (("rayleigh", None), ("nonparametric", None),
                             ("powerlaw-asym", 0.05)):
            cal = calibrate(SelectorSpec(family, beta=beta), target, 200)
            stat = np.arange(1, 3 * (cal.width or 1) + 1).reshape(3, -1)
            if cal.width is None:
                stat = stat[:, 0]
                for mean in (2.0, np.float64(2.0), np.array(2.0)):
                    assert cal.stat_rates(mean) == cal.stat_rates(np.array([2.0]))[0]
            assert cal.stat_rates(stat).tobytes() == cal.stat_rates(stat * 1.0).tobytes()

    def test_rates_validates_samples(self):
        cal = calibrate(SelectorSpec("rayleigh"), ReliabilityTarget(1e-2), 4)
        good = np.ones((2, 4))
        for bad in (np.ones(4), np.ones((2, 3)), np.ones((0, 4)),
                    np.where(np.eye(2, 4) > 0, -1.0, 1.0),
                    np.where(np.eye(2, 4) > 0, np.nan, 1.0)):
            with pytest.raises(ValueError):
                cal.rates(bad)
        assert cal.rates(good).shape == (2,)
        with pytest.raises(ValueError):
            sample_rows([[1.0, math.inf]])

    def test_level_of_one_or_more_has_no_rate(self):
        # calibrate still returns the level; a rate from it is refused
        cal = calibrate(SelectorSpec("powerlaw-asym", beta=0.9),
                        ReliabilityTarget(0.9, PCR, 0.9), 10)
        assert cal.eps_n == pytest.approx(1.0301731352)
        with pytest.raises(NoSolutionError, match=r"eps_n=1\.03.*\(eps=0\.9, xi=0\.9, n=10\)"):
            cal.rates(np.linspace(1.0, 2.0, 10)[None])
        cal = calibrate(SelectorSpec("rayleigh"), ReliabilityTarget(0.999999), 1)
        assert cal.eps_n == 1.0
        with pytest.raises(NoSolutionError, match=r"eps_n=1\.0 .*\(eps=0\.999999, n=1\)"):
            cal.stat_rates(np.ones(3))
        # a level just below 1 keeps its rate
        below = Calibration(SelectorSpec("plugin-rayleigh"), 1, eps_n=math.nextafter(1.0, 0.0))
        assert np.isfinite(below.stat_rates(np.ones(1))).all()

    def test_powerlaw_batch_raises_like_fit_power_tail(self):
        target = ReliabilityTarget(1e-2)
        spec = SelectorSpec("powerlaw-asym", beta=0.3)
        good = np.linspace(1.0, 2.0, 10)
        zero = np.array([0.0] + list(range(1, 10)), dtype=float)
        flat = np.array([1.0, 1.0, 1.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
        cal = calibrate(spec, target, 10)
        # a zero in the tail is too little tail data, not a usage error
        with pytest.raises(InsufficientTailDataError, match="1 of the l=3 smallest"):
            cal.rates(np.stack([good, zero]))
        with pytest.raises(InsufficientTailDataError):
            cal.rates(np.stack([good, flat]))
        small = calibrate(SelectorSpec("powerlaw-asym", beta=0.05), target, 10)
        with pytest.raises(InsufficientTailDataError):
            small.rates(good[None])

    def test_powerlaw_clustered_tiny_tail_keeps_positive_rate(self):
        # alpha_hat = (l/n) exp(-z_l/kappa) overflows on this tail
        x = 1e-300 * (1.0 + 1e-12 * np.arange(1000))
        n, eps, beta = x.size, 1e-3, 0.05
        l = math.ceil(beta * n)
        z = np.log(np.sort(x)[:l])
        q = z[-1] + (z[-1] - z.mean()) * math.log(n * eps / l)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = select_rate(SelectorSpec("powerlaw-asym", beta=beta),
                              ReliabilityTarget(eps), TrainingSample(x))
        assert got == pytest.approx(math.log1p(math.exp(q)) / math.log(2.0), rel=1e-12, abs=0)
        assert got == pytest.approx(1.4427e-300, rel=1e-4, abs=0)

    def test_powerlaw_single_fit_path_matches_batch_on_clustered_tiny_tail(self):
        # alpha_hat = (l/n) exp(-z_l/kappa_hat) overflows to inf on this
        # tail; the z_l-based log-quantile is the one Calibration.rates takes
        x = 1e-300 * (1.0 + 1e-12 * np.arange(1000))
        beta, l = 0.05, 50  # l = ceil(beta n)
        cases = ((SelectorSpec("powerlaw-asym", beta=beta), ReliabilityTarget(1e-3)),
                 (SelectorSpec("powerlaw-nonasym", beta=beta),
                  ReliabilityTarget(1e-3, kind=PCR, xi=0.1)))
        for spec, target in cases:
            cal = calibrate(spec, target, x.size)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                kappa, z_l = fit_ascending_tails(np.sort(x)[:l][None], x.size)
                got = cal.rates(x[None])[0]
            q = z_l[0] + kappa[0] * math.log(x.size * cal.eps_n / l)
            with np.errstate(over="ignore"):
                alpha_hat = (l / x.size) * np.exp(-z_l[0] / kappa[0])
            assert alpha_hat == math.inf
            assert q == pytest.approx(math.log(1e-300), rel=1e-9)
            assert got == pytest.approx(math.log1p(math.exp(q)) / math.log(2.0), rel=1e-14, abs=0)
            assert got == pytest.approx(1.4427e-300, rel=1e-4, abs=0)
