"""Kernel accuracy tests against independent oracles.

Oracle policy: every frozen constant below was produced by a method
that shares no code with the implementation under test (exact integer
arithmetic, high-precision mpmath evaluation, direct quadrature, or a
closed form), and the derivation is recorded next to the constant.
"""

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp
import scipy.stats

from statrate.specfun import (
    inv_reg_lower_gamma,
    inv_reg_upper_gamma,
    log_gamma,
    marcum_q1,
    marcum_q1_complement,
    nc_chi2_cdf,
    nc_chi2_sf,
    reg_inc_beta,
    reg_lower_gamma,
    reg_upper_gamma,
    std_normal_quantile,
)


def exact_binom_ge(n, l, x):
    """P[Bin(n, x) >= l] summed with exact binomial coefficients."""
    return math.fsum(math.comb(n, j) * x**j * (1.0 - x) ** (n - j)
                     for j in range(l, n + 1))


class TestLogGamma:
    def test_exact_integers(self):
        # ln Gamma(n+1) = ln n!, exact integer factorials as oracle
        for n in [1, 2, 5, 10, 20, 100]:
            oracle = math.log(math.factorial(n))
            assert log_gamma(n + 1) == pytest.approx(oracle, rel=1e-12)

    def test_value_11(self):
        # oracle: ln(10!) = ln 3628800, mpmath 50 dps: 15.1044125730755153
        assert log_gamma(11.0) == pytest.approx(15.1044125730755153, rel=1e-12)

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-12)

    def test_one(self):
        assert log_gamma(1.0) == 0.0

    def test_large_domain(self):
        # Stirling cross-check at the top of the contracted domain
        x = 1e6
        stirling = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2 * math.pi) + 1.0 / (12 * x)
        assert log_gamma(x) == pytest.approx(stirling, rel=1e-12)

    def test_inf_past_the_largest_double(self):
        # math.lgamma raises OverflowError from about 2.56e305; below, its value
        assert log_gamma(2.5e305) == math.lgamma(2.5e305) < math.inf
        assert log_gamma(2.6e305) == log_gamma(1e306) == log_gamma(math.inf) == math.inf

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)


class TestRegGamma:
    def test_exponential_special_case(self):
        # P(1, x) = 1 - e^{-x} exactly
        for x in [0.0, 1e-8, 0.1, 1.0, 5.0, 50.0]:
            assert reg_lower_gamma(1.0, x) == pytest.approx(-math.expm1(-x), abs=1e-15)

    def test_erlang2_closed_form(self):
        # P(2, 2) = 1 - 3 e^{-2}; mpmath: 0.5939941502901619
        assert reg_lower_gamma(2.0, 2.0) == pytest.approx(1.0 - 3.0 * math.exp(-2.0), rel=1e-13)
        assert reg_lower_gamma(2.0, 2.0) == pytest.approx(0.5939941502901619, rel=1e-12)

    def test_integer_shape_poisson_identity(self):
        # P(k, x) = P[Poisson(x) >= k], exact series oracle
        rng = np.random.default_rng(20240811)
        for _ in range(50):
            k = int(rng.integers(1, 30))
            x = float(rng.uniform(0.01, 40.0))
            tail = 1.0 - math.fsum(math.exp(-x) * x**j / math.factorial(j)
                                   for j in range(k))
            assert reg_lower_gamma(k, x) == pytest.approx(tail, abs=5e-14)

    def test_complement(self):
        for a, x in [(0.5, 0.3), (3.0, 2.0), (100.0, 110.0)]:
            assert reg_lower_gamma(a, x) + reg_upper_gamma(a, x) == pytest.approx(1.0, abs=1e-13)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = float(rng.uniform(0.2, 50.0))
            xs = np.sort(rng.uniform(0.0, 100.0, size=8))
            vals = [reg_lower_gamma(a, float(x)) for x in xs]
            assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_gamma(1.0, -0.1)


def mp_inv_reg_lower_gamma(a, p):
    """The x with P(a, x) = p for the exact double p: Newton's method at
    40 digits, on Q(a, x) = 1 - p above p = 1/2 so 1 - p stays exact."""
    with mpmath.workdps(40):
        a, p = mpmath.mpf(a), mpmath.mpf(p)
        x = mpmath.mpf(float(sp.gammaincinv(float(a), float(p))))
        for _ in range(100):
            if p > 0.5:
                residual = (1 - p) - mpmath.gammainc(a, x, mpmath.inf, regularized=True)
            else:
                residual = mpmath.gammainc(a, 0, x, regularized=True) - p
            step = residual / mpmath.exp((a - 1) * mpmath.log(x) - x - mpmath.loggamma(a))
            x -= step
            if abs(step) < x * mpmath.mpf(10) ** -35:
                return x
    raise AssertionError("oracle did not converge")


def inv_gamma_oracle_cases(tail):
    """The (a, level) cases of the gamma inverses' mpmath oracle tests, for
    the "lower" or the "upper" inverse: a few edges, then 120 random shapes
    in [0.5, 1e5] at a level spread over [0, 1), [1e-30, 0.1] or
    [1 - 0.1, 1 - 1e-12]."""
    if tail == "lower":
        rng = np.random.default_rng(2024)
        cases = [(1e5, 1.0 - 1e-9), (1e5, 0.5), (0.5, 1e-30), (1.0, 1.0 - 1e-12)]
    else:
        rng = np.random.default_rng(2026)
        cases = [(1e5, 1e-30), (0.5, 1e-30), (0.5, 1.0 - 1e-12), (1e5, 1.0 - 1e-9), (1.0, 0.5)]
    for _ in range(120):
        a = float(10 ** rng.uniform(math.log10(0.5), 5.0))
        level = float(rng.choice([rng.uniform(0.0, 1.0), 10 ** rng.uniform(-30.0, -1.0),
                                  1.0 - 10 ** rng.uniform(-12.0, -1.0)]))
        cases.append((a, level))
    return cases


class TestInvRegLowerGamma:
    def test_exponential_closed_form(self):
        # a=1: inverse is -log(1-p)
        for p in [0.0, 1e-9, 0.3, 0.99, 0.999999]:
            assert inv_reg_lower_gamma(1.0, p) == pytest.approx(-math.log1p(-p), rel=1e-11, abs=1e-300)

    def test_round_trip_frozen_example(self):
        x = inv_reg_lower_gamma(2.0, 0.5939941502901619)
        assert x == pytest.approx(2.0, rel=1e-9)

    def test_round_trips_random(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            a = float(10 ** rng.uniform(-0.5, 5.0))
            p = float(rng.uniform(1e-9, 1.0 - 1e-9))
            x = inv_reg_lower_gamma(a, p)
            assert reg_lower_gamma(a, x) == pytest.approx(p, rel=1e-9, abs=1e-12)

    def test_scipy_cross_check(self):
        # independent inverse implementation
        for a, p in [(0.7, 0.2), (3.0, 0.97), (1e4, 0.5), (1e6, 0.999)]:
            assert inv_reg_lower_gamma(a, p) == pytest.approx(float(sp.gammaincinv(a, p)), rel=1e-10)

    def test_mpmath_oracle(self):
        for a, p in inv_gamma_oracle_cases("lower"):
            want = mp_inv_reg_lower_gamma(a, p)
            got = inv_reg_lower_gamma(a, p)
            assert abs(got - want) <= 1e-13 * want, (a, p, got, want)

    def test_tiny_p(self):
        # the root sits far below the bracket's upper end, ~ a + 10 sqrt(a);
        # Brent's method used to run out of its 100 iterations here
        for a, p in [(2.0, 1e-30), (1.5, 1e-48), (3.0, 1e-36), (1.5, 1e-300)]:
            want = mp_inv_reg_lower_gamma(a, p)
            assert abs(inv_reg_lower_gamma(a, p) - want) <= 1e-13 * want

    def test_array_levels_are_scalar_calls_elementwise(self):
        # a scalar level is a batch of one, and an array keeps its shape
        p = np.array([[0.0, 1e-30, 0.4], [0.5, 0.9, 1.0 - 1e-12]])
        for a in (0.5, 2.0, 1e5):
            got = inv_reg_lower_gamma(a, p)
            assert got.shape == p.shape
            want = [inv_reg_lower_gamma(a, float(level)) for level in p.ravel()]
            assert all(type(x) is float for x in want)
            assert got.ravel().tolist() == want

    @pytest.mark.parametrize("a", [1e6, 5e17, 2.6e305, sys.float_info.max])
    def test_past_the_documented_shapes_nothing_raises(self, a):
        # no accuracy is promised past a = 1e5, but a value comes back
        for level in (1e-3, 0.5, 0.9):
            assert inv_reg_lower_gamma(a, level) >= 0.0
            assert inv_reg_upper_gamma(a, level) >= 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            inv_reg_lower_gamma(1.0, 1.0)
        with pytest.raises(ValueError):
            inv_reg_lower_gamma(1.0, -0.01)
        with pytest.raises(ValueError):
            inv_reg_lower_gamma(-2.0, 0.5)


def mp_inv_reg_upper_gamma(a, q):
    """The x with Q(a, x) = q for the exact double q: Newton's method at
    40 digits, on P(a, x) = 1 - q above q = 1/2 so 1 - q stays exact."""
    with mpmath.workdps(40):
        a, q = mpmath.mpf(a), mpmath.mpf(q)
        x = mpmath.mpf(float(sp.gammainccinv(float(a), float(q))))
        for _ in range(100):
            if q > 0.5:
                residual = mpmath.gammainc(a, 0, x, regularized=True) - (1 - q)
            else:
                residual = q - mpmath.gammainc(a, x, mpmath.inf, regularized=True)
            step = residual / mpmath.exp((a - 1) * mpmath.log(x) - x - mpmath.loggamma(a))
            x -= step
            if abs(step) < x * mpmath.mpf(10) ** -35:
                return x
    raise AssertionError("oracle did not converge")


class TestInvRegUpperGamma:
    def test_exponential_closed_form(self):
        # a=1: Q(1, x) = exp(-x), so the inverse is -log(q)
        for q in [1.0, 0.7, 0.5, 1e-3, 1e-9, 1e-300]:
            assert inv_reg_upper_gamma(1.0, q) == pytest.approx(-math.log(q), rel=1e-14, abs=1e-300)

    def test_mpmath_oracle(self):
        for a, q in inv_gamma_oracle_cases("upper"):
            want = mp_inv_reg_upper_gamma(a, q)
            got = inv_reg_upper_gamma(a, q)
            assert abs(got - want) <= 1e-13 * want, (a, q, got, want)

    def test_small_q_keeps_digits_the_lower_inverse_loses(self):
        # 1 - 1e-9 rounds away digits of 1e-9; q goes in exactly
        a, q = 10.0, 1e-9
        want = mp_inv_reg_upper_gamma(a, q)
        assert abs(inv_reg_upper_gamma(a, q) - want) <= 1e-14 * want
        assert abs(inv_reg_lower_gamma(a, 1.0 - q) - want) > 1e-12 * want

    def test_domain_errors(self):
        for a, q in [(1.0, 0.0), (1.0, 1.5), (1.0, -0.01), (-2.0, 0.5), (0.0, 0.5)]:
            with pytest.raises(ValueError):
                inv_reg_upper_gamma(a, q)


class TestRegIncBeta:
    def test_one_minus_power_special_case(self):
        # I_x(1, n) = 1 - (1-x)^n exactly
        for n in [1, 5, 40]:
            for x in [0.0, 0.01, 0.5, 1.0]:
                assert reg_inc_beta(1.0, float(n), x) == pytest.approx(
                    -math.expm1(n * math.log1p(-x)) if x < 1.0 else 1.0, abs=1e-14)

    def test_endpoints(self):
        assert reg_inc_beta(3.0, 5.0, 0.0) == 0.0
        assert reg_inc_beta(3.0, 5.0, 1.0) == 1.0

    def test_order_statistic_example(self):
        # I_{0.01}(6, 995) = P[Bin(1000, 0.01) >= 6]
        # exact-fraction oracle (50 dps): 0.933860488393
        oracle = exact_binom_ge(1000, 6, 0.01)
        assert reg_inc_beta(6.0, 995.0, 0.01) == pytest.approx(oracle, rel=1e-10)
        assert reg_inc_beta(6.0, 995.0, 0.01) == pytest.approx(0.933860488393, rel=1e-9)

    def test_binomial_identity_random_triples(self):
        # I_x(l, n+1-l) = P[Bin(n, x) >= l] over 1000 random (n, l, x)
        rng = np.random.default_rng(20240812)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 200))
            l = int(rng.integers(1, n + 1))
            x = float(rng.uniform(0.0, 1.0))
            lhs = reg_inc_beta(l, n + 1 - l, x)
            rhs = exact_binom_ge(n, l, x)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-9

    def test_monotone_in_x(self):
        xs = np.linspace(0, 1, 33)
        vals = [reg_inc_beta(4.0, 17.0, float(x)) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            reg_inc_beta(1.0, 1.0, 1.5)


class TestMarcumQ1:
    def test_b_zero(self):
        assert marcum_q1(0.7, 0.0) == 1.0
        assert marcum_q1(0.0, 0.0) == 1.0

    def test_a_zero_rayleigh_tail(self):
        # Q1(0, b) = exp(-b^2/2) exactly
        for b in [0.1, 1.0, 3.0, 10.0]:
            assert marcum_q1(0.0, b) == pytest.approx(math.exp(-b * b / 2.0), rel=1e-12, abs=0)

    def test_frozen_value_1_2(self):
        # Four independent oracles agree: quadrature of the Marcum
        # integral, Poisson-Erlang series, Bessel series, scipy ncx2.sf
        # -> 0.26901206003591 (the last digit of any coarser rounding
        # such as 0.2690124 is wrong).
        assert marcum_q1(1.0, 2.0) == pytest.approx(0.26901206003591, rel=1e-10)

    def test_quadrature_oracle(self):
        # independent oracle: Q1(a,b) = int_b^inf x exp(-(x^2+a^2)/2) I0(ax) dx
        # written with the scaled Bessel i0e so I0(ax) never overflows:
        # exp(-(x^2+a^2)/2) I0(ax) = exp(-(x-a)^2/2) i0e(ax)
        def oracle(a, b):
            val, err = scipy.integrate.quad(
                lambda x: x * math.exp(-0.5 * (x - a) ** 2) * sp.i0e(a * x),
                b, np.inf, epsabs=1e-14, epsrel=1e-12, limit=200)
            return val

        for a, b in [(1.0, 2.0), (0.5, 0.1), (2.0, 2.0), (3.0, 1.0), (5.0, 7.0)]:
            assert marcum_q1(a, b) == pytest.approx(oracle(a, b), rel=1e-8)

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 10.0])
    def test_mpmath_oracle_contract(self, a):
        # the documented box: a <= 10, b <= 40, wherever Q1 >= 1e-300,
        # such as 2.09e-299 at (3, 40)
        for b in np.linspace(0.0, 40.0, 41):
            want = TestNcChi2.mp_sf(b * b, 1, a * a)
            if want >= 1e-300:
                assert marcum_q1(a, float(b)) == pytest.approx(float(want), rel=1e-12, abs=0), b

    def test_scipy_ncx2_cross_check_box(self):
        # contract box a <= 10, b <= 40 wherever representable
        rng = np.random.default_rng(20240813)
        for _ in range(200):
            a = float(rng.uniform(0.0, 10.0))
            b = float(rng.uniform(0.0, 40.0))
            ref = float(scipy.stats.ncx2.sf(b * b, 2, a * a)) if a > 0 else math.exp(-b * b / 2)
            if ref > 1e-250:
                assert marcum_q1(a, b) == pytest.approx(ref, rel=1e-9, abs=0), (a, b)

    def test_complement_consistency(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = float(rng.uniform(0.0, 8.0))
            b = float(rng.uniform(0.0, 12.0))
            s = marcum_q1(a, b) + marcum_q1_complement(a, b)
            assert s == pytest.approx(1.0, abs=1e-12)

    def test_complement_deep_tail(self):
        # lower tail must keep relative accuracy where 1 - Q cancels;
        # oracle: leading Poisson-Erlang terms in exact arithmetic
        a, b = math.sqrt(2 * 7.0), math.sqrt(2 * 1e-9)  # k=7, y/lam=1e-9
        u, v = a * a / 2, b * b / 2
        oracle = math.fsum(
            math.exp(-v) * v**i / math.factorial(i)
            * math.fsum(math.exp(-u) * u**j / math.factorial(j) for j in range(i))
            for i in range(1, 8))
        got = marcum_q1_complement(a, b)
        assert got == pytest.approx(oracle, rel=1e-9, abs=0)
        assert got < 1e-9  # genuinely deep tail

    def test_underflow_is_zero(self):
        # at b = 1e20 the summand's peak, K ~ 5e19, is past where float K
        # can step; the weights there underflow, and so does the value
        for a, b in [(1.0, 1e20), (10.0, 1e3), (1.0, math.inf), (0.0, 40.0)]:
            assert marcum_q1(a, b) == 0.0

    def test_monotone_decreasing_in_b(self):
        bs = np.linspace(0.0, 9.0, 40)
        vals = [marcum_q1(2.5, float(b)) for b in bs]
        assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_monotone_increasing_in_a(self):
        as_ = np.linspace(0.0, 9.0, 40)
        vals = [marcum_q1(float(a), 2.5) for a in as_]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(ValueError):
            marcum_q1_complement(1.0, -1.0)

    def test_complement_where_scipy_gives_nan_raises(self):
        # chndtr is nan at noncentrality 9e10; the error names the CDF's arguments
        with pytest.raises(ValueError, match=r"x=90000000000\.0, half_df=1\.0, nc=9"):
            marcum_q1_complement(3e5, 3e5)


class TestNcChi2:
    def test_central_reduces_to_gamma(self):
        for half_df, x in [(1, 0.5), (5, 12.0), (100, 180.0)]:
            assert nc_chi2_sf(x, half_df, 0.0) == pytest.approx(
                reg_upper_gamma(half_df, x / 2.0), rel=1e-12)

    def test_scipy_cross_check(self):
        rng = np.random.default_rng(314)
        for _ in range(60):
            half_df = int(rng.integers(1, 400))
            nc = float(rng.uniform(0.0, 2000.0))
            mean = 2 * half_df + nc
            x = float(rng.uniform(0.2 * mean, 2.5 * mean))
            ref_sf = float(scipy.stats.ncx2.sf(x, 2 * half_df, nc))
            ref_cdf = float(scipy.stats.ncx2.cdf(x, 2 * half_df, nc))
            if 1e-280 < ref_sf:
                assert nc_chi2_sf(x, half_df, nc) == pytest.approx(ref_sf, rel=1e-8, abs=0)
            if 1e-280 < ref_cdf:
                assert nc_chi2_cdf(x, half_df, nc) == pytest.approx(ref_cdf, rel=1e-8, abs=0)

    def test_domain_errors(self):
        for x, half_df, nc in [(-1.0, 1, 1.0), (math.nan, 1, 1.0), (1.0, 1, -1.0),
                               (1.0, 1, math.inf), (1.0, 1, math.nan), (1.0, 0, 1.0),
                               (1.0, -1.0, 1.0), (1.0, math.inf, 1.0), (1.0, math.nan, 1.0)]:
            for f in (nc_chi2_sf, nc_chi2_cdf):
                with pytest.raises(ValueError):
                    f(x, half_df, nc)
        # the Poisson(nc/2) mixture needs exact K: nc/2 below 2^52
        with pytest.raises(ValueError):
            nc_chi2_sf(1.0, 1, 2.0 ** 53)

    def test_cdf_where_scipy_gives_nan_raises(self):
        # scipy's chndtr returns nan, not an error, at noncentrality 1e11
        with pytest.raises(ValueError, match="beyond the range scipy evaluates"):
            nc_chi2_cdf(1e11, 1.0, 1e11)
        assert math.isfinite(nc_chi2_cdf(1e10, 1.0, 1e10))

    def test_sum_property(self):
        s = nc_chi2_sf(30.0, 10, 12.0) + nc_chi2_cdf(30.0, 10, 12.0)
        assert s == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def mp_sf(x, half_df, nc):
        """P[W > x] at 40 digits: sum_j Pois(j; nc/2) Q(half_df + j, x/2).

        The Poisson weights and the gamma tails (of real shape half_df + j)
        advance by their exact recurrences over j from 20 sd below nc/2 to
        20 sd above max(nc/2, j*), where j* (half_df + j*) = nc x/4 is the
        peak of weight times gamma tail. The summand rises with j up to about
        that point (below nc/2 both factors shrink as j falls); in the
        far upper tail it peaks within a few terms of j* and then decays
        at least like exp(-d^2 / (2 j*)) at d terms past it. The mass
        outside the window is below 1e-80 of the sum.
        """
        with mpmath.workdps(40):
            u, v = mpmath.mpf(nc) / 2, mpmath.mpf(x) / 2
            peak = max(u, (mpmath.sqrt(half_df ** 2 + 4 * u * v) - half_df) / 2)
            j_lo = max(0, int(u - 20 * mpmath.sqrt(u)))
            j_hi = int(peak + 20 * mpmath.sqrt(peak)) + 1
            a = half_df + j_lo
            weight = mpmath.exp(-u + j_lo * mpmath.log(u) - mpmath.loggamma(j_lo + 1))
            tail = mpmath.gammainc(a, v, mpmath.inf, regularized=True)
            erl = mpmath.exp(-v + a * mpmath.log(v) - mpmath.loggamma(a + 1))
            total = mpmath.mpf(0)
            for j in range(j_lo, j_hi + 1):
                total += weight * tail
                tail += erl  # Q(a + 1, v) = Q(a, v) + v^a e^-v / Gamma(a + 1)
                a += 1
                erl *= v / a
                weight *= u / (j + 1)
            return total

    def test_oracle_reaches_far_tail_peak(self):
        # a window around nc/2 alone misses the summand's peak here and
        # gives 2.16e-301. Independent oracle: the Bessel series
        # Q1(a, b) = exp(-(a^2 + b^2)/2) sum_k (a/b)^k I_k(a b), b > a
        a, b = 3, 40
        with mpmath.workdps(40):
            bessel = mpmath.exp(-(a * a + b * b) / 2) * mpmath.nsum(
                lambda k: (mpmath.mpf(a) / b) ** k * mpmath.besseli(k, a * b), [0, mpmath.inf])
            series = self.mp_sf(b * b, 1, a * a)
            assert abs(series - bessel) <= 1e-30 * bessel
        assert float(series) == pytest.approx(2.09357540356865e-299, rel=1e-14, abs=0)

    @pytest.mark.parametrize("half_df", [1, 2, 2.5, 50, 400])
    @pytest.mark.parametrize("nc", [1.0, 200.0, 2000.0])
    def test_far_tail_mpmath_oracle(self, half_df, nc):
        # the upper tail down to 1e-300, where the summand peaks far above nc/2
        mean = 2.0 * half_df + nc
        for ratio in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            want = self.mp_sf(ratio * mean, half_df, nc)
            if want >= 1e-300:
                assert nc_chi2_sf(ratio * mean, half_df, nc) == pytest.approx(
                    float(want), rel=1e-12, abs=0), ratio

    @pytest.mark.parametrize("half_df, k", [(10_000, 1.0), (10_000, 10.0), (100_000, 1.0),
                                            (5000.5, 1.0)])
    def test_large_df_mpmath_oracle(self, half_df, k):
        # the mismatch meta-probability evaluates half_df = n m around the mean
        nc = 2.0 * half_df * k
        mean = 2.0 * half_df + nc
        sd = math.sqrt(2.0 * (2.0 * half_df + 2.0 * nc))
        for z in (-2.0, -1.0, 1.0, 2.0):
            x = mean + z * sd
            ref = self.mp_sf(x, half_df, nc)
            assert nc_chi2_sf(x, half_df, nc) == pytest.approx(float(ref), rel=1e-12), z
            assert nc_chi2_cdf(x, half_df, nc) == pytest.approx(float(1 - ref), rel=1e-12), z


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_frozen_value(self):
        # oracle: sqrt(2) erfinv(0.98), mpmath 50 dps: 2.32634787404084
        assert std_normal_quantile(0.01) == pytest.approx(2.32634787404084, abs=1e-9)

    def test_erfc_oracle(self):
        # independent scipy path: x = sqrt(2) * erfcinv(2p)
        for p in [1e-6, 1e-4, 0.1, 0.4, 0.9, 0.999]:
            oracle = math.sqrt(2.0) * float(sp.erfcinv(2.0 * p))
            assert std_normal_quantile(p) == pytest.approx(oracle, abs=1e-12)

    def test_round_trip(self):
        for p in [1e-4, 0.1, 0.9]:
            x = std_normal_quantile(p)
            q = 0.5 * math.erfc(x / math.sqrt(2.0))
            assert q == pytest.approx(p, rel=1e-9)

    def test_symmetry(self):
        assert std_normal_quantile(0.05) == pytest.approx(-std_normal_quantile(0.95), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            std_normal_quantile(0.0)
        with pytest.raises(ValueError):
            std_normal_quantile(1.0)


def test_concurrent_first_use_of_scipy_special():
    # 8 threads in a fresh interpreter are the first to need scipy.special,
    # all at once; each must get the finished module and the serial value
    script = """
import sys
import threading
from statrate.channels import Nakagami
from statrate.rateselect import epsn_rayleigh_pcr, nonparam_l_pcr

calls = [lambda: epsn_rayleigh_pcr(1e-3, 1e-2, 100),
         lambda: Nakagami(1.0, 2.0).cdf(0.3),
         lambda: nonparam_l_pcr(1e-2, 0.1, 1000)]
assert "scipy.special" not in sys.modules
sys.setswitchinterval(1e-6)  # switch threads often while the import runs
start = threading.Barrier(8)
results = [None] * 8

def run(i):
    start.wait()
    results[i] = calls[i % 3]()

threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
assert not any(t.is_alive() for t in threads)
serial = [calls[i % 3]() for i in range(8)]
assert [repr(r) for r in results] == [repr(r) for r in serial], (results, serial)
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
