import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats

from statrate.channels import ChannelModel, Nakagami, Rayleigh, Rician

RNG = lambda s: np.random.Generator(np.random.Philox(key=np.array([s, 0], dtype=np.uint64)))

ALL_MODELS = [
    Rayleigh(1.0), Rayleigh(2.0), Rayleigh(0.1),
    Rician(1.0, 0.0), Rician(1.0, 1.0), Rician(1.0, 3.0), Rician(2.0, 7.0),
    Nakagami(1.0, 0.5), Nakagami(1.0, 1.0), Nakagami(1.0, 2.0), Nakagami(2.0, 3.0),
]


class TestValidation:
    def test_scale_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                Rayleigh(bad)
            with pytest.raises(ValueError):
                Rician(bad, 1.0)
            with pytest.raises(ValueError):
                Nakagami(bad, 1.0)

    def test_rician_k_nonnegative(self):
        with pytest.raises(ValueError):
            Rician(1.0, -0.1)
        Rician(1.0, 0.0)

    def test_nakagami_m_at_least_half(self):
        with pytest.raises(ValueError):
            Nakagami(1.0, 0.49)
        Nakagami(1.0, 0.5)

    def test_nakagami_m_with_finite_log_gamma(self):
        # log Gamma(m + 1) passes the largest double from m of about 2.56e305
        Nakagami(1.0, 2.5e305)
        for bad in (2.6e305, 1e306, sys.float_info.max):
            with pytest.raises(ValueError, match=r"^m must be .* got " + re.escape(repr(bad))):
                Nakagami(1.0, bad)

    def test_parameters_must_be_finite(self):
        for bad in (math.inf, math.nan):
            for make in (lambda v: Rayleigh(v), lambda v: Rician(v, 1.0),
                         lambda v: Nakagami(v, 1.0)):
                with pytest.raises(ValueError, match="lam"):
                    make(bad)
            with pytest.raises(ValueError, match="k"):
                Rician(1.0, bad)
            with pytest.raises(ValueError, match="m"):
                Nakagami(1.0, bad)

    def test_rician_beyond_scipy_range_raises(self):
        # scipy's chndtr and chndtrix return nan at noncentrality 2e12
        model = Rician(1.0, 1e12)
        for call in (lambda: model.quantile(1e-4), lambda: model.cdf(1e12),
                     lambda: model.cdf(np.array([1.0, 1e12]))):
            with pytest.raises(ValueError, match=r"k=1000000000000\.0, lam=1\.0"):
                call()
        ok = Rician(1.0, 1e10)
        assert math.isfinite(ok.quantile(1e-4)) and math.isfinite(ok.cdf(1e10))
        assert math.isnan(ok.cdf(math.nan))


class TestCdf:
    def test_rayleigh_example(self):
        assert Rayleigh(1.0).cdf(0.0010005) == pytest.approx(
            -math.expm1(-0.0010005), abs=1e-15)
        assert Rayleigh(1.0).cdf(0.0010005) == pytest.approx(0.001, abs=1e-9)

    def test_domain_error(self):
        for model in ALL_MODELS:
            with pytest.raises(ValueError):
                model.cdf(-1e-9)
            with pytest.raises(ValueError):
                model.cdf(np.array([[1.0, -1e-9]]))

    def test_array_is_elementwise_scalar(self):
        ys = np.geomspace(1e-12, 50.0, 24).reshape(4, 6)
        for model in ALL_MODELS:
            vals = model.cdf(ys)
            assert isinstance(vals, np.ndarray) and vals.shape == ys.shape
            scalars = [model.cdf(float(y)) for y in ys.ravel()]
            assert all(isinstance(v, float) for v in scalars)
            assert vals.ravel().tolist() == scalars

    def test_range_and_monotone(self):
        ys = np.geomspace(1e-8, 50.0, 60)
        for model in ALL_MODELS:
            vals = np.array([model.cdf(y) for y in ys])
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
            assert np.all(np.diff(vals) >= 0.0)
            assert model.cdf(0.0) == 0.0
            # far tail: the Rician series leaves its high-accuracy box here,
            # so only require convergence to 1 at the 1e-8 level
            assert model.cdf(1e6) == pytest.approx(1.0, abs=1e-8)

    def test_nakagami_closed_form(self):
        # P(m, y/lam) against scipy's regularized gamma
        model = Nakagami(2.0, 3.0)
        for y in (0.1, 1.0, 5.0, 20.0):
            assert model.cdf(y) == pytest.approx(
                scipy.special.gammainc(3.0, y / 2.0), rel=1e-12)

    def test_rician_against_scipy_ncx2(self):
        # 2Y/lam ~ noncentral chi^2 with 2 dof, noncentrality 2k
        model = Rician(1.5, 2.5)
        for y in (0.01, 0.5, 2.0, 10.0):
            ref = scipy.stats.ncx2.cdf(2.0 * y / 1.5, df=2, nc=5.0)
            assert model.cdf(y) == pytest.approx(ref, rel=1e-9)

    def test_rician_k0_is_rayleigh_past_half_the_largest_double(self):
        # 2y overflows from y = 2^1023 on; the argument y/lam*2 is finite there
        y = np.concatenate([np.geomspace(1e290, 1.5e308, 40), [2.0**1023, 1e308]])
        for lam in (1.7e308, 1e308, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = Rician(lam, 0.0).cdf(y)
            np.testing.assert_allclose(got, Rayleigh(lam).cdf(y), rtol=1e-13, atol=0)
        assert Rician(1.7e308, 0.0).cdf(1.5e308) == pytest.approx(0.586191901, rel=1e-9)

    @pytest.mark.parametrize("model", [Rayleigh(1e-3), Nakagami(1e-3, 2.0),
                                       Rician(1e-3, 1.0)], ids=repr)
    def test_y_over_lam_past_the_largest_double_is_one_without_warning(self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.cdf(1.5e308) == 1.0
            assert model.cdf(np.array([1.5e308, np.finfo(float).max])).tolist() == [1.0, 1.0]


class TestReductions:
    # Rician k=0 and Nakagami m=1 must match Rayleigh pointwise
    def test_cdf_quantile_grid(self):
        rng = RNG(20240814)
        ray = Rayleigh(1.3)
        ric = Rician(1.3, 0.0)
        nak = Nakagami(1.3, 1.0)
        ys = rng.uniform(0.001, 10.0, 40)
        ps = rng.uniform(1e-6, 0.999, 40)
        for y in ys:
            assert ric.cdf(y) == pytest.approx(ray.cdf(y), rel=1e-9, abs=1e-12)
            assert nak.cdf(y) == pytest.approx(ray.cdf(y), rel=1e-9, abs=1e-12)
        for p in ps:
            assert ric.quantile(p) == pytest.approx(ray.quantile(p), rel=1e-8)
            assert nak.quantile(p) == pytest.approx(ray.quantile(p), rel=1e-9)

    def test_outage_capacity_reduction(self):
        ray = Rayleigh(1.0)
        ric = Rician(1.0, 0.0)
        for eps in (1e-3, 1e-2, 0.1):
            assert ric.epsilon_outage_capacity(eps) == pytest.approx(
                ray.epsilon_outage_capacity(eps), rel=1e-8)


class TestQuantile:
    def test_rayleigh_example(self):
        assert Rayleigh(1.0).quantile(1e-3) == pytest.approx(1.00050033e-3, rel=1e-8)

    def test_p_zero(self):
        for model in ALL_MODELS:
            assert model.quantile(0.0) == 0.0

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                Rayleigh(1.0).quantile(bad)

    def test_round_trip(self):
        ps = [1e-6, 1e-4, 1e-2, 0.1, 0.5, 0.9, 0.999]
        for model in ALL_MODELS:
            for p in ps:
                y = model.quantile(p)
                if p > 0:
                    assert model.cdf(y) == pytest.approx(p, rel=1e-8)

    def test_rician_round_trip_example(self):
        model = Rician(1.0, 3.0)
        for p in (1e-5, 1e-3, 0.3, 0.99):
            assert model.cdf(model.quantile(p)) == pytest.approx(p, rel=1e-8)

    @pytest.mark.parametrize("model", [Rayleigh(1e308), Nakagami(1e308, 0.5),
                                       Rician(1e308, 1.0)], ids=repr)
    def test_lam_times_the_unit_quantile_past_the_largest_double_is_inf_without_warning(
            self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.quantile(0.999999) == math.inf
            assert model.quantile(np.array([0.999999, 0.0])).tolist() == [math.inf, 0.0]

    def test_scaled_in_place_bit_for_bit_and_input_unchanged(self):
        # lam times the unit quantile, formed in the result array: the same
        # bits as the product formed apart, and the caller's levels untouched
        u = np.concatenate([np.geomspace(1e-300, 0.5, 40), [0.0, 1.0 - 1e-12]])
        before = u.tobytes()
        for lam in (1e-300, 1.3, 7.0, 1e300):
            assert Rayleigh(lam).quantile(u).tobytes() == (-lam * np.log1p(-u)).tobytes()
            unit = scipy.special.chndtrix(u, 2.0, 6.0)
            assert Rician(lam, 3.0).quantile(u).tobytes() == (0.5 * lam * unit).tobytes()
            assert u.tobytes() == before


class TestQuantileOut:
    LEVELS = (np.array([0.0, 1e-300, 1e-30, 1e-3, 0.3, 0.5, 0.9, 1.0 - 1e-12]),
              np.array([[0.0, 1e-10, 1e-3], [0.25, 0.5, 0.999]]))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_out_gives_the_bits_of_the_allocating_call_and_is_returned(self, model):
        # out = p itself, as a Monte Carlo block maps its uniforms, or apart
        for p in self.LEVELS:
            want = model.quantile(p).tobytes()
            apart = np.full_like(p, np.nan)
            assert model.quantile(p, out=apart) is apart
            assert apart.tobytes() == want
            same = p.copy()
            assert model.quantile(same, out=same) is same
            assert same.tobytes() == want

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_scalar_without_out_is_a_float(self, model):
        for p in (0.0, 1e-3, np.float64(0.5), np.array(0.9)):
            y = model.quantile(p)
            assert type(y) is float
            assert y == model.quantile(np.array([p]))[0]

    def test_rician_beyond_scipy_range_raises_with_out_the_levels(self):
        # scipy's nan must not be read back as a nan level, which _check_p refuses
        q = np.array([1e-4, 0.5])
        with pytest.raises(ValueError, match=r"k=100000000000\.0, lam=1\.0 is beyond the range"):
            Rician(1.0, 1e11).quantile(q, out=q)


def mp_cdf(model, y):
    """F(y) at 40 digits: 1 - exp(-v) (Rayleigh), P(m, v) (Nakagami), or the
    Poisson(k) mixture sum_j Pois(j; k) P(1 + j, v) (Rician), v = y / lam,
    summed until a term past the Poisson mean is below 1e-40 of the sum."""
    with mpmath.workdps(40):
        v = mpmath.mpf(y) / model.lam
        if isinstance(model, Rayleigh):
            return -mpmath.expm1(-v)
        if isinstance(model, Nakagami):
            return mpmath.gammainc(model.m, 0, v, regularized=True)
        k, total, j = mpmath.mpf(model.k), mpmath.mpf(0), 0
        weight = mpmath.exp(-k)
        while True:
            term = weight * mpmath.gammainc(1 + j, 0, v, regularized=True)
            total += term
            if j > k and term < total * mpmath.mpf(10) ** -40:
                return total
            j += 1
            weight *= k / j


class TestElementwiseQuantile:
    # levels from the deep tail to 1 - 1e-12
    U = np.array([1e-300, 1e-200, 1e-170, 1e-150, 1e-100, 1e-50, 1e-30, 1e-10,
                  1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12])

    @pytest.mark.parametrize("model", [
        Rayleigh(1.3), Nakagami(1.3, 0.5), Nakagami(1.3, 2.0), Nakagami(1.3, 10.0),
        Rician(1.3, 0.0), Rician(1.3, 1.0), Rician(1.3, 3.0), Rician(1.3, 10.0)], ids=repr)
    def test_round_trip_against_mpmath(self, model):
        # F(F^-1(u)) = u within the tolerance below, and each element is the
        # scalar call's value bit for bit: a scalar is a batch of one
        u = self.U
        if isinstance(model, Nakagami):
            # the specfun inverse's documented range; below it the quantile
            # of m = 0.5 (about u^2) underflows
            u = u[u >= 1e-30]
            tol = 1e-13
        elif isinstance(model, Rician) and "Boost" in scipy.special.chndtrix.__doc__:
            # scipy's Boost chndtrix (1.17.1 measured): within 1e-15 for
            # u >= 1e-150 and 4e-14 below 1e-170, but not between, where
            # scipy's chndtr loses accuracy (7e-3 relative at u = 1e-162, k = 3)
            tol = 1e-13
        elif isinstance(model, Rician):
            # older scipy inverts chndtr by a search to 1e-8 relative
            u, tol = u[u >= 1e-30], 1e-8
        else:
            tol = 1e-15
        y = model.quantile(u)
        assert y.shape == u.shape
        assert y.tolist() == [model.quantile(float(p)) for p in u]
        for p, x in zip(u, y):
            assert abs(float(mp_cdf(model, x)) - p) <= tol * p, p

    def test_shape_and_domain(self):
        p = np.array([[0.0, 0.25], [0.5, 0.75]])
        for model in ALL_MODELS:
            y = model.quantile(p)
            assert y.shape == (2, 2) and y[0, 0] == 0.0
            assert (np.diff(y.ravel()) > 0).all()
            for bad in (np.array([0.1, 1.0]), np.array([-0.1, 0.5]), np.array([math.nan])):
                with pytest.raises(ValueError, match=r"probability must be in \[0, 1\)"):
                    model.quantile(bad)


class TestSampler:
    # the law (k, m) of scale lam has mean lam (m + k) and variance lam^2 (m + 2k)
    def test_means_within_three_se(self):
        cases = [
            (Rayleigh(2.0), 2.0, 4.0),
            (Rician(1.0, 3.0), 4.0, 7.0),
            (Nakagami(1.0, 2.0), 2.0, 2.0),
        ]
        for model, want, var in cases:
            x = model.sample(RNG(101), 10**6)
            se = math.sqrt(var / x.size)
            assert abs(x.mean() - want) <= 3.0 * se

    def test_variance_matches_moments(self):
        for model, var in ((Rayleigh(1.5), 2.25), (Rician(2.0, 1.0), 12.0),
                           (Nakagami(1.0, 0.5), 0.5)):
            x = model.sample(RNG(202), 10**6)
            assert x.var() == pytest.approx(var, rel=0.02)

    def test_kolmogorov_smirnov(self):
        # 1% critical value for the KS statistic is about 1.63/sqrt(N)
        n = 10**5
        crit = 1.6276 / math.sqrt(n)
        for model in (Rayleigh(1.0), Rician(1.0, 3.0), Nakagami(1.0, 0.5),
                      Nakagami(2.0, 2.0)):
            x = np.sort(model.sample(RNG(303), n))
            f = np.array([model.cdf(v) for v in x])
            grid = np.arange(1, n + 1) / n
            stat = max(np.max(grid - f), np.max(f - (grid - 1.0 / n)))
            assert stat < crit, f"{model}: KS {stat:.4f} >= {crit:.4f}"

    def test_in_place_transforms_match_plain_expressions(self):
        # the samplers transform their draws in place; each must equal the
        # plain expression on an identically seeded generator, bit for bit
        def gen():
            return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(505)))

        count = 10**5
        for lam in (0.1, 1.0, 2.0, 1e-300):
            u = gen().random(count)
            want = -lam * np.log1p(-u)
            got = Rayleigh(lam).sample(gen(), count)
            assert got.tobytes() == want.tobytes()
        for lam, k in ((1.0, 0.0), (1.0, 3.0), (2.0, 7.0), (0.3, 0.5)):
            rng = gen()
            sigma, los = math.sqrt(lam / 2.0), math.sqrt(k * lam)
            g1 = rng.normal(0.0, sigma, count)
            g2 = rng.normal(0.0, sigma, count)
            want = (los + g1) ** 2 + g2**2
            got = Rician(lam, k).sample(gen(), count)
            assert got.tobytes() == want.tobytes()

    def test_rayleigh_sample_past_the_largest_double_is_inf_without_warning(self):
        # the sampler is the quantile of its uniforms: lam y = inf past
        # DBL_MAX (for y > 1.7977 at lam = 1e308, about 17% of the draws)
        model = Rayleigh(1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = model.sample(RNG(606), 1000)
            want = model.quantile(RNG(606).random(1000))
        assert 100 < np.count_nonzero(np.isinf(x)) < 300
        assert x.tobytes() == want.tobytes()

    def test_count_and_nonnegative(self):
        for model in ALL_MODELS:
            x = model.sample(RNG(404), 17)
            assert x.shape == (17,)
            assert np.all(x >= 0.0)
        with pytest.raises(ValueError):
            Rayleigh(1.0).sample(RNG(404), 0)


class TestNoncentralGammaLaw:
    def test_attributes(self):
        assert (Rayleigh(2.0).k, Rayleigh(2.0).m) == (0.0, 1.0)
        assert (Rician(2.0, 3.0).k, Rician(2.0, 3.0).m) == (3.0, 1.0)
        assert (Nakagami(2.0, 3.0).k, Nakagami(2.0, 3.0).m) == (0.0, 3.0)
        # the attributes are no dataclass fields: constructors and equality keep theirs
        assert Rician(2.0, 0.0) != Rayleigh(2.0)
        assert repr(Nakagami(2.0, 3.0)) == "Nakagami(lam=2.0, m=3.0)"

    @pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
    def test_cdf_is_the_noncentral_chi_square_law(self, model):
        # Y = (lam/2) X, X ~ noncentral chi-square(2m, 2k); at k = 0 the
        # central chi-square, as scipy's ncx2 needs a positive noncentrality
        y = model.lam * np.array([1e-6, 0.03, 0.7, 2.0, 9.0])
        law = (scipy.stats.ncx2(2.0 * model.m, 2.0 * model.k) if model.k
               else scipy.stats.chi2(2.0 * model.m))
        np.testing.assert_allclose(model.cdf(y), law.cdf(2.0 * y / model.lam), rtol=1e-9)
        mean, var = law.stats()
        assert (model.lam * (model.m + model.k), model.lam ** 2 * (model.m + 2.0 * model.k)) \
            == pytest.approx((model.lam / 2.0 * mean, (model.lam / 2.0) ** 2 * var), rel=1e-12)


class TestPowerLaw:
    def test_tail_consistency(self):
        # cdf(y) / (alpha y^(1/kappa)) -> 1 as y -> 0, with alpha = exp(-k) lam^-m /
        # Gamma(m+1) and kappa = 1/m; probe deep so the first-order term
        # dominates even at k=7
        def tail(model):
            return (math.exp(-model.k) * model.lam ** -model.m / math.gamma(model.m + 1.0),
                    1.0 / model.m)

        for model in (Rician(1.0, 1.0), Rician(1.0, 7.0), Nakagami(1.0, 0.5),
                      Nakagami(2.0, 2.0)):
            alpha, kappa = tail(model)
            y = (1e-6 / alpha) ** kappa
            ratio = model.cdf(y) / (alpha * y ** (1.0 / kappa))
            assert model.cdf(y) <= 1e-4
            assert ratio == pytest.approx(1.0, abs=0.05)
        model = Rayleigh(1.0)
        alpha, kappa = tail(model)
        y = 1e-6 / alpha
        assert (alpha, kappa) == (1.0, 1.0)
        assert model.cdf(y) <= 1e-6 * 1.01
        ratio = model.cdf(y) / (alpha * y)
        assert ratio == pytest.approx(1.0, abs=1e-3)


class TestStochasticOrdering:
    def test_rayleigh_between_rician_and_nakagami(self):
        lam = 1.0
        ray = Rayleigh(lam)
        for y in (1e-4, 1e-3, 5e-3):
            base = ray.cdf(y)
            assert base <= 1e-2
            for k in (0.5, 1.0, 3.0):
                assert Rician(lam, k).cdf(y) < base
            for m in (0.5, 0.7, 0.9):
                assert Nakagami(lam, m).cdf(y) > base


class TestOutageCapacity:
    def test_rayleigh_example(self):
        r = Rayleigh(1.0).epsilon_outage_capacity(1e-3)
        assert r == pytest.approx(0.0014427, abs=5e-8)

    def test_closed_form_matches_generic(self):
        for lam in (0.1, 1.0, 10.0):
            model = Rayleigh(lam)
            for eps in (1e-4, 1e-2, 0.3):
                closed = model.epsilon_outage_capacity(eps)
                generic = ChannelModel.epsilon_outage_capacity(model, eps)
                assert closed == pytest.approx(generic, rel=1e-10, abs=1e-300)

    def test_small_eps_goes_to_zero(self):
        # rate vanishes like eps^kappa, so m=3 only reaches ~5e-4 at eps=1e-12
        # and m=0.5 underflows the gamma inversion to an exact 0.0
        for model in ALL_MODELS:
            r12 = model.epsilon_outage_capacity(1e-12)
            assert 0.0 <= r12 < 1e-3
            assert r12 < model.epsilon_outage_capacity(1e-6)
            assert model.epsilon_outage_capacity(1e-6) < model.epsilon_outage_capacity(1e-2)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                Rayleigh(1.0).epsilon_outage_capacity(bad)
