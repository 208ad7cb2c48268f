import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from statrate.channels import ChannelModel, Nakagami, PowerLawTail, Rayleigh, Rician

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

    def test_power_law_tail_positive(self):
        with pytest.raises(ValueError):
            PowerLawTail(0.0, 1.0)
        with pytest.raises(ValueError):
            PowerLawTail(1.0, 0.0)


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

    def test_moments_mgf_power_law(self):
        ray = Rayleigh(0.7)
        ric = Rician(0.7, 0.0)
        nak = Nakagami(0.7, 1.0)
        assert ric.moments() == pytest.approx(ray.moments(), rel=1e-12)
        assert nak.moments() == pytest.approx(ray.moments(), rel=1e-12)
        for t in (-3.0, 0.0, 0.5, 1.4):
            assert ric.mgf(t) == pytest.approx(ray.mgf(t), rel=1e-12)
            assert nak.mgf(t) == pytest.approx(ray.mgf(t), rel=1e-12)
        for model in (ric, nak):
            pl = model.power_law()
            assert pl.alpha == pytest.approx(1.0 / 0.7, rel=1e-12)
            assert pl.kappa == pytest.approx(1.0, rel=1e-12)

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


class TestSampler:
    def test_means_within_three_se(self):
        cases = [
            (Rayleigh(2.0), 2.0),
            (Rician(1.0, 3.0), 4.0),
            (Nakagami(1.0, 2.0), 2.0),
        ]
        for model, want in cases:
            x = model.sample(RNG(101), 10**6)
            mean, var = model.moments()
            assert mean == pytest.approx(want, rel=1e-12)
            se = math.sqrt(var / x.size)
            assert abs(x.mean() - want) <= 3.0 * se

    def test_variance_matches_moments(self):
        for model in (Rayleigh(1.5), Rician(2.0, 1.0), Nakagami(1.0, 0.5)):
            x = model.sample(RNG(202), 10**6)
            _, var = model.moments()
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

    def test_count_and_nonnegative(self):
        for model in ALL_MODELS:
            x = model.sample(RNG(404), 17)
            assert x.shape == (17,)
            assert np.all(x >= 0.0)
        with pytest.raises(ValueError):
            Rayleigh(1.0).sample(RNG(404), 0)


class TestMoments:
    def test_examples(self):
        assert Rayleigh(1.0).moments() == (1.0, 1.0)
        assert Rician(1.0, 0.0).moments() == (1.0, 1.0)
        assert Nakagami(2.0, 3.0).moments() == pytest.approx((6.0, 12.0), rel=1e-12)

    def test_closed_forms(self):
        assert Rician(2.0, 3.0).moments() == pytest.approx((8.0, 28.0), rel=1e-12)
        assert Nakagami(1.0, 0.5).moments() == pytest.approx((0.5, 0.5), rel=1e-12)


class TestMgf:
    def test_t_zero_is_one(self):
        for model in ALL_MODELS:
            assert model.mgf(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_rayleigh_example(self):
        assert Rayleigh(1.0).mgf(0.5) == pytest.approx(2.0, rel=1e-12)

    def test_rician_example(self):
        # e^3 * 2, cross-checked against quadrature of the density
        want = 2.0 * math.exp(3.0)
        assert Rician(1.0, 3.0).mgf(0.5) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(40.1710738464, rel=1e-10)

    def test_quadrature_oracle(self):
        # E[e^{tX}] against integration over the exact density
        cases = [
            (Rician(1.0, 3.0), 0.5),
            (Rician(2.0, 1.0), 0.2),
            (Nakagami(1.0, 0.5), 0.6),
            (Nakagami(2.0, 3.0), -0.4),
            (Rayleigh(1.0), -2.0),
        ]
        for model, t in cases:
            if isinstance(model, Rician):
                lam, k = model.lam, model.k
                logpdf = lambda y: (scipy.stats.ncx2.logpdf(2 * y / lam, df=2, nc=2 * k)
                                    + math.log(2 / lam))
            elif isinstance(model, Nakagami):
                logpdf = lambda y: scipy.stats.gamma.logpdf(y, a=model.m, scale=model.lam)
            else:
                logpdf = lambda y: scipy.stats.expon.logpdf(y, scale=model.lam)
            # integrate exp(t*y + logpdf) so the tilted tail never overflows
            val, err = scipy.integrate.quad(
                lambda y: math.exp(min(t * y + logpdf(y), 700.0)), 0, np.inf,
                limit=200)
            assert model.mgf(t) == pytest.approx(val, rel=1e-8)

    def test_domain_error(self):
        for model in (Rayleigh(1.0), Rician(1.0, 3.0), Nakagami(2.0, 1.0)):
            with pytest.raises(ValueError):
                model.mgf(1.0 / model.lam)
            with pytest.raises(ValueError):
                model.mgf(1.0 / model.lam + 0.5)


class TestPowerLaw:
    def test_examples(self):
        pl = Rayleigh(2.0).power_law()
        assert (pl.alpha, pl.kappa) == pytest.approx((0.5, 1.0), rel=1e-12)
        pl = Rician(1.0, 3.0).power_law()
        assert (pl.alpha, pl.kappa) == pytest.approx((math.exp(-3.0), 1.0), rel=1e-12)
        assert pl.alpha == pytest.approx(0.0497871, rel=1e-6)
        pl = Nakagami(1.0, 0.5).power_law()
        assert (pl.alpha, pl.kappa) == pytest.approx(
            (1.0 / math.gamma(1.5), 2.0), rel=1e-12)
        assert pl.alpha == pytest.approx(1.1283791671, rel=1e-10)

    def test_tail_consistency(self):
        # cdf(y) / (alpha y^(1/kappa)) -> 1 as y -> 0; probe deep so the
        # first-order term dominates even at k=7
        for model in (Rician(1.0, 1.0), Rician(1.0, 7.0), Nakagami(1.0, 0.5),
                      Nakagami(2.0, 2.0)):
            pl = model.power_law()
            y = (1e-6 / pl.alpha) ** pl.kappa
            ratio = model.cdf(y) / (pl.alpha * y ** (1.0 / pl.kappa))
            assert model.cdf(y) <= 1e-4
            assert ratio == pytest.approx(1.0, abs=0.05)
        model = Rayleigh(1.0)
        pl = model.power_law()
        y = 1e-6 / pl.alpha
        assert model.cdf(y) <= 1e-6 * 1.01
        ratio = model.cdf(y) / (pl.alpha * y)
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
