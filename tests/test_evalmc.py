import concurrent.futures
import functools
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtri

from statrate.channels import ChannelModel, Nakagami, Rayleigh, Rician
from statrate import evalmc
from statrate.evalmc import (
    SWEEP_AXES,
    Estimate,
    EvalConfig,
    EvalReport,
    block_rows,
    evaluate,
    sweep,
    trial_outcomes,
)
from statrate.learn import TrainingSample
from statrate.mismatch import mean_outage_exact_rayleigh, meta_prob_exact_rayleigh
from statrate.rateselect import (
    PCR,
    Calibration,
    ReliabilityTarget,
    SelectorSpec,
    calibrate,
    epsn_rayleigh_ar,
    epsn_rayleigh_pcr,
    make_rate_fn,
    nonparam_l_ar,
    nonparam_l_pcr,
)


def _cfg(model=None, family="rayleigh", beta=None, eps=1e-2, kind="ar", xi=None,
         n=100, trials=200, seed=7):
    return EvalConfig(
        true_model=model if model is not None else Rayleigh(1.0),
        selector=SelectorSpec(family, beta=beta),
        target=ReliabilityTarget(eps, kind=kind, xi=xi),
        n=n, trials=trials, seed=seed)


class TestEvalConfigValidation:
    def test_type_checks(self):
        with pytest.raises(TypeError):
            EvalConfig(true_model="rayleigh", selector=SelectorSpec("rayleigh"),
                       target=ReliabilityTarget(1e-2), n=10, trials=10, seed=0)
        with pytest.raises(TypeError):
            EvalConfig(true_model=Rayleigh(1.0), selector="rayleigh",
                       target=ReliabilityTarget(1e-2), n=10, trials=10, seed=0)
        with pytest.raises(TypeError):
            EvalConfig(true_model=Rayleigh(1.0), selector=SelectorSpec("rayleigh"),
                       target=1e-2, n=10, trials=10, seed=0)

    def test_unknown_channel_model_is_rejected(self):
        # a mean draw reads the truth's noncentral gamma law (k, m), which
        # only the three fading models define; a subclass with its own cdf
        # and quantile is refused, not given the Rayleigh law
        @dataclass(frozen=True)
        class Uniform(ChannelModel):
            lam: float

            def cdf(self, y):
                return np.minimum(np.asarray(y) / self.lam, 1.0)

            def quantile(self, p):
                return self.lam * np.asarray(p)

        for family in ("rayleigh", "nonparametric"):
            with pytest.raises(TypeError, match="Rayleigh, Rician or Nakagami"):
                EvalConfig(true_model=Uniform(1.0), selector=SelectorSpec(family),
                           target=ReliabilityTarget(1e-2), n=10, trials=10, seed=0)

    def test_bounds(self):
        for bad in (0, 2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                _cfg(n=bad)
        for bad in (0, 2**32, math.inf, math.nan):
            with pytest.raises(ValueError, match="trials must be"):
                _cfg(trials=bad)
        for bad in (-1, 2**63, math.inf, math.nan):
            with pytest.raises(ValueError, match="seed must be"):
                _cfg(seed=bad)
        for bad in (-1, 2**32, math.inf, math.nan):
            with pytest.raises(ValueError, match="axis_index must be"):
                trial_outcomes(_cfg(trials=5), axis_index=bad)


class TestDegenerateSelector:
    def test_omega_one_pbar_eps(self, monkeypatch):
        # every trial selects the outage capacity: evaluate's aggregation
        # must give throughput ratio 1 and mean outage eps exactly
        model = Rayleigh(1.0)
        eps = 1e-2
        r_star = model.epsilon_outage_capacity(eps)

        def oracle(config, axis_index=0):
            rates = np.full(config.trials, r_star)
            return rates, model.cdf(np.expm1(rates * math.log(2.0)))

        monkeypatch.setattr(evalmc, "trial_outcomes", oracle)
        report = evaluate(_cfg(eps=eps, trials=100))
        assert report.throughput_ratio.value == pytest.approx(1.0, abs=1e-12)
        assert report.mean_outage.value == pytest.approx(eps, abs=1e-12)
        assert report.rate_mean == pytest.approx(r_star, rel=1e-14)
        assert report.rate_stddev == pytest.approx(0.0, abs=1e-15)
        assert report.zero_rate_fraction == 0.0


class TestNonparamIdentities:
    def test_ar_mean_outage_is_l_over_n_plus_1(self):
        n, eps, trials = 10**4, 1e-2, 10**4
        report = evaluate(_cfg(family="nonparametric", eps=eps, n=n,
                               trials=trials, seed=1040))
        l = nonparam_l_ar(eps, n)
        exact = l / (n + 1)
        assert report.mean_outage.ci_lo <= exact <= report.mean_outage.ci_hi

    def test_pcr_meta_prob_is_beta_tail(self):
        import scipy.special
        n, eps, xi, trials = 10**4, 1e-2, 0.1, 10**4
        report = evaluate(_cfg(family="nonparametric", eps=eps, kind=PCR, xi=xi,
                               n=n, trials=trials, seed=43))
        l = nonparam_l_pcr(eps, xi, n)
        exact = 1.0 - scipy.special.betainc(l, n + 1 - l, eps)
        assert exact <= xi
        assert report.meta_prob.ci_lo <= exact <= report.meta_prob.ci_hi


class TestParametricExactness:
    def test_ar_mean_outage_matches_exact(self):
        n, eps, trials = 20, 1e-2, 4000
        report = evaluate(_cfg(n=n, eps=eps, trials=trials, seed=1140))
        exact = mean_outage_exact_rayleigh(epsn_rayleigh_ar(eps, n), n)
        assert exact == pytest.approx(eps, abs=1e-12)
        assert report.mean_outage.ci_lo <= exact <= report.mean_outage.ci_hi

    def test_pcr_meta_prob_matches_exact(self):
        n, eps, xi, trials = 20, 1e-2, 0.1, 4000
        report = evaluate(_cfg(n=n, eps=eps, kind=PCR, xi=xi, trials=trials, seed=45))
        eps_n = epsn_rayleigh_pcr(eps, xi, n)
        exact = meta_prob_exact_rayleigh(eps_n, eps, n)
        assert exact == pytest.approx(xi, abs=1e-8)
        assert report.meta_prob.ci_lo <= exact <= report.meta_prob.ci_hi


class TestRaoBlackwell:
    def test_analytic_q_agrees_with_double_sampling(self):
        model = Rayleigh(1.0)
        eps, n, trials = 0.05, 50, 4000
        report = evaluate(_cfg(eps=eps, n=n, trials=trials, seed=46))

        # naive estimator: draw a fresh channel gain Y per trial and count
        # rate failures log2(1+Y) < R
        rate_fn = make_rate_fn(SelectorSpec("rayleigh"), ReliabilityTarget(eps), n)
        rng = np.random.Generator(np.random.Philox(key=np.array([987, 1], dtype=np.uint64)))
        fails = 0
        for _ in range(trials):
            from statrate.learn import TrainingSample
            r = rate_fn(TrainingSample(model.sample(rng, n)))
            y = model.sample(rng, 1)[0]
            fails += 1 if y < math.expm1(r * math.log(2.0)) else 0
        p_naive = fails / trials
        half = 1.96 * math.sqrt(max(p_naive * (1.0 - p_naive), 1e-12) / trials)
        naive_lo, naive_hi = p_naive - half, p_naive + half
        assert naive_lo <= report.mean_outage.ci_hi
        assert report.mean_outage.ci_lo <= naive_hi


class TestReportShape:
    def test_ci_ordering_and_ranges(self):
        report = evaluate(_cfg(trials=500, seed=47))
        for est in (report.mean_outage, report.meta_prob, report.throughput_ratio):
            assert est.ci_lo <= est.value <= est.ci_hi
        for est in (report.mean_outage, report.meta_prob):
            assert 0.0 <= est.ci_lo and est.ci_hi <= 1.0
        assert report.throughput_ratio.ci_lo >= 0.0
        assert 0.0 <= report.zero_rate_fraction <= 1.0
        assert report.rate_stddev >= 0.0

    def test_zero_rate_regime(self):
        # nonparametric with n below 1/eps - 1: every trial transmits nothing
        report = evaluate(_cfg(family="nonparametric", eps=1e-3, n=100, trials=50))
        assert report.zero_rate_fraction == 1.0
        assert report.rate_mean == 0.0
        assert report.rate_stddev == 0.0
        assert report.mean_outage.value == 0.0
        assert report.meta_prob.value == pytest.approx(0.0, abs=1e-12)
        assert report.throughput_ratio.value == 0.0

    def test_z95_is_the_normal_quantile(self):
        # a literal, so importing evalmc evaluates no special function
        assert evalmc._Z95 == -ndtri(0.025)

    def test_single_trial_has_degenerate_ci(self):
        report = evaluate(_cfg(trials=1))
        assert report.mean_outage.ci_lo == report.mean_outage.value
        assert report.mean_outage.ci_hi == report.mean_outage.value
        assert report.rate_stddev == 0.0


class TestDeterminism:
    def test_evaluate_bitwise_reproducible(self):
        a = evaluate(_cfg(trials=300, seed=48))
        b = evaluate(_cfg(trials=300, seed=48))
        assert a == b

    def test_seed_changes_output(self):
        a = evaluate(_cfg(trials=300, seed=48))
        b = evaluate(_cfg(trials=300, seed=49))
        assert a != b

    def test_sweep_worker_count_invariance(self):
        base = _cfg(n=20, trials=60, seed=50)
        serial = sweep(base, "n", [10, 20, 40], workers=1)
        parallel = sweep(base, "n", [10, 20, 40], workers=2)
        assert serial == parallel
        again = sweep(base, "n", [10, 20, 40], workers=1)
        assert serial == again


README = Path(__file__).resolve().parents[1] / "README.md"
MODELS = (Rayleigh(1.3), Rician(1.3, 2.0), Nakagami(1.3, 2.0))
FAMILIES = (("rayleigh", None), ("plugin-rayleigh", None), ("nonparametric", None),
            ("plugin-nonparametric", None), ("powerlaw-asym", 0.05),
            ("powerlaw-nonasym", 0.05))


@functools.cache
def _replay_recipe():
    # the README's Determinism replay recipe, as printed there
    section = README.read_text().split("\n## Determinism\n", 1)[1]
    block, = (b for b in re.findall(r"^```python\n(.*?)^```", section, re.S | re.M)
              if "stat_rates" in b)
    return compile(block, "README.md", "exec")


def _replay(cfg, axis_index, t):
    # trial t's rate from its block's stream alone, by executing the README's
    # recipe; it reads evalmc.calibrate, which a test may patch
    scope = dict(np=np, calibrate=evalmc.calibrate, block_rows=block_rows,
                 selector=cfg.selector, target=cfg.target, n=cfg.n, seed=cfg.seed,
                 axis_index=axis_index, t=t, model=cfg.true_model)
    exec(_replay_recipe(), scope)
    return scope["rate"]


def _full_sample_outcomes(cfg, seed):
    # the reference: full training samples through Calibration.rates, from
    # a stream unrelated to the trials' streams
    rng = np.random.Generator(np.random.PCG64DXSM(seed))
    cal = calibrate(cfg.selector, cfg.target, cfg.n)
    rows, n = block_rows(cfg.n), cfg.n
    rates = np.concatenate([
        cal.rates(cfg.true_model.sample(rng, rows * n).reshape(rows, n))
        for _ in range(0, cfg.trials, rows)])[:cfg.trials]
    return rates, cfg.true_model.cdf(np.expm1(rates * math.log(2.0)))


class TestBlockEngine:
    def test_block_size_depends_on_the_draw_width(self, monkeypatch):
        assert [block_rows(w) for w in (1, 10, 87, 1000, 10**4, 2**16, 10**5)] == [
            2**16, 6553, 753, 65, 6, 1, 1]
        # a row draws one mean, one order statistic or the l = 87 smallest values
        cases = ((Rician(1.0, 2.0), "nonparametric", None, 2**16 + 1, [0, 1]),
                 (Nakagami(1.0, 2.0), "powerlaw-asym", 0.0087, 1600, [0, 1, 2]),
                 (Rayleigh(1.0), "rayleigh", None, 2**16 + 1, [0, 1]))
        real = evalmc._block_rng
        for model, family, beta, trials, want in cases:
            blocks = []
            monkeypatch.setattr(evalmc, "_block_rng",
                                lambda seed, a, b: blocks.append(b) or real(seed, a, b))
            cfg = _cfg(model=model, family=family, beta=beta, eps=1e-2, kind=PCR,
                       xi=0.1, n=10**4, trials=trials)
            assert calibrate(cfg.selector, cfg.target, cfg.n).width in (None, 1, 87)
            trial_outcomes(cfg)
            assert blocks == want

    @pytest.mark.parametrize("family,beta,n,trials", [
        # one partial block of means, of 13107 rows (l = 5) and of order
        # statistics; two blocks of means and of order statistics, the second
        # of one trial; three blocks of 131 rows (l = 500), the last partial;
        # two blocks of 6553 rows at l = n = 10, each level a row's maximum;
        # l = 0 at n = 10, where nothing is drawn and every rate is 0
        ("rayleigh", None, 100, 700), ("powerlaw-nonasym", 0.05, 100, 700),
        ("nonparametric", None, 10**5, 3), ("plugin-rayleigh", None, 10, 2**16 + 1),
        ("plugin-nonparametric", None, 1000, 2**16 + 1),
        ("powerlaw-asym", 0.05, 10**4, 300), ("powerlaw-asym", 0.95, 10, 6600),
        ("nonparametric", None, 10, 5)])
    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_trial_replays_from_its_block_stream(self, model, family, beta, n, trials):
        cfg = _cfg(model=model, family=family, beta=beta, eps=0.05, kind=PCR,
                   xi=0.1, n=n, trials=trials, seed=60)
        rates, outages = trial_outcomes(cfg, axis_index=3)
        rows = block_rows(calibrate(cfg.selector, cfg.target, n).width or 1)
        for t in sorted({0, rows - 1, rows, trials - 1} & set(range(trials))):
            rate = _replay(cfg, 3, t)
            assert rate == rates[t]
            assert model.cdf(np.expm1(rate * math.log(2.0))) == outages[t]

    def test_block_is_spawn_keyed_pcg64dxsm_stream(self):
        for seed, axis_index, block in ((60, 0, 0), (60, 3, 7), (2**40 + 1, 1, 2)):
            rng = np.random.Generator(np.random.PCG64DXSM(
                np.random.SeedSequence(seed, spawn_key=(axis_index, block))))
            got = evalmc._block_rng(seed, axis_index, block).random(100)
            assert got.tobytes() == rng.random(100).tobytes()

    def test_distinct_keys_give_distinct_blocks(self):
        # a flat SeedSequence((seed, axis_index, block)) would run the words
        # together and give (2**32 + 5, 7, 0) and (5, 1, 7) the same stream
        s = 2**63 - 1
        pairs = (((s, 2**32 - 1, 2**32 - 1), (s, 2**32 - 1, 2**32 - 2)),
                 ((s, 2**32 - 1, 2**32 - 1), (0, 2**32 - 1, 2**32 - 1)),
                 ((s, 1, 0), (s, 0, 1)),
                 ((2**32 + 5, 7, 0), (5, 1, 7)))
        for a, b in pairs:
            x, y = evalmc._block_rng(*a).random(1000), evalmc._block_rng(*b).random(1000)
            assert not np.array_equal(x, y)

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_first_trials_unchanged_when_trials_grow(self, model):
        # means and order statistics (2^16 a block), then tails of l = 87 in
        # blocks of 753 rows; few trials fit in one block, many do not
        tail = dict(kind=PCR, xi=0.1)
        for family, beta, n, few, many in (
                ("rayleigh", None, 10, 100, 2**16 + 10),
                ("nonparametric", None, 10**4, 100, 2**16 + 10),
                ("powerlaw-asym", 0.0087, 10**4, 700, 1600)):
            kw = dict(model=model, family=family, beta=beta, n=n, seed=61, **tail)
            short = trial_outcomes(_cfg(trials=few, **kw), axis_index=1)
            longer = trial_outcomes(_cfg(trials=many, **kw), axis_index=1)
            for part, whole in zip(short, longer):
                assert np.array_equal(part, whole[:few])

    def test_large_n_memory_bounded(self):
        import tracemalloc
        # no truth draws a sample: a mean, an order statistic or l values a
        # trial, here l = 1000, l = 10^5 > 2^16 (one row a block) and l = 10;
        # at 2e5 trials a block holds 2^16 means. Beyond the per-trial arrays
        # (rates, outages and evaluate's temporaries, six at most) the peak
        # stays small
        for model in MODELS:
            for n, family, beta, eps, trials in (
                    (10**5, "nonparametric", None, 1e-2, 3),
                    (10**5, "powerlaw-asym", 0.01, 1e-2, 3),
                    (10**7, "rayleigh", None, 1e-2, 3),
                    (10**7, "nonparametric", None, 1e-6, 3),
                    (10**7, "powerlaw-asym", 0.01, 1e-2, 3),
                    (10**7, "rayleigh", None, 1e-2, 2 * 10**5)):
                cfg = _cfg(model=model, family=family, beta=beta, eps=eps, kind=PCR,
                           xi=0.1, n=n, trials=trials, seed=62)
                tracemalloc.start()
                try:
                    evaluate(cfg)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak - 6 * 8 * trials < 10 * 2**20

    @staticmethod
    def power_law_block_peak(monkeypatch, model, blocks):
        """trial_outcomes' tracemalloc peak, in block sizes, over blocks - 1
        blocks of 65 rows of l = 1000 tail values and a partial last one."""
        import tracemalloc
        n = 10**5
        cal = Calibration(SelectorSpec("powerlaw-nonasym", beta=0.01), n, eps_n=1e-4)
        monkeypatch.setattr(evalmc, "calibrate", lambda *args: cal)
        rows = block_rows(cal.width)
        cfg = _cfg(model=model, family="powerlaw-nonasym", beta=0.01, kind=PCR, xi=0.1,
                   n=n, trials=(blocks - 1) * rows + 7, seed=63)
        assert (rows, cal.width) == (65, 1000)
        trial_outcomes(cfg)
        tracemalloc.start()
        try:
            trial_outcomes(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8 * rows * cal.width)

    def test_power_law_block_keeps_one_block_sized_array(self, monkeypatch):
        # a Rayleigh power-law block: the uniforms are drawn, mapped, sorted and
        # logged in one buffer a point allocates once, with no copy of them, no
        # second block's array and no temporary of the quantile or the fit
        assert self.power_law_block_peak(monkeypatch, Rayleigh(1.0), 4) <= 1.25

    def test_rician_power_law_block_checks_with_one_boolean_array(self, monkeypatch):
        # the Rician quantile maps the buffer in place and checks scipy's
        # values with one boolean array (1/8 block) at a time, where three of
        # them once took the peak to 2.38 blocks
        assert self.power_law_block_peak(monkeypatch, Rician(1.0, 1.0), 2) <= 1.25

    @pytest.mark.parametrize("model,family", [
        (Rayleigh(1.0), "rayleigh"), (Rayleigh(1.0), "nonparametric"),
        (Rician(1.0, 1.0), "rayleigh"), (Rician(1.0, 1.0), "nonparametric"),
        (Nakagami(1.0, 2.0), "rayleigh")], ids=str)
    def test_mean_and_order_statistic_blocks_keep_two_block_sized_arrays(
            self, monkeypatch, model, family):
        # one full block of 2^16 means or order statistics at n = 1e4: the
        # draw and one scaled or summed copy, whose log is taken in place,
        # where a third array once took the peak to 3 blocks. The peak is read
        # as the last block is rated, before the outages, less the rates
        # array every trial writes to (Nakagami order statistics keep the
        # README's exception: the gamma inversion holds about 11 blocks)
        import tracemalloc
        peaks = []
        stat_rates = Calibration._stat_rates_in_place

        def spy(cal, stat):
            rates = stat_rates(cal, stat)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return rates

        monkeypatch.setattr(Calibration, "_stat_rates_in_place", spy)
        cfg = _cfg(model=model, family=family, kind=PCR, xi=0.1, n=10**4,
                   trials=2**16, seed=64)
        assert block_rows(calibrate(cfg.selector, cfg.target, cfg.n).width or 1) == 2**16
        trial_outcomes(cfg)
        tracemalloc.start()
        try:
            trial_outcomes(cfg)
        finally:
            tracemalloc.stop()
        block = 8 * 2**16
        assert (peaks[-1] - block) / block <= 2.25


class TestTailPath:
    def test_zero_width_draws_nothing(self, monkeypatch):
        # nonparametric AR with n < 1/eps - 1: l = 0, every rate is zero
        def no_draw(*args):
            raise AssertionError("drew a block for l = 0")

        monkeypatch.setattr(evalmc, "_block_rng", no_draw)
        for model in MODELS:
            cfg = _cfg(model=model, family="nonparametric", eps=1e-2, n=50,
                       trials=40, seed=65)
            assert calibrate(cfg.selector, cfg.target, 50).width == 0
            rates, outages = trial_outcomes(cfg)
            assert rates.tolist() == outages.tolist() == [0.0] * 40

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_rate_raises(self):
        # the Nakagami mean lam * (X/2 / n) is about m lam = 2e308; at n = 1
        # the Rayleigh mean lam * S passes the float maximum for S above 1.06
        for model, n in ((Nakagami(1e308, 2.0), 100), (Rayleigh(1.7e308), 1)):
            cfg = _cfg(model=model, family="rayleigh", n=n, trials=20)
            with pytest.raises(ValueError, match=r"non-finite rate.*lam=1\.?\d*e\+308"):
                trial_outcomes(cfg)

    def test_mean_rate_finite_when_the_row_sum_overflows(self):
        # n lam passes the float maximum: the sum of the powers would overflow,
        # and at lam = 1e308 single draws did; their mean lam * (S / n) does not
        for lam, n in ((1e307, 10**4), (1e308, 100)):
            report = evaluate(_cfg(model=Rayleigh(lam), n=n, trials=100, seed=1))
            assert math.isfinite(report.rate_mean)
            assert math.isfinite(report.throughput_ratio.ci_lo)
            assert math.isfinite(report.throughput_ratio.ci_hi)

    def test_rates_leave_the_callers_array_unmodified(self):
        rng = np.random.default_rng(67)
        samples = rng.exponential(size=(16, 4000))
        before = samples.tobytes()
        target = ReliabilityTarget(0.05, PCR, 0.1)
        for family, beta in FAMILIES:
            cal = calibrate(SelectorSpec(family, beta=beta), target, 4000)
            cal.rates(samples)
            assert samples.tobytes() == before
            if cal.width:
                l = cal.width if cal.l is None else cal.l
                tail = np.partition(samples, l - 1, axis=1)[:, l - cal.width:l]
                # a power-law tail may come in any order
                tail[:] = rng.permuted(tail, axis=1)
                tail_before = tail.tobytes()
                assert cal.stat_rates(tail).tobytes() == cal.rates(samples).tobytes()
                assert tail.tobytes() == tail_before

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_tail_of_every_value(self, monkeypatch, model):
        # l = n: the l-th smallest is each row's maximum, a Beta(n, 1) uniform
        n, trials = 50, 2**16 + 2
        cal = Calibration(SelectorSpec("nonparametric"), n, l=n)
        monkeypatch.setattr(evalmc, "calibrate", lambda *args: cal)
        cfg = _cfg(model=model, family="nonparametric", n=n, trials=trials, seed=70)
        rates, _ = trial_outcomes(cfg, axis_index=3)
        for t in (0, 2**16 - 1, 2**16, trials - 1):
            assert _replay(cfg, 3, t) == rates[t]

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_each_block_is_rated_as_one_batch(self, monkeypatch, model):
        # a block of 753 rows of l = 87 tail values, or of 2^16 order statistics
        batches = []
        real = Calibration._stat_rates_in_place
        monkeypatch.setattr(Calibration, "_stat_rates_in_place",
                            lambda self, tail: batches.append(tail.shape) or real(self, tail))
        for family, beta, want in (("powerlaw-asym", 0.0087, [(753, 87), (753, 87), (94, 87)]),
                                   ("nonparametric", None, [(1600, 1)])):
            batches.clear()
            cfg = _cfg(model=model, family=family, beta=beta, eps=1e-2, kind=PCR,
                       xi=0.1, n=10**4, trials=1600, seed=72)
            rates, _ = trial_outcomes(cfg)
            assert batches == want
            for t in (0, 752, 753, 1506, 1599):
                assert _replay(cfg, 0, t) == rates[t]


class TestDraws:
    # one partial block; rows > 1 with a partial last block (twice); rows = 1;
    # and l = n = 10 in four blocks of 6553 rows, the last partial, each level
    # a row's maximum, Beta(n, 1)
    @pytest.mark.parametrize("family,beta,n,trials", [
        (family, beta, n, trials) for n, trials in ((10, 4000), (500, 1000), (2000, 1000),
                                                    (70000, 200))
        for family, beta in FAMILIES] + [("powerlaw-asym", 0.95, 10, 20000)])
    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_law_equals_full_samples(self, model, family, beta, n, trials):
        # the mean, order-statistic and power-law tail draws give the rates
        # of full samples in law, on every truth; at n = 10 a tail reads at
        # least 3 values
        eps, xi, beta = (0.2, 0.3, beta and max(beta, 0.3)) if n == 10 else (0.05, 0.1, beta)
        cfg = _cfg(model=model, family=family, beta=beta, eps=eps, kind=PCR,
                   xi=xi, n=n, trials=trials, seed=64)
        assert calibrate(cfg.selector, cfg.target, n).width != 0
        want = _full_sample_outcomes(cfg, 66)
        got = trial_outcomes(cfg, axis_index=5)
        assert scipy.stats.ks_2samp(got[0], want[0]).pvalue > 1e-3
        for g, w in ((got[1], want[1]), (got[1] > eps, want[1] > eps)):
            se = math.sqrt((g.var() + w.var()) / trials)
            assert abs(g.mean() - w.mean()) <= 4.0 * se

    @pytest.mark.parametrize("family", ("rayleigh", "plugin-rayleigh"))
    def test_rayleigh_means_keep_the_standard_gamma_bytes(self, family):
        # on Rayleigh truth X/2 is the standard_gamma(n) sum S that earlier
        # releases drew, bit for bit, so the mean lam * (S / n) keeps its bytes
        for n, trials in ((1, 50), (10, 2**16 + 5), (100, 700), (10**4, 300),
                          (10**7, 3)):
            cfg = _cfg(model=Rayleigh(1.3), family=family, kind=PCR, xi=0.1, n=n,
                       trials=trials, seed=68)
            means = np.empty(trials)
            for lo in range(0, trials, 2**16):
                hi = min(lo + 2**16, trials)
                evalmc._block_rng(68, 4, lo // 2**16).standard_gamma(n, out=means[lo:hi])
            means /= n
            means *= 1.3
            rates = calibrate(cfg.selector, cfg.target, n).stat_rates(means)
            got = trial_outcomes(cfg, axis_index=4)
            assert got[0].tobytes() == rates.tobytes()
            assert got[1].tobytes() == cfg.true_model.cdf(np.expm1(rates * math.log(2.0))).tobytes()


class TestSweep:
    def test_returns_value_report_pairs(self):
        base = _cfg(trials=10, seed=51)
        out = sweep(base, "n", [10, 100])
        assert len(out) == 2
        assert out[0][0] == 10 and out[1][0] == 100
        for _, report in out:
            assert isinstance(report, EvalReport)

    def test_points_use_distinct_substreams(self):
        base = _cfg(trials=50, seed=52)
        out = sweep(base, "n", [30, 30])
        # same parameters, different axis index: independent randomness
        assert out[0][1] != out[1][1]

    def test_axis_k_zero_matches_rayleigh(self):
        base = _cfg(model=Rayleigh(1.0), n=100, trials=2000, seed=53)
        (_, at_k0), = sweep(base, "k", [0.0])
        direct = evaluate(_cfg(model=Rayleigh(1.0), n=100, trials=2000, seed=354))
        assert at_k0.mean_outage.ci_lo <= direct.mean_outage.ci_hi
        assert direct.mean_outage.ci_lo <= at_k0.mean_outage.ci_hi

    def test_axis_m_builds_nakagami(self):
        base = _cfg(model=Rayleigh(2.0), n=50, trials=20, seed=54)
        out = sweep(base, "m", [0.5, 2.0])
        assert len(out) == 2

    def test_axis_k_and_m_keep_the_model_family(self):
        with pytest.raises(ValueError, match="axis 'k'"):
            sweep(_cfg(model=Nakagami(1.0, 0.5), trials=5), "k", [1.0])
        with pytest.raises(ValueError, match="axis 'm'"):
            sweep(_cfg(model=Rician(1.0, 2.0), trials=5), "m", [1.0])
        (_, rician), = sweep(_cfg(model=Rician(2.0, 1.0), trials=5), "k", [3.0])
        (_, direct), = sweep(_cfg(model=Rician(2.0, 3.0), trials=5), "n", [100])
        assert rician == direct

    def test_pool_size_capped_by_points_and_cpus(self, monkeypatch):
        started = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        base = _cfg(trials=5, seed=63)
        serial = sweep(base, "n", [10, 20])
        monkeypatch.setattr(evalmc.os, "cpu_count", lambda: 2)
        assert sweep(base, "n", [10, 20], workers=2) == serial
        assert sweep(base, "n", [10, 20], workers=64) == serial
        assert started == [2, 2]
        monkeypatch.setattr(evalmc.os, "cpu_count", lambda: 64)
        assert sweep(base, "n", [10, 20, 30], workers=8)[:2] == serial
        sweep(base, "n", [10], workers=8)
        assert started == [2, 2, 3]

    def test_pooled_point_warnings_reach_the_callers_filters(self, monkeypatch):
        # ceil(beta*n) = 2 falls back to the asymptotic level with a RuntimeWarning,
        # raised on a pool thread and filtered as if the point ran in this one
        monkeypatch.setattr(evalmc.os, "cpu_count", lambda: 2)
        base = _cfg(family="powerlaw-nonasym", beta=0.02, kind="pcr", xi=0.1, trials=5)
        with pytest.warns(RuntimeWarning, match=r"ceil\(beta\*n\) = 2") as record:
            pooled = sweep(base, "beta", [0.02, 0.015], workers=2)
        assert len(record) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert pooled == sweep(base, "beta", [0.02, 0.015])

    def test_omega_non_decreasing_in_n(self):
        base = _cfg(trials=2000, seed=55)
        out = sweep(base, "n", [10, 30, 100, 300, 1000])
        omegas = [rep.throughput_ratio for _, rep in out]
        for lo, hi in zip(omegas, omegas[1:]):
            width = lo.ci_hi - lo.ci_lo
            assert hi.value >= lo.value - 2.0 * width

    def test_axis_validation(self):
        base = _cfg(trials=5)
        with pytest.raises(ValueError):
            sweep(base, "lam", [1.0])
        with pytest.raises(ValueError):
            sweep(base, "n", [])
        with pytest.raises(ValueError):
            sweep(base, "n", [10.5])
        with pytest.raises(ValueError):
            sweep(base, "xi", [0.1])  # AR target has no xi
        with pytest.raises(ValueError):
            sweep(base, "n", [10], workers=0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                sweep(base, "n", [100, bad])

    def test_axes_are_documented(self):
        assert SWEEP_AXES == ("n", "k", "m", "epsilon", "xi", "beta")
