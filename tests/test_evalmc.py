import concurrent.futures
import math

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtri

from statrate.channels import Nakagami, Rayleigh, Rician
from statrate import evalmc
from statrate.evalmc import (
    SWEEP_AXES,
    Estimate,
    EvalConfig,
    EvalReport,
    block_rows,
    evaluate,
    sweep,
    trial_block,
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
    select_rate,
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
        report = evaluate(_cfg(n=n, eps=eps, trials=trials, seed=44))
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


class TestBlockEngine:
    def test_block_size_depends_on_n_alone(self):
        assert [block_rows(n) for n in (1, 10, 1000, 10**4, 2**16, 10**5)] == [
            2**16, 6553, 65, 6, 1, 1]

    def test_trial_reproducible_from_its_block(self):
        # off Rayleigh truth a trial is a row of trial_block
        cases = ((Rician(1.0, 2.0), "nonparametric", None, 5000, 30),
                 (Nakagami(1.0, 2.0), "powerlaw-asym", 0.05, 3000, 50))
        for model, family, beta, n, trials in cases:
            cfg = _cfg(model=model, family=family, beta=beta, kind=PCR, xi=0.1,
                       n=n, trials=trials, seed=60)
            rates, outages = trial_outcomes(cfg, axis_index=3)
            rows = block_rows(n)
            for t in (0, rows - 1, rows, trials - 1):
                sample = trial_block(model, n, 60, 3, t // rows)[t % rows]
                rate = select_rate(cfg.selector, cfg.target, TrainingSample(sample))
                assert rate == rates[t]
                assert model.cdf(np.expm1(rate * math.log(2.0))) == outages[t]

    @pytest.mark.parametrize("family,beta,n,trials", [
        # 655 rows a block, the last block partial; one row a block
        ("rayleigh", None, 100, 700), ("plugin-rayleigh", None, 10**5, 3),
        ("powerlaw-nonasym", 0.05, 100, 700), ("nonparametric", None, 10**5, 3)])
    def test_rayleigh_trial_replays_from_its_block_stream(self, family, beta, n,
                                                          trials):
        cfg = _cfg(model=Rayleigh(1.3), family=family, beta=beta, eps=0.05,
                   kind=PCR, xi=0.1, n=n, trials=trials, seed=60)
        rates, outages = trial_outcomes(cfg, axis_index=3)
        rows = block_rows(n)
        for t in sorted({0, rows - 1, rows, trials - 1} & set(range(trials))):
            rate = _replay_rayleigh(cfg, 3, t)
            assert rate == rates[t]
            assert cfg.true_model.cdf(np.expm1(rate * math.log(2.0))) == outages[t]

    def test_block_is_spawn_keyed_pcg64dxsm_stream(self):
        for model, n in ((Rayleigh(1.0), 100), (Rician(1.0, 2.0), 5000),
                         (Nakagami(1.0, 2.0), 3000)):
            for seed, axis_index, block in ((60, 0, 0), (60, 3, 7), (2**40 + 1, 1, 2)):
                rng = np.random.Generator(np.random.PCG64DXSM(
                    np.random.SeedSequence(seed, spawn_key=(axis_index, block))))
                rows = block_rows(n)
                want = model.sample(rng, rows * n).reshape(rows, n)
                got = trial_block(model, n, seed, axis_index, block)
                assert got.tobytes() == want.tobytes()

    def test_distinct_keys_give_distinct_blocks(self):
        # a flat SeedSequence((seed, axis_index, block)) would run the words
        # together and give (2**32 + 5, 7, 0) and (5, 1, 7) the same stream
        s = 2**63 - 1
        pairs = (((s, 2**32 - 1, 2**32 - 1), (s, 2**32 - 1, 2**32 - 2)),
                 ((s, 2**32 - 1, 2**32 - 1), (0, 2**32 - 1, 2**32 - 1)),
                 ((s, 1, 0), (s, 0, 1)),
                 ((2**32 + 5, 7, 0), (5, 1, 7)))
        model, n = Rayleigh(1.0), 1000
        for a, b in pairs:
            x, y = trial_block(model, n, *a), trial_block(model, n, *b)
            assert x.shape == y.shape == (block_rows(n), n)
            assert not np.array_equal(x, y)

    def test_first_trials_unchanged_when_trials_grow(self):
        for n, few, many in ((10, 100, 7000), (5000, 20, 50)):
            base = _cfg(n=n, trials=few, seed=61)
            short = trial_outcomes(base, axis_index=1)
            longer = trial_outcomes(_cfg(n=n, trials=many, seed=61), axis_index=1)
            for part, whole in zip(short, longer):
                assert np.array_equal(part, whole[:few])

    def test_large_n_memory_bounded(self):
        import tracemalloc
        n = 10**5
        for family, beta in (("nonparametric", None), ("powerlaw-asym", 0.01)):
            cfg = _cfg(family=family, beta=beta, kind=PCR, xi=0.1, n=n,
                       trials=3, seed=62)
            tracemalloc.start()
            try:
                evaluate(cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - 8 * n < 10 * 2**20
        # Rayleigh truth draws no sample: a Gamma sum or l = 10 spacings a trial
        n = 10**7
        for family, eps in (("rayleigh", 1e-2), ("nonparametric", 1e-6)):
            cfg = _cfg(family=family, eps=eps, n=n, trials=3, seed=62)
            tracemalloc.start()
            try:
                evaluate(cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 10 * 2**20


def _full_block_outcomes(cfg, axis_index, calibration):
    # the reference: full trial_block draws through Calibration.rates
    rows, trials = block_rows(cfg.n), cfg.trials
    rates = np.concatenate([
        calibration.rates(trial_block(cfg.true_model, cfg.n, cfg.seed, axis_index,
                                      lo // rows)[:min(rows, trials - lo)])
        for lo in range(0, trials, rows)])
    return rates, cfg.true_model.cdf(np.expm1(rates * math.log(2.0)))


def _replay_rayleigh(cfg, axis_index, t):
    # trial t on Rayleigh truth from its block's stream alone, as the README's
    # Determinism section gives it: a Gamma(n) sum for a mean family, the
    # Renyi spacings of the l smallest values for a tail family
    n, rows = cfg.n, block_rows(cfg.n)
    # the calibration trial_outcomes uses, which a test may patch
    cal = evalmc.calibrate(cfg.selector, cfg.target, n)
    rng = np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence(cfg.seed, spawn_key=(axis_index, t // rows))))
    lam, l = cfg.true_model.lam, cal.tail_size
    if l is None:
        total = rng.standard_gamma(n, rows)[t % rows]
        return cal.mean_rates(np.array([lam * (total / n)]))[0]
    u = rng.random((rows, l))[t % rows]
    tail = lam * np.cumsum(-np.log1p(-u) / (n - np.arange(l)))
    return cal.tail_rates(tail[None])[0]


class TestTailPath:
    TAIL_FAMILIES = (("nonparametric", None), ("plugin-nonparametric", None),
                     ("powerlaw-asym", 0.05), ("powerlaw-nonasym", 0.05))
    MEAN_FAMILIES = (("rayleigh", None), ("plugin-rayleigh", None))

    def test_zero_tail_size_draws_nothing(self, monkeypatch):
        # nonparametric AR with n < 1/eps - 1: l = 0, every rate is zero
        for model in (Rayleigh(1.3), Rician(1.3, 2.0)):
            cfg = _cfg(model=model, family="nonparametric", eps=1e-2, n=50,
                       trials=40, seed=65)
            cal = calibrate(cfg.selector, cfg.target, 50)
            assert cal.tail_size == 0
            want = _full_block_outcomes(cfg, 0, cal)

            def no_draw(*args):
                raise AssertionError("drew a block for l = 0")

            with monkeypatch.context() as patch:
                patch.setattr(evalmc, "_block_rng", no_draw)
                patch.setattr(evalmc, "trial_block", no_draw)
                got = trial_outcomes(cfg)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
            assert not got[0].any()

    @pytest.mark.parametrize("family,beta", TAIL_FAMILIES + MEAN_FAMILIES)
    @pytest.mark.parametrize("model", (Rician(1.3, 2.0), Nakagami(1.3, 2.0)),
                             ids=repr)
    def test_every_truth_and_family_equals_trial_block(self, monkeypatch, model,
                                                       family, beta):
        # three blocks, the last one partial
        n, trials = 500, 300
        cfg = _cfg(model=model, family=family, beta=beta, eps=0.05, kind=PCR,
                   xi=0.1, n=n, trials=trials, seed=66)
        want = _full_block_outcomes(cfg, 2, calibrate(cfg.selector, cfg.target, n))
        blocks = []
        real_block = evalmc.trial_block
        monkeypatch.setattr(evalmc, "trial_block",
                            lambda *a: blocks.append(a[-1]) or real_block(*a))
        got = trial_outcomes(cfg, axis_index=2)
        assert blocks == [0, 1, 2]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_rate_raises(self):
        # a Gamma(2) draw times 1e308 passes the float maximum above 1.8; at
        # n = 1 the mean lam * S passes it for S above 1.06
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
        for family, beta in self.TAIL_FAMILIES + (("rayleigh", None),
                                                  ("plugin-rayleigh", None)):
            cal = calibrate(SelectorSpec(family, beta=beta), target, 4000)
            cal.rates(samples)
            assert samples.tobytes() == before
            if cal.tail_size:
                tail = np.partition(samples, cal.tail_size - 1, axis=1)[:, :cal.tail_size]
                # only the last column's place is fixed; the others may come in any order
                head = tail[:, :-1]
                head[:] = rng.permuted(head, axis=1)
                tail_before = tail.tobytes()
                assert cal.tail_rates(tail).tobytes() == cal.rates(samples).tobytes()
                assert tail.tobytes() == tail_before

    def test_tail_of_every_value(self, monkeypatch):
        # l = n: the l-th smallest is each row's maximum, the last spacing E / 1
        n, trials = 50, 2000
        cal = Calibration(SelectorSpec("nonparametric"), n, l=n)
        monkeypatch.setattr(evalmc, "calibrate", lambda *args: cal)
        cfg = _cfg(family="nonparametric", n=n, trials=trials, seed=70)
        rates, _ = trial_outcomes(cfg, axis_index=3)
        for t in (0, block_rows(n) - 1, block_rows(n), trials - 1):
            assert _replay_rayleigh(cfg, 3, t) == rates[t]

    def test_tails_of_many_blocks_are_rated_together(self, monkeypatch):
        # a block keeps 6 rows of 87 values: a buffer of 2^16 values holds 125 blocks
        cfg = _cfg(family="nonparametric", eps=1e-2, kind=PCR, xi=0.1, n=10**4,
                   trials=1600, seed=72)
        batches = []
        real = Calibration.tail_rates
        monkeypatch.setattr(Calibration, "tail_rates",
                            lambda self, tail: batches.append(tail.shape) or real(self, tail))
        rates, _ = trial_outcomes(cfg)
        monkeypatch.setattr(Calibration, "tail_rates", real)
        assert batches == [(750, 87), (750, 87), (100, 87)]
        # rating in batches changes no byte of a trial's rate
        for t in (0, 749, 750, 1500, 1599):
            assert _replay_rayleigh(cfg, 0, t) == rates[t]


class TestRayleighDraw:
    FAMILIES = TestTailPath.TAIL_FAMILIES + TestTailPath.MEAN_FAMILIES

    # one partial block; rows > 1 with a partial last block (twice); rows = 1
    @pytest.mark.parametrize("n,trials", [(10, 4000), (500, 1000), (2000, 1000),
                                          (70000, 200)])
    @pytest.mark.parametrize("family,beta", FAMILIES)
    def test_law_equals_full_samples(self, family, beta, n, trials):
        # the Gamma sum and the Renyi spacings give the rates of full samples in law
        eps, xi, beta = (0.2, 0.3, beta and 0.3) if n == 10 else (0.05, 0.1, beta)
        cfg = _cfg(model=Rayleigh(1.3), family=family, beta=beta, eps=eps, kind=PCR,
                   xi=xi, n=n, trials=trials, seed=64)
        cal = calibrate(cfg.selector, cfg.target, n)
        assert cal.tail_size != 0
        # the reference draws full samples on another axis, so from other streams
        want = _full_block_outcomes(cfg, 6, cal)
        got = trial_outcomes(cfg, axis_index=5)
        assert scipy.stats.ks_2samp(got[0], want[0]).pvalue > 1e-3
        for g, w in ((got[1], want[1]), (got[1] > eps, want[1] > eps)):
            se = math.sqrt((g.var() + w.var()) / trials)
            assert abs(g.mean() - w.mean()) <= 4.0 * se


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

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        base = _cfg(trials=5, seed=63)
        serial = sweep(base, "n", [10, 20])
        monkeypatch.setattr(evalmc.os, "cpu_count", lambda: 2)
        assert sweep(base, "n", [10, 20], workers=2) == serial
        assert sweep(base, "n", [10, 20], workers=64) == serial
        assert started == [2, 2]
        monkeypatch.setattr(evalmc.os, "cpu_count", lambda: 64)
        sweep(base, "n", [10, 20, 30], workers=8)
        sweep(base, "n", [10], workers=8)
        assert started == [2, 2, 3]

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
