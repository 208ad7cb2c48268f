import math

import numpy as np
import pytest

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
    ReliabilityTarget,
    SelectorSpec,
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
    def test_omega_one_pbar_eps(self):
        model = Rayleigh(1.0)
        eps = 1e-2
        r_star = model.epsilon_outage_capacity(eps)

        class Oracle:
            def rates(self, samples):
                return np.full(len(samples), r_star)

        report = evaluate(_cfg(eps=eps, trials=100), calibration=Oracle())
        assert report.throughput_ratio.value == pytest.approx(1.0, abs=1e-12)
        assert report.mean_outage.value == pytest.approx(eps, abs=1e-12)
        assert report.rate_mean == pytest.approx(r_star, rel=1e-14)
        assert report.rate_stddev == pytest.approx(0.0, abs=1e-15)
        assert report.zero_rate_fraction == 0.0


class TestNonparamIdentities:
    def test_ar_mean_outage_is_l_over_n_plus_1(self):
        n, eps, trials = 10**4, 1e-2, 10**4
        report = evaluate(_cfg(family="nonparametric", eps=eps, n=n,
                               trials=trials, seed=42))
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
        cases = ((Rayleigh(1.0), "rayleigh", None, 100, 700),
                 (Rician(1.0, 2.0), "nonparametric", None, 5000, 30),
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

        monkeypatch.setattr(evalmc, "ProcessPoolExecutor", RecordingPool)
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
