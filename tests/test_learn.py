import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from statrate.channels import Rayleigh
from statrate.errors import InsufficientTailDataError, SampleParseError
from statrate.learn import (
    TailFit,
    TrainingSample,
    fit_ascending_tails,
    fit_power_tail,
    load_sample_file,
)
from statrate.rateselect import Calibration, ReliabilityTarget, SelectorSpec, calibrate

RNG = lambda s: np.random.Generator(np.random.Philox(key=np.array([s, 0], dtype=np.uint64)))
LN2 = math.log(2.0)


def _rayleigh_scale(values):
    """The scale estimate of the Rayleigh selectors, read back from the rate.

    At eps_n = 1 - 1/e the rate is log2(1 + estimate).
    """
    x = np.asarray(values, dtype=float)
    cal = Calibration(SelectorSpec("plugin-rayleigh"), x.size, eps_n=-math.expm1(-1.0))
    return math.expm1(cal.rates(x[None])[0] * LN2)


def _alpha_hat(fit, n):
    """The fitted tail constant (l/n) exp(-z_l/kappa_hat), from the fit's other fields."""
    return (fit.l / n) * math.exp(-fit.z_l / fit.kappa_hat)


def _log_quantile(values, beta, eps_n):
    """The fitted log-quantile at eps_n that Calibration.rates uses."""
    x = np.asarray(values, dtype=float)
    cal = Calibration(SelectorSpec("powerlaw-asym", beta=beta), x.size, eps_n=eps_n)
    return math.log(math.expm1(cal.rates(x[None])[0] * LN2))


class TestTrainingSample:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TrainingSample([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TrainingSample([1.0, -0.5, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TrainingSample([1.0, math.nan])
        with pytest.raises(ValueError):
            TrainingSample([1.0, math.inf])

    def test_rejects_multidimensional(self):
        with pytest.raises(ValueError):
            TrainingSample([[1.0, 2.0], [3.0, 4.0]])

    def test_values_are_read_only(self):
        s = TrainingSample([3.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 7.0

    def test_sorted_is_a_permutation(self):
        rng = RNG(11)
        vals = rng.exponential(size=57)
        s = TrainingSample(vals)
        assert s.n == 57
        np.testing.assert_array_equal(s.smallest(57), np.sort(vals))
        np.testing.assert_array_equal(s.values, vals)

    def test_order_stat_boundaries(self):
        s = TrainingSample([5.0, 1.0, 3.0])
        assert s.order_stat(0) == 0.0
        assert s.order_stat(4) == math.inf
        assert s.order_stat(1) == 1.0
        assert s.order_stat(2) == 3.0
        assert s.order_stat(3) == 5.0
        with pytest.raises(IndexError):
            s.order_stat(-1)
        with pytest.raises(IndexError):
            s.order_stat(5)

    def test_order_stat_matches_sort(self):
        rng = RNG(12)
        vals = rng.exponential(size=40)
        s = TrainingSample(vals)
        srt = np.sort(vals)
        for l in range(1, 41):
            assert s.order_stat(l) == srt[l - 1]

    def test_smallest(self):
        s = TrainingSample([5.0, 1.0, 3.0, 2.0])
        np.testing.assert_allclose(s.smallest(3), [1.0, 2.0, 3.0])
        with pytest.raises(IndexError):
            s.smallest(0)
        with pytest.raises(IndexError):
            s.smallest(5)


class TestRayleighMle:
    def test_singleton(self):
        assert _rayleigh_scale([2.0]) == pytest.approx(2.0, rel=1e-14)

    def test_arithmetic_mean(self):
        assert _rayleigh_scale([1.0, 2.0, 3.0]) == pytest.approx(2.0, rel=1e-14)

    def test_large_sample_clt(self):
        # SE of the mean of 1e6 exponential(5) draws is 5/1e3
        x = Rayleigh(5.0).sample(RNG(101), 10**6)
        assert abs(_rayleigh_scale(x) - 5.0) < 3.0 * (5.0 / 10**3)


class TestFitPowerTail:
    def test_direct_substitution(self):
        # three smallest log-values are (0, 1, 2); seven larger fillers
        vals = [1.0, math.e, math.e**2] + [8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0]
        fit = fit_power_tail(TrainingSample(vals), 0.3)
        assert fit.l == 3
        assert fit.beta == 0.3
        assert fit.z_l == pytest.approx(2.0, abs=1e-14)
        assert fit.kappa_hat == pytest.approx(1.0, rel=1e-13)
        assert _alpha_hat(fit, 10) == pytest.approx(0.3 * math.exp(-2.0), rel=1e-12)
        assert _alpha_hat(fit, 10) == pytest.approx(0.0406006, abs=5e-8)

    def test_equals_fit_ascending_tails_on_smallest(self):
        # at seed 18 and l = 499, kappa_hat's last bits depend on the tail's order
        sample = TrainingSample(RNG(18).exponential(size=997))
        for beta, l in ((0.003, 3), (0.05, 50), (0.5, 499)):
            fit = fit_power_tail(sample, beta)
            tail = sample.smallest(l)
            assert fit.l == l
            assert tail.tobytes() == np.sort(sample.values)[:l].tobytes()
            kappa, z_l = fit_ascending_tails(tail[None], sample.n)
            assert (fit.kappa_hat, fit.z_l) == (kappa[0], z_l[0])

    def test_rayleigh_truth_recovery(self):
        # Rayleigh{1} lower tail: alpha = 1, kappa = 1
        sample = TrainingSample(Rayleigh(1.0).sample(RNG(102), 10**6))
        fit = fit_power_tail(sample, 0.01)
        assert fit.l == 10**4
        assert abs(fit.kappa_hat - 1.0) < 0.05
        assert abs(_alpha_hat(fit, 10**6) - 1.0) < 0.1

    def test_scaling_property(self):
        rng = RNG(14)
        vals = rng.exponential(size=500) + 1e-12
        base = fit_power_tail(TrainingSample(vals), 0.1)
        for c in (0.5, 3.7):
            scaled = fit_power_tail(TrainingSample(c * vals), 0.1)
            assert scaled.kappa_hat == pytest.approx(base.kappa_hat, rel=1e-10)
            assert _alpha_hat(scaled, 500) == pytest.approx(
                _alpha_hat(base, 500) * c ** (-1.0 / base.kappa_hat), rel=1e-9)

    def test_ceil_float_guard(self):
        # 0.07 * 100 = 7.000000000000001 in binary; l must still be 7
        vals = np.linspace(1.0, 2.0, 100)
        fit = fit_power_tail(TrainingSample(vals), 0.07)
        assert fit.l == 7

    def test_beta_domain(self):
        s = TrainingSample(np.linspace(1.0, 2.0, 50))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                fit_power_tail(s, bad)

    def test_insufficient_tail(self):
        s = TrainingSample(np.linspace(1.0, 2.0, 10))
        with pytest.raises(InsufficientTailDataError):
            fit_power_tail(s, 0.05)
        with pytest.raises(InsufficientTailDataError):
            fit_power_tail(TrainingSample([1.0]), 0.5)

    def test_zero_values_rejected(self):
        s = TrainingSample([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
        with pytest.raises(ValueError):
            fit_power_tail(s, 0.3)

    def test_degenerate_tail(self):
        s = TrainingSample([1.0, 1.0, 1.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
        with pytest.raises(InsufficientTailDataError):
            fit_power_tail(s, 0.3)


class TestTailFitType:
    def test_zero_kappa_allowed(self):
        TailFit(kappa_hat=0.0, l=5, beta=0.1, z_l=0.0)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            TailFit(kappa_hat=-1e-9, l=5, beta=0.1, z_l=0.0)


class TestTailQuantile:
    def test_unit_fit_value(self):
        # the l = 3 smallest log-values are log(0.3) - (2, 1, 0): at
        # beta = 0.3 the fit has alpha_hat = kappa_hat = 1
        x = [0.3 * math.exp(-2.0), 0.3 * math.exp(-1.0), 0.3] + list(range(1, 8))
        fit = fit_power_tail(TrainingSample(x), 0.3)
        assert _alpha_hat(fit, 10) == pytest.approx(1.0, rel=1e-14)
        assert fit.kappa_hat == pytest.approx(1.0, rel=1e-14)
        assert _log_quantile(x, 0.3, 1e-3) == pytest.approx(math.log(1e-3), rel=1e-13)
        assert _log_quantile(x, 0.3, 1e-3) == pytest.approx(-6.907755, abs=5e-7)

    def test_returns_z_l_at_level_l_over_n(self):
        rng = RNG(15)
        for n, beta in [(100, 0.1), (500, 0.05), (1000, 0.013)]:
            x = rng.exponential(size=n)
            fit = fit_power_tail(TrainingSample(x), beta)
            got = _log_quantile(x, beta, fit.l / n)
            assert got == pytest.approx(fit.z_l, rel=1e-12, abs=1e-12)

    def test_both_algebraic_forms_agree(self):
        rng = RNG(16)
        for n, beta in [(100, 0.1), (400, 0.03), (2000, 0.01)]:
            x = rng.exponential(size=n)
            fit = fit_power_tail(TrainingSample(x), beta)
            for eps_n in (1e-6, 1e-4, 1e-2, 0.3):
                direct = fit.kappa_hat * math.log(eps_n / _alpha_hat(fit, n))
                # Z_(l) + (1/l) log(n eps_n / l) sum(Z_(l) - Z_(i))
                order_form = fit.z_l + fit.kappa_hat * math.log(n * eps_n / fit.l)
                assert abs(direct - order_form) <= 1e-12 * max(1.0, abs(direct))
                got = _log_quantile(x, beta, eps_n)
                assert abs(got - order_form) <= 1e-12 * max(1.0, abs(got))

    def test_domain(self):
        # a power-law level outside (0, 1) is refused before any fit
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="epsilon"):
                calibrate(SelectorSpec("powerlaw-asym", beta=0.1), ReliabilityTarget(bad), 50)


class TestErlangStatistic:
    def test_sum_is_erlang_and_independent_of_pivot(self):
        # pure power law: Y = U^kappa has F(y) = y^(1/kappa) on [0,1],
        # so l*kappa_hat = sum(Z_(l)-Z_(i)) is exactly Gamma(l-1, scale=kappa)
        # and independent of Z_(l)
        kappa = 2.0
        n, beta, trials = 200, 0.05, 2000
        rng = RNG(103)
        sums = np.empty(trials)
        pivots = np.empty(trials)
        for t in range(trials):
            fit = fit_power_tail(TrainingSample(rng.random(n) ** kappa), beta)
            assert fit.l == 10
            sums[t] = fit.l * fit.kappa_hat
            pivots[t] = fit.z_l
        ks = scipy.stats.kstest(sums, scipy.stats.gamma(a=9, scale=kappa).cdf)
        assert ks.pvalue > 0.01
        corr = np.corrcoef(pivots, sums)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(trials)


class TestLoadSampleFile:
    def test_valid_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1.5\n\n  2e-3  \n0\n4\n")
        s = load_sample_file(p)
        np.testing.assert_allclose(s.values, [1.5, 2e-3, 0.0, 4.0])

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# gains, linear scale\n1.5  # first\n2.0#\n  # indented\n")
        np.testing.assert_allclose(load_sample_file(p).values, [1.5, 2.0])
        p.write_text("# header\n1.0\nbogus # note\n")
        with pytest.raises(SampleParseError) as exc:
            load_sample_file(p)
        assert exc.value.line_no == 3

    def test_unparsable_line_number(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1.0\n2.0\nbogus\n4.0\n")
        with pytest.raises(SampleParseError) as exc:
            load_sample_file(p)
        assert exc.value.line_no == 3
        assert "3" in str(exc.value)

    def test_blank_lines_do_not_shift_numbering(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1.0\n\n\n-2.0\n")
        with pytest.raises(SampleParseError) as exc:
            load_sample_file(p)
        assert exc.value.line_no == 4

    def test_non_finite_rejected(self, tmp_path):
        for text in ("inf", "nan", "-inf"):
            p = tmp_path / "s.txt"
            p.write_text(f"1.0\n{text}\n")
            with pytest.raises(SampleParseError) as exc:
                load_sample_file(p)
            assert exc.value.line_no == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("\n  \n")
        with pytest.raises(SampleParseError) as exc:
            load_sample_file(p)
        assert exc.value.line_no is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_sample_file(tmp_path / "absent.txt")


_values = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_comment_text = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")))
_blank_or_comment = st.one_of(
    st.sampled_from(["", "  ", "\t"]),
    _comment_text.map(lambda t: "#" + t),
)


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return bool(text.strip())
    return False


_bad_entries = st.one_of(
    st.floats(min_value=5e-324, allow_infinity=False).map(lambda v: repr(-v)),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"),
                          blacklist_characters="#")).filter(_not_a_number),
)


def _sample_lines(draw, values):
    """Each value as a repr line, some with a trailing comment, with blank
    and comment lines drawn in between."""
    lines = []
    for v in values:
        lines += draw(st.lists(_blank_or_comment, max_size=2))
        tail = draw(st.sampled_from(["", "  ", " # gain", "#"]))
        lines.append(f" {v!r}{tail}")
    return lines


class TestLoadSampleFileProperties:
    @settings(deadline=None)
    @given(values=st.lists(_values, min_size=1, max_size=30), data=st.data())
    def test_round_trip(self, tmp_path_factory, values, data):
        p = tmp_path_factory.getbasetemp() / "round_trip.txt"
        p.write_text("\n".join(_sample_lines(data.draw, values)) + "\n", encoding="utf-8")
        got = load_sample_file(p).values
        assert [float(v) for v in got] == values

    @settings(deadline=None)
    @given(values=st.lists(_values, max_size=10), bad=_bad_entries,
           after=st.lists(_values, max_size=3), data=st.data())
    def test_bad_entry_reports_its_line(self, tmp_path_factory, values, bad, after, data):
        lines = _sample_lines(data.draw, values)
        lines.append(bad)
        line_no = len(lines)
        lines += _sample_lines(data.draw, after)
        p = tmp_path_factory.getbasetemp() / "bad_entry.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SampleParseError) as exc:
            load_sample_file(p)
        assert exc.value.line_no == line_no
