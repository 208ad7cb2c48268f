"""Rate selectors calibrated to statistical reliability targets.

Two constraint semantics are supported for a target outage level eps:

    AR  (averaged reliability)        E[outage probability] <= eps
    PCR (probably correct reliability) P[outage probability > eps] <= xi

Each selector maps a TrainingSample of size n to a rate in bits per
channel use, through a backed-off quantile level eps_n (parametric and
power-law families) or an order-statistic index l (non-parametric
family). Calibration depends only on (eps, xi, n, beta), never on the
sample itself: calibrate() solves it once into a Calibration, whose
rates() checks a (B, n) array of samples and maps it to B rates. Each
rate reads one statistic of its sample: the mean (mean-based families),
the l-th smallest value (order-statistic families) or the l smallest
values (power-law). rates() reads it and passes it to stat_rates(),
which holds every family's formula and checks nothing.
select_rate and make_rate_fn are the array path on a batch of one.

Families:

    rayleigh               scale MLE + Rayleigh quantile at eps_n
    nonparametric          l-th smallest sample value
    powerlaw-asym          log-domain tail fit, asymptotic calibration
    powerlaw-nonasym       log-domain tail fit, finite-sample bound
    plugin-rayleigh        Rayleigh quantile at eps (no back-off)
    plugin-nonparametric   empirical quantile at eps (no back-off)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import (
    InsufficientTailDataError,
    NoSolutionError,
    check_positive_int,
    check_unit_interval,
)
from .learn import (
    TrainingSample,
    _ceil_with_float_guard,
    _fit_ascending_tails_in_place,
    _floor_with_float_guard,
    sample_rows,
)

__all__ = [
    "AR",
    "PCR",
    "FAMILIES",
    "ReliabilityTarget",
    "SelectorSpec",
    "Calibration",
    "calibrate",
    "epsn_rayleigh_ar",
    "epsn_rayleigh_pcr",
    "epsn_powerlaw",
    "nonparam_l_ar",
    "nonparam_l_pcr",
    "plug_in_nonparam_index",
    "make_rate_fn",
    "select_rate",
]

AR = "ar"
PCR = "pcr"

FAMILY_RAYLEIGH = "rayleigh"
FAMILY_NONPARAMETRIC = "nonparametric"
FAMILY_POWERLAW_ASYM = "powerlaw-asym"
FAMILY_POWERLAW_NONASYM = "powerlaw-nonasym"
FAMILY_PLUGIN_RAYLEIGH = "plugin-rayleigh"
FAMILY_PLUGIN_NONPARAMETRIC = "plugin-nonparametric"

FAMILIES = (
    FAMILY_RAYLEIGH,
    FAMILY_NONPARAMETRIC,
    FAMILY_POWERLAW_ASYM,
    FAMILY_POWERLAW_NONASYM,
    FAMILY_PLUGIN_RAYLEIGH,
    FAMILY_PLUGIN_NONPARAMETRIC,
)

_POWERLAW_FAMILIES = (FAMILY_POWERLAW_ASYM, FAMILY_POWERLAW_NONASYM)

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ReliabilityTarget:
    """Outage target eps under AR or PCR(xi) semantics."""

    epsilon: float
    kind: str = AR
    xi: float | None = None

    def __post_init__(self):
        check_unit_interval(self.epsilon, "epsilon")
        if self.kind not in (AR, PCR):
            raise ValueError(f"kind must be '{AR}' or '{PCR}', got {self.kind!r}")
        if self.kind == PCR:
            if self.xi is None:
                raise ValueError("PCR target requires a confidence level xi")
            check_unit_interval(self.xi, "xi")
        elif self.xi is not None:
            raise ValueError(f"xi is only meaningful for a PCR target, got kind {self.kind!r}")


@dataclass(frozen=True)
class SelectorSpec:
    """A selector family plus its tail fraction where applicable."""

    family: str
    beta: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown selector family {self.family!r}; expected one of {FAMILIES}")
        if self.family in _POWERLAW_FAMILIES:
            if self.beta is None:
                raise ValueError(f"{self.family} requires a tail fraction beta")
            check_unit_interval(self.beta, "beta")
        elif self.beta is not None:
            raise ValueError("beta is only meaningful for power-law selectors, "
                             f"got family {self.family!r}")


def epsn_rayleigh_ar(eps: float, n: int) -> float:
    """Backed-off quantile level making the Rayleigh-MLE rate meet AR.

    eps_n = 1 - exp(-n((1-eps)^(-1/n) - 1)); independent of the scale
    lam, and the resulting mean outage equals eps exactly.
    """
    eps = check_unit_interval(eps, "eps")
    n = check_positive_int(n, "n")
    growth = math.expm1(-math.log1p(-eps) / n)  # (1-eps)^(-1/n) - 1
    return -math.expm1(-n * growth)


def epsn_rayleigh_pcr(eps: float, xi: float, n: int) -> float:
    """Backed-off quantile level making the Rayleigh-MLE rate meet PCR.

    The meta-probability of the Rayleigh-MLE rate is the Erlang-n tail
    1 - P(n, n log(1-eps)/log(1-eps_n)), strictly increasing in eps_n,
    so the unique root of (meta = xi) is obtained by sending the
    threshold through the upper incomplete-gamma quantile (scipy's
    gammainccinv): T = Q^-1(n, xi), eps_n = 1 - (1-eps)^(n/T). xi goes
    in as given; forming 1 - xi first would round away digits of small
    xi. Like the AR level, the result does not depend on lam.
    """
    eps = check_unit_interval(eps, "eps")
    xi = check_unit_interval(xi, "xi")
    n = check_positive_int(n, "n")
    thr = specfun.inv_reg_upper_gamma(float(n), xi)
    if thr <= 0.0:
        raise NoSolutionError(f"degenerate Erlang quantile for n={n}, xi={xi}")
    return -math.expm1(n * math.log1p(-eps) / thr)


def nonparam_l_ar(eps: float, n: int) -> int:
    """Largest order-statistic index meeting AR: floor(eps*(n+1)).

    The l-th smallest of n samples has mean outage l/(n+1) regardless
    of the continuous channel law. Returns 0 when no index is feasible
    (the zero-rate regime n < 1/eps - 1).
    """
    eps = check_unit_interval(eps, "eps")
    n = check_positive_int(n, "n")
    return min(_floor_with_float_guard(eps * (n + 1)), n)


def nonparam_l_pcr(eps: float, xi: float, n: int) -> int:
    """Largest order-statistic index meeting PCR(xi).

    The outage of the l-th smallest sample is Beta(l, n+1-l)
    distributed, so feasibility reads 1 - I_eps(l, n+1-l) <= xi; the
    left side increases with l and the largest feasible l is found by
    integer bisection. Returns 0 when even l = 1 is infeasible, that is
    when (1 - eps)^n > xi. The tail is read as betaincc, not 1 - betainc,
    whose subtraction cancels once the tail nears 1e-16 and would accept
    indices above a small xi.
    """
    eps = check_unit_interval(eps, "eps")
    xi = check_unit_interval(xi, "xi")
    n = check_positive_int(n, "n")
    sp = specfun.special()

    def feasible(l: int) -> bool:
        return sp.betaincc(float(l), float(n + 1 - l), eps) <= xi

    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def plug_in_nonparam_index(eps: float, n: int) -> int:
    """Uncalibrated empirical-quantile index floor(n*eps + 1), capped at n."""
    eps = check_unit_interval(eps, "eps")
    n = check_positive_int(n, "n")
    return min(_floor_with_float_guard(n * eps + 1.0), n)


def _vbar(eps: float, beta: float) -> float:
    # normalized asymptotic variance of the fitted tail quantile
    log_ratio = math.log(eps / beta)
    return (1.0 - beta + log_ratio * log_ratio) / beta


def epsn_powerlaw(target: ReliabilityTarget, n: int, beta: float,
                  mode: str = "asymptotic") -> float:
    """Quantile level for the power-law tail selector.

    Asymptotic mode: under AR the fitted quantile is asymptotically
    unbiased, so eps_n = eps; under PCR the fitted log-quantile is
    asymptotically normal with variance kappa^2 Vbar / n,
    Vbar = (1 - beta + log^2(eps/beta)) / beta, giving
    eps_n = eps * exp(-sqrt(Vbar/n) * Qinv(xi)).

    Non-asymptotic mode (PCR only, needs l = ceil(beta*n) >= 3): eps_n
    is the level at which the finite-sample union bound on the
    meta-probability equals xi. With u = log(n eps_n / l) < 0, splitting
    {Z_(l) + (u/l) S > F_Z^-1(eps)} at Z_(l) = log tau-quantile bounds it,
    for each tau in [eps, 1], by

        f(tau, u) = 1 - I_tau(l, n+1-l) + P(l-1, l log(eps/tau) / u),

    increasing in u. So min over tau of f(tau, u) <= xi exactly when
    u <= u_tau = l log(eps/tau) / P^-1(l-1, xi - (1 - I_tau(l, n+1-l))),
    defined where that slack is > 0 (at tau = 1 it is xi), and the
    root is u* = max over tau of u_tau, eps_n = (l/n) e^u*. The maximum
    is located on a log-spaced tau grid and three zoom rounds, with
    scipy's gammaincinv; u* is u_tau at the last round's best point. No
    root finder is involved.
    """
    if not isinstance(target, ReliabilityTarget):
        raise TypeError("target must be a ReliabilityTarget")
    n = check_positive_int(n, "n")
    beta = check_unit_interval(beta, "beta")
    if mode not in ("asymptotic", "non-asymptotic"):
        raise ValueError(f"mode must be 'asymptotic' or 'non-asymptotic', got {mode!r}")
    eps = target.epsilon

    if mode == "asymptotic":
        if target.kind == AR:
            return eps
        vbar = _vbar(eps, beta)
        z = specfun.std_normal_quantile(target.xi)
        # no back-off at xi = 1/2 (z = 0), even where Vbar overflows to inf
        shift = math.sqrt(vbar / n) * z if z else 0.0
        back_off = specfun._exp_or_inf(-shift)
        if back_off == math.inf:  # past the largest double, or inf at an inf Vbar
            raise NoSolutionError(
                f"the asymptotic PCR level eps*exp(-shift) overflows, shift={shift:.6g} "
                f"(eps={eps}, xi={target.xi}, beta={beta}, n={n})")
        return eps * back_off

    if target.kind != PCR:
        raise ValueError("the non-asymptotic calibration is defined for PCR targets "
                         f"only, got constraint {target.kind!r}")
    l = _ceil_with_float_guard(beta * n)
    if l < 2:
        raise InsufficientTailDataError(
            f"non-asymptotic calibration needs ceil(beta*n) >= 2, got l={l} "
            f"(beta={beta}, n={n})")
    if l == 2:
        warnings.warn(
            "ceil(beta*n) = 2: the finite-sample bound needs l >= 3; "
            "falling back to the asymptotic PCR level", RuntimeWarning,
            stacklevel=2)
        return epsn_powerlaw(target, n, beta, mode="asymptotic")
    xi = target.xi

    sp = specfun.special()
    a, b = float(l), float(n + 1 - l)
    log_eps = math.log(eps)
    lo, hi = log_eps, 0.0
    for _ in range(4):
        # 513 points, then 513 across the best one's neighbours: the last
        # spacing is -log(eps) / 512 / 256^3
        log_tau = np.linspace(lo, hi, 513)
        slack = xi - sp.betaincc(a, b, np.exp(log_tau))
        with np.errstate(divide="ignore", invalid="ignore"):
            u = l * (log_eps - log_tau) / sp.gammaincinv(l - 1.0, slack)
        j = int(np.argmax(np.where(slack > 0.0, u, -np.inf)))
        step = log_tau[1] - log_tau[0]
        lo, hi = max(log_tau[j] - step, log_eps), min(log_tau[j] + step, 0.0)
    # slack[j] > 0: at tau = 1 it is xi, and u_1 is finite
    u_star = float(u[j])
    if u_star >= -1e-10:
        # the supremum, approached as u -> 0, is the tau = eps bound 1 - I_eps
        warnings.warn(
            f"the finite-sample bound stays below xi={xi} for every eps_n < l/n "
            f"(supremum {sp.betaincc(a, b, eps):.3e}); returning the upper end "
            "of the admissible range", RuntimeWarning, stacklevel=2)
        return (l / n) * math.exp(-1e-10)
    return (l / n) * math.exp(u_star)


def _log2_1p(y: np.ndarray) -> np.ndarray:
    # log2(1 + y) of a fresh float array, in place
    np.log1p(y, out=y)
    y /= _LN2
    return y


@dataclass(frozen=True)
class Calibration:
    """A selector solved for a target and a sample size n.

    eps_n is the quantile level of the rayleigh, plugin-rayleigh and
    power-law families; l is the order-statistic index of the
    nonparametric families, where l = 0 is the zero-rate regime. A level
    eps_n >= 1 has no rate: rate_level, which stat_rates and every mismatch
    column but the weak-n one (it reads eps) read it through, raises
    NoSolutionError naming target.

    width says which statistic of a sample the rate reads: None for the
    mean-based families (the sample mean), min(l, 1) for the
    nonparametric families (the l-th smallest value alone, nothing at
    l = 0) and ceil(beta*n) for power-law (the width smallest values, in
    any order). stat_rates holds every family's rate formula and checks
    none of the values it is given: a (B,) array of means, or a
    (B, width) array of tail values.
    """

    selector: SelectorSpec
    n: int
    eps_n: float | None = None
    l: int | None = None
    target: ReliabilityTarget | None = None

    @property
    def width(self) -> int | None:
        if self.l is not None:
            return min(self.l, 1)
        if self.selector.family in _POWERLAW_FAMILIES:
            return _ceil_with_float_guard(self.selector.beta * self.n)
        return None

    def rates(self, samples) -> np.ndarray:
        """Rates for a (B, n) array of training samples, one per row; a
        ValueError if a rate overflows."""
        rows = sample_rows(samples)
        if rows.shape[1] != self.n:
            raise ValueError(
                f"calibrated for n={self.n}, got samples of size {rows.shape[1]}")
        width = self.width
        with np.errstate(over="ignore"):
            if width is None:
                stat = rows.mean(axis=1)
                over = np.isinf(stat)
                if over.any():
                    # the row sum overflowed: sum the values scaled by 1/n instead
                    stat[over] = (rows[over] / self.n).sum(axis=1)
            else:
                l = width if self.l is None else self.l
                if l:
                    rows = np.partition(rows, l - 1, axis=1)
                # the l-th smallest value alone, or the l smallest
                stat = rows[:, l - width:l]
            rates = self.stat_rates(stat)
        if not np.isfinite(rates).all():
            raise ValueError(f"non-finite rate: the rate formula overflows on a sample "
                             f"at eps_n={self.eps_n}")
        return rates

    def rate_level(self) -> float | None:
        """eps_n, once it is known to be below 1 (NoSolutionError otherwise)."""
        if self.eps_n is not None and self.eps_n >= 1.0:
            t = self.target
            given = "" if t is None else f"eps={t.epsilon}, " + (
                "" if t.xi is None else f"xi={t.xi}, ")
            raise NoSolutionError(f"quantile level eps_n={self.eps_n} is not below 1, "
                                  f"so no rate meets the target ({given}n={self.n})")
        return self.eps_n

    def stat_rates(self, stat: np.ndarray) -> np.ndarray:
        """Rates from the statistic each row's rate reads; see the class.
        stat is left unchanged."""
        return self._stat_rates_in_place(np.array(stat, dtype=float))

    def _stat_rates_in_place(self, stat: np.ndarray) -> np.ndarray:
        # stat_rates on a float array it may overwrite: a mean is scaled, and a
        # power-law tail sorted and its logs taken, in place, so rating a
        # block of either allocates no array the size of the block
        eps_n = self.rate_level()
        width = self.width
        if width is None:
            # log2(1 - log(1 - eps_n) mean)
            stat *= -math.log1p(-eps_n)
            return _log2_1p(stat)
        if stat.ndim != 2 or stat.shape[1] != width:
            raise ValueError(f"expected a (B, {width}) array, got shape {stat.shape}")
        if self.l is not None:  # log2(1 + x_(l)); the empty row sums to 0 at l = 0
            return _log2_1p(stat.sum(axis=1))
        stat.sort(axis=1)
        kappa, z_l = _fit_ascending_tails_in_place(stat, self.n)
        # fitted log-quantile; eps_n = 0 (an underflowed level) gives rate 0
        with np.errstate(divide="ignore"):
            log_q = z_l + kappa * np.log(self.n * eps_n / width)
        return _log2_1p(np.exp(log_q))


def calibrate(selector: SelectorSpec, target: ReliabilityTarget,
              n: int) -> Calibration:
    """Solve a selector's constraint for sample size n.

    This is the only place eps_n or l is derived from (target, n).
    """
    if not isinstance(selector, SelectorSpec):
        raise TypeError("selector must be a SelectorSpec")
    if not isinstance(target, ReliabilityTarget):
        raise TypeError("target must be a ReliabilityTarget")
    n = check_positive_int(n, "n")
    fam = selector.family
    eps, pcr = target.epsilon, target.kind == PCR

    eps_n = l = None
    if fam == FAMILY_RAYLEIGH:
        eps_n = epsn_rayleigh_pcr(eps, target.xi, n) if pcr else epsn_rayleigh_ar(eps, n)
    elif fam == FAMILY_NONPARAMETRIC:
        l = nonparam_l_pcr(eps, target.xi, n) if pcr else nonparam_l_ar(eps, n)
    elif fam in _POWERLAW_FAMILIES:
        mode = "asymptotic" if fam == FAMILY_POWERLAW_ASYM else "non-asymptotic"
        eps_n = epsn_powerlaw(target, n, selector.beta, mode=mode)
    elif fam == FAMILY_PLUGIN_RAYLEIGH:
        eps_n = eps
    else:  # plugin-nonparametric, the last family SelectorSpec admits
        l = plug_in_nonparam_index(eps, n)
    return Calibration(selector, n, eps_n=eps_n, l=l, target=target)


def make_rate_fn(selector: SelectorSpec, target: ReliabilityTarget, n: int):
    """Pre-calibrate a selector for sample size n.

    Returns a function TrainingSample -> rate that applies
    calibrate(selector, target, n) to a batch of one. select_rate could
    call calibrate itself; this step is kept because the benchmark's
    traced mode wraps it and the function it returns by name.
    """
    cal = calibrate(selector, target, n)
    return lambda s: float(cal.rates(s.values[None])[0])


def select_rate(selector: SelectorSpec, target: ReliabilityTarget,
                sample: TrainingSample) -> float:
    """Select a rate for one training sample."""
    return make_rate_fn(selector, target, sample.n)(sample)
