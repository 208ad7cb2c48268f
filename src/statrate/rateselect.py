"""Rate selectors calibrated to statistical reliability targets.

Two constraint semantics are supported for a target outage level eps:

    AR  (averaged reliability)        E[outage probability] <= eps
    PCR (probably correct reliability) P[outage probability > eps] <= xi

Each selector maps a TrainingSample of size n to a rate in bits per
channel use, through a backed-off quantile level eps_n (parametric and
power-law families) or an order-statistic index l (non-parametric
family). Calibration depends only on (eps, xi, n, beta), never on the
sample itself: calibrate() solves it once into a Calibration, whose
rates() maps a (B, n) array of samples to B rates. select_rate and
make_rate_fn are that array path on a batch of one.

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
import scipy.special as _sp

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
    _floor_with_float_guard,
    fit_power_tails,
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
            raise ValueError("xi is only meaningful for a PCR target")


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
            raise ValueError(f"beta is only meaningful for power-law selectors")


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
    threshold through the Newton-polished incomplete-gamma quantile:
    T = P^-1(n, 1-xi), eps_n = 1 - (1-eps)^(n/T). Like the AR level,
    the result does not depend on lam.
    """
    eps = check_unit_interval(eps, "eps")
    xi = check_unit_interval(xi, "xi")
    n = check_positive_int(n, "n")
    t_star = specfun.inv_reg_lower_gamma(float(n), 1.0 - xi)
    if t_star <= 0.0:
        raise NoSolutionError(f"degenerate Erlang quantile for n={n}, xi={xi}")
    return -math.expm1(n * math.log1p(-eps) / t_star)


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
    integer bisection. Returns 0 when even l = 1 is infeasible.
    """
    eps = check_unit_interval(eps, "eps")
    xi = check_unit_interval(xi, "xi")
    n = check_positive_int(n, "n")

    def feasible(l: int) -> bool:
        return 1.0 - specfun.reg_inc_beta(float(l), float(n + 1 - l), eps) <= xi

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


def _nonasym_bound_min(log_ratio: float, l: int, n: int, eps: float,
                       tau_grid: np.ndarray, inc_beta_grid: np.ndarray) -> float:
    """min over tau in [eps, 1] of the finite-sample meta-probability bound.

    Splitting {Z_(l) + (log(n eps_n / l)/l) S > F_Z^-1(eps)} at
    Z_(l) = log tau-quantile gives, for each tau,

        P[Z_(l) > t] + P[S < l log(eps/tau) / log(n eps_n / l)]
        = 1 - I_tau(l, n+1-l) + P(l-1, l log(eps/tau) / log_ratio)

    (the S-term inequality flips because log(n eps_n / l) < 0). Both
    summands move oppositely in tau, so the minimum is interior; it is
    located on a dense log-spaced grid and refined by bounded Brent.
    """
    log_eps = math.log(eps)
    log_tau = np.log(tau_grid)
    with np.errstate(over="ignore"):
        args = l * (log_eps - log_tau) / log_ratio
    erlang_cdf = _sp.gammainc(l - 1.0, args)
    vals = 1.0 - inc_beta_grid + erlang_cdf
    j = int(np.argmin(vals))

    def objective(lt: float) -> float:
        tau = math.exp(lt)
        a = l * (log_eps - lt) / log_ratio
        return (1.0 - specfun.reg_inc_beta(float(l), float(n + 1 - l), tau)
                + specfun.reg_lower_gamma(l - 1.0, a))

    lo = float(log_tau[max(j - 1, 0)])
    hi = float(log_tau[min(j + 1, log_tau.size - 1)])
    if hi - lo < 1e-12:
        return float(vals[j])
    # imported here, as in specfun: only the non-asymptotic path needs it
    import scipy.optimize as _opt
    res = _opt.minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-10})
    return min(float(vals[j]), float(res.fun))


def epsn_powerlaw(target: ReliabilityTarget, n: int, beta: float,
                  mode: str = "asymptotic") -> float:
    """Quantile level for the power-law tail selector.

    Asymptotic mode: under AR the fitted quantile is asymptotically
    unbiased, so eps_n = eps; under PCR the fitted log-quantile is
    asymptotically normal with variance kappa^2 Vbar / n,
    Vbar = (1 - beta + log^2(eps/beta)) / beta, giving
    eps_n = eps * exp(-sqrt(Vbar/n) * Qinv(xi)).

    Non-asymptotic mode (PCR only, needs ceil(beta*n) >= 3): eps_n is
    the level at which the finite-sample union bound on the
    meta-probability equals xi. The bound is monotone increasing in
    eps_n on (0, l/n), so the root is bracketed on log(n eps_n / l).
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
        shift = math.sqrt(vbar / n) * specfun.std_normal_quantile(target.xi)
        return eps * math.exp(-shift)

    if target.kind != PCR:
        raise ValueError("the non-asymptotic calibration is defined for PCR targets only")
    l = _ceil_with_float_guard(beta * n)
    if l < 2:
        raise InsufficientTailDataError(
            f"non-asymptotic calibration needs ceil(beta*n) >= 2, got l={l}")
    if l == 2:
        warnings.warn(
            "ceil(beta*n) = 2: the finite-sample bound needs l >= 3; "
            "falling back to the asymptotic PCR level", RuntimeWarning,
            stacklevel=2)
        return epsn_powerlaw(target, n, beta, mode="asymptotic")
    xi = target.xi

    grid_size = 512
    tau_grid = np.exp(np.linspace(math.log(eps), 0.0, grid_size))
    tau_grid[-1] = 1.0
    inc_beta_grid = _sp.betainc(float(l), float(n + 1 - l), tau_grid)

    def bound(log_ratio: float) -> float:
        return _nonasym_bound_min(log_ratio, l, n, eps, tau_grid, inc_beta_grid)

    hi = -1e-10
    b_hi = bound(hi)
    if b_hi <= xi:
        warnings.warn(
            f"the finite-sample bound stays below xi={xi} for every "
            f"eps_n < l/n (supremum {b_hi:.3e}); returning the upper end "
            "of the admissible range", RuntimeWarning, stacklevel=2)
        return (l / n) * math.exp(hi)
    lo = -1.0
    for _ in range(60):
        if bound(lo) < xi:
            break
        lo *= 2.0
    else:
        raise NoSolutionError(
            f"finite-sample bound exceeds xi={xi} over the whole range; "
            f"smallest achievable bound {bound(lo):.6e}")
    import scipy.optimize as _opt
    root = _opt.brentq(lambda u: bound(u) - xi, lo, hi, xtol=1e-12, rtol=8.9e-16)
    return (l / n) * math.exp(float(root))


def _log2_1p(y):
    return np.log1p(y) / _LN2


def _rayleigh_rates(rows: np.ndarray, eps_n: float) -> np.ndarray:
    return _log2_1p(-math.log1p(-eps_n) * rows.mean(axis=1))


def _order_stat_rates(rows: np.ndarray, l: int) -> np.ndarray:
    # log2(1 + x_(l)); partial selection, no full sort
    return _log2_1p(np.partition(rows, l - 1, axis=1)[:, l - 1])


@dataclass(frozen=True)
class Calibration:
    """A selector solved for a target and a sample size n.

    eps_n is the quantile level of the rayleigh, plugin-rayleigh and
    power-law families; l is the order-statistic index of the
    nonparametric families, where l = 0 is the zero-rate regime.
    """

    selector: SelectorSpec
    n: int
    eps_n: float | None = None
    l: int | None = None

    def rates(self, samples) -> np.ndarray:
        """Rates for a (B, n) array of training samples, one per row."""
        rows = sample_rows(samples)
        if rows.shape[1] != self.n:
            raise ValueError(
                f"calibrated for n={self.n}, got samples of size {rows.shape[1]}")
        if self.l is not None:
            if self.l == 0:
                return np.zeros(rows.shape[0])
            return _order_stat_rates(rows, self.l)
        if self.selector.family in _POWERLAW_FAMILIES:
            l, alpha, kappa, z_l = fit_power_tails(rows, self.selector.beta)
            # fitted log-quantile kappa log(eps_n / alpha); where alpha
            # overflowed to inf, the equal z_l + kappa log(n eps_n / l)
            finite = np.isfinite(alpha)
            log_q = np.where(finite,
                             kappa * np.log(self.eps_n / np.where(finite, alpha, 1.0)),
                             z_l + kappa * math.log(self.n * self.eps_n / l))
            return _log2_1p(np.exp(log_q))
        return _rayleigh_rates(rows, self.eps_n)


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

    if fam == FAMILY_RAYLEIGH:
        eps_n = epsn_rayleigh_pcr(eps, target.xi, n) if pcr else epsn_rayleigh_ar(eps, n)
        return Calibration(selector, n, eps_n=eps_n)
    if fam == FAMILY_NONPARAMETRIC:
        l = nonparam_l_pcr(eps, target.xi, n) if pcr else nonparam_l_ar(eps, n)
        return Calibration(selector, n, l=l)
    if fam in _POWERLAW_FAMILIES:
        mode = "asymptotic" if fam == FAMILY_POWERLAW_ASYM else "non-asymptotic"
        return Calibration(selector, n,
                           eps_n=epsn_powerlaw(target, n, selector.beta, mode=mode))
    if fam == FAMILY_PLUGIN_RAYLEIGH:
        return Calibration(selector, n, eps_n=eps)
    if fam == FAMILY_PLUGIN_NONPARAMETRIC:
        return Calibration(selector, n, l=plug_in_nonparam_index(eps, n))
    raise AssertionError(f"unhandled family {fam!r}")


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
