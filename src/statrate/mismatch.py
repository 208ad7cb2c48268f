"""Model-mismatch analysis for the Rayleigh-MLE selector.

The selector assumes Rayleigh fading and picks the rate
log2(1 - log(1-eps_n) Xbar) from the sample mean Xbar of n training
gains. When the gains actually follow a Rician or Nakagami law the
realized mean outage and meta-probability differ from their design
values; this module evaluates both: exactly, by scipy.special closed
forms under Rayleigh and Nakagami truth and by quadrature over the
sampling distribution of Xbar for the Rician mean outage, or through
closed-form approximations (power-law / weak-n expansions for the mean
outage, an exponential tilt bound for the meta-probability).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import scipy.special as _sp

from . import specfun
from .channels import ChannelModel, Nakagami, Rayleigh, Rician
from .errors import NoValidTiltError, check_positive_int, check_unit_interval

__all__ = [
    "ChernoffSolution",
    "chernoff_tilt",
    "mean_outage_exact_rayleigh",
    "mean_outage_mismatch",
    "meta_prob_exact_rayleigh",
    "meta_prob_mismatch",
]

MEAN_OUTAGE_METHODS = ("numeric", "power_law", "weak_n")
META_PROB_METHODS = ("numeric", "chernoff")

_QUAD_SPAN_SD = 15.0


def _check_model(model: ChannelModel) -> None:
    if not isinstance(model, (Rayleigh, Rician, Nakagami)):
        raise TypeError(
            f"mismatch analysis supports Rayleigh, Rician and Nakagami models, "
            f"got {type(model).__name__}")


def mean_outage_exact_rayleigh(eps_n: float, n: int) -> float:
    """Exact mean outage of the Rayleigh-MLE rate under Rayleigh fading.

    With g = -log(1-eps_n) the outage is 1 - exp(-g Xbar/lam) and
    Xbar/lam averages n unit exponentials, so the expectation is the
    scaled-gamma MGF value 1 - (1 + g/n)^(-n). Independent of lam.
    """
    eps_n = check_unit_interval(eps_n, "eps_n")
    n = check_positive_int(n, "n")
    g = -math.log1p(-eps_n)
    return -math.expm1(-n * math.log1p(g / n))


def meta_prob_exact_rayleigh(eps_n: float, eps: float, n: int) -> float:
    """Exact meta-probability P[outage > eps] under Rayleigh fading.

    The outage exceeds eps iff the unit-scale sum S ~ Gamma(n, 1)
    exceeds n log(1-eps)/log(1-eps_n); the result is the regularized
    upper gamma tail of that threshold. Independent of lam.
    """
    eps_n = check_unit_interval(eps_n, "eps_n")
    eps = check_unit_interval(eps, "eps")
    n = check_positive_int(n, "n")
    thr = n * math.log1p(-eps) / math.log1p(-eps_n)
    return specfun.reg_upper_gamma(float(n), thr)


def _numeric_mean_outage(model: ChannelModel, eps_n: float, n: int) -> float:
    g = -math.log1p(-eps_n)
    if isinstance(model, Rayleigh):
        return mean_outage_exact_rayleigh(eps_n, n)
    if isinstance(model, Nakagami):
        # P[G <= (g/n) Z] with G ~ Gamma(m), Z ~ Gamma(n m) independent:
        # G/(G+Z) ~ Beta(m, n m), so the outage is its CDF at g/(n+g)
        return float(_sp.betainc(model.m, n * model.m, g / (n + g)))

    # Rician: 2 sum(X_i)/lam = W ~ noncentral chi^2(2n, 2nk);
    # outage = 1 - Q1(sqrt(2k), sqrt(c W)). Only this quadrature needs
    # scipy.integrate and scipy.stats, imported here as in specfun.
    import scipy.integrate as _integrate
    import scipy.stats as _stats

    c = g / n
    a = math.sqrt(2.0 * model.k)
    df = 2 * n
    nc = 2.0 * n * model.k
    mean = df + nc
    sd = math.sqrt(2.0 * (df + 2.0 * nc))
    lo = max(0.0, mean - _QUAD_SPAN_SD * sd)
    hi = mean + _QUAD_SPAN_SD * sd
    dist = _stats.ncx2(df=df, nc=nc)

    def integrand(w):
        return specfun.marcum_q1_complement(a, math.sqrt(c * w)) * dist.pdf(w)

    quad = functools.partial(_integrate.quad, integrand,
                             epsabs=1e-14, epsrel=1e-10, limit=300)
    value, abserr = quad(lo, hi)
    # the outage is <= 1, so the mass above hi bounds what the window leaves
    # out: add spans, each twice the last, until it is below 1e-16 of the value
    span = _QUAD_SPAN_SD * sd
    while specfun.nc_chi2_sf(hi, n, nc) > 1e-16 * value:
        extra, err = quad(hi, hi + span)
        value, abserr, hi, span = value + extra, abserr + err, hi + span, 2.0 * span
    if abserr > max(1e-10, 1e-6 * value):
        warnings.warn(
            f"quadrature error estimate {abserr:.2e} for mean outage (Rician) "
            f"(value {value:.6e}) exceeds the target accuracy",
            RuntimeWarning, stacklevel=2)
    return min(max(value, 0.0), 1.0)


def _power_law_mean_outage(model: ChannelModel, eps_n: float, n: int) -> float:
    # second-order delta method on E[alpha (g Xbar)^(1/kappa)]
    pl = model.power_law()
    mean, var = model.moments()
    g = -math.log1p(-eps_n)
    inv_k = 1.0 / pl.kappa
    lead = pl.alpha * (g * mean) ** inv_k
    correction = 1.0 + (1.0 - pl.kappa) / (2.0 * n * pl.kappa * pl.kappa) * var / (mean * mean)
    return lead * correction


def _weak_n_mean_outage(model: ChannelModel, level: float) -> float:
    # n -> infinity limit with -log(1-x) ~ x: alpha (level E[X])^(1/kappa)
    pl = model.power_law()
    mean, _ = model.moments()
    return pl.alpha * (level * mean) ** (1.0 / pl.kappa)


def mean_outage_mismatch(true_model: ChannelModel, eps_n: float, n: int,
                         method: str = "numeric") -> float:
    """Mean outage of the Rayleigh-MLE rate when the gains follow true_model.

    method "numeric" averages the outage over the exact sampling
    distribution of the training mean: in closed form under Rayleigh
    and Nakagami, by quadrature under Rician.
    "power_law" applies a second-order delta-method expansion around
    the power-law tail of the true CDF; "weak_n" is its n -> infinity
    limit with -log(1-x) ~ x, which evaluates the tail at the supplied
    level directly (pass the target eps to reproduce the design-level
    approximation).
    """
    _check_model(true_model)
    eps_n = check_unit_interval(eps_n, "eps_n")
    n = check_positive_int(n, "n")
    if method == "numeric":
        return _numeric_mean_outage(true_model, eps_n, n)
    if method == "power_law":
        return _power_law_mean_outage(true_model, eps_n, n)
    if method == "weak_n":
        return _weak_n_mean_outage(true_model, eps_n)
    raise ValueError(f"method must be one of {MEAN_OUTAGE_METHODS}, got {method!r}")


def _numeric_meta_prob(model: ChannelModel, eps_n: float, eps: float, n: int) -> float:
    if isinstance(model, Rayleigh):
        return meta_prob_exact_rayleigh(eps_n, eps, n)
    g = -math.log1p(-eps_n)
    thr = model.quantile(eps) * n / g  # event {Xbar > quantile(eps)/g}
    if isinstance(model, Nakagami):
        return specfun.reg_upper_gamma(n * model.m, thr / model.lam)
    return specfun.nc_chi2_sf(2.0 * thr / model.lam, float(n), 2.0 * n * model.k)


@dataclass(frozen=True)
class ChernoffSolution:
    """Optimal exponential tilt t_star and the resulting bound value."""

    t_star: float
    bound_value: float


def _log_mgf(model: ChannelModel, t: float) -> float:
    if isinstance(model, Rician):
        w = 1.0 - model.lam * t
        return model.k * model.lam * t / w - math.log(w)
    m = model.m if isinstance(model, Nakagami) else 1.0
    return -m * math.log1p(-t * model.lam)


def chernoff_tilt(true_model: ChannelModel, eps_n: float, eps: float,
                  n: int) -> ChernoffSolution:
    """Exponential tilt bound on the meta-probability under mismatch.

    Bounds P[sum X_i > n (eps/alpha)^kappa / g], g = -log(1-eps_n),
    with the true quantile replaced by its power-law form so the
    stationarity condition M'(t)/M(t) = (eps/alpha)^kappa / g has a
    closed-form root (linear for gamma-type models, quadratic for
    Rician). A non-positive root means the threshold sits below the
    mean and the bound degenerates to 1.
    """
    _check_model(true_model)
    eps_n = check_unit_interval(eps_n, "eps_n")
    eps = check_unit_interval(eps, "eps")
    n = check_positive_int(n, "n")
    pl = true_model.power_law()
    g = -math.log1p(-eps_n)
    lam = true_model.lam
    per_sample_thr = (eps / pl.alpha) ** pl.kappa / g  # M'(t*)/M(t*) target

    if isinstance(true_model, Rician):
        ratio = per_sample_thr / lam
        if ratio <= 0.0 or not math.isfinite(ratio):
            raise NoValidTiltError(f"degenerate tilt equation (ratio {ratio})")
        w = (1.0 + math.sqrt(1.0 + 4.0 * ratio * true_model.k)) / (2.0 * ratio)
        t_star = (1.0 - w) / lam
    else:
        m = true_model.m if isinstance(true_model, Nakagami) else 1.0
        t_star = (1.0 - m * lam / per_sample_thr) / lam

    if t_star <= 0.0:
        warnings.warn(
            "optimal tilt is non-positive (threshold at or below the mean); "
            "the exponential bound degenerates to 1", RuntimeWarning,
            stacklevel=2)
        return ChernoffSolution(t_star=t_star, bound_value=1.0)

    log_bound = n * (_log_mgf(true_model, t_star) - t_star * per_sample_thr)
    if log_bound > 0.0:
        warnings.warn(
            "exponential bound exceeds 1 and was clamped", RuntimeWarning,
            stacklevel=2)
        return ChernoffSolution(t_star=t_star, bound_value=1.0)
    return ChernoffSolution(t_star=t_star, bound_value=math.exp(log_bound))


def meta_prob_mismatch(true_model: ChannelModel, eps_n: float, eps: float,
                       n: int, method: str = "numeric") -> float:
    """Meta-probability P[outage > eps] of the Rayleigh-MLE rate under
    true_model.

    method "numeric" evaluates the exact tail of the training-mean
    distribution (gamma for Nakagami, noncentral chi^2 for Rician,
    closed form for Rayleigh); "chernoff" returns the exponential tilt
    upper bound from chernoff_tilt.
    """
    _check_model(true_model)
    eps_n = check_unit_interval(eps_n, "eps_n")
    eps = check_unit_interval(eps, "eps")
    n = check_positive_int(n, "n")
    if method == "numeric":
        return _numeric_meta_prob(true_model, eps_n, eps, n)
    if method == "chernoff":
        return chernoff_tilt(true_model, eps_n, eps, n).bound_value
    raise ValueError(f"method must be one of {META_PROB_METHODS}, got {method!r}")
