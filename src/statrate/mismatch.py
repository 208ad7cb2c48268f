"""Model-mismatch analysis for the Rayleigh-MLE selector.

The selector assumes Rayleigh fading and picks the rate
log2(1 - log(1-eps_n) Xbar) from the sample mean Xbar of n training
gains. When the gains actually follow a Rician or Nakagami law the
realized mean outage and meta-probability differ from their design
values; this module evaluates both, exactly or through closed-form
approximations (power-law / weak-n expansions for the mean outage, an
exponential tilt bound for the meta-probability).

Every truth is a noncentral gamma law (k, m) of scale lam (see
channels), so each exact value is one formula of that law: a Poisson(n k)
mixture of noncentral F CDFs for the mean outage, a noncentral
chi-square tail of 2 n m degrees of freedom for the meta-probability.
No value depends on lam: each approximation is formed in logs from the
law at unit scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from . import specfun
from .channels import ChannelModel, _check_truth, _exp_or_inf
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


def _power_law_mean_outage(model: ChannelModel, eps_n: float, n: int) -> float:
    # second-order delta method on E[alpha (g Xbar)^(1/kappa)], kappa = 1/m; the
    # gain's var/mean^2, (m + 2k)/(m + k)^2 for the law (k, m), rounds as 1/m
    # does at k = 0
    kappa = 1.0 / model.m
    r = model.k / model.m
    rel_var = (1.0 + 2.0 * r) / (model.m * (1.0 + r) ** 2)
    lead = _weak_n_mean_outage(model, -math.log1p(-eps_n))
    return lead * (1.0 + (1.0 - kappa) / (2.0 * n * kappa * kappa) * rel_var)


def _weak_n_mean_outage(model: ChannelModel, level: float) -> float:
    # n -> infinity limit with -log(1-x) ~ x: alpha (level E[X])^m at unit
    # scale, where E[X] = m + k, formed in logs
    return _exp_or_inf(model._log_alpha(1.0) + model.m * math.log(level * (model.m + model.k)))


def mean_outage_mismatch(true_model: ChannelModel, eps_n: float, n: int,
                         method: str = "numeric") -> float:
    """Mean outage of the Rayleigh-MLE rate when the gains follow true_model.

    method "numeric" averages the outage over the exact sampling
    distribution of the training mean, for the law (k, m) of any truth:
    a Poisson(n k) mixture of noncentral F CDFs (scipy.special.ncfdtr),
    in time growing as sqrt(n k) and bounded memory, and a ValueError
    where ncfdtr gives nan; specfun._poisson_mixture states its accuracy.
    "power_law" applies a second-order delta-method expansion around
    the power-law tail of the true CDF; "weak_n" is its n -> infinity
    limit with -log(1-x) ~ x, which evaluates the tail at the supplied
    level directly (pass the target eps to reproduce the design-level
    approximation).
    """
    _check_truth(true_model)
    eps_n = check_unit_interval(eps_n, "eps_n")
    n = check_positive_int(n, "n")
    if method == "numeric":
        # the gain is (lam/2) X and twice the training sum over lam is S, with
        # X ~ ncchi^2(2m, 2k) and S ~ ncchi^2(2nm, 2nk) independent; S is a
        # Poisson(n k) mixture of chi^2(2(nm + K)), and given K the outage
        # P[X <= (g/n) S] is the noncentral F CDF at (g/n)(nm + K)/m
        # ncfdtr gives nan for some terms, as under Rician k of about 700 to 745
        k, m = true_model.k, true_model.m
        g = -math.log1p(-eps_n)
        ncfdtr = specfun.special().ncfdtr
        what = f"the mean outage under {true_model!r} at n={n}"
        return specfun._poisson_mixture(n * k, lambda K: specfun._check_scipy_result(ncfdtr(
            2.0 * m, 2.0 * (n * m + K), 2.0 * k, (g / n) * (n * m + K) / m), K, what),
            math.floor(n * k))
    if method == "power_law":
        return _power_law_mean_outage(true_model, eps_n, n)
    if method == "weak_n":
        return _weak_n_mean_outage(true_model, eps_n)
    raise ValueError(f"method must be one of {MEAN_OUTAGE_METHODS}, got {method!r}")


@dataclass(frozen=True)
class ChernoffSolution:
    """Optimal exponential tilt t_star and the resulting bound value."""

    t_star: float
    bound_value: float


def chernoff_tilt(true_model: ChannelModel, eps_n: float, eps: float,
                  n: int) -> ChernoffSolution:
    """Exponential tilt bound on the meta-probability under mismatch.

    Bounds P[sum X_i > n thr], thr = (eps/alpha)^kappa / g and
    g = -log(1-eps_n), with the true quantile replaced by its power-law
    form at unit scale (r below is free of lam).
    Every model is a noncentral gamma law (k, m) of scale lam, its k and
    m attributes: Rician (k, 1), Nakagami (0, m), Rayleigh (0, 1).
    With w = 1 - lam t its log-MGF is k(1-w)/w - m log w, so the
    stationarity condition M'(t)/M(t) = thr reads r w^2 - m w - k = 0,
    r = thr/lam, and w is its positive root. The bound is exp(n (k(1-w)/w - m log w - (1-w) r)).
    A root w >= 1 (t* <= 0) means the threshold sits at or below the
    mean and the bound degenerates to 1.
    """
    _check_truth(true_model)
    eps_n = check_unit_interval(eps_n, "eps_n")
    eps = check_unit_interval(eps, "eps")
    n = check_positive_int(n, "n")
    k, m = true_model.k, true_model.m
    # thr at unit scale; eps^(1/m) kept out of the exponential, whose summed
    # logs would round the bound past 1e-12 of the oracle
    r = _exp_or_inf(-true_model._log_alpha(1.0) / m) * eps ** (1.0 / m) / -math.log1p(-eps_n)
    if not 0.0 < r:
        raise NoValidTiltError(f"degenerate tilt equation (ratio {r}, eps={eps}, n={n})")
    if r == math.inf:  # w -> 0, and the bound exp(-n r (1 + o(1))) is 0
        return ChernoffSolution(t_star=1.0 / true_model.lam, bound_value=0.0)
    # (m + sqrt(m^2 + 4 r k)) / (2 r) over sqrt(r), so that r k cannot overflow
    s = math.sqrt(r)
    q = 0.5 * m / s
    w = (q + math.sqrt(q * q + k)) / s
    t_star = (1.0 - w) / true_model.lam

    if w >= 1.0:
        warnings.warn(
            "optimal tilt is non-positive (threshold at or below the mean); "
            "the exponential bound degenerates to 1", RuntimeWarning,
            stacklevel=2)
        return ChernoffSolution(t_star=t_star, bound_value=1.0)

    log_bound = n * (k * (1.0 - w) / w - m * math.log(w) - (1.0 - w) * r)
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
    distribution, a noncentral chi-square of 2 n m degrees of freedom and
    noncentrality 2 n k for the law (k, m) of any truth; "chernoff"
    returns the exponential tilt upper bound from chernoff_tilt.
    """
    _check_truth(true_model)
    eps_n = check_unit_interval(eps_n, "eps_n")
    eps = check_unit_interval(eps, "eps")
    n = check_positive_int(n, "n")
    if method == "numeric":
        # the event {Xbar > quantile(eps)/g}: S = 2 n Xbar/lam ~ ncchi^2(2nm, 2nk),
        # free of lam, so read at lam = 1, where nothing overflows or underflows
        thr = replace(true_model, lam=1.0).quantile(eps) * n / -math.log1p(-eps_n)
        return specfun.nc_chi2_sf(2.0 * thr, n * true_model.m, 2.0 * n * true_model.k)
    if method == "chernoff":
        return chernoff_tilt(true_model, eps_n, eps, n).bound_value
    raise ValueError(f"method must be one of {META_PROB_METHODS}, got {method!r}")
