"""Model-mismatch analysis for the Rayleigh-MLE selector.

The selector assumes Rayleigh fading and picks the rate
log2(1 - log(1-eps_n) Xbar) from the sample mean Xbar of n training
gains. When the gains actually follow a Rician or Nakagami law the
realized mean outage and meta-probability differ from their design
values. Each column of the `mismatch` table is one function: the exact
mean_outage_mismatch and meta_prob_mismatch, the weak-n approximation
mean_outage_weak_n (the n -> infinity limit of mean_outage_power_law)
and the exponential tilt bound chernoff_tilt.

Every truth is a noncentral gamma law (k, m) of scale lam (see
channels), so each exact value is one formula of that law: a Poisson(n k)
mixture of noncentral F CDFs for the mean outage, a noncentral
chi-square tail of 2 n m degrees of freedom for the meta-probability.
No value depends on lam: each approximation is formed in logs from the
law at unit scale. Every CDF behaves like a power law alpha y^(1/kappa)
as y -> 0, with alpha = exp(-k) lam^-m / Gamma(m+1) and kappa = 1/m; at
lam = 1, log alpha = -k - log Gamma(m+1).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import replace

from . import specfun
from .channels import ChannelModel, _check_truth
from .errors import check_positive_int, check_unit_interval

__all__ = [
    "chernoff_tilt",
    "mean_outage_exact_rayleigh",
    "mean_outage_mismatch",
    "mean_outage_power_law",
    "mean_outage_weak_n",
    "meta_prob_exact_rayleigh",
    "meta_prob_mismatch",
]


def _log_tail(model: ChannelModel, y: float) -> float:
    # log of the power-law tail alpha y^m of the law (k, m) at unit scale
    return -model.k - specfun.log_gamma(model.m + 1.0) + model.m * math.log(y)


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


def mean_outage_mismatch(true_model: ChannelModel, eps_n: float, n: int) -> float:
    """Mean outage of the Rayleigh-MLE rate when the gains follow true_model.

    The outage averaged over the exact sampling distribution of the
    training mean, for the law (k, m) of any truth: a Poisson(n k)
    mixture of noncentral F CDFs (scipy.special.ncfdtr), in time growing
    as sqrt(n k) and bounded memory, and a ValueError where ncfdtr gives
    nan; specfun._poisson_mixture states its accuracy.
    """
    _check_truth(true_model)
    eps_n = check_unit_interval(eps_n, "eps_n")
    n = check_positive_int(n, "n")
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


def mean_outage_weak_n(true_model: ChannelModel, level: float) -> float:
    """Weak-n approximation of the mean outage under true_model.

    The n -> infinity limit of mean_outage_power_law with -log(1-x) ~ x:
    the power-law tail alpha (level E[X])^m of the law at unit scale,
    E[X] = m + k, formed in logs and inf past the largest double. Pass
    the target eps as level for the design-level approximation.
    """
    _check_truth(true_model)
    level = check_unit_interval(level, "level")
    return specfun._exp_or_inf(_log_tail(true_model, level * (true_model.m + true_model.k)))


def mean_outage_power_law(true_model: ChannelModel, eps_n: float, n: int) -> float:
    """Power-law approximation of the mean outage under true_model.

    The second-order delta method on E[alpha (g Xbar)^m], g = -log(1-eps_n):
    the weak-n form at level g times 1 + m (m - 1) / (2 n) var/mean^2 of
    the gain.
    """
    _check_truth(true_model)
    eps_n = check_unit_interval(eps_n, "eps_n")
    n = check_positive_int(n, "n")
    # kappa = 1/m; the gain's var/mean^2, (m + 2k)/(m + k)^2 for the law (k, m),
    # rounds as 1/m does at k = 0
    k, m = true_model.k, true_model.m
    kappa = 1.0 / m
    r = k / m
    rel_var = (1.0 + 2.0 * r) / (m * (1.0 + r) ** 2)
    lead = specfun._exp_or_inf(_log_tail(true_model, -math.log1p(-eps_n) * (m + k)))
    return lead * (1.0 + (1.0 - kappa) / (2.0 * n * kappa * kappa) * rel_var)


def meta_prob_mismatch(true_model: ChannelModel, eps_n: float, eps: float,
                       n: int) -> float:
    """Meta-probability P[outage > eps] of the Rayleigh-MLE rate under
    true_model.

    The exact tail of the training-mean distribution, a noncentral chi-square
    of 2 n m degrees of freedom and noncentrality 2 n k for the law (k, m)
    of any truth; chernoff_tilt bounds it.
    """
    _check_truth(true_model)
    eps_n = check_unit_interval(eps_n, "eps_n")
    eps = check_unit_interval(eps, "eps")
    n = check_positive_int(n, "n")
    # the event {Xbar > quantile(eps)/g}: S = 2 n Xbar/lam ~ ncchi^2(2nm, 2nk),
    # free of lam, so read at lam = 1, where nothing overflows or underflows
    thr = replace(true_model, lam=1.0).quantile(eps) * n / -math.log1p(-eps_n)
    return specfun.nc_chi2_sf(2.0 * thr, n * true_model.m, 2.0 * n * true_model.k)


def chernoff_tilt(true_model: ChannelModel, eps_n: float, eps: float,
                  n: int) -> float:
    """Exponential tilt bound on the meta-probability under mismatch.

    Bounds P[sum X_i > n thr], thr = (eps/alpha)^kappa / g and
    g = -log(1-eps_n), with the true quantile replaced by its power-law
    form at unit scale (r below is free of lam).
    Every model is a noncentral gamma law (k, m) of scale lam, its k and
    m attributes: Rician (k, 1), Nakagami (0, m), Rayleigh (0, 1).
    With w = 1 - lam t its log-MGF is k(1-w)/w - m log w, so the
    stationarity condition M'(t)/M(t) = thr reads r w^2 - m w - k = 0,
    r = thr/lam, and w is its positive root. The bound is
    exp(n (k(1-w)/w - m log w - (1-w) r)). A root w >= 1 (no positive
    tilt) means the threshold sits at or below the mean and the bound
    degenerates to 1, with a RuntimeWarning; so does r = 0, where w is
    infinite. Where r overflows, w -> 0 and the bound is 0.
    """
    _check_truth(true_model)
    eps_n = check_unit_interval(eps_n, "eps_n")
    eps = check_unit_interval(eps, "eps")
    n = check_positive_int(n, "n")
    k, m = true_model.k, true_model.m
    # thr at unit scale; eps^(1/m) kept out of the exponential, whose summed
    # logs would round the bound past 1e-12 of the oracle, unless it underflows
    log_a, g, p = -_log_tail(true_model, 1.0) / m, -math.log1p(-eps_n), eps ** (1.0 / m)
    r = (specfun._exp_or_inf(log_a) * p / g if p >= sys.float_info.min
         else specfun._exp_or_inf(log_a + math.log(eps) / m - math.log(g)))
    if r == math.inf:  # the bound exp(-n r (1 + o(1))) is 0
        return 0.0
    w = math.inf  # the root's limit as r -> 0, where eps^(1/m) / g underflows
    if r > 0.0:
        # (m + sqrt(m^2 + 4 r k)) / (2 r) over sqrt(r), so that r k cannot overflow
        s = math.sqrt(r)
        q = 0.5 * m / s
        w = (q + math.sqrt(q * q + k)) / s

    if w >= 1.0:
        warnings.warn(
            "optimal tilt is non-positive (threshold at or below the mean); "
            "the exponential bound degenerates to 1", RuntimeWarning,
            stacklevel=2)
        return 1.0

    log_bound = n * (k * (1.0 - w) / w - m * math.log(w) - (1.0 - w) * r)
    if log_bound > 0.0:
        warnings.warn(
            "exponential bound exceeds 1 and was clamped", RuntimeWarning,
            stacklevel=2)
        return 1.0
    return math.exp(log_bound)
