"""Special-function kernel with explicit accuracy contracts.

Everything downstream (channel CDFs, calibration solvers, mismatch
meta-probabilities) reduces to the functions in this module: log-gamma,
regularized incomplete gamma/beta, their inverses, the first-order
Marcum Q function, and the standard normal quantile.

Standard functions are delegated to math/scipy.special, which meet the
stated tolerances on the supported domains; scipy.stats is not used.
The noncentral chi-square upper tail (and Marcum Q) is a Poisson mixture
of scipy.special.gammaincc, accurate down to 1e-300; the lower tail is
scipy.special.chndtr, free of 1 - Q cancellation in the deep lower tail.

This is the only statrate module that imports scipy.special, and it
does so on the first call of special(), not at import: after numpy the
import takes about 0.24 s (python -X importtime median, 2 vCPUs), 0.13 s
of it numpy submodules that scipy's array-API layer loads. The AR
calibrations, the Rayleigh models and the CLI's argument handling need
none of it; the other modules reach scipy.special through special().
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "log_gamma",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "inv_reg_lower_gamma",
    "inv_reg_upper_gamma",
    "reg_inc_beta",
    "marcum_q1",
    "marcum_q1_complement",
    "nc_chi2_sf",
    "nc_chi2_cdf",
    "std_normal_quantile",
]

_CHUNK = 1024  # Poisson-mixture terms added at once

_LOG_MAX_DOUBLE = math.log(sys.float_info.max)


def _exp_or_inf(x: float) -> float:
    # math.exp raises past the largest double
    return math.exp(x) if x <= _LOG_MAX_DOUBLE else math.inf


def special():
    """The scipy.special module, imported on the first call.

    The import system's module lock makes a thread that calls this while
    another is importing wait for the finished module, so concurrent
    first calls are safe (importlib.util.LazyLoader is not: it can hand
    a second thread a half-loaded module).
    """
    from scipy import special as sp

    return sp


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, inf where it passes the largest double (from x
    of about 2.56e305). Relative error <= 1e-12 on [0.5, 1e6]."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x)/Gamma(a)."""
    if not a > 0.0:
        raise ValueError(f"reg_lower_gamma requires a > 0, got {a}")
    if x < 0.0:
        raise ValueError(f"reg_lower_gamma requires x >= 0, got {x}")
    return float(special().gammainc(a, x))


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if not a > 0.0:
        raise ValueError(f"reg_upper_gamma requires a > 0, got {a}")
    if x < 0.0:
        raise ValueError(f"reg_upper_gamma requires x >= 0, got {x}")
    return float(special().gammaincc(a, x))


def _as_scalar(values: np.ndarray):
    # a 0-d result goes back to the caller as a plain float
    return float(values) if values.ndim == 0 else values


def _check_scipy_result(values, arg, what: str):
    """values, unless scipy.special gave a non-finite result for an argument
    arg that is not nan: past the range it evaluates, a function such as
    chndtr, chndtrix or ncfdtr returns nan, not an error. The ValueError
    names what was evaluated; one boolean array at a time."""
    if np.count_nonzero(np.isfinite(values)) + np.count_nonzero(np.isnan(arg)) < np.size(values):
        raise ValueError(f"{what} is beyond the range scipy evaluates (non-finite result)")
    return values


def inv_reg_lower_gamma(a: float, p):
    """Inverse of P(a, .): the x >= 0 with reg_lower_gamma(a, x) = p,
    elementwise for an array p (a float for a scalar p).

    scipy's gammaincinv: relative error <= 1e-13 against mpmath for a in
    [0.5, 1e5], p in [1e-30, 1 - 1e-12]; beyond a = 1e5 nothing is
    promised, and nothing raises.
    """
    if not a > 0.0:
        raise ValueError(f"inv_reg_lower_gamma requires a > 0, got {a}")
    p = np.asarray(p, dtype=float)
    if not ((0.0 <= p) & (p < 1.0)).all():
        raise ValueError(f"inv_reg_lower_gamma requires p in [0, 1), got {p}")
    return _as_scalar(special().gammaincinv(a, p))


def inv_reg_upper_gamma(a: float, q: float) -> float:
    """Inverse of Q(a, .): the x >= 0 with reg_upper_gamma(a, x) = q.

    scipy's gammainccinv. Taking q itself, not 1 - q, keeps small
    upper-tail levels exact: relative error <= 1e-13 against mpmath for
    a in [0.5, 1e5], q in [1e-30, 1 - 1e-12]; beyond a = 1e5 nothing is
    promised, and nothing raises.
    """
    if not a > 0.0:
        raise ValueError(f"inv_reg_upper_gamma requires a > 0, got {a}")
    if not (0.0 < q <= 1.0):
        raise ValueError(f"inv_reg_upper_gamma requires q in (0, 1], got {q}")
    return float(special().gammainccinv(a, q))


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    For integer order statistics, I_x(l, n+1-l) = P[Bin(n, x) >= l].
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"reg_inc_beta requires x in [0, 1], got {x}")
    return float(special().betainc(a, b, x))


def _poisson_mixture(mu: float, term, start: int) -> float:
    """Sum over K >= 0 of Pois(K; mu) term(K), where term maps an array
    of K to values in [0, 1] and start sits near the summand's peak.

    Adds chunks of _CHUNK terms up from start, then down; each side stops
    once its outermost term and weight are both below 1e-17 of their
    running sums, so memory stays bounded. Dividing by the sum of the
    weights added cancels their common rounding at large mu; an
    underflowing sum gives 0, and mu = 0 gives term(0) exactly. The
    mismatch mean outage (scipy 1.17.1, Rician truth) is within 6e-15
    relative of the double-Poisson Beta mixture for n <= 1e4, k <= 10,
    eps_n >= 1e-12, and within 6e-13 of this sum with 30-digit weights
    at n k = 1e6, beyond which their rounding grows.
    """
    if not mu < 2.0 ** 52:
        raise ValueError(f"Poisson mean must be below 2^52, where K is exact, got {mu}")
    start = min(start, 2 ** 52)  # K stays exact; so far past mu every term is 0
    sp = special()
    total = weights = 0.0
    for lo, step, edge in ((start, _CHUNK, -1), (start - _CHUNK, -_CHUNK, 0)):
        while lo + _CHUNK > 0:
            K = np.arange(max(lo, 0), lo + _CHUNK, dtype=float)
            w = np.exp(sp.xlogy(K, mu) - mu - sp.gammaln(K + 1.0))
            t, pos = np.zeros_like(w), w > 0.0  # a zero weight adds exactly 0
            t[pos] = w[pos] * term(K[pos])
            total += t.sum()
            weights += w.sum()
            if not (t[edge] > 1e-17 * total or w[edge] > 1e-17 * weights):
                break
            lo += step
    return float(total / weights) if total else 0.0


def _check_nc_chi2(x: float, half_df: float, nc: float) -> None:
    if not (0.0 <= nc < math.inf and x >= 0.0 and 0.0 < half_df < math.inf):
        raise ValueError(f"need finite half_df > 0, finite nc >= 0 and x >= 0, "
                         f"got half_df={half_df}, nc={nc}, x={x}")


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q function Q_1(a, b) = P[ncchi2_2(a^2) > b^2].

    Relative error <= 1e-12 against a 40-digit mpmath oracle for
    a <= 10, b <= 40 wherever the value is >= 1e-300.
    """
    if a < 0.0 or b < 0.0:
        raise ValueError(f"marcum_q1 requires a, b >= 0, got a={a}, b={b}")
    return nc_chi2_sf(b * b, 1, a * a)


def marcum_q1_complement(a: float, b: float) -> float:
    """1 - Q_1(a, b), the noncentral chi-square CDF nc_chi2_cdf(b^2, 1, a^2).

    Keeps relative accuracy in the deep lower tail (b small), where
    forming 1 - marcum_q1 would cancel: relative error <= 1e-12 for
    a <= 10 wherever the value is >= 1e-150. scipy's chndtr loses
    accuracy for b^2 in [1e-161, 1e-155].
    """
    if a < 0.0 or b < 0.0:
        raise ValueError(f"marcum_q1_complement requires a, b >= 0, got a={a}, b={b}")
    return nc_chi2_cdf(b * b, 1.0, a * a)


def nc_chi2_sf(x: float, half_df: float, nc: float) -> float:
    """Survival P[W > x] for W ~ noncentral chi-square(2*half_df, nc),
    half_df any finite real > 0.

    The Poisson(nc/2) mixture of Q(half_df + K, x/2), summed from the
    summand's peak near K (half_df + K) = nc x/4. Relative error <= 1e-12
    against a 40-digit mpmath oracle wherever the value is >= 1e-300,
    in the far tails and near the mean at half_df = 5000.5, 1e4, 1e5.
    """
    _check_nc_chi2(x, half_df, nc)
    mu, v = 0.5 * nc, 0.5 * x
    # the summand's peak; at x = inf the formula gives nan, and max() keeps mu
    peak = max(mu, 2.0 * mu * v / (half_df + math.sqrt(half_df * half_df + 4.0 * mu * v)))
    gammaincc = special().gammaincc
    return _poisson_mixture(mu, lambda K: gammaincc(half_df + K, v), math.floor(peak))


def nc_chi2_cdf(x: float, half_df: float, nc: float) -> float:
    """CDF P[W <= x] for W ~ noncentral chi-square(2*half_df, nc), by
    scipy.special.chndtr; same oracle accuracy as nc_chi2_sf near the mean.
    A ValueError where chndtr gives nan, as from nc of about 5e10 on.
    """
    _check_nc_chi2(x, half_df, nc)
    return float(_check_scipy_result(special().chndtr(x, 2.0 * half_df, nc), x,
                                      f"the noncentral chi-square CDF at x={x}, "
                                      f"half_df={half_df}, nc={nc}"))


def std_normal_quantile(p: float) -> float:
    """Upper-tail standard normal quantile: the x with Q(x) = p.

    Q is the Gaussian survival function; absolute error <= 1e-9 on
    p in [1e-12, 1 - 1e-12].
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"std_normal_quantile requires p in (0, 1), got {p}")
    return float(-special().ndtri(p)) + 0.0
