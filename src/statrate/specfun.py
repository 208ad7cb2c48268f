"""Special-function kernel with explicit accuracy contracts.

Everything downstream (channel CDFs, calibration solvers, mismatch
integrals) reduces to the functions in this module: log-gamma,
regularized incomplete gamma/beta, their inverses, the first-order
Marcum Q function, and the standard normal quantile.

Standard functions are delegated to math/scipy.special, which meet the
stated tolerances on the supported domains. The Marcum family and the
noncentral chi-square tails delegate to scipy's ncx2: the upper tail to
scipy.stats.ncx2.sf, the lower tail to scipy.special.chndtr, which
computes the CDF directly and so avoids 1 - Q cancellation in the deep
lower tail of the Rician CDF. Both lose relative accuracy in far tails
(values below about 1e-130), down to returning 0.
"""

from __future__ import annotations

import math

import scipy.special as _sp

from .errors import check_positive_int

__all__ = [
    "log_gamma",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "inv_reg_lower_gamma",
    "reg_inc_beta",
    "marcum_q1",
    "marcum_q1_complement",
    "nc_chi2_sf",
    "nc_chi2_cdf",
    "std_normal_quantile",
]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0. Relative error <= 1e-12 on [0.5, 1e6]."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x)/Gamma(a)."""
    if not a > 0.0:
        raise ValueError(f"reg_lower_gamma requires a > 0, got {a}")
    if x < 0.0:
        raise ValueError(f"reg_lower_gamma requires x >= 0, got {x}")
    return float(_sp.gammainc(a, x))


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if not a > 0.0:
        raise ValueError(f"reg_upper_gamma requires a > 0, got {a}")
    if x < 0.0:
        raise ValueError(f"reg_upper_gamma requires x >= 0, got {x}")
    return float(_sp.gammaincc(a, x))


def inv_reg_lower_gamma(a: float, p: float) -> float:
    """Inverse of P(a, .): the x >= 0 with reg_lower_gamma(a, x) = p.

    At most 8 Newton steps, with the density exp((a-1) log x - x -
    lgamma(a)) as derivative, polish scipy's gammaincinv (off by up to
    about 2e-9). They stop once the residual no longer shrinks, or x or
    the density is zero or not finite; the iterate with the smallest
    residual is returned. Relative error <= 1e-13 against mpmath for a
    in [0.5, 1e5], p in [1e-30, 1 - 1e-12].
    """
    if not a > 0.0:
        raise ValueError(f"inv_reg_lower_gamma requires a > 0, got {a}")
    if not (0.0 <= p < 1.0):
        raise ValueError(f"inv_reg_lower_gamma requires p in [0, 1), got {p}")
    if p == 0.0:
        return 0.0
    x = float(_sp.gammaincinv(a, p))
    best_x, best_residual = x, math.inf
    for _ in range(8):
        if not 0.0 < x < math.inf:
            break
        # above p = 1/2, (1-p) - Q(a, x) keeps its relative accuracy as p -> 1
        residual = (1.0 - p) - _sp.gammaincc(a, x) if p > 0.5 else _sp.gammainc(a, x) - p
        density = math.exp((a - 1.0) * math.log(x) - x - math.lgamma(a))
        if not (abs(residual) < best_residual and 0.0 < density < math.inf):
            break
        best_x, best_residual = x, abs(residual)
        x -= float(residual) / density
    return best_x


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    For integer order statistics, I_x(l, n+1-l) = P[Bin(n, x) >= l].
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"reg_inc_beta requires x in [0, 1], got {x}")
    return float(_sp.betainc(a, b, x))


def _nc_chi2(x: float, half_df: int, nc: float, upper: bool) -> float:
    """Upper or lower tail of the noncentral chi-square with 2*half_df dof."""
    check_positive_int(half_df, "half_df")
    if nc < 0.0:
        raise ValueError(f"noncentrality must be >= 0, got {nc}")
    if x < 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 1.0 if upper else 0.0
    if nc == 0.0:
        # central case: plain Erlang/gamma tail
        gamma_tail = _sp.gammaincc if upper else _sp.gammainc
        return float(gamma_tail(half_df, x / 2.0))
    if upper:
        # imported where used: it costs about 0.5 s at start-up
        import scipy.stats as _stats
        return float(_stats.ncx2.sf(x, 2.0 * half_df, nc))
    return float(_sp.chndtr(x, 2.0 * half_df, nc))


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q function Q_1(a, b) = P[ncchi2_2(a^2) > b^2].

    Relative error <= 1e-12 against a 40-digit mpmath oracle for
    a <= 10, b <= 40 wherever the value is >= 1e-250; below that,
    scipy's ncx2.sf loses accuracy and can return 0.
    """
    if a < 0.0 or b < 0.0:
        raise ValueError(f"marcum_q1 requires a, b >= 0, got a={a}, b={b}")
    return _nc_chi2(b * b, 1, a * a, upper=True)


def marcum_q1_complement(a: float, b: float) -> float:
    """1 - Q_1(a, b), evaluated as a CDF.

    Keeps relative accuracy in the deep lower tail (b small), where
    forming 1 - marcum_q1 would cancel: relative error <= 1e-12 for
    a <= 10 wherever the value is >= 1e-150. scipy's chndtr loses
    accuracy for b^2 in [1e-161, 1e-155].
    """
    if a < 0.0 or b < 0.0:
        raise ValueError(f"marcum_q1_complement requires a, b >= 0, got a={a}, b={b}")
    return _nc_chi2(b * b, 1, a * a, upper=False)


def nc_chi2_sf(x: float, half_df: int, nc: float) -> float:
    """Survival P[W > x] for W ~ noncentral chi-square(2*half_df, nc).

    Relative error <= 1e-12 against a 40-digit mpmath oracle at
    half_df = 1e4 and 1e5 within two standard deviations of the mean.
    """
    return _nc_chi2(x, half_df, nc, upper=True)


def nc_chi2_cdf(x: float, half_df: int, nc: float) -> float:
    """CDF P[W <= x] for W ~ noncentral chi-square(2*half_df, nc).

    Same oracle accuracy as nc_chi2_sf.
    """
    return _nc_chi2(x, half_df, nc, upper=False)


def std_normal_quantile(p: float) -> float:
    """Upper-tail standard normal quantile: the x with Q(x) = p.

    Q is the Gaussian survival function; absolute error <= 1e-9 on
    p in [1e-12, 1 - 1e-12].
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"std_normal_quantile requires p in (0, 1), got {p}")
    return float(-_sp.ndtri(p)) + 0.0
