"""Fading channel models: received-power distributions and rate helpers.

Each model describes the distribution of the instantaneous received
power Y of a block-fading channel with average SNR lam. The supported
families and their parametrizations:

    Rayleigh(lam)        Y ~ Exp(lam)
    Rician(lam, k)       Y = (sqrt(k*lam) + G1)^2 + G2^2,
                         G1, G2 ~ N(0, lam/2) i.i.d. (k = LOS ratio)
    Nakagami(lam, m)     Y ~ Gamma(shape m, scale lam), m >= 0.5

Rician with k=0 and Nakagami with m=1 both coincide with Rayleigh.
Each is a noncentral gamma law (k, m) of scale lam, Y = (lam/2) X with
X ~ noncentral chi-square(2m, 2k): Rayleigh (0, 1), Rician (k, 1) and
Nakagami (0, m); every model has the attributes k and m.
Every CDF behaves like a power law alpha y^(1/kappa) as y -> 0, with
alpha = exp(-k) lam^-m / Gamma(m+1) and kappa = 1/m, as power_law() gives
them; the mismatch approximations read log alpha at lam = 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .specfun import _as_scalar, _check_scipy_result
from .errors import check_positive_int, check_unit_interval

__all__ = ["ChannelModel", "Rayleigh", "Rician", "Nakagami", "PowerLawTail"]

_LOG_MAX_DOUBLE = math.log(sys.float_info.max)


def _exp_or_inf(x: float) -> float:
    # math.exp raises past the largest double
    return math.exp(x) if x <= _LOG_MAX_DOUBLE else math.inf


@dataclass(frozen=True)
class PowerLawTail:
    """Leading-order lower-tail behaviour F(y) ~ alpha * y^(1/kappa)."""

    alpha: float
    kappa: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")


class ChannelModel:
    """Common interface of the fading models."""

    lam: float
    k: float  # the noncentral gamma law (k, m), as the module docstring says
    m: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")

    def _check_y(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if (y < 0.0).any():
            raise ValueError(f"received power must be >= 0, got {y.min()}")
        return y

    def _check_p(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        lo, hi = (p.min(), p.max()) if p.size else (0.0, 0.0)
        if not (0.0 <= lo and hi < 1.0):
            raise ValueError(f"probability must be in [0, 1), got {hi if lo >= 0.0 else lo}")
        return p

    def cdf(self, y):
        """P[Y <= y], elementwise for an array y; a float for a scalar y."""
        raise NotImplementedError

    def quantile(self, p):
        """The y with cdf(y) = p for p in [0, 1), elementwise for an array p;
        a float for a scalar p."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw `count` i.i.d. received powers using `rng`."""
        raise NotImplementedError

    def moments(self) -> tuple[float, float]:
        """(mean, variance) of Y: lam (m + k) and lam^2 (m + 2k)."""
        return self.lam * (self.m + self.k), self.lam * self.lam * (self.m + 2.0 * self.k)

    def _log_alpha(self, lam: float) -> float:
        # log alpha of the power-law tail at scale lam
        return -self.k - self.m * math.log(lam) - specfun.log_gamma(self.m + 1.0)

    def power_law(self) -> PowerLawTail:
        """(alpha, kappa) of F(y) ~ exp(-k) (y/lam)^m / Gamma(m+1) as y -> 0; a ValueError
        naming the parameters where alpha is no finite positive normal double."""
        alpha = _exp_or_inf(self._log_alpha(self.lam))
        if not sys.float_info.min <= alpha < math.inf:
            raise ValueError(f"the power-law tail of {self!r} has alpha = {alpha}, "
                             "outside the finite positive normal doubles")
        return PowerLawTail(alpha=alpha, kappa=1.0 / self.m)

    def epsilon_outage_capacity(self, eps: float) -> float:
        """log2(1 + F^{-1}(eps)): the largest rate with outage <= eps."""
        eps = check_unit_interval(eps, "eps")
        return math.log2(1.0 + self.quantile(eps))


@dataclass(frozen=True)
class Rayleigh(ChannelModel):
    lam: float
    k, m = 0.0, 1.0

    def cdf(self, y):
        with np.errstate(over="ignore"):  # y/lam = inf past DBL_MAX, where F = 1
            return _as_scalar(-np.expm1(-self._check_y(y) / self.lam))

    def quantile(self, p):
        # -lam log1p(-p) into one new array; lam y = inf past DBL_MAX
        p = self._check_p(p)
        y = np.negative(p, out=np.empty_like(p))
        np.log1p(y, out=y)
        with np.errstate(over="ignore"):
            y *= -self.lam
        return _as_scalar(y)

    def sample(self, rng, count):
        # inverse-CDF of a uniform keeps the draw reproducible across
        # numpy versions (no rejection steps): -lam log1p(-u), in place
        y = rng.random(check_positive_int(count, "count"))
        np.negative(y, out=y)
        np.log1p(y, out=y)
        y *= -self.lam
        return y


@dataclass(frozen=True)
class Rician(ChannelModel):
    lam: float
    k: float
    m = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.k < math.inf:
            raise ValueError(f"k must be finite and >= 0, got {self.k}")

    def cdf(self, y):
        # F(y) = 1 - Q1(sqrt(2k), sqrt(2y/lam)), the noncentral chi-square CDF,
        # evaluated directly so the deep lower tail keeps relative accuracy; 2y
        # overflows from y = 2^1023 on, where y/lam*2 is formed (F = 1 past DBL_MAX)
        y = self._check_y(y)
        with np.errstate(over="ignore"):
            x = np.where(y < 2.0 ** 1023, 2.0 * y / self.lam, y / self.lam * 2.0)
        # scipy's chndtr and chndtrix give nan once the noncentrality 2k passes about 5e10
        return _as_scalar(_check_scipy_result(specfun.special().chndtr(x, 2.0, 2.0 * self.k),
                                              y, f"the Rician law with k={self.k}, lam={self.lam}"))

    def quantile(self, p):
        p = self._check_p(p)
        x = _check_scipy_result(specfun.special().chndtrix(p, 2.0, 2.0 * self.k), p,
                                f"the Rician law with k={self.k}, lam={self.lam}")
        with np.errstate(over="ignore"):  # lam x = inf past DBL_MAX
            x *= 0.5 * self.lam
        return _as_scalar(x)

    def sample(self, rng, count):
        count = check_positive_int(count, "count")
        sigma = math.sqrt(self.lam / 2.0)
        los = math.sqrt(self.k * self.lam)
        # (los + G1)^2 + G2^2
        y = rng.normal(los, sigma, count)
        g2 = rng.normal(0.0, sigma, count)
        np.square(y, out=y)
        y += np.square(g2, out=g2)
        return y


@dataclass(frozen=True)
class Nakagami(ChannelModel):
    lam: float
    m: float
    k = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.5 <= self.m < math.inf:
            raise ValueError(f"m must be finite and >= 0.5, got {self.m}")

    def cdf(self, y):
        with np.errstate(over="ignore"):  # y/lam = inf past DBL_MAX, where F = 1
            return _as_scalar(specfun.special().gammainc(self.m, self._check_y(y) / self.lam))

    def quantile(self, p):
        with np.errstate(over="ignore"):  # lam x = inf past DBL_MAX
            return self.lam * specfun.inv_reg_lower_gamma(self.m, self._check_p(p))

    def sample(self, rng, count):
        return rng.gamma(self.m, self.lam, check_positive_int(count, "count"))


def _check_truth(model) -> None:
    # the draws and the mismatch formulas read the law (k, m) of these three alone
    if not isinstance(model, (Rayleigh, Rician, Nakagami)):
        raise TypeError("true_model must be a Rayleigh, Rician or Nakagami model, "
                        f"got {type(model).__name__}")
