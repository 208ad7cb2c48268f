"""Fading channel models: received-power distributions and rate helpers.

Each model describes the distribution of the instantaneous received
power Y of a block-fading channel with average SNR lam. The supported
families and their parametrizations:

    Rayleigh(lam)        Y ~ Exp(lam)
    Rician(lam, k)       Y = (sqrt(k*lam) + G1)^2 + G2^2,
                         G1, G2 ~ N(0, lam/2) i.i.d. (k = LOS ratio)
    Nakagami(lam, m)     Y ~ Gamma(shape m, scale lam), m >= 0.5

Rician with k=0 and Nakagami with m=1 both coincide with Rayleigh.
Every CDF behaves like a power law alpha * y^(1/kappa) as y -> 0; the
(alpha, kappa) pair is exposed by power_law() and drives the tail
selectors and the mismatch approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as _sp

from . import specfun

__all__ = ["ChannelModel", "Rayleigh", "Rician", "Nakagami", "PowerLawTail"]


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


def _as_scalar(values: np.ndarray):
    # a 0-d result goes back to the caller as a plain float
    return float(values) if values.ndim == 0 else values


class ChannelModel:
    """Common interface of the fading models."""

    lam: float

    def _check_y(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if (y < 0.0).any():
            raise ValueError(f"received power must be >= 0, got {y.min()}")
        return y

    def _check_p(self, p: float) -> float:
        p = float(p)
        if not (0.0 <= p < 1.0):
            raise ValueError(f"probability must be in [0, 1), got {p}")
        return p

    def _check_eps(self, eps: float) -> float:
        eps = float(eps)
        if not (0.0 < eps < 1.0):
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        return eps

    @staticmethod
    def _check_count(count: int) -> int:
        if count != int(count) or int(count) < 1:
            raise ValueError(f"count must be a positive integer, got {count}")
        return int(count)

    def cdf(self, y):
        """P[Y <= y], elementwise for an array y; a float for a scalar y."""
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        """The y with cdf(y) = p, for p in [0, 1)."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw `count` i.i.d. received powers using `rng`."""
        raise NotImplementedError

    def moments(self) -> tuple[float, float]:
        """(mean, variance) of Y."""
        raise NotImplementedError

    def mgf(self, t: float) -> float:
        """E[exp(t Y)]; defined for t < 1/lam."""
        raise NotImplementedError

    def power_law(self) -> PowerLawTail:
        """Lower-tail power-law coefficients (alpha, kappa)."""
        raise NotImplementedError

    def epsilon_outage_capacity(self, eps: float) -> float:
        """log2(1 + F^{-1}(eps)): the largest rate with outage <= eps."""
        eps = self._check_eps(eps)
        return math.log2(1.0 + self.quantile(eps))

    def _check_t(self, t: float) -> float:
        t = float(t)
        if not t < 1.0 / self.lam:
            raise ValueError(
                f"mgf defined for t < 1/lam = {1.0 / self.lam}, got t = {t}")
        return t


@dataclass(frozen=True)
class Rayleigh(ChannelModel):
    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError(f"lam must be > 0, got {self.lam}")

    def cdf(self, y):
        y = self._check_y(y)
        return _as_scalar(-np.expm1(-y / self.lam))

    def quantile(self, p):
        p = self._check_p(p)
        return -self.lam * math.log1p(-p)

    def sample(self, rng, count):
        # inverse-CDF of a uniform keeps the draw reproducible across
        # numpy versions (no rejection steps)
        y = rng.random(self._check_count(count))
        np.negative(y, out=y)
        np.log1p(y, out=y)
        y *= -self.lam
        return y

    def moments(self):
        return self.lam, self.lam * self.lam

    def mgf(self, t):
        t = self._check_t(t)
        return 1.0 / (1.0 - t * self.lam)

    def power_law(self):
        return PowerLawTail(alpha=1.0 / self.lam, kappa=1.0)

    def epsilon_outage_capacity(self, eps):
        eps = self._check_eps(eps)
        return math.log2(1.0 - self.lam * math.log1p(-eps))


@dataclass(frozen=True)
class Rician(ChannelModel):
    lam: float
    k: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.k < 0.0:
            raise ValueError(f"k must be >= 0, got {self.k}")

    def cdf(self, y):
        # F(y) = 1 - Q1(sqrt(2k), sqrt(2y/lam)), the noncentral
        # chi-square CDF, evaluated directly so the deep lower tail
        # keeps relative accuracy
        y = self._check_y(y)
        return _as_scalar(_sp.chndtr(2.0 * y / self.lam, 2.0, 2.0 * self.k))

    def quantile(self, p):
        p = self._check_p(p)
        if p == 0.0:
            return 0.0
        if self.k == 0.0:
            return -self.lam * math.log1p(-p)
        return 0.5 * self.lam * float(_sp.chndtrix(p, 2.0, 2.0 * self.k))

    def sample(self, rng, count):
        count = self._check_count(count)
        sigma = math.sqrt(self.lam / 2.0)
        los = math.sqrt(self.k * self.lam)
        # (los + G1)^2 + G2^2
        y = rng.normal(los, sigma, count)
        g2 = rng.normal(0.0, sigma, count)
        np.square(y, out=y)
        y += np.square(g2, out=g2)
        return y

    def moments(self):
        mean = self.lam * (1.0 + self.k)
        var = self.lam * self.lam * (1.0 + 2.0 * self.k)
        return mean, var

    def mgf(self, t):
        t = self._check_t(t)
        w = 1.0 - self.lam * t
        return math.exp(self.k * self.lam * t / w) / w

    def power_law(self):
        return PowerLawTail(alpha=math.exp(-self.k) / self.lam, kappa=1.0)


@dataclass(frozen=True)
class Nakagami(ChannelModel):
    lam: float
    m: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not self.m >= 0.5:
            raise ValueError(f"m must be >= 0.5, got {self.m}")

    def cdf(self, y):
        y = self._check_y(y)
        return _as_scalar(_sp.gammainc(self.m, y / self.lam))

    def quantile(self, p):
        p = self._check_p(p)
        return self.lam * specfun.inv_reg_lower_gamma(self.m, p)

    def sample(self, rng, count):
        return rng.gamma(self.m, self.lam, self._check_count(count))

    def moments(self):
        return self.m * self.lam, self.m * self.lam * self.lam

    def mgf(self, t):
        t = self._check_t(t)
        return (1.0 - t * self.lam) ** (-self.m)

    def power_law(self):
        # gamma(m, x)/Gamma(m) ~ x^m / Gamma(m+1) as x -> 0
        alpha = math.exp(-self.m * math.log(self.lam) - specfun.log_gamma(self.m + 1.0))
        return PowerLawTail(alpha=alpha, kappa=1.0 / self.m)
