"""Estimators that turn channel training samples into rate inputs.

A TrainingSample wraps n i.i.d. received-power measurements. From it we
derive either the Rayleigh scale MLE (the sample mean), the empirical
CDF, or a power-law tail fit of the smallest ceil(beta*n) observations
in the log domain:

    Z = log Y,  F_Z(z) ~ alpha * exp(z/kappa)   (z -> -inf)

    kappa_hat = (1/l) sum_{i<=l} (Z_(l) - Z_(i))
    alpha_hat = (l/n) exp(-Z_(l)/kappa_hat)

tail_quantile extrapolates the fitted tail to a target quantile level,
typically far below 1/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientTailDataError, SampleParseError

__all__ = [
    "TrainingSample",
    "TailFit",
    "sample_rows",
    "rayleigh_mle",
    "empirical_cdf",
    "fit_power_tail",
    "fit_power_tails",
    "tail_quantile",
    "load_sample_file",
]


def _ceil_with_float_guard(v: float) -> int:
    # round(v, 9) absorbs binary-float noise at exact-integer boundaries
    # (e.g. 0.07 * 100 = 7.000000000000001)
    return int(math.ceil(round(v, 9)))


def _floor_with_float_guard(v: float) -> int:
    return int(math.floor(round(v, 9)))


def _check_values(arr: np.ndarray) -> None:
    if arr.size == 0:
        raise ValueError("empty sample")
    if not np.isfinite(arr).all():
        raise ValueError("sample contains non-finite values")
    if float(arr.min()) < 0.0:
        raise ValueError("sample values must be >= 0")


def sample_rows(values) -> np.ndarray:
    """A (B, n) float64 array of B training samples, one per row.

    Every row passes the checks a TrainingSample makes: non-empty,
    finite and non-negative.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a (B, n) array of samples, got shape {arr.shape}")
    _check_values(arr)
    return arr


class TrainingSample:
    """Immutable batch of non-negative received-power measurements.

    Order statistics are served from a lazily built sorted copy;
    construction itself is O(n) so selectors that only need the mean
    never pay for sorting.
    """

    def __init__(self, values):
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"sample must be one-dimensional, got shape {arr.shape}")
        _check_values(arr)
        self._values = arr
        self._values.setflags(write=False)
        self._sorted: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n(self) -> int:
        return int(self._values.size)

    @property
    def sorted_values(self) -> np.ndarray:
        if self._sorted is None:
            s = np.sort(self._values)
            s.setflags(write=False)
            self._sorted = s
        return self._sorted

    def mean(self) -> float:
        return float(self._values.mean())

    def order_stat(self, l: int) -> float:
        """l-th smallest value, 1-indexed.

        Boundary conventions: order_stat(0) = 0 and
        order_stat(n+1) = +inf.
        """
        n = self.n
        if l == 0:
            return 0.0
        if l == n + 1:
            return math.inf
        if not (1 <= l <= n):
            raise IndexError(f"order statistic index {l} outside [0, {n + 1}]")
        if self._sorted is not None:
            return float(self._sorted[l - 1])
        # partial selection: O(n), no full sort
        return float(np.partition(self._values, l - 1)[l - 1])

    def smallest(self, l: int) -> np.ndarray:
        """The l smallest values in ascending order."""
        n = self.n
        if not (1 <= l <= n):
            raise IndexError(f"tail size {l} outside [1, {n}]")
        if self._sorted is not None:
            return self._sorted[:l].copy()
        head = np.partition(self._values, l - 1)[:l]
        head.sort()
        return head


@dataclass(frozen=True)
class TailFit:
    """Fitted lower-tail power law in the log-power domain.

    n is the fitted sample's size; an alpha_hat that overflowed to inf
    needs it for its quantiles.
    """

    alpha_hat: float
    kappa_hat: float
    l: int
    beta: float
    z_l: float
    n: int | None = None

    def __post_init__(self):
        if not self.kappa_hat >= 0.0:
            raise ValueError(f"kappa_hat must be >= 0, got {self.kappa_hat}")
        if not self.alpha_hat > 0.0:
            raise ValueError(f"alpha_hat must be > 0, got {self.alpha_hat}")
        if math.isinf(self.alpha_hat) and self.n is None:
            raise ValueError("alpha_hat = inf needs the sample size n")


def rayleigh_mle(sample: TrainingSample) -> float:
    """Maximum-likelihood Rayleigh scale: the sample mean."""
    return sample.mean()


def empirical_cdf(sample: TrainingSample, y: float) -> float:
    """Right-continuous empirical CDF: (# values <= y) / n."""
    y = float(y)
    idx = int(np.searchsorted(sample.sorted_values, y, side="right"))
    return idx / sample.n


def fit_power_tails(rows: np.ndarray, beta: float):
    """fit_power_tail on every row of a (B, n) sample array.

    Returns (l, alpha_hat, kappa_hat, z_l), the last three of shape
    (B,). alpha_hat is inf, without a warning, where it overflows
    (tightly clustered tiny tails). Raises as fit_power_tail does if
    any row fails.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    n = rows.shape[1]
    l = _ceil_with_float_guard(beta * n)
    if l < 2:
        raise InsufficientTailDataError(
            f"tail fit needs ceil(beta*n) >= 2 values, got l={l} (n={n}, beta={beta})")
    tail = np.partition(rows, l - 1, axis=1)[:, :l]
    # ascending, so each row mean sums in the same order for any B
    tail.sort(axis=1)
    if (tail[:, 0] <= 0.0).any():
        raise ValueError("tail fit requires strictly positive sample values")
    z = np.log(tail)
    z_l = z[:, -1]
    kappa = z_l - z.mean(axis=1)
    if (kappa <= 0.0).any():
        raise InsufficientTailDataError(
            "degenerate tail: the l smallest values are all identical")
    with np.errstate(over="ignore"):
        alpha = (l / n) * np.exp(-z_l / kappa)
    if not (alpha > 0.0).all():
        raise ValueError("alpha_hat must be > 0: the fitted tail underflows")
    return l, alpha, kappa, z_l


def fit_power_tail(sample: TrainingSample, beta: float) -> TailFit:
    """Fit the log-domain tail law to the l = ceil(beta*n) smallest values."""
    l, alpha, kappa, z_l = fit_power_tails(sample.values[None], beta)
    return TailFit(alpha_hat=float(alpha[0]), kappa_hat=float(kappa[0]), l=l,
                   beta=float(beta), z_l=float(z_l[0]), n=sample.n)


def tail_quantile(fit: TailFit, eps_n: float) -> float:
    """Fitted log-power quantile at level eps_n.

    Equals kappa_hat * log(eps_n / alpha_hat), algebraically identical
    to Z_(l) + (1/l) log(n*eps_n/l) * sum(Z_(l) - Z_(i)).
    """
    eps_n = float(eps_n)
    if not (0.0 < eps_n < 1.0):
        raise ValueError(f"quantile level must be in (0, 1), got {eps_n}")
    return float(log_tail_quantile(fit.alpha_hat, fit.kappa_hat, fit.z_l,
                                   fit.l, fit.n, eps_n))


def log_tail_quantile(alpha_hat, kappa_hat, z_l, l: int, n: int | None,
                      eps_n: float):
    """tail_quantile for scalars or arrays of fitted (alpha_hat, kappa_hat, z_l).

    Where alpha_hat overflowed to inf, takes the equal form
    z_l + kappa_hat * log(n * eps_n / l), which needs no alpha_hat.
    """
    finite = np.isfinite(alpha_hat)
    if finite.all():
        return kappa_hat * np.log(eps_n / alpha_hat)
    return np.where(finite,
                    kappa_hat * np.log(eps_n / np.where(finite, alpha_hat, 1.0)),
                    z_l + kappa_hat * math.log(n * eps_n / l))


def load_sample_file(path) -> TrainingSample:
    """Read a training sample: one non-negative decimal per line.

    Everything from a `#` to the end of its line is a comment; blank
    lines are ignored. Any unparsable or negative entry raises
    SampleParseError carrying the 1-based line number.
    """
    path = Path(path)
    values = []
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.partition("#")[0].strip()
            if not text:
                continue
            try:
                v = float(text)
            except ValueError:
                raise SampleParseError(
                    f"{path}:{line_no}: not a decimal number: {text!r}",
                    line_no=line_no) from None
            if not math.isfinite(v):
                raise SampleParseError(
                    f"{path}:{line_no}: non-finite value: {text!r}", line_no=line_no)
            if v < 0.0:
                raise SampleParseError(
                    f"{path}:{line_no}: negative value: {text!r}", line_no=line_no)
            values.append(v)
    if not values:
        raise SampleParseError(f"{path}: no sample values found", line_no=None)
    return TrainingSample(np.asarray(values))
