"""Training samples and the power-law tail fit.

A TrainingSample wraps n i.i.d. received-power measurements;
sample_rows checks a (B, n) array of them. The power-law selectors fit
the smallest l = ceil(beta*n) observations, ascending, with
fit_ascending_tails in the log domain:

    Z = log Y,  F_Z(z) ~ alpha * exp(z/kappa)   (z -> -inf)

    kappa_hat = (1/l) sum_{i<=l} (Z_(l) - Z_(i))

Anchored at F_Z(Z_(l)) = l/n, the fitted log-quantile at level q is
Z_(l) + kappa_hat log(n q / l); rateselect.Calibration.rates takes it
at a level typically far below 1/n.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientTailDataError, SampleParseError, check_unit_interval

__all__ = [
    "TrainingSample",
    "TailFit",
    "sample_rows",
    "fit_power_tail",
    "fit_ascending_tails",
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
    """Immutable batch of non-negative received-power measurements."""

    def __init__(self, values):
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"sample must be one-dimensional, got shape {arr.shape}")
        _check_values(arr)
        self._values = arr
        self._values.setflags(write=False)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n(self) -> int:
        return int(self._values.size)

    # order_stat serves no selector (Calibration.rates reads the rows
    # itself), but the benchmark's traced mode wraps it by name

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
        # partial selection: O(n), no full sort
        return float(np.partition(self._values, l - 1)[l - 1])

    def smallest(self, l: int) -> np.ndarray:
        """The l smallest values in ascending order."""
        n = self.n
        if not (1 <= l <= n):
            raise IndexError(f"tail size {l} outside [1, {n}]")
        head = np.partition(self._values, l - 1)[:l]
        head.sort()
        return head


@dataclass(frozen=True)
class TailFit:
    """Fitted lower-tail power law in the log-power domain.

    z_l + kappa_hat log(n q / l) is the fitted log-quantile at level q.
    """

    kappa_hat: float
    l: int
    beta: float
    z_l: float

    def __post_init__(self):
        if not self.kappa_hat >= 0.0:
            raise ValueError(f"kappa_hat must be >= 0, got {self.kappa_hat}")


def fit_ascending_tails(tail: np.ndarray, n: int):
    """Fit the log-domain tail law to each row's l smallest of n values.

    tail is (B, l), each row ascending. Returns (kappa_hat, z_l), each
    of shape (B,); n only enters the error message.
    """
    l = tail.shape[1]
    if l < 2:
        raise InsufficientTailDataError(
            f"tail fit needs ceil(beta*n) >= 2 values, got l={l} (n={n})")
    if (tail[:, 0] <= 0.0).any():
        zeros = np.count_nonzero(tail <= 0.0, axis=1).max()
        raise InsufficientTailDataError(
            f"tail fit needs positive values: {zeros} of the l={l} smallest "
            f"of n={n} values are 0")
    z = np.log(tail)
    z_l = z[:, -1]
    kappa = z_l - z.mean(axis=1)
    if (kappa <= 0.0).any():
        raise InsufficientTailDataError(
            "degenerate tail: the l smallest values are all identical")
    return kappa, z_l


def fit_power_tail(sample: TrainingSample, beta: float) -> TailFit:
    """Fit the log-domain tail law to the l = ceil(beta*n) smallest values.

    The rate path fits with fit_ascending_tails; this one-sample form is
    kept because the benchmark's traced mode wraps it by name.
    """
    beta = check_unit_interval(beta, "beta")
    l = _ceil_with_float_guard(beta * sample.n)
    kappa, z_l = fit_ascending_tails(sample.smallest(l)[None], sample.n)
    return TailFit(kappa_hat=float(kappa[0]), l=l, beta=beta, z_l=float(z_l[0]))


def load_sample_file(path) -> TrainingSample:
    """Read a training sample: one non-negative decimal per line.

    Everything from a `#` to the end of its line is a comment; blank
    lines are ignored. Any unparsable or negative entry raises
    SampleParseError carrying the 1-based line number.

    A seekable file is parsed by numpy's C reader, whose values are
    float()'s, byte for byte. Where that fails, finds more than one
    value on a line, or gives no value or one that is non-finite or
    negative, the file is read again line by line to name the line.
    """
    path = Path(path)
    values = []
    with path.open("r", encoding="utf-8") as fh:
        if fh.seekable():
            try:
                with warnings.catch_warnings():
                    # an empty file is reported by the line loop
                    warnings.simplefilter("ignore", UserWarning)
                    parsed = np.loadtxt(fh, comments="#", ndmin=2)
                if parsed.shape[1] == 1:
                    return TrainingSample(parsed[:, 0])
            except ValueError:
                pass
            fh.seek(0)
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
