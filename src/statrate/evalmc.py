"""Monte Carlo evaluation of rate selectors over training-sample draws.

Each trial draws the one statistic of a training sample that its
selector reads, exact in law, runs the selector on it, and records the
selected rate together with its conditional outage probability
q = F(2^R - 1). Conditioning on the sample makes q an exact CDF
evaluation, so no test-channel transmissions are simulated; the only
Monte Carlo noise left is the training randomness.

Reported quantities per configuration:

    mean outage        E[q]           (normal CI)
    meta-probability   P[q > eps]     (Wilson CI)
    throughput ratio   E[R (1-q)] / (R_eps (1-eps))   (normal CI)

Trials are drawn in blocks of block_rows(width) = max(1, 2**16 // width)
rows, width being the values a row draws (Calibration.width, or 1 for
a mean). Block b holds trials b*rows .. (b+1)*rows - 1 and is drawn
from its own PCG64DXSM stream (O'Neill, "PCG: a family of simple fast
space-efficient statistically good algorithms for random number
generation", 2014) seeded by SeedSequence(seed, spawn_key=(axis index,
b)), which hashes the key apart from the seed, so distinct keys give
distinct streams. Unused rows of the last block are dropped, and a
partial block draws a prefix of its stream: only its rows, after the
levels of all rows for a power-law tail. The width depends on
(selector, target, n) alone, never on trials or workers, so
trial t reads the same values for any trial count and sweep results are
bitwise identical for any worker count. sweep runs its points on threads:
each block has its own Generator, configs, models and Calibration are
frozen and np.errstate is per-thread, and numpy's fills and ufuncs and
scipy.special's release the GIL on block-sized arrays.

The draws, one kind per statistic and the same on every truth:

    mean (rayleigh, plugin-rayleigh)  every truth is a noncentral gamma law
        (k, m) of scale lam (Rayleigh (0, 1), Rician (k, 1), Nakagami
        (0, m)), so the sum of n powers is lam/2 times a draw X of
        noncentral_chisquare(2 n m, 2 n k); the mean is lam * (X/2 / n).
    tail (nonparametric: the l-th smallest; power-law: the l = width smallest)
        the l-th smallest of n uniforms is U ~ Beta(l, n + 1 - l), and the
        width - 1 below it are i.i.d. uniform on [0, U) (David and
        Nagaraja, "Order Statistics", 2003, ch. 2; the Markov property): a
        (rows, width) array of uniforms, each row scaled by its U, with U
        in the last column; then quantile.

Trial t is replayed from block t // rows's stream with the same draw,
row t % rows. A block's tails are rated together, which changes no byte.
A point allocates one (rows, width) array for its tails, which each block
draws into, scales and maps through quantile(out=) in place; a power-law
rating sorts its rows and takes the fit's logs in place too.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .channels import ChannelModel, Nakagami, Rayleigh, Rician, _check_truth
from .errors import check_positive_int
from .learn import fit_ascending_tails
from .rateselect import ReliabilityTarget, SelectorSpec, calibrate

__all__ = [
    "SWEEP_AXES",
    "Estimate",
    "EvalConfig",
    "EvalReport",
    "block_rows",
    "trial_outcomes",
    "evaluate",
    "sweep",
]

logger = logging.getLogger(__name__)

SWEEP_AXES = ("n", "k", "m", "epsilon", "xi", "beta")

_LN2 = math.log(2.0)
_Z95 = 1.9599639845400545  # -ndtri(0.025), the 97.5% normal quantile

# values drawn from one block's stream; a block is about 0.5 MB of float64
_BLOCK_VALUES = 2**16


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a two-sided 95% confidence interval."""

    value: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class EvalConfig:
    """One evaluation point: channel, selector, target and MC budget."""

    true_model: ChannelModel
    selector: SelectorSpec
    target: ReliabilityTarget
    n: int
    trials: int
    seed: int

    def __post_init__(self):
        _check_truth(self.true_model)
        if not isinstance(self.selector, SelectorSpec):
            raise TypeError("selector must be a SelectorSpec")
        if not isinstance(self.target, ReliabilityTarget):
            raise TypeError("target must be a ReliabilityTarget")
        check_positive_int(self.n, "n")
        if check_positive_int(self.trials, "trials") >= 2**32:
            raise ValueError(f"trials must be in [1, 2^32), got {self.trials}")
        if check_positive_int(self.seed, "seed", lo=0) >= 2**63:
            raise ValueError(f"seed must be in [0, 2^63), got {self.seed}")


@dataclass(frozen=True)
class EvalReport:
    """Aggregated Monte Carlo results for one EvalConfig."""

    mean_outage: Estimate
    meta_prob: Estimate
    throughput_ratio: Estimate
    rate_mean: float
    rate_stddev: float
    zero_rate_fraction: float
    trials: int
    seed: int


def block_rows(width: int) -> int:
    """Trials per block for rows that draw width values each."""
    return max(1, _BLOCK_VALUES // int(width))


def _block_rng(seed: int, axis_index: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence(seed, spawn_key=(axis_index, block))))


def _normal_ci(values: np.ndarray, lo_clip: float, hi_clip: float) -> Estimate:
    t = values.size
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if t > 1 else 0.0
    half = _Z95 * sd / math.sqrt(t)
    return Estimate(mean, max(mean - half, lo_clip), min(mean + half, hi_clip))


def _wilson_ci(successes: int, t: int) -> Estimate:
    p = successes / t
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / t
    center = (p + z2 / (2.0 * t)) / denom
    half = (_Z95 / denom) * math.sqrt(p * (1.0 - p) / t + z2 / (4.0 * t * t))
    return Estimate(p, max(center - half, 0.0), min(center + half, 1.0))


def trial_outcomes(config: EvalConfig, axis_index: int = 0):
    """Per-trial (rates, outages) arrays of length config.trials.

    The outage of a trial is its exact conditional outage probability
    F(2^R - 1) under the true model. Each block draws the statistic its
    selector reads, as the module docstring says, and rates it with
    Calibration.stat_rates's formulas, in place; at l = 0 every rate is
    zero and nothing is drawn, and a power-law tail narrower than 2 raises
    InsufficientTailDataError before a block is drawn. Draws are rated
    unchecked, so a non-finite rate (a scale lam so large that a drawn mean
    or tail value overflows) raises ValueError.
    """
    if not isinstance(config, EvalConfig):
        raise TypeError("config must be an EvalConfig")
    axis_index = check_positive_int(axis_index, "axis_index", lo=0)
    if axis_index >= 2**32:
        raise ValueError(f"axis_index must be in [0, 2^32), got {axis_index}")
    n, trials = int(config.n), int(config.trials)
    model = config.true_model
    calibration = calibrate(config.selector, config.target, n)
    l, width = calibration.l, calibration.width
    df, nc = 2.0 * n * model.m, 2.0 * n * model.k  # the law (k, m) of scale lam
    if l is None and width is not None:  # a power-law tail narrower than 2 raises here
        fit_ascending_tails(np.empty((0, width)), n)
    top = width if l is None else l  # the rank of a tail row's top level
    rates = np.zeros(trials)  # l = 0, the zero-rate regime, draws nothing
    rows = block_rows(width or 1)
    # a block's tails, drawn, mapped and rated in place block by block
    tails = np.empty((min(rows, trials), width)) if width else None
    for lo in range(0, trials, rows) if l != 0 else ():
        hi = min(lo + rows, trials)  # unused rows of the last block are dropped
        rng = _block_rng(config.seed, axis_index, lo // rows)
        # an overflow to inf is reported by the finite-rate check
        with np.errstate(over="ignore"):
            if width is None:
                # the sum of n powers is lam/2 times a noncentral chi-square draw
                stat = rng.noncentral_chisquare(df, nc, hi - lo) * 0.5 / n * model.lam
            else:
                # the top-th smallest U, in the last column, below it width - 1
                # uniforms on [0, U); levels that uniforms follow are drawn for
                # all rows, so that a partial block reads a prefix
                level = rng.beta(top, n + 1 - top, rows if width > 1 else hi - lo)[:hi - lo, None]
                stat = tails[:hi - lo]
                if width > 1:
                    rng.random(out=stat)
                    stat *= level
                stat[:, -1:] = level
                del level  # block-sized for an order statistic: freed before rating
                model.quantile(stat, out=stat)
            rates[lo:hi] = calibration._stat_rates_in_place(stat)
        del stat  # the next block draws with no array of this one live but tails
    if not np.isfinite(rates).all():
        raise ValueError(f"non-finite rate: the drawn powers overflow at lam={model.lam}")
    # conditional outage is an exact CDF value, not a simulated rate
    outages = model.cdf(np.expm1(rates * _LN2))
    return rates, outages


def evaluate(config: EvalConfig, axis_index: int = 0) -> EvalReport:
    """Run the Monte Carlo trials of one configuration and aggregate them.

    axis_index separates the streams of distinct sweep points.
    """
    rates, outages = trial_outcomes(config, axis_index)
    model = config.true_model
    eps = config.target.epsilon
    trials = rates.size
    r_eps = model.epsilon_outage_capacity(eps)
    denom = r_eps * (1.0 - eps)
    if denom > 0.0:
        throughput = _normal_ci(rates * (1.0 - outages) / denom, 0.0, math.inf)
    else:
        throughput = Estimate(math.nan, math.nan, math.nan)

    return EvalReport(
        mean_outage=_normal_ci(outages, 0.0, 1.0),
        meta_prob=_wilson_ci(int(np.count_nonzero(outages > eps)), trials),
        throughput_ratio=throughput,
        rate_mean=float(rates.mean()),
        rate_stddev=float(rates.std(ddof=1)) if trials > 1 else 0.0,
        zero_rate_fraction=float(np.count_nonzero(rates == 0.0)) / trials,
        trials=trials,
        seed=config.seed,
    )


def _apply_axis(base: EvalConfig, axis: str, value) -> EvalConfig:
    if axis == "n":
        return replace(base, n=check_positive_int(value, "n"))
    if axis == "epsilon":
        return replace(base, target=replace(base.target, epsilon=float(value)))
    if axis == "xi":
        return replace(base, target=replace(base.target, xi=float(value)))
    if axis == "beta":
        return replace(base, selector=replace(base.selector, beta=float(value)))
    # axis k or m: Rayleigh is the k = 0 Rician and the m = 1 Nakagami model
    family = Rician if axis == "k" else Nakagami
    if not isinstance(base.true_model, (family, Rayleigh)):
        raise ValueError(
            f"axis {axis!r} requires a {family.__name__.lower()} or rayleigh "
            f"model, got {type(base.true_model).__name__.lower()}")
    return replace(base, true_model=family(base.true_model.lam, float(value)))


def sweep(base: EvalConfig, axis: str, values,
          workers: int = 1) -> list[tuple[float, EvalReport]]:
    """Evaluate base along one axis; (value, report) pairs in axis order.

    Axis streams are keyed by position, so results do not depend on
    workers. The points run on min(workers, len(values), os.cpu_count())
    threads of this process; with one, they run in the calling thread.
    Progress is logged from the calling thread, one line a point in axis order.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    workers = check_positive_int(workers, "workers")
    configs = [_apply_axis(base, axis, v) for v in values]
    # no thread beyond one per point and one per CPU
    threads = min(workers, len(configs), os.cpu_count() or 1)

    runner = contextlib.nullcontext()
    if threads > 1:
        # the pool module is imported only here, so other commands start without it
        from concurrent.futures import ThreadPoolExecutor

        runner = ThreadPoolExecutor(max_workers=threads)
    results: list[tuple[float, EvalReport]] = []
    with runner as pool:
        reports = (pool.map if pool else map)(evaluate, configs, range(len(configs)))
        for value, report in zip(values, reports):
            results.append((value, report))
            logger.info("sweep %s=%s done (%d/%d)", axis, value,
                        len(results), len(configs))
    return results
