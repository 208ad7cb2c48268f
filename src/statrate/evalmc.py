"""Monte Carlo evaluation of rate selectors over training-sample draws.

Each trial draws one training sample from the true channel (on
Rayleigh truth only the statistic the selector reads), runs the
selector, and records the selected rate together with its conditional
outage probability q = F(2^R - 1). Conditioning on the sample makes q
an exact CDF evaluation, so no test-channel transmissions are
simulated; the only Monte Carlo noise left is the training randomness.

Reported quantities per configuration:

    mean outage        E[q]           (normal CI)
    meta-probability   P[q > eps]     (Wilson CI)
    throughput ratio   E[R (1-q)] / (R_eps (1-eps))   (normal CI)

Trials are drawn in blocks of block_rows(n) = max(1, 2**16 // n)
training samples. Block b holds trials b*rows .. (b+1)*rows - 1 and is
drawn from its own PCG64DXSM stream (O'Neill, "PCG: a family of simple
fast space-efficient statistically good algorithms for random number
generation", 2014) seeded by SeedSequence(seed, spawn_key=(axis index,
b)), which hashes the key apart from the seed, so distinct keys give
distinct streams. Unused rows of the last block are dropped, and a
partial block draws only its rows, a prefix of its stream. The block
size depends on n alone, never on trials or workers, so trial t reads
the same values for any trial count and sweep results are bitwise
identical for any worker count.

On Rayleigh truth a block draws only the statistic its selector reads,
exact in law (Renyi, "On the theory of order statistics", 1953): for a
mean-based selector one standard_gamma(n) draw S per row, the sum of
n Exp(1) values, so the mean is lam * (S / n); for a tail selector
(l = Calibration.tail_size) a (rows, l) array of uniforms u, mapped to
the l smallest of n Exp(lam) values, lam * cumsum(-log1p(-u_j) / (n - j)),
j = 0..l-1, ascending along each row. Trial t is replayed from block
t // rows's stream with the same draw, row t % rows. Other truths take
trial_block's full samples, and trial t is row t % rows of
trial_block(..., t // rows). Either way, tails are rated in batches of
at most _BLOCK_VALUES values, which changes no byte.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .channels import ChannelModel, Nakagami, Rayleigh, Rician
from .errors import check_positive_int
from .rateselect import PCR, ReliabilityTarget, SelectorSpec, calibrate

__all__ = [
    "SWEEP_AXES",
    "Estimate",
    "EvalConfig",
    "EvalReport",
    "block_rows",
    "trial_block",
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
        if not isinstance(self.true_model, ChannelModel):
            raise TypeError("true_model must be a ChannelModel")
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


def block_rows(n: int) -> int:
    """Trials per block for samples of size n; depends on n alone."""
    return max(1, _BLOCK_VALUES // int(n))


def _block_rng(seed: int, axis_index: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence(seed, spawn_key=(axis_index, block))))


def trial_block(model: ChannelModel, n: int, seed: int, axis_index: int,
                block: int) -> np.ndarray:
    """The (block_rows(n), n) training samples of one block.

    Off Rayleigh truth, row r is the sample of trial block * block_rows(n) + r;
    on Rayleigh truth trial_outcomes draws statistics from the same stream.
    """
    rows = block_rows(n)
    return model.sample(_block_rng(seed, axis_index, block), rows * n).reshape(rows, n)


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


def _blocks(trials: int, rows: int):
    """(lo, hi, b) for the blocks of trials, in order; unused rows of
    the last block are dropped."""
    for lo in range(0, trials, rows):
        yield lo, min(lo + rows, trials), lo // rows


def _rayleigh_tails(rng: np.random.Generator, out: np.ndarray, n: int,
                    lam: float) -> None:
    """Fill out, (rows, l), with each row's l smallest of n Exp(lam) values, ascending.

    Renyi: they are lam * cumsum(E_j / (n - j)), j = 0..l-1, for i.i.d. Exp(1) E_j.
    """
    rng.random(out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    out /= np.arange(out.shape[1]) - float(n)  # -E_j / -(n - j)
    np.cumsum(out, axis=1, out=out)
    # an overflow to inf is reported by the finite-rate check
    with np.errstate(over="ignore"):
        out *= lam


def trial_outcomes(config: EvalConfig, axis_index: int = 0):
    """Per-trial (rates, outages) arrays of length config.trials.

    The outage of a trial is its exact conditional outage probability
    F(2^R - 1) under the true model. Blocks are drawn as the module
    docstring says; with tail_size 0 every rate is zero and nothing is
    drawn. Draws are rated unchecked, so a non-finite rate (a scale lam
    so large that a drawn power or mean overflows) raises ValueError.
    """
    if not isinstance(config, EvalConfig):
        raise TypeError("config must be an EvalConfig")
    axis_index = check_positive_int(axis_index, "axis_index", lo=0)
    if axis_index >= 2**32:
        raise ValueError(f"axis_index must be in [0, 2^32), got {axis_index}")
    n, trials = int(config.n), int(config.trials)
    model = config.true_model
    rayleigh = isinstance(model, Rayleigh)
    calibration = calibrate(config.selector, config.target, n)
    tail = calibration.tail_size
    rows = block_rows(n)
    rates = np.empty(trials)
    if tail == 0:
        rates[:] = calibration.tail_rates(np.empty((trials, 0)))
    elif tail is None and rayleigh:
        # the sum of n Exp(lam) values is lam times a Gamma(n) draw
        means = np.empty(trials)
        for lo, hi, b in _blocks(trials, rows):
            _block_rng(config.seed, axis_index, b).standard_gamma(n, out=means[lo:hi])
        means /= n
        # an overflow to inf is reported by the finite-rate check
        with np.errstate(over="ignore"):
            means *= model.lam
        rates[:] = calibration.mean_rates(means)
    elif tail is None:
        for lo, hi, b in _blocks(trials, rows):
            # Rician draws two normal streams of rows*n values each, so
            # a partial block is cut from a whole one
            rates[lo:hi] = calibration.tail_rates(
                trial_block(model, n, config.seed, axis_index, b)[:hi - lo])
    else:
        # the tails of many blocks are kept in one buffer and rated together
        batch = max(1, _BLOCK_VALUES // (rows * tail)) * rows
        kept = np.empty((min(batch, trials), tail))
        for lo, hi, b in _blocks(trials, rows):
            start = lo - lo % batch
            if rayleigh:
                # a partial block draws only its rows: the same stream prefix
                _rayleigh_tails(_block_rng(config.seed, axis_index, b),
                                kept[lo - start:hi - start], n, model.lam)
            else:
                block = trial_block(model, n, config.seed, axis_index, b)[:hi - lo]
                block.partition(tail - 1, axis=1)
                kept[lo - start:hi - start] = block[:, :tail]
            if hi - start == batch or hi == trials:
                rates[start:hi] = calibration.tail_rates(kept[:hi - start])
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


def _sweep_point(task) -> EvalReport:
    config, idx = task
    return evaluate(config, axis_index=idx)


def sweep(base: EvalConfig, axis: str, values,
          workers: int = 1) -> list[tuple[float, EvalReport]]:
    """Evaluate base along one axis; (value, report) pairs in axis order.

    Axis streams are keyed by position, so results do not depend on
    workers. The points run in min(workers, len(values), os.cpu_count())
    processes; with one, they run in this process.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    workers = check_positive_int(workers, "workers")
    tasks = [(_apply_axis(base, axis, v), i) for i, v in enumerate(values)]
    # no process beyond one per point and one per CPU
    procs = min(workers, len(tasks), os.cpu_count() or 1)

    results: list[tuple[float, EvalReport]] = []
    if procs == 1:
        for value, task in zip(values, tasks):
            results.append((value, _sweep_point(task)))
            logger.info("sweep %s=%s done (%d/%d)", axis, value,
                        len(results), len(tasks))
        return results
    # forked workers inherit scipy.special instead of each importing it; on
    # Rayleigh truth under AR targets no point needs it (closed forms only).
    # The pool module is imported only here, so other commands start without it
    if any(cfg.target.kind == PCR or not isinstance(cfg.true_model, Rayleigh)
           for cfg, _ in tasks):
        specfun.special()
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=procs) as pool:
        for i, report in enumerate(pool.map(_sweep_point, tasks)):
            results.append((values[i], report))
            logger.info("sweep %s=%s done (%d/%d)", axis, values[i],
                        i + 1, len(tasks))
    return results
