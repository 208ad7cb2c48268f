"""Monte Carlo evaluation of rate selectors over training-sample draws.

Each trial draws one training sample from the true channel, runs the
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
distinct streams. Unused rows of the last block are dropped. The
block size depends on n alone, never on trials or workers, so trial t
reads the same values for any trial count and can be reproduced alone
from trial_block(..., t // rows)[t % rows], and sweep results are
bitwise identical for any worker count.

Draws on Rayleigh truth. Rayleigh powers are y = -lam log1p(-u) of
uniforms u, a non-decreasing map, so the l smallest powers are the
images of the l smallest uniforms. On Rayleigh truth trial_outcomes
draws each block's uniforms from its stream into one reused buffer;
a mean-based selector gets them all mapped. For a selector that reads
a tail of l = Calibration.tail_size values, the l smallest of a row
lie below t = (l + L + sqrt(L^2 + 2 l L)) / n, L = log(1e9), but for
probability at most 1e-9 (a Chernoff bound on the count of n uniforms
below t, so t is at least the exact Beta quantile). Where t keeps at
most 1/50 of a row, only the values below t are partitioned; a block
with a row short of l of them is partitioned whole, as is every block
where t is larger. Other truths take trial_block, partitioned whole.
The tails of whole blocks fill a buffer of at most _BLOCK_VALUES
values, which is mapped and rated at once. Either way the rates and
outages are those of trial_block's samples, byte for byte, so
trial_block still reproduces any trial.
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
# a row of a block holds fewer than l uniforms below the pre-filter
# threshold with this probability; such a block is partitioned whole
_PREFILTER_MISS = 1e-9
# filtering pays while the threshold keeps at most this share of a row
# (measured: up to about 1/35 in one-row blocks, 1/50 in blocks of many rows)
_PREFILTER_MAX_SHARE = 1 / 50


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

    Row r is the sample of trial block * block_rows(n) + r.
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


def _blocks(config: EvalConfig, axis_index: int):
    """(lo, hi, block) for the blocks of config's trials, in order.

    On Rayleigh truth a block is its uniforms, drawn into one reused
    buffer; other truths give trial_block's powers.
    """
    n, trials = config.n, config.trials
    rows = block_rows(n)
    uniform = isinstance(config.true_model, Rayleigh)
    buffer = np.empty((rows, n)) if uniform else None
    for lo in range(0, trials, rows):
        hi = min(lo + rows, trials)
        if uniform:
            # a partial block draws only its rows: the same stream prefix
            block = buffer[:hi - lo]
            _block_rng(config.seed, axis_index, lo // rows).random(out=block)
        else:
            # Rician draws two normal streams of rows*n values each, so
            # a partial block is cut from a whole one
            block = trial_block(config.true_model, n, config.seed, axis_index,
                                lo // rows)[:hi - lo]
        yield lo, hi, block


def _prefilter_threshold(n: int, l: int) -> float | None:
    """A uniform below which a row's l smallest of n values lie but for
    probability at most _PREFILTER_MISS, or None where filtering does not pay.

    The count of n uniforms below t is Binomial(n, t) with mean nt, and the
    multiplicative Chernoff bound P[count < l] <= exp(-(nt - l)^2 / (2nt))
    equals _PREFILTER_MISS at this t: a closed form, never below the exact
    quantile betainccinv(l, n + 1 - l, _PREFILTER_MISS).
    """
    log_miss = -math.log(_PREFILTER_MISS)
    t = (l + log_miss + math.sqrt(log_miss * (log_miss + 2.0 * l))) / n
    return t if t <= _PREFILTER_MAX_SHARE else None


def _smallest(block: np.ndarray, l: int, t: float | None) -> np.ndarray:
    """Each row's l smallest values, the l-th smallest in the last column.

    With a threshold t only the values below t are partitioned, in rows
    padded with inf; a block where some row has fewer than l of them,
    or no t, is partitioned whole, in place.
    """
    rows, n = block.shape
    if t is not None and rows == 1:
        # one row needs no padding and no row index
        kept = block[block < t]
        if kept.size >= l:
            kept.partition(l - 1)
            return kept[None, :l]
    elif t is not None:
        found = np.flatnonzero(block < t)
        row = found // n
        counts = np.bincount(row, minlength=rows)
        if counts.min() >= l:
            kept = np.full((rows, counts.max()), np.inf)
            # the column of each value within its row's run of found indices
            kept[row, np.arange(found.size) - (np.cumsum(counts) - counts)[row]] = \
                block.reshape(-1)[found]
            kept.partition(l - 1, axis=1)
            return kept[:, :l]
    block.partition(l - 1, axis=1)
    return block[:, :l]


def trial_outcomes(config: EvalConfig, axis_index: int = 0):
    """Per-trial (rates, outages) arrays of length config.trials.

    The outage of a trial is its exact conditional outage probability
    F(2^R - 1) under the true model. Blocks are drawn as the module
    docstring says; with tail_size 0 every rate is zero and nothing is
    drawn. Model draws go to Calibration.tail_rates unchecked, so a
    non-finite rate (a scale lam so large that a drawn power overflows)
    raises ValueError.
    """
    if not isinstance(config, EvalConfig):
        raise TypeError("config must be an EvalConfig")
    axis_index = check_positive_int(axis_index, "axis_index", lo=0)
    if axis_index >= 2**32:
        raise ValueError(f"axis_index must be in [0, 2^32), got {axis_index}")
    n, trials = int(config.n), int(config.trials)
    model = config.true_model
    uniform = isinstance(model, Rayleigh)
    calibration = calibrate(config.selector, config.target, n)
    tail = calibration.tail_size
    rates = np.empty(trials)
    if tail == 0:
        rates[:] = calibration.tail_rates(np.empty((trials, 0)))
    elif tail is None:
        for lo, hi, block in _blocks(config, axis_index):
            if uniform:
                # an overflow to inf is reported by the finite-rate check
                with np.errstate(over="ignore"):
                    block = model.from_uniforms(block)
            rates[lo:hi] = calibration.tail_rates(block)
    else:
        t = _prefilter_threshold(n, tail) if uniform else None
        # the tails of whole blocks are kept in one buffer and rated together
        rows = block_rows(n)
        batch = max(1, _BLOCK_VALUES // (rows * tail)) * rows
        kept = np.empty((min(batch, trials), tail))
        for lo, hi, block in _blocks(config, axis_index):
            start = lo - lo % batch
            kept[lo - start:hi - start] = _smallest(block, tail, t)
            if hi - start == batch or hi == trials:
                tails = kept[:hi - start]
                if uniform:
                    with np.errstate(over="ignore"):
                        tails = model.from_uniforms(tails)
                rates[start:hi] = calibration.tail_rates(tails)
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
