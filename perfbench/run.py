"""statrate benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Run it from the repository root. Every `statrate` invocation runs in a
fresh interpreter (perfbench/child.py) with PYTHONPATH=src, one at a
time, with BLAS and OpenMP pinned to one thread. Inputs (configs,
sample files, program seeds) are generated from --seed. The workload
is repeated for --seconds seconds; each repetition is a "pass".

--trace 0 reports the end-to-end metrics from untraced passes; wall_s
and setup_s are scaled to a fixed machine speed by a probe (see PROBE).
--trace 1 repeats a cycle of an untraced pass, the same pass with every
sweep at workers = 1 (only if a sweep uses a pool), a traced pass and
a `python -X importtime` child, and reports the per-layer metrics.

Each invocation is an operation. It fails on a non-zero exit, on
missing or malformed output, on a failed correctness check, or when
its output bytes differ from those of the first pass of the run. The
last stdout line is the JSON result; the full record, with the machine
description, goes to .perfbench_out/results/.

--write-reference regenerates perfbench/reference.json, the analytic
mismatch values and power-law eps_n the checks compare against, by
running the current program.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
import scipy.special as sp

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_FILE = BENCH_DIR / "reference.json"

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 60.0
# The shared machine's CPU speed drifts by up to +-20% over minutes, and
# every process slows alike. So each timed invocation is bracketed by
# runs of this probe, a fixed program that shares no code with statrate
# (interpreter start, `import numpy`, numpy sorts, many small numpy
# calls, a Python loop), and wall_s and setup_s are reported at the
# speed where the probe takes PROBE_REF_S: time * PROBE_REF_S / mean
# probe time. The raw times are kept in the record.
PROBE = ("import numpy as np\n"
         "x = np.random.default_rng(0).random(100_000)\n"
         "for _ in range(4):\n    np.sort(x)\n"
         "for i in range(1500):\n    np.random.default_rng(i).random(100).mean()\n"
         "s = 0\nfor i in range(150_000):\n    s += i % 7\n")
PROBE_REF_S = 0.25  # the probe's typical time on a 2.1 GHz Xeon vCPU
MIN_SETUP_SAMPLES = 5
# Monte Carlo estimates must fall within this many standard errors of
# the exact value; a correct program fails one check in ~16000
Z_GATE = 4.0
# analytic outputs against stored references, and recomputed rates;
# below REF_ABS_TOL a double is at underflow and carries no digits
REF_REL_TOL = 1e-8
REF_ABS_TOL = 1e-300
RATE_REL_TOL = 1e-10

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "import.numpy.s": "s",
    "import.scipy_optimize.s": "s",
    "import.scipy_stats.s": "s",
    "import.scipy_integrate.s": "s",
    "import.statrate.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "evalmc.evaluate.calls": "count",
    "evalmc.evaluate.busy_s": "s",
    "evalmc.evaluate.self_s": "s",
    "evalmc.trials": "count",
    "evalmc.self_us_per_trial": "us",
    "rateselect.make_rate_fn.calls": "count",
    "rateselect.make_rate_fn.busy_s": "s",
    "rateselect.epsn.calls": "count",
    "rateselect.epsn.busy_s": "s",
    "rateselect.rate_fn.calls": "count",
    "rateselect.rate_fn.self_s": "s",
    "learn.TrainingSample.calls": "count",
    "learn.TrainingSample.busy_s": "s",
    "learn.order_stats.busy_s": "s",
    "learn.fit_power_tail.calls": "count",
    "learn.fit_power_tail.self_s": "s",
    "learn.load_sample_file.busy_s": "s",
    "learn.load_sample_file.values": "count",
    "learn.tail_read_ratio": "1",
    "channels.sample.calls": "count",
    "channels.sample.values": "count",
    "channels.sample.busy_s": "s",
    "channels.cdf.calls": "count",
    "channels.cdf.busy_s": "s",
    "channels.quantile.calls": "count",
    "channels.quantile.busy_s": "s",
    "specfun.nc_chi2.calls": "count",
    "specfun.nc_chi2.busy_s": "s",
    "specfun.gamma_beta.calls": "count",
    "specfun.gamma_beta.busy_s": "s",
    "mismatch.mean_outage.calls": "count",
    "mismatch.mean_outage.self_s": "s",
    "mismatch.meta_prob.calls": "count",
    "mismatch.meta_prob.self_s": "s",
    "pool.workers": "count",
    "pool.sweep_wall_s": "s",
    "pool.efficiency": "1",
    "trace.overhead_frac": "1",
}

# `python -X importtime` module -> metric (cumulative time, in the order
# statrate imports them, so a module already pulled in by an earlier one
# is not counted again)
IMPORTS = {"numpy": "import.numpy.s", "scipy.optimize": "import.scipy_optimize.s",
           "scipy.stats": "import.scipy_stats.s",
           "scipy.integrate": "import.scipy_integrate.s"}


# --------------------------------------------------------------- workloads

@dataclass
class Op:
    """One statrate invocation of a workload, with its correctness check."""

    label: str
    argv: list[str]
    check: Callable[[str], list[str]]  # output text -> problems found
    output: Path | None = None  # CSV written by the op; None means stdout
    workers: int = 0  # sweep pool size; 0 when the op is not a sweep
    serial_argv: list[str] | None = None  # the sweep at workers = 1


def _program_seed(seed: int, label: str) -> int:
    # below 2^31, like the seeds users type: the CLI parses integers
    # through float, so seeds >= 2^53 do not round-trip (a known defect
    # outside this benchmark's scope)
    return int(np.random.default_rng([seed, zlib.crc32(label.encode())])
               .integers(2**31))


def _shuffled(values: list[float], seed: int, label: str) -> list[float]:
    # row order is an input the program must not depend on
    out = list(values)
    random.Random(_program_seed(seed, label)).shuffle(out)
    return out


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _fmt(x: float) -> str:
    return "{:.11e}".format(float(x))


def _within(problems: list[str], what: str, got: float, want: float,
            tol: float) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{what}: got {float(got)!r}, want {float(want)!r} "
                        f"+- {tol:.3g}")


def _close(problems: list[str], what: str, got: float, want: float,
           rel: float, abs_tol: float = 0.0) -> None:
    if not math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol):
        problems.append(f"{what}: got {float(got)!r}, want {float(want)!r} "
                        f"(rel {rel:g})")


def _check_sweep_rows(problems, rows, axis_values, trials, seed) -> None:
    got = [float(r["axis_value"]) for r in rows]
    if got != [float(v) for v in axis_values]:
        problems.append(f"axis values {got}, want {axis_values}")
    for r in rows:
        if int(r["trials"]) != trials or int(r["seed"]) != seed:
            problems.append(f"row {r['axis_value']}: trials/seed columns "
                            f"{r['trials']}/{r['seed']}, want {trials}/{seed}")


# Exact references, computed here with scipy.special alone so that they
# share no code with the program.

def _epsn_rayleigh_pcr(eps: float, xi: float, n: int) -> float:
    return -math.expm1(n * math.log1p(-eps) / sp.gammaincinv(n, 1.0 - xi))


def _epsn_rayleigh_ar(eps: float, n: int) -> float:
    return -math.expm1(-n * math.expm1(-math.log1p(-eps) / n))


def _nonparam_l_pcr(eps: float, xi: float, n: int) -> int:
    # largest l with 1 - I_eps(l, n+1-l) <= xi; the left side grows with l
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if 1.0 - sp.betainc(mid, n + 1 - mid, eps) <= xi:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _rayleigh_outage_moments(eps_n: float, n: int) -> tuple[float, float]:
    # outage q = 1 - (1-eps_n)^(S/n), S ~ Gamma(n, 1): mean and std of q
    g = -math.log1p(-eps_n)
    a = math.exp(-n * math.log1p(g / n))
    b = math.exp(-n * math.log1p(2.0 * g / n))
    return 1.0 - a, math.sqrt(max(b - a * a, 0.0))


def _sweep_op(work: Path, label: str, cfg: dict, check, workers: int) -> Op:
    out = work / f"{label}.csv"

    def write(name: str, w: int) -> list[str]:
        path = work / name
        items = {**cfg, "workers": w, "output": out}
        path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
        return ["sweep", str(path)]

    serial = write(f"{label}.serial.cfg", 1) if workers > 1 else None
    return Op(label, write(f"{label}.cfg", workers), check, out, workers, serial)


def _mismatch_op(work: Path, label: str, param: str, values: list[float],
                 cfg: dict, ref: dict) -> Op:
    out = work / f"{label}.csv"
    path = work / f"{label}.cfg"
    items = {"param": param, "param_values": ", ".join(map(repr, values)),
             "selectors": "rayleigh-ar, rayleigh-pcr", **cfg, "output": out}
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))

    def check(text: str) -> list[str]:
        problems: list[str] = []
        rows = _rows(text)
        keys = [f"{r['param_value']}|{r['selector']}" for r in rows]
        want = [f"{_fmt(v)}|{s}" for v in values
                for s in ("rayleigh-ar", "rayleigh-pcr")]
        if keys != want:
            problems.append(f"rows {keys}, want {want}")
        for key, r in zip(keys, rows):
            if key not in ref:
                problems.append(f"{key}: no reference value")
                continue
            for col, expected in ref[key].items():
                _close(problems, f"{key} {col}", float(r[col]), float(expected),
                       REF_REL_TOL, REF_ABS_TOL)
        return problems

    return Op(label, ["mismatch", str(path)], check, out)


def mc_parametric(work: Path, seed: int, scale: float, ref: dict) -> list[Op]:
    """Rayleigh-selector PCR sweep over n on Rayleigh truth, in-process.

    Why: each trial does microseconds of numeric work, so evalmc's fixed
    per-trial cost (Philox stream construction, TrainingSample
    validation, the Python loop) dominates; specfun is bypassed because
    the Rayleigh CDF has a closed form.
    Predicted dominant layer: evalmc.evaluate.self_s.
    """
    eps, xi, axis = 1e-3, 1e-2, [10, 100, 1000]
    trials = max(200, round(20000 * scale))
    pseed = _program_seed(seed, "mc-parametric")

    def check(text: str) -> list[str]:
        problems: list[str] = []
        rows = _rows(text)
        _check_sweep_rows(problems, rows, axis, trials, pseed)
        for r in rows:
            n = int(float(r["axis_value"]))
            eps_n = _epsn_rayleigh_pcr(eps, xi, n)
            mean, sd = _rayleigh_outage_moments(eps_n, n)
            # the meta-probability equals xi exactly (criterion 2)
            _within(problems, f"n={n} meta_prob", float(r["meta_prob"]), xi,
                    Z_GATE * math.sqrt(xi * (1.0 - xi) / trials))
            _within(problems, f"n={n} mean_outage", float(r["mean_outage"]),
                    mean, Z_GATE * sd / math.sqrt(trials))
        return problems

    cfg = {"model": "rayleigh", "selector": "rayleigh", "constraint": "pcr",
           "eps": eps, "xi": xi, "n": axis[0], "trials": trials, "seed": pseed,
           "axis": "n", "axis_values": ", ".join(map(str, axis))}
    return [_sweep_op(work, "sweep-rayleigh", cfg, check, workers=1)]


def mc_tail(work: Path, seed: int, scale: float, ref: dict) -> list[Op]:
    """Tail-selector PCR sweeps over xi on Rayleigh truth, on a process pool.

    Why: drawing n = 1e4..1e5 values per trial and selecting the lower
    tail dominate; per-trial overhead is a few percent and calibration
    a few ms per point. The only workload that uses the process pool.
    Predicted dominant layer: channels.sample.busy_s.
    """
    workers = min(2, os.cpu_count() or 1)
    axis = [0.05, 0.1]
    ops = []

    n, trials = 100_000, max(40, round(1500 * scale))
    pseed = _program_seed(seed, "mc-tail-powerlaw")

    def check_powerlaw(text: str, trials=trials, pseed=pseed) -> list[str]:
        problems: list[str] = []
        rows = _rows(text)
        _check_sweep_rows(problems, rows, axis, trials, pseed)
        for r in rows:
            # the finite-sample bound is conservative (criterion 8)
            bound = 2.0 * float(r["axis_value"])
            if not float(r["meta_prob"]) <= bound:
                problems.append(f"xi={r['axis_value']} meta_prob "
                                f"{r['meta_prob']} > {bound}")
        return problems

    cfg = {"model": "rayleigh", "selector": "powerlaw-nonasym", "beta": 0.01,
           "constraint": "pcr", "eps": 1e-2, "xi": 0.1, "n": n,
           "trials": trials, "seed": pseed, "axis": "xi",
           "axis_values": ", ".join(map(str, axis))}
    ops.append(_sweep_op(work, "sweep-powerlaw", cfg, check_powerlaw, workers))

    n, trials = 10_000, max(400, round(6000 * scale))
    pseed = _program_seed(seed, "mc-tail-nonparametric")

    def check_nonparam(text: str, trials=trials, pseed=pseed, n=n) -> list[str]:
        problems: list[str] = []
        rows = _rows(text)
        _check_sweep_rows(problems, rows, axis, trials, pseed)
        for r in rows:
            xi = float(r["axis_value"])
            l = _nonparam_l_pcr(1e-2, xi, n)
            # distribution-free: the l-th outage is Beta(l, n+1-l) (criterion 3)
            exact = 1.0 - sp.betainc(l, n + 1 - l, 1e-2)
            _within(problems, f"xi={xi} meta_prob", float(r["meta_prob"]), exact,
                    Z_GATE * math.sqrt(exact * (1.0 - exact) / trials))
        return problems

    cfg = {**cfg, "selector": "nonparametric", "n": n, "trials": trials,
           "seed": pseed}
    del cfg["beta"]
    ops.append(_sweep_op(work, "sweep-nonparametric", cfg, check_nonparam,
                         workers))
    return ops


def cli_oneshot(work: Path, seed: int, scale: float, ref: dict) -> list[Op]:
    """A fixed sequence of short invocations: epsn, rate, a Nakagami table.

    Why: each call does at most ~0.5 s of work after ~1.1 s of imports
    (scipy.optimize, scipy.stats), so interpreter and package start-up
    dominate. Also covers config parsing, load_sample_file, the
    calibration solvers, and the mismatch layer through quadrature and
    scipy.stats without the in-house noncentral chi-square series.
    Predicted dominant layer: import.* (setup_s is most of wall_s).
    """
    rng = np.random.default_rng([seed, zlib.crc32(b"cli-oneshot")])
    size = max(10_000, round(100_000 * scale))
    values = rng.exponential(rng.uniform(0.5, 2.0), size)
    sample = work / "gains.txt"
    sample.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    ops = []

    eps, xi, n = 1e-3, 1e-2, 100_000

    def check_epsn_rayleigh(text: str) -> list[str]:
        problems: list[str] = []
        eps_n = float(text)
        meta = sp.gammaincc(n, n * math.log1p(-eps) / math.log1p(-eps_n))
        _within(problems, "exact meta-probability at eps_n", meta, xi, 1e-8)
        return problems

    ops.append(Op("epsn-rayleigh-pcr", [
        "epsn", "--family", "rayleigh", "--constraint", "pcr", "--eps", str(eps),
        "--xi", str(xi), "--n", str(n)], check_epsn_rayleigh))

    def check_epsn_powerlaw(text: str) -> list[str]:
        problems: list[str] = []
        _close(problems, "powerlaw-nonasym eps_n", float(text),
               float(ref["epsn_powerlaw_nonasym"]), REF_REL_TOL)
        return problems

    ops.append(Op("epsn-powerlaw-nonasym-pcr", [
        "epsn", "--family", "powerlaw-nonasym", "--constraint", "pcr",
        "--eps", "1e-2", "--xi", "0.1", "--beta", "0.01", "--n", str(n)],
        check_epsn_powerlaw))

    ordered = np.sort(values)
    l = _nonparam_l_pcr(eps, xi, size)

    # l = 0 is the zero-rate outcome, printed as "0"
    nonparam_rate = math.log2(1.0 + ordered[l - 1]) if l else 0.0

    def check_rate_nonparam(text: str) -> list[str]:
        problems: list[str] = []
        _close(problems, f"rate = log2(1 + x_({l}))", float(text),
               nonparam_rate, RATE_REL_TOL)
        return problems

    ops.append(Op("rate-nonparametric-pcr", [
        "rate", "--selector", "nonparametric", "--constraint", "pcr",
        "--eps", str(eps), "--xi", str(xi), "--sample", str(sample)],
        check_rate_nonparam))

    eps_n = _epsn_rayleigh_ar(eps, size)
    rayleigh_rate = math.log2(1.0 - math.log1p(-eps_n) * math.fsum(values) / size)

    def check_rate_rayleigh(text: str) -> list[str]:
        problems: list[str] = []
        _close(problems, "rate = log2(1 - log(1-eps_n) mean)", float(text),
               rayleigh_rate, RATE_REL_TOL)
        return problems

    ops.append(Op("rate-rayleigh-ar", [
        "rate", "--selector", "rayleigh", "--constraint", "ar",
        "--eps", str(eps), "--sample", str(sample)], check_rate_rayleigh))

    ops.append(_mismatch_op(
        work, "mismatch-nakagami", "m",
        _shuffled(NAKAGAMI_M, seed, "mismatch-nakagami"),
        {"eps": 1e-3, "xi": 1e-2, "n": 10_000}, ref["nakagami"]))
    return ops


def mismatch_rician(work: Path, seed: int, scale: float, ref: dict) -> list[Op]:
    """Rician k table for the Rayleigh-designed selectors at n = 1e4.

    Why: most of the time is specfun's noncentral chi-square series
    (the n-sample meta-probability at large k, the quadrature
    integrand and the Rician quantile); no sampling, no evalmc. The
    workload where replacing that series would show.
    Predicted dominant layer: specfun.nc_chi2.busy_s.
    """
    table = RICIAN_K if scale >= 1.0 else RICIAN_K[:2]
    return [_mismatch_op(work, "mismatch-rician", "k",
                         _shuffled(table, seed, "mismatch-rician"),
                         {"eps": 1e-4, "xi": 1e-2, "n": 10_000}, ref["rician"])]


NAKAGAMI_M = [0.5, 0.75, 0.99, 1.0, 1.01, 1.5, 3.0]
RICIAN_K = [0.5, 1.0, 2.5, 5.0, 10.0]

WORKLOADS = {"mc-parametric": mc_parametric, "mc-tail": mc_tail,
             "cli-oneshot": cli_oneshot, "mismatch-rician": mismatch_rician}


# --------------------------------------------------------- running children

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(THREAD_PINS)
    return env


@dataclass
class Spawn:
    rc: int
    wall: float  # spawn to exit
    setup: float | None  # spawn to `statrate.cli` imported
    main: float | None  # time inside statrate.cli.main
    maxrss_mb: float  # largest RSS of the child and the children it waited for
    stdout: str
    stderr: str
    speed: float  # PROBE_REF_S / mean probe time around the spawn; 1 if unprobed


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Spawns children one at a time in a scratch directory."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.count = 0
        # the probe that ended the last probed spawn also starts the next
        # one, unless another child ran in between
        self._last_probe: float | None = None

    def probe(self) -> float:
        """The probe's wall time."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE], cwd=self.work, env=self.env,
                       stdout=subprocess.DEVNULL, check=True,
                       timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - start

    def spawn(self, args: list[str], flags: tuple[str, ...] = (),
              probe: bool = False) -> Spawn:
        before = None
        if probe:
            before = self._last_probe or self.probe()
        self._last_probe = None
        self.count += 1
        tag = self.work / f"child{self.count}"
        timing = tag.with_suffix(".timing.json")
        out, err = tag.with_suffix(".out"), tag.with_suffix(".err")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *flags, str(CHILD), str(timing), *args],
                cwd=self.work, env=self.env, stdout=fo, stderr=fe,
                start_new_session=True)
        # a new session lets a timeout kill pool workers with their parent
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        speed = 1.0
        if before is not None:
            self._last_probe = self.probe()
            speed = 2.0 * PROBE_REF_S / (before + self._last_probe)
        stamps = json.loads(timing.read_text()) if timing.exists() else {}
        main = None
        if "main_end" in stamps:
            main = stamps["main_end"] - stamps["main_start"]
        return Spawn(
            rc=proc.returncode, wall=wall,
            setup=stamps["imported"] - start if "imported" in stamps else None,
            main=main, maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read_text(errors="replace"),
            stderr=err.read_text(errors="replace"), speed=speed)


@dataclass
class OpRun:
    op: Op
    spawn: Spawn
    problems: list[str]
    spans: Path | None = None


@dataclass
class Workload:
    """Runs passes of one workload's ops and checks every output."""

    ops: list[Op]
    runner: Runner
    probe: bool  # bracket untraced invocations with the speed probe
    first_output: dict[str, str] = field(default_factory=dict)
    runs: list[OpRun] = field(default_factory=list)

    def run_op(self, op: Op, variant: str) -> OpRun:
        argv = op.serial_argv if variant != "normal" and op.serial_argv else op.argv
        args = ["--", *argv]
        spans = None
        if variant == "traced":
            spans = self.runner.work / f"spans{len(self.runs)}.npz"
            args = ["--trace", str(spans), *args]
        if op.output is not None and op.output.exists():
            op.output.unlink()
        child = self.runner.spawn(args, probe=self.probe and variant == "normal")
        problems: list[str] = []
        if child.rc != 0:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"exit code {child.rc}: {tail[0]}")
        elif op.output is not None and not op.output.exists():
            problems.append(f"no output file {op.output.name}")
        else:
            text = op.output.read_text() if op.output is not None else child.stdout
            try:
                problems += op.check(text)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"malformed output: {exc!r}")
            first = self.first_output.setdefault(op.label, text)
            if text != first:
                problems.append("output bytes differ from the first pass")
        run = OpRun(op, child, [f"{op.label} ({variant}): {p}" for p in problems],
                    spans)
        self.runs.append(run)
        return run

    def run_pass(self, variant: str) -> list[OpRun]:
        return [self.run_op(op, variant) for op in self.ops]


def _repeat(seconds: float, fn) -> list:
    """Call fn until the next call would end after `seconds` (at least once)."""
    start = time.perf_counter()
    results, lengths = [], []
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return results


# ------------------------------------------------------------------ tracing

def span_stats(path: Path) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy (outermost spans), self time, values."""
    data = np.load(path)
    dur = data["ends"] - data["starts"]
    parents = data["parents"]
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    self_time = dur - covered
    out = {}
    for i, name in enumerate(data["names"].tolist()):
        sel = data["name_ids"] == i
        out[name] = {"calls": int(sel.sum()),
                     "busy": float(dur[sel & data["outer"]].sum()),
                     "self": float(self_time[sel].sum()),
                     "values": int(data["values"][sel].sum())}
    return out


def _merge(stats: list[dict]) -> dict[str, dict[str, float]]:
    total: dict[str, dict[str, float]] = {}
    for s in stats:
        for name, row in s.items():
            acc = total.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
    return total


def import_times(stderr: str) -> dict[str, float]:
    """Per-layer import metrics from `python -X importtime` output."""
    out = dict.fromkeys(list(IMPORTS.values()) + ["import.statrate.self_s"], 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the header line
        module = parts[2].strip()
        if module in IMPORTS:
            out[IMPORTS[module]] = cumulative_us * 1e-6
        elif module == "statrate" or module.startswith("statrate."):
            out["import.statrate.self_s"] += self_us * 1e-6
    return out


def layer_metrics(normal: list[OpRun], serial: list[OpRun],
                  traced: list[OpRun]) -> dict[str, float]:
    """Per-layer metrics of one trace cycle, except the import layer."""
    s = _merge([span_stats(r.spans) for r in traced])
    sweep_stats = _merge([span_stats(r.spans) for r in traced if r.op.workers])

    def get(name: str, key: str, stats=s) -> float:
        return stats.get(name, {}).get(key, 0)

    m = {}
    for name in ("cli.main", "evalmc.evaluate", "rateselect.make_rate_fn",
                 "rateselect.epsn", "rateselect.rate_fn", "learn.TrainingSample",
                 "learn.fit_power_tail", "channels.sample", "channels.cdf",
                 "channels.quantile", "specfun.nc_chi2", "specfun.gamma_beta",
                 "mismatch.mean_outage", "mismatch.meta_prob"):
        for key, suffix in (("calls", "calls"), ("busy", "busy_s"),
                            ("self", "self_s"), ("values", "values")):
            metric = f"{name}.{suffix}"
            if metric in PER_LAYER:
                m[metric] = get(name, key)
    m["learn.order_stats.busy_s"] = get("learn.order_stats", "busy")
    m["learn.load_sample_file.busy_s"] = get("learn.load_sample_file", "busy")
    m["learn.load_sample_file.values"] = get("learn.load_sample_file", "values")
    trials = get("evalmc.evaluate", "values")
    m["evalmc.trials"] = trials
    m["evalmc.self_us_per_trial"] = (
        1e6 * get("evalmc.evaluate", "self") / trials if trials else 0.0)
    supplied = get("learn.TrainingSample", "values")
    m["learn.tail_read_ratio"] = (
        get("learn.order_stats", "values") / supplied if supplied else 0.0)

    sweeps = [r for r in normal if r.op.workers]
    m["pool.workers"] = max((r.op.workers for r in sweeps), default=0)
    m["pool.sweep_wall_s"] = sum(r.spawn.main for r in sweeps)
    capacity = sum(r.op.workers * r.spawn.main for r in sweeps)
    m["pool.efficiency"] = (get("evalmc.evaluate", "busy", sweep_stats) / capacity
                            if capacity else 0.0)
    untraced = sum(r.spawn.wall for r in serial)
    m["trace.overhead_frac"] = sum(r.spawn.wall for r in traced) / untraced - 1.0
    return m


# ---------------------------------------------------------------- measuring

@dataclass
class Result:
    attempted: int
    failed: int
    problems: list[str]
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    op_walls: dict[str, list[float]]  # per op, untraced raw walls in pass order
    op_speeds: dict[str, list[float]]  # the probe's speed factor for each
    setups: list[float]  # raw
    setup_speeds: list[float]


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def warm_up(env: dict[str, str], work: Path) -> None:
    """Import the package once, untimed, and check it is the checkout's."""
    proc = subprocess.run(
        [sys.executable, "-c", "import statrate.cli; print(statrate.cli.__file__)"],
        cwd=work, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    where = proc.stdout.strip()
    if proc.returncode != 0 or Path(where).parent != ROOT / "src" / "statrate":
        raise RuntimeError(f"cannot import statrate from {ROOT / 'src'}: "
                           f"{proc.stderr.strip() or where}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, reference: dict | None = None) -> Result:
    """Run one workload for `seconds` and compute its metrics."""
    work = OUT_DIR / "work" / f"{workload}-seed{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        warm_up(runner.env, work)
        ref = reference if reference is not None else load_reference()
        wl = Workload(WORKLOADS[workload](work, seed, scale, ref), runner,
                      probe=not trace)
        has_pool = any(op.serial_argv for op in wl.ops)
        per_layer: dict[str, float] = {}
        if trace:
            def cycle():
                normal = wl.run_pass("normal")
                serial = wl.run_pass("serial") if has_pool else normal
                traced = wl.run_pass("traced")
                return normal, layer_metrics(normal, serial, traced)

            cycles = _repeat(seconds, cycle)
            normals = [c[0] for c in cycles]
            per_layer = {k: statistics.median(c[1][k] for c in cycles)
                         for k in cycles[0][1]}
            importtime = runner.spawn(["--setup-only"], flags=("-X", "importtime"))
            per_layer.update(import_times(importtime.stderr))
        else:
            normals = _repeat(seconds, lambda: wl.run_pass("normal"))
        probed = [r.spawn for p in normals for r in p]
        while not trace and len(probed) < MIN_SETUP_SAMPLES:
            probed.append(runner.spawn(["--setup-only"], probe=True))
        setups = [(c.setup, c.speed) for c in probed if c.setup is not None]
        op_walls = {op.label: [p[i].spawn.wall for p in normals]
                    for i, op in enumerate(wl.ops)}
        op_speeds = {op.label: [p[i].spawn.speed for p in normals]
                     for i, op in enumerate(wl.ops)}
        end_to_end = {
            # each op's median over passes, so a slow moment of the machine
            # in one op does not move the whole pass
            "wall_s": sum(statistics.median(w * v for w, v in zip(walls, speeds))
                          for walls, speeds in zip(op_walls.values(),
                                                   op_speeds.values())),
            "setup_s": (statistics.median(t * v for t, v in setups)
                        if setups else math.nan),
            "peak_rss_mb": max(r.spawn.maxrss_mb for p in normals for r in p),
        }
        problems = [p for r in wl.runs for p in r.problems]
        return Result(attempted=len(wl.runs),
                      failed=sum(1 for r in wl.runs if r.problems),
                      problems=problems, end_to_end=end_to_end,
                      per_layer=per_layer, op_walls=op_walls, op_speeds=op_speeds,
                      setups=[t for t, _ in setups],
                      setup_speeds=[v for _, v in setups])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "statrate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "thread_pins": THREAD_PINS}


def report(result: Result, trace: bool) -> dict:
    """The result object: the chosen metric set, each with its unit."""
    units = PER_LAYER if trace else END_TO_END
    values = result.per_layer if trace else result.end_to_end
    return {"correct": result.failed == 0, "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def write_reference() -> None:
    """Regenerate reference.json from the current program's outputs."""
    work = OUT_DIR / "work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work)
        ref: dict = {}
        for name, param, table, cfg in (
                ("nakagami", "m", NAKAGAMI_M, {"eps": 1e-3, "xi": 1e-2, "n": 10_000}),
                ("rician", "k", RICIAN_K, {"eps": 1e-4, "xi": 1e-2, "n": 10_000})):
            op = _mismatch_op(work, name, param, table, cfg, {})
            if runner.spawn(["--", *op.argv]).rc != 0:
                raise RuntimeError(f"mismatch {name} failed")
            ref[name] = {f"{r['param_value']}|{r['selector']}": {
                col: r[col] for col in ("mean_outage_numeric", "mean_outage_approx",
                                        "meta_prob_numeric", "meta_prob_chernoff")}
                for r in _rows(op.output.read_text())}
        epsn = runner.spawn(["--", "epsn", "--family", "powerlaw-nonasym",
                             "--constraint", "pcr", "--eps", "1e-2", "--xi", "0.1",
                             "--beta", "0.01", "--n", "100000"])
        ref["epsn_powerlaw_nonasym"] = epsn.stdout.strip()
        REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "statrate" / "cli.py").is_file():
        print(f"error: no statrate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(args.workload, args.seed)
    final = report(result, bool(args.trace))
    record = {"env": env, "trace": args.trace, "seconds": args.seconds,
              **final, "op_walls": result.op_walls, "op_speeds": result.op_speeds,
              "setups": result.setups, "setup_speeds": result.setup_speeds,
              "end_to_end": result.end_to_end, "per_layer": result.per_layer,
              "problems": result.problems}
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
                   f"-{os.getpid()}.json").write_text(json.dumps(record, indent=1))

    for problem in result.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    for name, m in final["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {result.failed / result.attempted:.6g} 1")
    if result.setups:
        unscaled = sum(statistics.median(w) for w in result.op_walls.values())
        print(f"unscaled: wall_s {unscaled:.6g} s, setup_s "
              f"{statistics.median(result.setups):.6g} s")
    if args.trace:
        selfs = {k: v for k, v in result.per_layer.items()
                 if k.endswith(("self_s", ".s"))}
        top = sorted(selfs, key=selfs.get, reverse=True)[:3]
        print("largest self times: " + ", ".join(f"{k}={selfs[k]:.3g}" for k in top))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
