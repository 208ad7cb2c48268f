"""Command-line front-end.

Subcommands:

    epsn      print the backed-off quantile level eps_n for a selector
    rate      select a rate from a sample file (one gain per line)
    sweep     run a Monte Carlo sweep from a config file, write CSV
    mismatch  tabulate mean outage / meta-probability under mismatch

Exit codes: 0 success, 2 usage or config error, 3 mathematical
no-solution or insufficient data, 4 I/O or sample-parse failure.
Warnings and progress go to stderr; results go to stdout or the
configured CSV file.

Config files are flat `key = value` text: one pair per line, '#'
starts a comment, keys may not repeat, unknown keys are rejected. The
schemas are documented in the README and enforced here.

Importing this module loads only what argument parsing and the exit-code
mapping need: errors and rateselect, which bring learn, specfun and
numpy. epsn and rate use no more. Each other command imports its own
modules: mismatch adds channels and mismatch; sweep adds channels and
evalmc, runs its points on threads of this process, and is the only
command that configures logging (INFO to stderr, for its progress lines,
logged from the calling thread), so an in-process caller of main for
another command keeps its root logger as it was. A PCR command or
mismatch imports scipy.special: about 0.24 s after numpy, half such a
command's wall time (see specfun).

Importing this module registers gc.freeze to run at interpreter exit,
so CPython's final collections skip the objects numpy and scipy.special
leave behind: a one-shot epsn's exit fell from about 58 ms to 15 ms on
2 vCPUs. The other atexit handlers (logging.shutdown among them, before
or after it), the stdio flush, the pool shutdown and module teardown
still run; cyclic garbage left at exit is not finalized, which CPython
does not promise at exit anyway. In-process callers of main keep
normal collection until their own interpreter exits.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys

from .errors import (
    ConfigError,
    InsufficientTailDataError,
    NoSolutionError,
    SampleParseError,
)
from .learn import load_sample_file
from .rateselect import (
    AR,
    FAMILIES,
    PCR,
    ReliabilityTarget,
    SelectorSpec,
    calibrate,
    select_rate,
)

SWEEP_HEADER = [
    "axis_name", "axis_value", "rate_mean", "rate_stddev",
    "mean_outage", "mean_outage_ci_lo", "mean_outage_ci_hi",
    "meta_prob", "meta_prob_ci_lo", "meta_prob_ci_hi",
    "omega", "omega_ci_lo", "omega_ci_hi",
    "zero_rate_fraction", "trials", "seed",
]

MISMATCH_HEADER = [
    "param_name", "param_value", "selector",
    "mean_outage_numeric", "mean_outage_approx",
    "meta_prob_numeric", "meta_prob_chernoff",
]

MISMATCH_SELECTORS = ("rayleigh-ar", "rayleigh-pcr")

_EPSN_FAMILIES = ("rayleigh", "powerlaw-asym", "powerlaw-nonasym")

atexit.register(gc.freeze)


def _fmt(x) -> str:
    # 12 significant digits, locale-independent
    return "{:.11e}".format(float(x))


def _parse_kv_file(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    entries: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        if key in entries:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _as_int(text: str) -> int:
    # exact for any size; the float route only serves forms such as 1e5
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise ValueError(f"expected an integer, got {text!r}")
    return int(value)


def _as_list(cast):
    # a comma-separated list of cast values; empty items are skipped
    def parse(text: str) -> list:
        values = [cast(p.strip()) for p in text.split(",") if p.strip()]
        if not values:
            raise ValueError("expected a comma-separated list")
        return values
    return parse


def _choice(options):
    def cast(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {text!r}")
        return text
    return cast


def _take(entries: dict[str, str], key: str, cast, required=True, default=None):
    if key not in entries:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = entries.pop(key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc


def _reject_unknown(entries: dict[str, str]) -> None:
    if entries:
        raise ConfigError(f"unknown keys: {', '.join(sorted(entries))}")


def _given_when(key: str, value, used: bool, where: str) -> None:
    """Check that config key `key` is given exactly when what it configures
    is used; `where` names that use and the given key that decides it."""
    if value is not None and not used:
        raise ConfigError(f"key {key!r} is only valid with {where}")
    if value is None and used:
        raise ConfigError(f"key {key!r} is required with {where}")


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_epsn(args) -> int:
    target = ReliabilityTarget(args.eps, args.constraint, args.xi)
    beta = args.beta
    if beta is None and args.family == "powerlaw-asym" and target.kind == AR:
        # the asymptotic AR level is beta-free; any admissible placeholder works
        beta = 0.5
    print(_fmt(calibrate(SelectorSpec(args.family, beta=beta), target, args.n).eps_n))
    return 0


def cmd_rate(args) -> int:
    # flag errors exit 2 before the sample file is read
    target = ReliabilityTarget(args.eps, args.constraint, args.xi)
    selector = SelectorSpec(args.selector, beta=args.beta)
    sample = load_sample_file(args.sample)
    rate = select_rate(selector, target, sample)
    if rate == 0.0:
        print("0")
        print("note: zero-rate outcome; the constraint admits no positive "
              "rate at this sample size", file=sys.stderr)
    else:
        print(_fmt(rate))
    return 0


def cmd_sweep(args) -> int:
    import logging

    from .channels import Nakagami, Rayleigh, Rician
    from .evalmc import SWEEP_AXES, EvalConfig, sweep

    # the only command that logs: progress lines, one per sweep point
    logging.basicConfig(level=logging.INFO, format="%(message)s",
                        stream=sys.stderr)
    entries = _parse_kv_file(args.config)
    model_name = _take(entries, "model", _choice(("rayleigh", "rician", "nakagami")))
    lam = _take(entries, "lam", float, required=False, default=1.0)
    k = _take(entries, "k", float, required=False)
    m = _take(entries, "m", float, required=False)
    family = _take(entries, "selector", _choice(FAMILIES))
    constraint = _take(entries, "constraint", _choice((AR, PCR)))
    eps = _take(entries, "eps", float)
    xi = _take(entries, "xi", float, required=False)
    beta = _take(entries, "beta", float, required=False)
    n = _take(entries, "n", _as_int)
    trials = _take(entries, "trials", _as_int)
    seed = _take(entries, "seed", _as_int)
    axis = _take(entries, "axis", _choice(SWEEP_AXES))
    axis_values = _take(entries, "axis_values", _as_list(float))
    workers = _take(entries, "workers", _as_int, required=False, default=1)
    output = _take(entries, "output", str)
    _reject_unknown(entries)

    _given_when("k", k, model_name == "rician", f"the rician model (model = {model_name})")
    _given_when("m", m, model_name == "nakagami", f"the nakagami model (model = {model_name})")
    if axis == "beta" and beta is None:
        beta = axis_values[0]  # placeholder; overwritten at every axis point

    model = (Rician(lam, k) if model_name == "rician" else
             Nakagami(lam, m) if model_name == "nakagami" else Rayleigh(lam))
    target = ReliabilityTarget(eps, constraint, xi)
    selector = SelectorSpec(family, beta=beta)
    base = EvalConfig(model, selector, target, n, trials, seed)

    rows = [[axis, _fmt(value), _fmt(rep.rate_mean), _fmt(rep.rate_stddev),
             *(_fmt(x) for est in (rep.mean_outage, rep.meta_prob, rep.throughput_ratio)
               for x in (est.value, est.ci_lo, est.ci_hi)),
             _fmt(rep.zero_rate_fraction), str(rep.trials), str(rep.seed)]
            for value, rep in sweep(base, axis, axis_values, workers=workers)]
    _write_csv(output, SWEEP_HEADER, rows)
    print(f"wrote {len(rows)} rows to {output}")
    return 0


def cmd_mismatch(args) -> int:
    from .channels import Nakagami, Rician
    from .mismatch import (chernoff_tilt, mean_outage_mismatch, mean_outage_weak_n,
                           meta_prob_mismatch)

    entries = _parse_kv_file(args.config)
    param = _take(entries, "param", _choice(("k", "m")))
    param_values = _take(entries, "param_values", _as_list(float))
    selectors = _take(entries, "selectors", _as_list(_choice(MISMATCH_SELECTORS)))
    eps = _take(entries, "eps", float)
    xi = _take(entries, "xi", float, required=False)
    n = _take(entries, "n", _as_int)
    output = _take(entries, "output", str)
    _reject_unknown(entries)

    _given_when("xi", xi, any(sel.endswith("-pcr") for sel in selectors),
                f"pcr-designed selectors (selectors = {', '.join(selectors)})")

    designs = {}
    for sel in selectors:
        kind = sel.rpartition("-")[2]
        designs[sel] = calibrate(SelectorSpec("rayleigh"),
                                 ReliabilityTarget(eps, kind, xi if kind == PCR else None), n)
    # every column is a function of the law (k, m) alone, so the scale is 1
    models = [Rician(1.0, v) if param == "k" else Nakagami(1.0, v)
              for v in param_values]

    rows = []
    for value, model in zip(param_values, models):
        for sel in selectors:
            eps_n = designs[sel].rate_level()
            rows.append([param, _fmt(value), sel,
                         _fmt(mean_outage_mismatch(model, eps_n, n)),
                         _fmt(mean_outage_weak_n(model, eps)),
                         _fmt(meta_prob_mismatch(model, eps_n, eps, n)),
                         _fmt(chernoff_tilt(model, eps_n, eps, n))])
    _write_csv(output, MISMATCH_HEADER, rows)
    print(f"wrote {len(rows)} rows to {output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statrate",
        description="Rate selection under statistical reliability constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_epsn = sub.add_parser(
        "epsn", help="print the backed-off quantile level eps_n")
    p_epsn.add_argument("--family", required=True, choices=_EPSN_FAMILIES)
    p_epsn.add_argument("--constraint", required=True, choices=(AR, PCR))
    p_epsn.add_argument("--eps", required=True, type=float,
                        help="target outage level in (0, 1)")
    p_epsn.add_argument("--xi", type=float,
                        help="pcr confidence level in (0, 1)")
    p_epsn.add_argument("--n", required=True, type=_as_int,
                        help="training sample size")
    p_epsn.add_argument("--beta", type=float,
                        help="tail fraction for power-law families")
    p_epsn.set_defaults(func=cmd_epsn)

    p_rate = sub.add_parser(
        "rate", help="select a rate from a sample file")
    p_rate.add_argument("--selector", required=True, choices=FAMILIES)
    p_rate.add_argument("--constraint", required=True, choices=(AR, PCR))
    p_rate.add_argument("--eps", required=True, type=float)
    p_rate.add_argument("--xi", type=float)
    p_rate.add_argument("--beta", type=float)
    p_rate.add_argument("--sample", required=True,
                        help="text file with one gain measurement per line")
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = sub.add_parser(
        "sweep", help="run a Monte Carlo sweep from a config file")
    p_sweep.add_argument("config", help="flat key = value config file")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mism = sub.add_parser(
        "mismatch", help="tabulate outage statistics under model mismatch")
    p_mism.add_argument("config", help="flat key = value config file")
    p_mism.set_defaults(func=cmd_mismatch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SampleParseError as exc:
        where = f" (line {exc.line_no})" if exc.line_no is not None else ""
        print(f"sample parse error{where}: {exc}", file=sys.stderr)
        return 4
    except (NoSolutionError, InsufficientTailDataError) as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
