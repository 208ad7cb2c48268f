"""Run one `statrate` CLI invocation in a fresh interpreter, for run.py.

    python child.py TIMING_JSON [--trace SPANS_NPZ] -- <statrate arguments>
    python child.py TIMING_JSON --setup-only

The child imports `statrate.cli`, calls `statrate.cli.main(argv)` and
writes to TIMING_JSON the `time.perf_counter()` readings taken after
the import and around `main`. On Linux that clock is CLOCK_MONOTONIC,
which all processes share, so the parent subtracts its own reading
taken just before the spawn to get the set-up time.

With --trace, the child first wraps the public functions and methods
listed in SPANS, wherever the package binds them, so that every call
records a span (name, start, end, parent). Spans stay in memory and
are written to SPANS_NPZ when main returns. The wrappers live only in
this process: nothing under src/ changes, and sweeps must run with
workers = 1 so that no span is lost in a pool worker.
"""

from __future__ import annotations

import json
import sys
import time

# span name -> (module, attribute) pairs; "Class.method" wraps a method
# on the class, anything else a module-level function
_MODELS = ("Rayleigh", "Rician", "Nakagami")
SPANS = {
    "cli.main": [("cli", "main")],
    "evalmc.evaluate": [("evalmc", "evaluate")],
    "rateselect.make_rate_fn": [("rateselect", "make_rate_fn")],
    "rateselect.epsn": [("rateselect", f) for f in (
        "epsn_rayleigh_ar", "epsn_rayleigh_pcr", "epsn_powerlaw",
        "nonparam_l_ar", "nonparam_l_pcr")],
    "learn.TrainingSample": [("learn", "TrainingSample.__init__")],
    "learn.order_stats": [("learn", "TrainingSample.order_stat"),
                          ("learn", "TrainingSample.smallest")],
    "learn.fit_power_tail": [("learn", "fit_power_tail")],
    "learn.load_sample_file": [("learn", "load_sample_file")],
    "channels.sample": [("channels", f"{c}.sample") for c in _MODELS],
    "channels.cdf": [("channels", f"{c}.cdf") for c in _MODELS],
    "channels.quantile": [("channels", f"{c}.quantile") for c in _MODELS],
    "specfun.nc_chi2": [("specfun", f) for f in (
        "marcum_q1", "marcum_q1_complement", "nc_chi2_sf", "nc_chi2_cdf")],
    "specfun.gamma_beta": [("specfun", f) for f in (
        "reg_lower_gamma", "reg_upper_gamma", "inv_reg_lower_gamma",
        "reg_inc_beta")],
    "mismatch.mean_outage": [("mismatch", f) for f in (
        "mean_outage_mismatch", "mean_outage_exact_rayleigh")],
    "mismatch.meta_prob": [("mismatch", f) for f in (
        "meta_prob_mismatch", "meta_prob_exact_rayleigh", "chernoff_tilt")],
}

# the closures make_rate_fn returns are traced under this name
RATE_FN = "rateselect.rate_fn"

# span name -> how many values the call handled, stored with the span
_VALUE_COUNTS = {
    "evalmc.evaluate": lambda args, result: int(args[0].trials),
    "learn.TrainingSample": lambda args, result: args[0].n,
    "learn.order_stats": lambda args, result: int(args[1]),
    "learn.load_sample_file": lambda args, result: result.n,
    "channels.sample": lambda args, result: int(result.size),
}


class Tracer:
    """In-memory span recorder for one process (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.outer: list[bool] = []
        self.values: list[int] = []
        self._open: list[int] = []
        self._depth: dict[str, int] = {}

    def wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
            self._depth[name] = 0
        name_id = self.names.index(name)
        count = _VALUE_COUNTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._open[-1] if self._open else -1)
            # a span is outer when no span of the same name encloses it,
            # so busy time never counts a nested call twice
            self.outer.append(self._depth[name] == 0)
            self.values.append(0)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._open.append(idx)
            self._depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self.starts[idx] = start
                self._open.pop()
                self._depth[name] -= 1
            if count is not None:
                self.values[idx] = count(args, result)
            if name == "rateselect.make_rate_fn":
                result = self.wrap(result, RATE_FN)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every SPANS entry where it is defined and where it is bound."""
        modules = [package] + [getattr(package, m) for m in (
            "cli", "evalmc", "rateselect", "mismatch", "channels", "learn",
            "specfun")]
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                module = getattr(package, module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(cls.__dict__[meth], name))
                    continue
                original = getattr(module, attr)
                traced = self.wrap(original, name)
                # `from .x import f` bindings are separate names for f
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name_ids=np.array(self.name_ids, dtype=np.int32),
                 starts=np.array(self.starts), ends=np.array(self.ends),
                 parents=np.array(self.parents, dtype=np.int64),
                 outer=np.array(self.outer, dtype=bool),
                 values=np.array(self.values, dtype=np.int64))


def main(argv: list[str]) -> int:
    timing_path, rest = argv[0], argv[1:]
    import statrate.cli

    timing = {"imported": time.perf_counter()}
    if rest == ["--setup-only"]:
        rc = 0
    else:
        tracer = None
        if rest[0] == "--trace":
            spans_path, rest = rest[1], rest[2:]
            tracer = Tracer()
            tracer.install(sys.modules["statrate"])
        if rest[0] != "--":
            raise SystemExit(f"usage: {__doc__}")
        timing["main_start"] = time.perf_counter()
        rc = statrate.cli.main(rest[1:])
        timing["main_end"] = time.perf_counter()
        if tracer is not None:
            tracer.save(spans_path)
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
