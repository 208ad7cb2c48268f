"""Rate selection under statistical reliability constraints.

Select wireless transmission rates from channel training samples so
that the outage probability meets an averaged-reliability (AR) target
in expectation or a probably-correct-reliability (PCR) target with
confidence 1 - xi, and evaluate the resulting mean outage,
meta-probability, and throughput ratio analytically or by Monte Carlo.

Importing the package loads none of its submodules (and so not numpy):
each exported name, and each submodule as an attribute, is imported on
first access (PEP 562), so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it, in __all__ order
_EXPORTS = {
    "channels": ("ChannelModel", "Rayleigh", "Rician", "Nakagami", "PowerLawTail"),
    "learn": ("TrainingSample", "TailFit", "fit_power_tail", "load_sample_file"),
    "rateselect": (
        "ReliabilityTarget", "SelectorSpec", "epsn_rayleigh_ar", "epsn_rayleigh_pcr",
        "epsn_powerlaw", "nonparam_l_ar", "nonparam_l_pcr", "plug_in_nonparam_index",
        "select_rate", "make_rate_fn", "Calibration", "calibrate"),
    "mismatch": (
        "mean_outage_exact_rayleigh", "meta_prob_exact_rayleigh", "mean_outage_mismatch",
        "meta_prob_mismatch", "chernoff_tilt", "ChernoffSolution"),
    "evalmc": ("EvalConfig", "EvalReport", "Estimate", "evaluate", "sweep"),
    "errors": (
        "ConfigError", "NoSolutionError", "InsufficientTailDataError", "NoValidTiltError",
        "SampleParseError"),
}
_SUBMODULES = (*_EXPORTS, "cli", "specfun")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
