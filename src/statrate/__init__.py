"""Rate selection under statistical reliability constraints.

Select wireless transmission rates from channel training samples so
that the outage probability meets an averaged-reliability (AR) target
in expectation or a probably-correct-reliability (PCR) target with
confidence 1 - xi, and evaluate the resulting mean outage,
meta-probability, and throughput ratio analytically or by Monte Carlo.
"""

from .channels import (
    ChannelModel,
    Nakagami,
    PowerLawTail,
    Rayleigh,
    Rician,
)
from .errors import (
    ConfigError,
    InsufficientTailDataError,
    NoSolutionError,
    NoValidTiltError,
    SampleParseError,
)
from .evalmc import EvalConfig, EvalReport, Estimate, evaluate, sweep
from .learn import (
    TailFit,
    TrainingSample,
    fit_power_tail,
    load_sample_file,
)
from .mismatch import (
    ChernoffSolution,
    chernoff_tilt,
    mean_outage_exact_rayleigh,
    mean_outage_mismatch,
    meta_prob_exact_rayleigh,
    meta_prob_mismatch,
)
from .rateselect import (
    Calibration,
    ReliabilityTarget,
    SelectorSpec,
    calibrate,
    epsn_powerlaw,
    epsn_rayleigh_ar,
    epsn_rayleigh_pcr,
    make_rate_fn,
    nonparam_l_ar,
    nonparam_l_pcr,
    plug_in_nonparam_index,
    select_rate,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "Rayleigh",
    "Rician",
    "Nakagami",
    "PowerLawTail",
    "TrainingSample",
    "TailFit",
    "fit_power_tail",
    "load_sample_file",
    "ReliabilityTarget",
    "SelectorSpec",
    "epsn_rayleigh_ar",
    "epsn_rayleigh_pcr",
    "epsn_powerlaw",
    "nonparam_l_ar",
    "nonparam_l_pcr",
    "plug_in_nonparam_index",
    "select_rate",
    "make_rate_fn",
    "Calibration",
    "calibrate",
    "mean_outage_exact_rayleigh",
    "meta_prob_exact_rayleigh",
    "mean_outage_mismatch",
    "meta_prob_mismatch",
    "chernoff_tilt",
    "ChernoffSolution",
    "EvalConfig",
    "EvalReport",
    "Estimate",
    "evaluate",
    "sweep",
    "ConfigError",
    "NoSolutionError",
    "InsufficientTailDataError",
    "NoValidTiltError",
    "SampleParseError",
]
