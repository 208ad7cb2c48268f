"""Exception types and the argument range checks shared across the package.

The CLI maps these onto its exit-code contract: usage/config problems
exit 2, solvable-constraint failures exit 3, I/O and parse failures
exit 4. Every range check below raises a plain ValueError naming the
argument, which the CLI also maps to exit 2.
"""

import sys


def check_unit_interval(value, name: str) -> float:
    """value as a float, which must lie in the open interval (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def check_positive_int(value, name: str, lo: int = 1) -> int:
    """value as an int, a whole number >= lo: 1, or 0 for non-negative (not inf
    or nan), and at most the largest double, so that float(value) is finite."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):
        whole = lo - 1
    if whole < lo or whole != value:
        kind = "positive" if lo == 1 else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value}")
    if whole > sys.float_info.max:
        raise ValueError(f"{name} must be at most the largest double, got {value}")
    return whole


class ConfigError(ValueError):
    """A configuration file violates its schema."""


class NoSolutionError(ValueError):
    """A constraint has no solution in the admissible range."""


class InsufficientTailDataError(ValueError):
    """Too few tail samples to fit or calibrate a tail model."""


class SampleParseError(ValueError):
    """A sample file could not be parsed.

    Attributes
    ----------
    line_no : int or None
        1-based line number of the offending line, when known.
    """

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no
