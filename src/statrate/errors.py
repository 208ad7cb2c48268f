"""Exception types and the argument range checks shared across the package.

The CLI maps these onto its exit-code contract: usage/config problems
exit 2, solvable-constraint failures exit 3, I/O and parse failures
exit 4. Every range check below raises a plain ValueError naming the
argument, which the CLI also maps to exit 2.
"""


def check_unit_interval(value, name: str) -> float:
    """value as a float, which must lie in the open interval (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def check_positive_int(value, name: str) -> int:
    """value as an int, which must be a whole number >= 1 (not inf or nan)."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):
        whole = 0
    if whole < 1 or whole != value:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return whole


class ConfigError(ValueError):
    """A configuration file violates its schema."""


class NoSolutionError(ValueError):
    """A constraint has no solution in the admissible range."""


class InsufficientTailDataError(ValueError):
    """Too few tail samples to fit or calibrate a tail model."""


class NoValidTiltError(ValueError):
    """No exponential tilt satisfies the MGF domain constraint."""


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
