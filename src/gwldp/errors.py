"""Exception types shared across the library, and the whole-number check.

The CLI maps these onto exit codes, so keep the hierarchy flat and stable.
"""


class GwldpError(Exception):
    """Base class for all library errors."""


class ParameterError(GwldpError, ValueError):
    """A distribution parameter or argument is outside its admissible domain."""


class TruncationError(GwldpError, ValueError):
    """A truncated representation leaves too much probability mass unaccounted."""


class HypothesisError(GwldpError, ValueError):
    """A structural hypothesis of the requested quantity is violated.

    The message names the violated assumption (e.g. subcriticality of the
    offspring law, or a zero-mass-at-zero initial law).
    """


class ConvergenceError(GwldpError, RuntimeError):
    """An iterative solver exhausted its iteration budget without converging."""


class PopulationCapError(GwldpError, RuntimeError):
    """A simulated trial exceeded the configured total-population cap.

    The cap bounds a trial's total progeny summed over its n lineages, and so
    also every lineage's.
    """


class ConfigError(GwldpError, ValueError):
    """A run configuration or scenario file failed to parse or validate."""


def whole_number(name: str, value, minimum: int) -> int:
    """``value`` as an int, if it is a whole number (1e7 is, 2.9 and true
    are not) at least ``minimum``; ConfigError otherwise, never a truncation."""
    try:
        if not isinstance(value, bool) and int(value) == value >= minimum:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be a whole number >= {minimum}, got {value!r}")
