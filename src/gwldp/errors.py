"""Exception types shared across the library.

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
