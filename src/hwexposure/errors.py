"""Exception hierarchy shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(EngineError):
    """An input file does not match its documented format: bad syntax, a bad
    identifier or geometry, or a row that breaks a count invariant."""


class DegenerateSliceError(EngineError):
    """A metric is undefined on one slice (no workers, too few groups or tracts,
    zero variance); the stage skips the slice and counts it."""


class ConfigError(EngineError):
    """A run configuration is invalid or references missing inputs."""
