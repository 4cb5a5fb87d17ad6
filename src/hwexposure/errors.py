"""Exception hierarchy shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(EngineError):
    """An input file does not match its documented format."""


class SchemaError(EngineError):
    """Structurally invalid data: duplicate keys, bad identifiers, bad columns."""


class MalformedGeocodeError(SchemaError):
    """A census block geocode is not a 15-digit string."""


class ValidationError(EngineError):
    """A row violates a count invariant (negative count or category-sum mismatch)."""


class DegenerateGeometryError(EngineError):
    """A polygon ring has fewer than 3 distinct vertices or zero area."""


class DegenerateSliceError(EngineError):
    """A metric is undefined on one slice (no workers, too few groups or tracts,
    zero variance); the stage skips the slice and counts it."""


class ConfigError(EngineError):
    """A run configuration is invalid or references missing inputs."""
