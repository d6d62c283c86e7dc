"""Exception types shared across the package, one per cause."""


class GlsAdaptError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(GlsAdaptError, ValueError):
    """Array shapes, lengths, batch sizes or dimensions are inconsistent with the operation."""


class InvalidValue(GlsAdaptError, ValueError):
    """A value lies outside its range: a label, a count, a coefficient, an empty or zero-mass input."""


class ConfigInvalid(GlsAdaptError, ValueError):
    """A training configuration, domain specification or model is invalid or used out of order."""


class ParseError(GlsAdaptError, ValueError):
    """A CSV or config file failed to parse; the message names the line."""


class NonFiniteValue(GlsAdaptError, ValueError):
    """A value that must be finite is NaN or infinite, or a matrix is too ill-conditioned to invert."""
