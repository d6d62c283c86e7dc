"""Exception types shared across the package."""


class GlsAdaptError(Exception):
    """Base class for every error raised by this package."""


class LengthMismatch(GlsAdaptError, ValueError):
    """Two vectors that must have equal length do not."""


class SupportMismatch(GlsAdaptError, ValueError):
    """KL divergence requested with support(p) not contained in support(q)."""


class EmptyInput(GlsAdaptError, ValueError):
    """An operation received an empty sequence."""


class LabelOutOfRange(GlsAdaptError, ValueError):
    """A class index falls outside [0, k)."""


class ShapeMismatch(GlsAdaptError, ValueError):
    """Array shapes are inconsistent with the operation's contract."""


class EmptyAccumulator(GlsAdaptError, ValueError):
    """finalize() called before any samples were accumulated."""


class SingularMatrix(GlsAdaptError, ValueError):
    """Matrix inversion refused: condition number above the configured cap."""


class DegenerateProblem(GlsAdaptError, ValueError):
    """The weight-estimation problem is degenerate (zero source class mass)."""


class ZeroSourceClass(GlsAdaptError, ValueError):
    """A source class probability is zero where a ratio or reweighting needs it."""


class LambdaOutOfRange(GlsAdaptError, ValueError):
    """Moving-average coefficient outside [0, 1]."""


class OutOfRangeDiscriminatorOutput(GlsAdaptError, ValueError):
    """Discriminator outputs must lie strictly inside (0, 1)."""


class BatchSizeMismatch(GlsAdaptError, ValueError):
    """Paired batches must have equal size."""


class StaleCache(GlsAdaptError, ValueError):
    """backward() called with caches from a forward pass of older parameters."""


class ConfigInvalid(GlsAdaptError, ValueError):
    """A training or experiment configuration fails validation."""


class DimensionMismatch(GlsAdaptError, ValueError):
    """Datasets or model dimensions are incompatible."""


class InvalidSpec(GlsAdaptError, ValueError):
    """A domain specification fails validation."""


class EmptyClassAfterSubsample(GlsAdaptError, ValueError):
    """Subsampling would leave a class with no samples."""


class InvalidCount(GlsAdaptError, ValueError):
    """A count (of tasks, classes, ...) is below its minimum."""


class MalformedConfusion(GlsAdaptError, ValueError):
    """A confusion matrix is not square, nonnegative and row-normalized."""


class InsufficientSamples(GlsAdaptError, ValueError):
    """Too few samples per class for a conditional-distribution estimate."""


class DegenerateGamma(GlsAdaptError, ValueError):
    """min_y target class probability is zero; the bound is undefined."""


class ParseError(GlsAdaptError, ValueError):
    """A CSV or config file failed to parse; the message names the line."""


class NonFiniteValue(GlsAdaptError, ValueError):
    """A value that must be finite is NaN or infinite."""


class InvalidModel(GlsAdaptError, ValueError):
    """A network's layer sizes, head or forward mode is invalid."""


class InvalidDistribution(GlsAdaptError, ValueError):
    """A probability vector has negative entries or does not sum to 1."""
