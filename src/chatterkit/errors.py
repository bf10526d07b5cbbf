"""Exception types shared across the package."""


class ChatterKitError(Exception):
    """Base class for all errors raised by chatterkit."""


class ConfigError(ChatterKitError):
    """A pipeline setting lies outside its valid range."""


class ManifestError(ChatterKitError):
    """Manifest is missing, malformed, or references bad entries."""


class SignalLoadError(ChatterKitError):
    """A signal file could not be read or contains invalid samples."""


class FilterDesignError(ChatterKitError):
    """Invalid filter parameters (cutoff at/above Nyquist, odd order, ...)."""


class NumericalInstabilityError(ChatterKitError):
    """A filter stage produced non-finite values."""


class SynthSpecError(ChatterKitError):
    """Synthetic corpus parameters break an invariant the generator relies on."""


class TransformError(ChatterKitError):
    """A transform precondition was violated."""


class PeakShortfall(ChatterKitError):
    """A transform yielded fewer peaks than requested.

    Carries the transform kind plus found/requested counts so callers can
    report exactly which record failed and why.
    """

    def __init__(self, kind, found, requested):
        self.kind = kind
        self.found = found
        self.requested = requested
        super().__init__(
            f"{kind}: found {found} peaks, requested {requested}"
        )


class FitError(ChatterKitError):
    """Classifier training preconditions violated (single class, NaNs, ...)."""


class EvaluationError(ChatterKitError):
    """An evaluation protocol could not be carried out."""


class OutputError(ChatterKitError):
    """An output file could not be written."""
