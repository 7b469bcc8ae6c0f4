"""Exception types shared across the package."""


class WavFormatError(ValueError):
    """Raised when a WAV file is malformed (bad RIFF/WAVE header, truncated chunks)."""


class UnsupportedWavError(WavFormatError):
    """Raised when a WAV file is valid but uses an encoding other than PCM16/float32."""


class DegenerateGeometryError(ValueError):
    """Raised for scene geometries that make the simulation ill-posed."""


class FactorizationError(ValueError):
    """Raised when a bin count cannot be split into the requested number of factors."""


class DemixingNumericError(RuntimeError):
    """Raised when an iterative-projection solve stays singular after regularization.

    Attributes
    ----------
    source : int
        Source index of the failing row update.
    freq : int
        Frequency-bin index of the failing system.
    """

    def __init__(self, message, source=None, freq=None):
        super().__init__(message)
        self.source = source
        self.freq = freq


class SinkhornNumericError(RuntimeError):
    """Raised when a scaling iteration produces non-finite values.

    Attributes
    ----------
    iteration : int
        Inner iteration index at which the failure was detected.
    context : tuple or None
        Optional (source, frame) location attached by the separation engine.
    """

    def __init__(self, message, iteration, context=None):
        super().__init__(message)
        self.iteration = iteration
        self.context = context
