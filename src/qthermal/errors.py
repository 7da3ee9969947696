"""Exception and warning types shared across the library."""


class GaussianStateError(ValueError):
    """Invalid covariance-matrix input."""


class NonSymmetricError(GaussianStateError):
    """Matrix asymmetry exceeds tolerance."""


class NonPhysicalError(GaussianStateError):
    """Covariance matrix violates the uncertainty principle."""


class DimensionMismatchError(GaussianStateError):
    """Mode counts of the two states differ."""


class NonPhysicalChannelError(ValueError):
    """Channel parameters violate complete positivity."""


class IdxFormatError(ValueError):
    """Malformed IDX container."""


class BadMagicError(IdxFormatError):
    pass


class TruncatedPayloadError(IdxFormatError):
    pass


class DimensionOverflowError(IdxFormatError):
    pass


class EmptyTrainingSetError(ValueError):
    pass


class EmptyEvaluationSetError(ValueError):
    pass


class InsufficientSamplesError(ValueError):
    """Fewer distinct sample points than fit parameters."""


class SingularDesignError(ValueError):
    """Least-squares design matrix is numerically singular."""


class ShapeMismatchError(ValueError):
    """Input shape inconsistent with what the classifier takes."""


class NonFiniteLossError(FloatingPointError):
    """CNN training loss or parameters evaluated to NaN or infinity."""


class ExtrapolationWarning(RuntimeWarning):
    """Infinite-squeezing extrapolation did not converge to tolerance."""
