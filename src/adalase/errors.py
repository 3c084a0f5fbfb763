"""Exception types shared across the package."""


class AdalaseError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(AdalaseError):
    """Tensor shapes are incompatible with the requested operation."""


class TapRangeError(AdalaseError):
    """Requested tap position does not exist on the network."""


class StateError(AdalaseError):
    """Operation called in the wrong order (e.g. backward before forward)."""


class ConfigError(AdalaseError):
    """Invalid configuration value. Carries a dotted field path when known."""

    def __init__(self, message, field=None):
        self.reason = message
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class NonFiniteError(AdalaseError):
    """A loss or gradient is NaN or infinite. Names the tap position; raised
    out of ``train`` it also names the epoch and the iteration within it."""

    def __init__(self, what, position, epoch=None, iteration=None):
        self.what = what
        self.position = position
        self.epoch = epoch
        self.iteration = iteration
        where = f"position P{position}"
        if epoch is not None:
            where = f"epoch {epoch}, iteration {iteration}, {where}"
        super().__init__(f"non-finite {what} at {where}")


class ValidationError(AdalaseError):
    """Input values violate a documented precondition (e.g. labels not normalized)."""


class DataFormatError(AdalaseError):
    """Malformed dataset or checkpoint file."""


class PolicyError(AdalaseError):
    """Augmentation kind not allowed at the requested position."""


class DegenerateBatchError(AdalaseError):
    """Mixing augmentation requested on a batch with fewer than two samples."""


class AuditError(AdalaseError):
    """Selection audit is missing required probe data."""
