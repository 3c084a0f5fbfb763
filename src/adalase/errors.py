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
