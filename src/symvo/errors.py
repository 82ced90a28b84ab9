"""Exception hierarchy shared across the package."""


class SymvoError(Exception):
    """Base class for all package-specific errors."""


class BehindCameraError(SymvoError):
    """A point has non-positive depth in the camera it is projected into."""

    def __init__(self, message="point is behind the camera", direction=None):
        if direction is not None:
            message = f"{message} ({direction})"
        super().__init__(message)
        self.direction = direction


class InvalidDepthError(SymvoError):
    """A depth value that must be strictly positive is not."""


class DescriptorMismatchError(SymvoError):
    """Two descriptors of different bit lengths were compared."""


class NoBaselineError(SymvoError):
    """Two views have (numerically) no translation between them."""


class DegenerateProblemError(SymvoError):
    """An optimization problem is under-constrained or rank-deficient."""


class AlignmentDegenerateError(SymvoError):
    """Alignment segments are too short or geometrically degenerate."""


class AssociationPairingError(SymvoError):
    """Forward/backward run sets could not be paired sequence by sequence."""


class ParseError(SymvoError):
    """A data file failed to parse."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


class ConfigError(SymvoError):
    """A configuration key, type, or value is invalid."""


class SceneSpecError(SymvoError):
    """A synthetic scene specification cannot be realized."""


class WorldIntegrityError(SymvoError):
    """The observation graph violates a structural invariant."""
