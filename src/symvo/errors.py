"""Exception hierarchy shared across the package.

Every class here is raised by the package itself; reference code that
lives with the tests defines its own errors on ``SymvoError``.
"""


class SymvoError(Exception):
    """Base class for all package-specific errors."""


class DescriptorMismatchError(SymvoError):
    """Two packed descriptor stacks of different widths were compared."""


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
