"""Exception types raised across the package."""


class PolarDetError(Exception):
    """Base class for all package-specific errors."""


class DegenerateBox(PolarDetError):
    """Quad with (near-)zero area cannot be converted to polar form."""


class OutOfBounds(PolarDetError):
    """Pole point outside the image bounds."""


class CellCollision(PolarDetError):
    """Two boxes map to the same pole cell on the output grid."""


class ShapeError(PolarDetError):
    """Array shapes incompatible with the requested operation."""


class EmptyImage(PolarDetError):
    """Loss normalization requested with zero objects."""


class InvalidRadius(PolarDetError):
    """Nonpositive polar radius fed into a ring-area computation."""


class UndefinedRecall(PolarDetError):
    """Recall is undefined without ground-truth objects."""


class NoClasses(PolarDetError):
    """mAP requested over an empty class set."""


class StateError(PolarDetError):
    """Backward pass called without cached forward activations."""


class DivergenceError(PolarDetError):
    """Training loss became non-finite."""

    def __init__(self, iteration: int, message: str = ""):
        self.iteration = iteration
        super().__init__(message or f"non-finite loss at iteration {iteration}")


class PlacementError(PolarDetError):
    """Scene generator could not satisfy the separation constraints."""


class UnknownClass(PolarDetError):
    """Class name missing from the declared class list."""


class VersionError(PolarDetError):
    """Checkpoint magic, version, or topology mismatch."""
