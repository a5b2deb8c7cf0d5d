"""Exception types shared across the package."""


class TemperkitError(Exception):
    """Base class for all domain errors."""


class ArityError(TemperkitError, ValueError):
    """A vector or covector has the wrong number of coordinates."""


class ConstraintViolationError(TemperkitError, ValueError):
    """An evaluation point does not satisfy the torus constraints."""


class SpaceMismatchError(TemperkitError, ValueError):
    """Objects built over different torus spaces were combined."""


class BracketClosureError(TemperkitError, ValueError):
    """A block pattern does not span a bracket-closed subalgebra."""


class BasisError(TemperkitError, ValueError):
    """A singular diagonalizer, or linearly dependent basis matrices."""


class ContainmentError(TemperkitError, ValueError):
    """A matrix input's h is not contained in its g."""


class DecompositionError(TemperkitError, ValueError):
    """Weight-space dimensions do not add up; the input is not torus-stable."""


class NonSplitError(TemperkitError, ValueError):
    """A matrix direction is not diagonalizable with real eigenvalues."""


class SchemaError(TemperkitError, ValueError):
    """A serialized document does not match the JSON schema."""
