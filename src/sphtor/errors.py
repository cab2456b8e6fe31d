"""Exception hierarchy for sphtor.

Every domain error raised by the library derives from :class:`SphtorError`,
so callers (and the CLI) can distinguish bad mathematical input from bugs.
"""


class SphtorError(Exception):
    """Base class for all sphtor domain errors."""


class WeightHasNoArcModel(SphtorError):
    """Raised when an arc-model operation is attempted at weight w = 1."""


class InvalidArc(SphtorError):
    """Raised when an integer pair is not an admissible arc for its weight."""


class WeightMismatch(SphtorError):
    """Raised when two arcs of different weights are combined."""


class NoExtension(SphtorError):
    """Raised when an operation requires Ext^1 != 0 but the pair is rigid."""


class NotInHammock(SphtorError):
    """Raised when an arc is required to lie in an Ext-hammock but does not."""


class NonOrthogonalInput(SphtorError):
    """Raised by the multi-extension formula on non-Hom-orthogonal input.

    Carries the factoring witness pair so the caller can split the offending
    summand off and retry.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ParamsMismatch(SphtorError):
    """Raised when orbit-category objects from different (n, m) are combined."""


class ValidationFailure(SphtorError):
    """Raised when an orbit-category model fails its construction gates."""


class TooLarge(SphtorError):
    """Raised when a computation would exceed its budget, or its answer has no presentation.

    ``symbolic_closure`` raises it for a closure that needs arcs past the
    span or new fountains, which a descriptor set cannot present.
    """


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; ValueError for floats, bools and the rest."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value
