"""Exception types shared across the library, and the frozen-record base."""


class QEllipticError(Exception):
    """Base class for all library-specific errors."""


class DomainError(QEllipticError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateParameters(QEllipticError, ValueError):
    """Parameter values hit a pole or a guarded near-zero denominator."""


class DegenerateSequence(QEllipticError, ValueError):
    """A value sequence violates a pairwise-distinctness guard."""


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of a frozen record."""


class Frozen:
    """Refuses assignment and deletion; ``__init__`` sets each slot with
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
