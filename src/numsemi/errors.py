"""Error hierarchy.

ValidationError subclasses mean the caller handed us bad input (CLI exit 2).
InternalError subclasses mean a proven invariant failed, i.e. a bug in this
library or an inconsistent cross-check (CLI exit 3).
"""


class NumsemiError(Exception):
    pass


class ValidationError(NumsemiError):
    pass


class InternalError(NumsemiError):
    pass


# --- input rejection -------------------------------------------------------

class NotCoprime(ValidationError):
    pass


class NotMinimal(ValidationError):
    def __init__(self, element, message=None):
        self.element = element
        super().__init__(message or f"element {element} is representable by the others")


class ContainsUnit(ValidationError):
    pass


class TooShort(ValidationError):
    pass


class DimensionUnsupported(ValidationError):
    pass


class SymmetricInput(ValidationError):
    pass


class NonSymmetricInput(ValidationError):
    pass


class NotPrimitive(ValidationError):
    pass


class InvalidInput(ValidationError):
    pass


class NotAGap(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class NoCoprimeBasePair(ValidationError):
    pass


class NuTooLarge(ValidationError):
    pass


class TooManyGaps(ValidationError):
    pass


class OutputTooLarge(ValidationError):
    """A result is too large to print: a value has more decimal digits than
    int-to-str conversion allows, or a diagram has more than
    diagrams.MAX_PICTURE_CELLS cells."""


# --- invariant violations --------------------------------------------------

class InternalMismatch(InternalError):
    pass


class StandardFormViolation(InternalError):
    pass


class IdentityViolation(InternalError):
    pass


class NonIntegerResult(InternalError):
    pass
