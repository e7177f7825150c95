"""Exception types shared across the toolkit."""


class PointlessError(Exception):
    """Base class for all toolkit errors."""


# -- algebra ----------------------------------------------------------------

class CompositeCharacteristic(PointlessError):
    pass


class ReduciblePolynomial(PointlessError):
    pass


class DivisionByZero(PointlessError):
    pass


class PrecisionExhausted(PointlessError, ValueError):
    """A truncated series was asked for more than its known precision
    holds: a coefficient past it, or the inverse of a series none of whose
    known coefficients is nonzero."""


class MixedFields(PointlessError):
    pass


class NoSquareRoot(PointlessError):
    pass


class OddCharacteristic(PointlessError):
    pass


class EvenCharacteristic(PointlessError):
    pass


class ExtensionTooLarge(PointlessError):
    pass


# -- curves -----------------------------------------------------------------

class UnsupportedShape(PointlessError):
    pass


class ZeroPolynomial(PointlessError):
    pass


# -- elliptic ---------------------------------------------------------------

class ZeroFunction(PointlessError):
    pass


# -- zeta -------------------------------------------------------------------

class NonIntegralResult(PointlessError):
    """Counts are inconsistent with any curve of the requested genus."""


# -- density ----------------------------------------------------------------

class NotTransitive(PointlessError):
    pass


class GroupTooLarge(PointlessError):
    pass


class UnknownFamily(PointlessError):
    pass


# -- search -----------------------------------------------------------------

class BudgetExceeded(PointlessError):
    pass


class FilterDisagreement(PointlessError):
    """A search filter passed a candidate that it claims to decide exactly,
    and the exact curve model rejects it, or a filter misses the
    closed-form count it must meet: the filter is wrong."""


# -- harness ----------------------------------------------------------------

class ParseError(PointlessError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ValidationError(PointlessError):
    def __init__(self, message, entry_id=None):
        self.entry_id = entry_id
        if entry_id is not None:
            message = f"entry {entry_id!r}: {message}"
        super().__init__(message)
