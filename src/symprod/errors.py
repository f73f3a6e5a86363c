"""Exception types with stable error codes (the CLI maps these to exit status 1)."""


class SymprodError(Exception):
    """Base class for all library errors."""

    code = "E_ERROR"


class ParseError(SymprodError):
    code = "E_PARSE"

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class DegenerateMapError(SymprodError):
    """The given map is not a morphism (vanishing resultant / zero Wronskian)."""

    code = "E_DEGENERATE"


class DomainError(SymprodError):
    """Precondition violation: bad degree, wrong dimension, non-periodic point, ..."""

    code = "E_DOMAIN"


class FieldMismatchError(SymprodError):
    code = "E_FIELD_MISMATCH"


class BudgetExceededError(SymprodError):
    """A factorization budget would be exceeded; reported, never silent."""

    code = "E_BUDGET"


# Largest degree the library factors or parses by default; the CLI's
# --budget default and the parser's degree cap are this one value.
DEFAULT_BUDGET = 64


class CertificateError(SymprodError):
    """No height-comparison certificate found within the configured degree cap."""

    code = "E_CERTIFICATE"


class PrecisionError(SymprodError):
    code = "E_PRECISION"
