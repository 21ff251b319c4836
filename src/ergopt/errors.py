"""Exception types shared across the package."""


class ErgoptError(Exception):
    """Base class for all package-specific errors."""

    code = "Error"


class EmptyAlphabetError(ErgoptError):
    code = "EmptyAlphabet"


class NoCycleError(ErgoptError):
    """Some letter lies on no admissible cycle."""

    code = "NoCycle"


class UnreachableError(ErgoptError):
    """No admissible path between the requested letters."""

    code = "Unreachable"


class InadmissibleWordError(ErgoptError):
    code = "InadmissibleWord"


class ShapeMismatchError(ErgoptError):
    code = "ShapeMismatch"


class BudgetExceededError(ErgoptError):
    code = "BudgetExceeded"


class EqualExponentsError(ErgoptError):
    code = "EqualExponents"


class NoGapError(ErgoptError):
    """Restricted optimization has no certified strict gap."""

    code = "NoGap"


class TooShortError(ErgoptError):
    code = "TooShort"


class EmptySetError(ErgoptError):
    code = "EmptySet"


class InvalidArgumentError(ErgoptError):
    code = "InvalidArgument"


class ValidationError(ErgoptError):
    code = "ValidationError"


class ParseError(ErgoptError):
    code = "ParseError"
