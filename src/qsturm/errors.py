"""Exception types shared across the package."""


class QsturmError(Exception):
    """Base class for all errors raised by qsturm."""


class IndexBeyondCoefficients(QsturmError):
    pass


class IntegerOverflow(QsturmError):
    pass


class LengthBudgetExceeded(QsturmError):
    pass


class SymbolOutsideDomain(QsturmError):
    pass


class WindowTooLarge(QsturmError):
    pass


class NotPalindromicDecomposition(QsturmError):
    pass


class NoCommonSite(QsturmError):
    pass


class InconclusiveWindow(QsturmError):
    pass


class NoBispecialFound(QsturmError):
    pass


class RegenerationMismatch(QsturmError):
    pass


class BasePrefixTooShort(QsturmError):
    pass


class ZeroInitialCondition(QsturmError):
    pass


class OutOfRange(QsturmError):
    pass


class DegenerateFit(QsturmError):
    pass
