"""Exception types shared across the package."""


class CoklabError(Exception):
    """Base class for all package errors."""


class ParameterError(CoklabError, ValueError):
    """Invalid argument values (bad prime, malformed config field, ...)."""


class RingMismatchError(CoklabError, ValueError):
    """Operands belong to different rings or domains."""


class NonUnitError(CoklabError, ArithmeticError):
    """Inversion requested for an element of positive valuation."""


class PrecisionRangeError(ParameterError):
    """Requested truncation precision exceeds the machine-word budget."""


class OracleBudgetError(ParameterError):
    """A brute-force enumeration would exceed its configured budget."""


class IndeterminateCokernelError(CoklabError):
    """Cokernel type still saturated at the maximal precision, or at the
    first rung for a matrix proved singular there.

    Carries the last ``SnfResult`` so callers can report the trial in an
    explicit "indeterminate" bucket instead of silently dropping it.
    """

    def __init__(self, message, last_result=None):
        super().__init__(message)
        self.last_result = last_result


class BalanceError(CoklabError):
    """Entry distribution failed the strict balance gate (exit code 3)."""


class DiagnosticsError(CoklabError):
    """Run produced too many indeterminate trials (exit code 4)."""


class ConfigError(CoklabError):
    """Experiment configuration could not be parsed (exit code 2)."""
