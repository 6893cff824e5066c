"""Exception hierarchy shared across the package."""


class LotteryDesignError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LotteryDesignError, ValueError):
    """An argument lies outside its mathematical domain (e.g. negative good)."""


class InvariantViolationError(LotteryDesignError, ValueError):
    """A constructed object violates a structural invariant."""


class SingularPoolError(LotteryDesignError, ZeroDivisionError):
    """Total investment equals total perturbation: the odds term divides by zero."""


class InfeasibleRegimeError(LotteryDesignError):
    """No equilibrium with a positive pool exists for the requested design point."""


class NonconvergenceError(LotteryDesignError):
    """The equilibrium root-find failed or its answer does not check out.

    Raised when Chandrupatla's method meets a non-finite value or stops at its
    step cap (`game._MAX_STEPS`, one step per binade of the normal floats)
    before the bracket narrows to the root tolerance, or when a solved
    equilibrium fails its aggregate-consistency check sum s = G + R.
    """


class SimplexFailureError(LotteryDesignError):
    """The simplex solver stalled beyond its iteration cap."""


class ExactnessViolationError(LotteryDesignError):
    """A designed optimum failed verification against the true equilibrium."""

    def __init__(self, message: str, report=None, equilibrium=None):
        self.report = report
        self.equilibrium = equilibrium
        super().__init__(message)


class CaseParseError(LotteryDesignError, ValueError):
    """A power-system case file could not be parsed."""


class CaseValidationError(LotteryDesignError, ValueError):
    """Parsed case data violates network requirements (connectivity, slack, ...)."""


class ConfigError(LotteryDesignError, ValueError):
    """A scenario configuration file is missing or malformed."""
