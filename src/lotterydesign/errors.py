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
    """A solved equilibrium fails its aggregate-consistency check sum s = G + R."""


class OutOfCodomainError(LotteryDesignError, ValueError):
    """Inverse of the aggregate marginal was asked for a value above its range."""


class DegenerateBoundError(LotteryDesignError):
    """A public-good bound formula produced an argument outside the invertible range.

    Carries the offending argument and the range limit for diagnostics.
    """

    def __init__(self, side: str, argument: float, limit: float):
        self.side = side
        self.argument = argument
        self.limit = limit
        super().__init__(
            f"{side} bound argument {argument:.6g} exceeds aggregate marginal "
            f"at zero ({limit:.6g}); bound is vacuous at this design point"
        )


class UnsupportedRegimeError(LotteryDesignError):
    """An operation requires all players active but some are not."""


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
