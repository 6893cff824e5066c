"""Concave benefit functions, their aggregate marginal, and the social optimum.

Each player draws benefit h_i(v) = a_i*ln(v+1) from the public good v: the
scaled logarithm is strictly increasing, strictly concave, h_i(0) = 0, with
slope a_i/(v+1) vanishing at infinity. A profile is the coefficient vector a.
Every slope shares the denominator v+1, so the aggregate marginal is
H(G) = sum_i h_i'(G) = A/(G+1) with A = sum_i a_i, and the socially optimal
good, the unique root of H(G) = 1, is G* = A - 1. It exists whenever
H(0) = A > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvariantViolationError, OutOfCodomainError


def _check_good(G: float) -> None:
    if G < 0.0:
        raise DomainError(f"public good must be nonnegative, got {G!r}")


@dataclass(frozen=True)
class BenefitProfile:
    """Scaled-log benefit coefficients a_i > 0 of the N players of a game.

    Construction rejects profiles whose aggregate marginal at zero does not
    exceed one: without that, financing any positive public good is socially
    undesirable and no interior optimum exists.
    """

    coefficients: np.ndarray
    marginal_at_zero: float = field(init=False)

    def __post_init__(self):
        a = np.array(self.coefficients, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise InvariantViolationError("profile needs a nonempty vector of coefficients")
        if not (np.isfinite(a).all() and (a > 0.0).all()):
            raise InvariantViolationError(
                f"benefit coefficients must be positive and finite, got {a.tolist()!r}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "coefficients", a)
        h0 = float(a.sum())
        if not h0 > 1.0:
            raise InvariantViolationError(
                f"aggregate marginal at zero must exceed 1, got {h0:.6g}"
            )
        object.__setattr__(self, "marginal_at_zero", h0)

    @classmethod
    def scaled_log(cls, coefficients) -> "BenefitProfile":
        """Build a profile of scaled-log functions from a coefficient sequence."""
        return cls(coefficients)

    @property
    def n_players(self) -> int:
        return self.coefficients.size

    def values(self, G: float) -> np.ndarray:
        _check_good(G)
        return self.coefficients * math.log1p(G)

    def slopes(self, G: float) -> np.ndarray:
        _check_good(G)
        return self.coefficients / (G + 1.0)

    def curvatures(self, G: float) -> np.ndarray:
        _check_good(G)
        return -self.coefficients / (G + 1.0) ** 2

    def aggregate_value(self, G: float) -> float:
        """Sum of all players' benefits at public good G."""
        _check_good(G)
        return self.marginal_at_zero * math.log1p(G)

    def aggregate_marginal(self, G: float) -> float:
        """H(G) = sum of all players' marginal benefits; strictly decreasing."""
        _check_good(G)
        return self.marginal_at_zero / (G + 1.0)

    def aggregate_curvature(self, G: float) -> float:
        _check_good(G)
        return -self.marginal_at_zero / (G + 1.0) ** 2

    def socially_optimal_good(self) -> float:
        """The unique G* > 0 with H(G*) = 1, namely sum(a) - 1."""
        return self.invert_aggregate(1.0)

    def invert_aggregate(self, y: float) -> float:
        """Solve H(G) = y for G >= 0, in closed form G = A/y - 1.

        Values in (0, H(0)] invert uniquely (H is strictly decreasing); y = H(0)
        maps to 0 exactly. Nonpositive y returns +inf: H stays positive, so the
        preimage escapes to infinity. Values above H(0) are out of codomain.
        """
        if y <= 0.0:
            return math.inf
        if y > self.marginal_at_zero:
            raise OutOfCodomainError(
                f"cannot invert aggregate marginal at {y:.6g}: exceeds H(0) = "
                f"{self.marginal_at_zero:.6g}"
            )
        if y == self.marginal_at_zero:
            return 0.0
        return self.marginal_at_zero / y - 1.0

    def socially_optimal_payoff(self) -> float:
        """Aggregate payoff sum_i h_i(G*) - G* at the socially optimal good."""
        g_star = self.socially_optimal_good()
        return self.aggregate_value(g_star) - g_star
