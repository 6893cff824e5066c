"""Concave benefit functions and the social optimum, in closed form.

Each player draws benefit h_i(v) = a_i*ln(v+1) from the public good v: the
scaled logarithm is strictly increasing, strictly concave, h_i(0) = 0, with
slope a_i/(v+1) vanishing at infinity. A profile is the coefficient vector a.
Every slope shares the denominator v+1, so the aggregate marginal is
H(G) = sum_i h_i'(G) = A/(G+1) with A = sum_i a_i, and the socially optimal
good, the unique root of H(G) = 1, is G* = A - 1. It exists whenever
H(0) = A > 1. The profile computes A, G* and its payoff once, when built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvariantViolationError


def _check_good(G: float) -> None:
    if G < 0.0:
        raise DomainError(f"public good must be nonnegative, got {G!r}")


@dataclass(frozen=True)
class BenefitProfile:
    """Scaled-log benefit coefficients a_i > 0 of the N players of a game.

    Construction rejects profiles whose aggregate marginal at zero does not
    exceed one: without that, financing any positive public good is socially
    undesirable and no interior optimum exists. `optimal_payoff` is the
    aggregate payoff sum_i h_i(G*) - G* at the social optimum `g_star`.
    """

    coefficients: np.ndarray
    marginal_at_zero: float = field(init=False)
    g_star: float = field(init=False)
    optimal_payoff: float = field(init=False)

    def __post_init__(self):
        a = np.array(self.coefficients, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise InvariantViolationError("profile needs a nonempty vector of coefficients")
        if np.count_nonzero((a > 0.0) & (a < math.inf)) != a.size:  # NaN fails both
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
        g_star = h0 - 1.0
        object.__setattr__(self, "g_star", g_star)
        object.__setattr__(self, "optimal_payoff", h0 * math.log1p(g_star) - g_star)

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

    def aggregate_value(self, G: float) -> float:
        """Sum of all players' benefits at public good G."""
        _check_good(G)
        return self.marginal_at_zero * math.log1p(G)

    def good_bracket(self, c_bar: float) -> tuple[float, float]:
        """(min(c_bar, G*), max(c_bar, G*)): it holds the equilibrium good."""
        return (c_bar, self.g_star) if c_bar <= self.g_star else (self.g_star, c_bar)
