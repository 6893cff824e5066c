"""Concave benefit functions and the social optimum, in closed form.

Each player draws benefit h_i(v) = a_i*ln(v+1) from the public good v: the
scaled logarithm is strictly increasing, strictly concave, h_i(0) = 0, with
slope a_i/(v+1) vanishing at infinity. A profile is the coefficient vector a.
Every slope shares the denominator v+1, so the aggregate marginal is
H(G) = sum_i h_i'(G) = A/(G+1) with A = sum_i a_i, and the socially optimal
good, the unique root of H(G) = 1, is G* = A - 1. It exists whenever
H(0) = A > 1. The profile computes A, G* and its payoff once, when built; A
is `math.fsum`'s correctly rounded sum, the same in every order and whether
the profile came as a list of floats or a vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvariantViolationError

# Up to this many players one design point is checked, built, solved and
# graded on Python floats, above it on numpy vectors; a sweep always uses
# numpy. The cutoff is the solve's crossover. Median µs per
# `solve_equilibrium` over 20 random points, the two forms alternating in one
# process (BENCH_27.json; 2 cores, Python 3.11.7, numpy 2.4.6), floats against
# numpy: 28 against 66 at 5 players, 52 against 76 at 20, 84-128 against
# 92-147 at 35 (floats faster in all three runs), even at 38, 87-95 against
# 85-92 at 40 and 122 against 87 at 60.
_FLOAT_PLAYERS = 35


def _plain_floats(x) -> bool:
    """Whether x is a list of 1 to `_FLOAT_PLAYERS` floats, which the float forms take.

    Anything else, ints and numeric strings included, goes through numpy's
    conversion, which gives each malformed input its error.
    """
    return type(x) is list and 0 < len(x) <= _FLOAT_PLAYERS and all(
        type(v) is float for v in x)


_NOT_POSITIVE = "benefit coefficients must be positive and finite, got {!r}"


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
        a = self.coefficients
        if _plain_floats(a):
            if not all(0.0 < x < math.inf for x in a):  # NaN fails both
                raise InvariantViolationError(_NOT_POSITIVE.format(a))
            terms, a = a, np.array(a)
        else:
            a = np.array(a, dtype=float)
            if a.ndim != 1 or a.size < 1:
                raise InvariantViolationError("profile needs a nonempty vector of coefficients")
            if np.count_nonzero((a > 0.0) & (a < math.inf)) != a.size:
                raise InvariantViolationError(_NOT_POSITIVE.format(a.tolist()))
            terms = a.tolist()
        try:
            h0 = math.fsum(terms)
        except OverflowError:  # finite coefficients whose sum passes the largest float
            raise InvariantViolationError("aggregate marginal at zero must be finite") from None
        a.setflags(write=False)
        if not h0 > 1.0:
            raise InvariantViolationError(
                f"aggregate marginal at zero must exceed 1, got {h0:.6g}"
            )
        g_star = h0 - 1.0
        # Frozen: the fields are set in the instance dict, as __init__ would.
        vars(self).update(coefficients=a, marginal_at_zero=h0, g_star=g_star,
                          optimal_payoff=h0 * math.log1p(g_star) - g_star)

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
