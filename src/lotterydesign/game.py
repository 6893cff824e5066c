"""Perturbed fixed-prize lottery game: payoffs, equilibrium, sensitivities.

Players simultaneously invest s_i >= 0. If total investment covers the reward
R, player i receives the reward share (s_i - c_i)/(sum_j s_j - sum_j c_j)*R,
benefit h_i(sum_j s_j - R) from the financed public good, and pays s_i;
otherwise the lottery is canceled and everyone gets zero. The designer-chosen
offsets c_i shift each player's winning odds while the shares still sum to one.

The equilibrium is one scalar root in the good G of the players' clipped
closed-form investments (the share-function method for aggregative games).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .benefit import BenefitProfile
from .errors import (
    DomainError,
    InfeasibleRegimeError,
    InvariantViolationError,
    NonconvergenceError,
    SingularPoolError,
    UnsupportedRegimeError,
)

# Investments below this are reported as inactive.
TOL_ACTIVE = 1e-9
# Tolerances baked into pass/fail decisions, with their origin; every report
# states this table.
TOLERANCES = {
    "foc_residual": {"value": 1e-8, "origin": "equilibrium solver contract"},
    "constraint_residual": {"value": 1e-7, "origin": "design verification contract"},
    "good_gap": {"value": 1e-6, "origin": "design verification contract"},
    "payoff_gap": {"value": 1e-6, "origin": "design verification contract"},
    "prediction_gap": {"value": 1e-6, "origin": "design verification contract"},
    "property_margin": {"value": -1e-9, "origin": "property checker contract"},
}
# Required accuracy of the first-order conditions at a returned equilibrium,
# and of sum s = G + R relative to max(1, G + R).
FOC_TOL = TOLERANCES["foc_residual"]["value"]
# Smallest admissible pool when bracketing the aggregate FOC.
_POOL_FLOOR = 1e-12


@dataclass(frozen=True)
class LotteryInstance:
    """Game definition: the players' benefit profile."""

    profile: BenefitProfile

    @property
    def n_players(self) -> int:
        return self.profile.n_players


@dataclass(frozen=True)
class DesignPoint:
    """The planner's decision: reward R > 0 and perturbation vector c >= 0."""

    reward: float
    perturbation: np.ndarray
    perturbation_total: float = field(init=False)

    def __post_init__(self):
        if not (self.reward > 0.0) or not math.isfinite(self.reward):
            raise InvariantViolationError(f"reward must be positive, got {self.reward!r}")
        c = np.asarray(self.perturbation, dtype=float).copy()
        if c.ndim != 1 or c.size < 1:
            raise InvariantViolationError("perturbation must be a nonempty vector")
        if np.any(c < 0.0) or not np.all(np.isfinite(c)):
            raise InvariantViolationError("perturbation entries must be finite and >= 0")
        c.setflags(write=False)
        object.__setattr__(self, "perturbation", c)
        object.__setattr__(self, "perturbation_total", float(c.sum()))


@dataclass(frozen=True)
class EquilibriumResult:
    """Solved equilibrium with activity and consistency diagnostics."""

    s_star: np.ndarray
    active_set: tuple[int, ...]
    G: float
    pool: float
    max_foc_violation: float
    iterations: int


def _check_profile_shape(instance: LotteryInstance, design: DesignPoint, s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    n = instance.n_players
    if s.shape != (n,):
        raise DomainError(f"investment vector must have length {n}, got shape {s.shape}")
    if design.perturbation.shape != (n,):
        raise InvariantViolationError("design point does not match the player count")
    if np.any(s < 0.0):
        raise DomainError("investments must be nonnegative")
    return s


def payoff(instance: LotteryInstance, design: DesignPoint, s, i: int) -> float:
    """Player i's payoff at investment profile s.

    Returns 0 when total investment falls short of the reward (the lottery is
    canceled and stakes are returned). With all perturbations zero this is the
    classic proportional-odds payoff. A negative reward share is kept as-is:
    the player pays that amount back to the planner.
    """
    s = _check_profile_shape(instance, design, s)
    R = design.reward
    total = float(s.sum())
    if total < R:
        return 0.0
    pool = total - design.perturbation_total
    if pool == 0.0:
        raise SingularPoolError(
            "total investment equals total perturbation: reward shares are undefined"
        )
    share = (s[i] - design.perturbation[i]) / pool
    return float(share * R + instance.profile.values(total - R)[i] - s[i])


def _foc_residuals(instance: LotteryInstance, design: DesignPoint, s: np.ndarray) -> np.ndarray:
    # Every player's marginal payoff dU_k/ds_k at a validated profile s.
    R = design.reward
    total = float(s.sum())
    if total < R:
        raise DomainError("first-order condition undefined while the lottery is canceled")
    pool = total - design.perturbation_total
    if pool <= 0.0:
        raise SingularPoolError("first-order condition requires a positive pool")
    own = s - design.perturbation
    return R * (pool - own) / pool**2 + instance.profile.slopes(total - R) - 1.0


def foc_residual(instance: LotteryInstance, design: DesignPoint, s, i: int) -> float:
    """Marginal payoff dU_i/ds_i at profile s (the first-order-condition residual).

    Zero for active equilibrium players, nonpositive for inactive ones.
    """
    s = _check_profile_shape(instance, design, s)
    return float(_foc_residuals(instance, design, s)[i])


def solve_equilibrium(instance: LotteryInstance, design: DesignPoint) -> EquilibriumResult:
    """Compute the equilibrium at a design point by the share-function method.

    Given the good G, with pool S = G + R - c_bar, player k's first-order
    condition has the clipped closed form
    s_k(G) = max(0, c_k + S - S^2 (1 - h_k'(G)) / R), and the equilibrium good
    is a root of sum_k s_k(G) = G + R. Scaled by R/S^2 and shifted by the
    perturbations, that equation reads

        Phi(G) = sum_k max(R/S + h_k'(G) - 1, -R c_k / S^2) - R/S = 0,

    the aggregate first-order condition of the active players, with the max
    making the active/inactive choice. The unscaled form has a spurious root
    as S -> 0 and cancels catastrophically there. The good, not the pool, is
    the root variable: at large rewards recovering G from S would cancel
    catastrophically too. The root is bracketed by
    [min(c_bar, G*), max(c_bar, G*)], clipped to a positive pool; with no
    sign change of Phi there, InfeasibleRegimeError is raised. Where Phi has
    several roots in the bracket (possible when R < c_bar and inactive players
    carry perturbations), the one returned is the root Brent's method
    converges to, not necessarily the smallest; a first-order-condition point
    there need not be a Nash equilibrium. `iterations` counts evaluations of
    Phi.
    """
    n = instance.n_players
    R = design.reward
    c = design.perturbation
    if c.shape != (n,):
        raise InvariantViolationError("design point does not match the player count")
    c_bar = design.perturbation_total
    profile = instance.profile
    a = profile.coefficients
    neg_rc = -R * c

    def phi(G):
        S = G + R - c_bar
        terms = np.maximum(R / S - 1.0 + a / (G + 1.0), neg_rc / (S * S))
        # np.add.reduce skips the ndarray.sum wrapper: small games spend
        # most of a solve in these calls.
        return float(np.add.reduce(terms)) - R / S

    g_star = profile.socially_optimal_good()
    deficit = c_bar - R
    g_floor = max(0.0, deficit + max(_POOL_FLOOR, 4e-16 * abs(deficit)))
    pad = 1e-12 * max(c_bar, g_star)
    lo = max(g_floor, min(c_bar, g_star) - pad)
    hi = max(c_bar, g_star) + pad
    try:
        G, root = brentq(phi, lo, hi, xtol=1e-14, rtol=8.9e-16, full_output=True)
    except ValueError:  # Phi does not change sign on the bracket
        raise InfeasibleRegimeError(
            "aggregate first-order condition has no root with a positive pool; "
            "total perturbation exceeds what the reward and public good can cover"
        ) from None
    S = G + R - c_bar
    s = np.maximum(0.0, c + S - S * S * (1.0 - profile.slopes(G)) / R)

    total = float(s.sum())
    if abs(total - (G + R)) > FOC_TOL * max(1.0, G + R):
        raise NonconvergenceError(
            f"aggregate consistency failed: sum s = {total!r} vs G + R = {G + R!r}"
        )

    # Active players must meet their FOC with equality, inactive ones as <= 0.
    active = s > TOL_ACTIVE
    res = _foc_residuals(instance, design, s)
    violation = float(np.where(active, np.abs(res), res).max(initial=0.0))

    s.setflags(write=False)
    return EquilibriumResult(
        s_star=s,
        active_set=tuple(np.nonzero(active)[0].tolist()),
        G=float(G),
        pool=float(S),
        max_foc_violation=violation,
        iterations=root.function_calls,
    )


def _payoff_grid(instance, design, others_sum: float, c_i: float, a_i: float,
                 x: np.ndarray) -> np.ndarray:
    # Vectorized own-payoff over candidate investments x, opponents fixed.
    R = design.reward
    totals = x + others_sum
    out = np.zeros_like(x)
    on = totals >= R
    pools = totals[on] - design.perturbation_total
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = np.where(pools != 0.0, (x[on] - c_i) / pools, np.nan)
    vals = shares * R + a_i * np.log1p(totals[on] - R) - x[on]
    out[on] = np.where(np.isnan(vals), -np.inf, vals)
    return out


def best_response_oracle(instance: LotteryInstance, design: DesignPoint,
                         s_minus_i, i: int, tol: float = 1e-9) -> float:
    """Brute-force best response of player i to fixed opponent investments.

    Coarse grid scan over [0, s_hi] followed by golden-section refinement to
    `tol`; s_hi is expanded until the payoff is decreasing beyond it (the
    payoff falls like -s_i for large investments). Test oracle only: makes no
    use of first-order conditions.
    """
    s_minus_i = np.asarray(s_minus_i, dtype=float)
    n = instance.n_players
    if s_minus_i.shape != (n - 1,):
        raise DomainError(f"expected {n - 1} opponent investments, got {s_minus_i.shape}")
    others_sum = float(s_minus_i.sum())
    c_i = float(design.perturbation[i])
    a_i = float(instance.profile.coefficients[i])

    def u(x):
        return float(_payoff_grid(instance, design, others_sum, c_i, a_i,
                                  np.array([x]))[0])

    hi = max(1.0, 2.0 * (design.reward + design.perturbation_total + others_sum + 10.0))
    for _ in range(200):
        if u(hi) < u(hi / 2.0):
            break
        hi *= 2.0

    xs = np.linspace(0.0, hi, 4097)
    kink = max(0.0, design.reward - others_sum)
    if 0.0 < kink < hi:
        xs = np.sort(np.append(xs, [kink, np.nextafter(kink, hi)]))
    vals = _payoff_grid(instance, design, others_sum, c_i, a_i, xs)
    k = int(np.argmax(vals))
    lo = xs[max(k - 1, 0)]
    up = xs[min(k + 1, xs.size - 1)]

    # Golden-section maximization on [lo, up].
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, up
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = u(x1), u(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = u(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = u(x2)
    x_star = (a + b) / 2.0
    # The canceled-lottery plateau and boundary can beat the interior point.
    candidates = [(u(0.0), 0.0), (u(x_star), x_star)]
    if 0.0 < kink < hi:
        candidates.append((u(kink), kink))
    return max(candidates)[1]


def equilibrium_sensitivities(instance: LotteryInstance, design: DesignPoint,
                              eq: EquilibriumResult) -> tuple[float, np.ndarray]:
    """Closed-form dG/dR and dG/dc_i at an all-active equilibrium.

    Implicit differentiation of the aggregate first-order condition gives
    dG/dR = -(G - c_bar)(N-1) / D and dG/dc_i = -R(N-1) / D with
    D = (R + G - c_bar)^2 * sum_i h_i''(G) - R(N-1) < 0.
    """
    n = instance.n_players
    if len(eq.active_set) != n:
        raise UnsupportedRegimeError(
            "sensitivity formulas require every player active; "
            f"only {len(eq.active_set)} of {n} are"
        )
    R = design.reward
    c_bar = design.perturbation_total
    G = eq.G
    S = R + G - c_bar
    den = S * S * instance.profile.aggregate_curvature(G) - R * (n - 1)
    dG_dR = -(G - c_bar) * (n - 1) / den
    dG_dc = np.full(n, -R * (n - 1) / den)
    return float(dG_dR), dG_dc
