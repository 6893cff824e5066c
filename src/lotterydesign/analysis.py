"""Efficiency analysis of the perturbed lottery without solving for equilibria.

Quantifies how far the induced public good can sit from its social optimum:
the reward threshold above which every player provably invests, closed-form
lower/upper bounds on the equilibrium good, and the resulting price-of-anarchy
sandwich. Also provides report-style checkers that grade a solved equilibrium
against the expected feasibility, bracketing, monotonicity, and bound
properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .benefit import BenefitProfile
from .errors import DegenerateBoundError, InvariantViolationError, OutOfCodomainError
from .game import (
    DesignPoint,
    EquilibriumResult,
    LotteryInstance,
    equilibrium_sensitivities,
    solve_equilibrium,
)

# Tolerance for treating the perturbation total as equal to the optimum.
_EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class PoaBounds:
    """Public-good bracket and price-of-anarchy sandwich at a design point.

    `g_lower`/`g_upper` always satisfy g_lower <= g_upper and contain the
    equilibrium good. `poa_lower`/`poa_upper` sandwich the true price of
    anarchy; either may be +inf when the corresponding payoff bound is
    nonpositive. `assured_active_count` is the number of players whose
    activity is certified by the reward-threshold criterion.
    """

    g_lower: float
    g_upper: float
    poa_lower: float
    poa_upper: float
    assured_active_count: int

    def __post_init__(self):
        if self.g_lower > self.g_upper + 1e-9:
            raise InvariantViolationError("public-good bounds are out of order")
        if not (1.0 - 1e-9 <= self.poa_lower <= self.poa_upper):
            raise InvariantViolationError("price-of-anarchy bounds are out of order")


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one graded property: pass/fail with margin, or skipped."""

    name: str
    holds: bool | None
    margin: float | None
    skipped_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "property": self.name,
            "holds": self.holds,
            "margin": self.margin,
            "skipped_reason": self.skipped_reason,
        }


def reward_threshold(profile: BenefitProfile, c) -> float:
    """Smallest reward beyond which every player provably invests.

    Solves R/(R + G_U - c_bar) = m for the worst-case marginal shortfall
    m = max_i (1 - h_i'(G_U)) with G_U = max(G*, c_bar). Returns 0 when m <= 0
    or when G_U = c_bar (either way any positive reward suffices). A bisection
    solve is cross-checked against the closed form m*(G_U - c_bar)/(1 - m).
    """
    c = np.asarray(c, dtype=float)
    c_bar = float(c.sum())
    g_star = profile.socially_optimal_good()
    g_upper = max(g_star, c_bar)
    m = 1.0 - float(profile.slopes(g_upper).min())
    if m >= 1.0:  # pragma: no cover - slopes are strictly positive
        raise InvariantViolationError("marginal shortfall reached 1; slopes must be positive")
    if m <= 0.0:
        return 0.0
    gap = g_upper - c_bar
    # The computed optimum carries root-solve noise; a budget at the optimum
    # must yield a zero threshold, not a noise-sized one.
    if gap <= 1e-9 * max(1.0, g_upper):
        return 0.0
    closed = m * gap / (1.0 - m)
    hi = max(1.0, 2.0 * closed)
    while hi / (hi + gap) < m:  # pragma: no cover - closed form seeds the bracket
        hi *= 2.0
    root = brentq(lambda r: r / (r + gap) - m, 0.0, hi, xtol=1e-10, rtol=8.9e-16)
    if abs(root - closed) > 1e-6 * max(1.0, abs(closed)):  # pragma: no cover
        raise InvariantViolationError(
            f"threshold bisection ({root!r}) disagrees with closed form ({closed!r})"
        )
    return float(root)


def assured_active_count(profile: BenefitProfile, design: DesignPoint) -> int:
    """Players whose equilibrium activity the threshold criterion certifies.

    Counts strict positives of R/(R + G_U - c_bar) + h_i'(G_U) - 1; a value of
    exactly zero does not count.
    """
    c_bar = design.perturbation_total
    g_upper = max(profile.socially_optimal_good(), c_bar)
    R = design.reward
    base = R / (R + g_upper - c_bar)
    return int(np.count_nonzero(base + profile.slopes(g_upper) - 1.0 > 0.0))


def _guarded_invert(profile, arg: float, side: str, strict: bool,
                    bracket_lo: float, bracket_hi: float) -> float:
    """Invert H at a bound-formula argument, resolving vacuous cases.

    Arguments <= 0 mean the formula puts no ceiling on the good (+inf), which
    clamps to the high end of the feasible bracket. Arguments above H(0) would
    place the good below zero; `strict` surfaces that as a degenerate-bound
    error, otherwise it clamps to the low end. Arguments within root-solve
    noise of H(0) count as the boundary (good = 0).
    """
    h0 = profile.marginal_at_zero
    try:
        g = profile.invert_aggregate(arg)
    except OutOfCodomainError:
        if arg <= h0 * (1.0 + 1e-9):
            g = 0.0
        elif strict:
            raise DegenerateBoundError(side, arg, h0) from None
        else:
            return bracket_lo
    if math.isinf(g):
        return bracket_hi
    return min(max(g, bracket_lo), bracket_hi)


def _compute_bounds(profile: BenefitProfile, design: DesignPoint,
                    variant: str, strict: bool) -> PoaBounds:
    if variant not in ("statement", "proof"):
        raise ValueError(f"unknown bound variant {variant!r}")
    R = design.reward
    c_bar = design.perturbation_total
    g_star = profile.socially_optimal_good()
    gl, gu = min(g_star, c_bar), max(g_star, c_bar)
    n = profile.n_players
    k = assured_active_count(profile, design)

    if c_bar <= g_star:
        # Far end: the good can fall short of the optimum by at most this much.
        den_far = R + gl - c_bar  # equals R
        g_far = _guarded_invert(
            profile, (n - 1) * (gu - c_bar) / den_far + 1.0, "far", strict, gl, gu
        )
        # Near end: how close to the optimum the good is guaranteed to sit.
        den_near = R + gu - c_bar
        if variant == "statement":
            arg_near = (k - 1) * (gl - c_bar) / den_near + 1.0
        else:
            arg_near = (k - 1) * g_far / den_near + 1.0
        g_near = _guarded_invert(profile, arg_near, "near", strict, gl, gu)
    else:
        den_far = R + gl - c_bar  # can be nonpositive when c_bar >= R + G*
        if den_far <= 0.0:
            g_far = gu
        else:
            g_far = _guarded_invert(
                profile, (k - 1) * (gl - c_bar) / den_far + 1.0, "far", strict, gl, gu
            )
        g_near = _guarded_invert(
            profile, (n - 1) * (gu - c_bar) / (R + gu - c_bar) + 1.0,
            "near", strict, gl, gu,
        )

    opt = profile.aggregate_value(g_star) - g_star
    payoffs = sorted(
        profile.aggregate_value(g) - g for g in (g_far, g_near)
    )
    poa_lower = opt / payoffs[1] if payoffs[1] > 0.0 else math.inf
    poa_upper = opt / payoffs[0] if payoffs[0] > 0.0 else math.inf
    return PoaBounds(
        g_lower=min(g_far, g_near),
        g_upper=max(g_far, g_near),
        poa_lower=poa_lower,
        poa_upper=poa_upper,
        assured_active_count=k,
    )


def public_good_bounds(profile: BenefitProfile, design: DesignPoint,
                       variant: str = "statement") -> PoaBounds:
    """Closed-form bracket for the equilibrium public good at a design point.

    Raises DegenerateBoundError when a bound formula leaves the invertible
    range of H (the bound is vacuous at this design point). The "proof"
    variant substitutes the far bound into the near-bound numerator, which
    tightens it whenever at least two players are certifiably active.
    """
    return _compute_bounds(profile, design, variant, strict=True)


def poa_bounds(profile: BenefitProfile, design: DesignPoint,
               variant: str = "statement") -> PoaBounds:
    """Price-of-anarchy sandwich; degenerate bound formulas map to +inf."""
    return _compute_bounds(profile, design, variant, strict=False)


def true_poa(instance: LotteryInstance, design: DesignPoint,
             eq: EquilibriumResult | None = None) -> float:
    """Socially optimal payoff over the solved equilibrium's aggregate payoff."""
    if eq is None:
        eq = solve_equilibrium(instance, design)
    profile = instance.profile
    opt = profile.socially_optimal_payoff()
    actual = profile.aggregate_value(eq.G) - eq.G
    if actual <= 0.0:
        return math.inf
    return float(opt / actual)


def check_properties(instance: LotteryInstance, design: DesignPoint,
                     eq: EquilibriumResult, *,
                     bounds: PoaBounds | None = None) -> list[PropertyCheck]:
    """Grade a solved equilibrium against the feasibility and bound properties.

    Report-only: every entry carries a margin (negative means violated) or a
    reason the property does not apply at this design point. `bounds` are the
    statement-variant `poa_bounds` at this point when the caller already holds
    them; None computes them here.
    """
    profile = instance.profile
    n = instance.n_players
    R = design.reward
    c = design.perturbation
    c_bar = design.perturbation_total
    g_star = profile.socially_optimal_good()
    G = eq.G
    all_active = len(eq.active_set) == n
    at_equality = abs(c_bar - g_star) <= _EQUALITY_TOL
    checks: list[PropertyCheck] = []

    # Feasibility of the pool whenever the design achieves the optimum.
    if n == 1:
        checks.append(PropertyCheck(
            "pool_covers_perturbation", None, None,
            "single-player instance is outside the property's hypothesis"))
    elif abs(G - g_star) > 1e-6:
        checks.append(PropertyCheck(
            "pool_covers_perturbation", None, None,
            "equilibrium good differs from the social optimum"))
    else:
        margin = G + R - c_bar
        checks.append(PropertyCheck(
            "pool_covers_perturbation", margin >= -1e-9, margin))

    # The good always sits between the perturbation total and the optimum.
    lo, hi = min(c_bar, g_star), max(c_bar, g_star)
    margin = min(G - lo, hi - G)
    checks.append(PropertyCheck("good_bracketed", margin >= -1e-9, margin))

    if not all_active:
        reason = "sensitivity formulas require every player active"
        checks.append(PropertyCheck("reward_sensitivity_sign", None, None, reason))
        checks.append(PropertyCheck("perturbation_sensitivity_sign", None, None, reason))
    else:
        dG_dR, dG_dc = equilibrium_sensitivities(instance, design, eq)
        if at_equality:
            margin = 1e-8 - abs(dG_dR)
            checks.append(PropertyCheck("reward_sensitivity_sign", margin >= 0.0, margin))
            checks.append(PropertyCheck(
                "perturbation_sensitivity_sign", None, None,
                "perturbation total equals the social optimum (equality case)"))
        else:
            margin = math.copysign(1.0, g_star - c_bar) * dG_dR
            checks.append(PropertyCheck("reward_sensitivity_sign", margin >= -1e-9, margin))
            if n == 1:
                # A lone player's good is pinned by its own first-order
                # condition; perturbations cannot move it, so strict
                # positivity is vacuous here.
                checks.append(PropertyCheck(
                    "perturbation_sensitivity_sign", None, None,
                    "single-player instance: perturbations cannot move the good"))
            else:
                margin = float(np.min(dG_dc))
                checks.append(PropertyCheck(
                    "perturbation_sensitivity_sign", margin > 0.0, margin))

    # Per-player investment floor, asserted above the reward threshold.
    r_l = reward_threshold(profile, c)
    if R <= r_l:
        checks.append(PropertyCheck(
            "investment_lower_bound", None, None,
            f"reward {R:.6g} not above threshold {r_l:.6g}"))
    else:
        gu = max(g_star, c_bar)
        base = R / (R + gu - c_bar)
        floors = c + R * (base + profile.slopes(gu) - 1.0)
        margin = float(np.min(eq.s_star - floors))
        checks.append(PropertyCheck("investment_lower_bound", margin >= -1e-9, margin))

    # Aggregate payoff must land inside the closed-form sandwich.
    pb = bounds if bounds is not None else poa_bounds(profile, design)
    payoff_eq = profile.aggregate_value(G) - G
    p_at = sorted(profile.aggregate_value(g) - g for g in (pb.g_lower, pb.g_upper))
    margin = min(payoff_eq - p_at[0], p_at[1] - payoff_eq)
    checks.append(PropertyCheck("payoff_sandwich", margin >= -1e-7, margin))
    return checks
