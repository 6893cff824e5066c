"""Efficiency analysis of the perturbed lottery without solving for equilibria.

Quantifies how far the induced public good can sit from its social optimum:
the reward threshold above which every player provably invests, closed-form
lower/upper bounds on the equilibrium good, and the resulting price-of-anarchy
sandwich. Also provides report-style checkers that grade a solved equilibrium
against the expected feasibility, bracketing, monotonicity, and bound
properties. Every closed form here takes one reward or a vector of them;
`analyze_sweep` grades a whole reward sweep in one pass over that vector.
Each closed form reads the same `_terms` (the perturbation total, the good
bracket and each player's slope at its top), built once per design point or
sweep: the reward threshold, both bound variants and the graded properties
all take it from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benefit import _FLOAT_PLAYERS, BenefitProfile
from .errors import InvariantViolationError
from .game import (
    TOL_ACTIVE,
    TOLERANCES,
    DesignPoint,
    EquilibriumResult,
    EquilibriumSweep,
    _good_sensitivities,
    _solve_sweep,
    _sweep_inputs,
)


@dataclass(frozen=True)
class PoaBounds:
    """Public-good bracket and price-of-anarchy sandwich at a design point.

    `g_lower`/`g_upper` always satisfy g_lower <= g_upper and contain the
    equilibrium good. `poa_lower`/`poa_upper` sandwich the true price of
    anarchy; either may be +inf when the corresponding payoff bound is
    nonpositive. `assured_active_count` is the number of players whose
    activity is certified by the reward-threshold criterion. Over a sweep
    each field is a vector over the rewards, and the invariants hold row by
    row.
    """

    g_lower: float
    g_upper: float
    poa_lower: float
    poa_upper: float
    assured_active_count: int

    def __post_init__(self):
        if isinstance(self.g_lower, np.ndarray):
            reversed_good = np.count_nonzero(self.g_lower > self.g_upper + 1e-9)
            ordered = np.all((1.0 - 1e-9 <= self.poa_lower) & (self.poa_lower <= self.poa_upper))
        else:
            reversed_good = self.g_lower > self.g_upper + 1e-9
            ordered = 1.0 - 1e-9 <= self.poa_lower <= self.poa_upper
        if reversed_good:
            raise InvariantViolationError("public-good bounds are out of order")
        if not ordered:
            raise InvariantViolationError("price-of-anarchy bounds are out of order")


@dataclass(frozen=True)
class SweepAnalysis:
    """A graded reward sweep: entry k of each vector belongs to reward k.

    `bounds` is the statement variant and `proof_bounds` the tightened one;
    `ok[k]` says every property that applies at reward k holds.
    """

    equilibria: EquilibriumSweep
    poa_true: np.ndarray
    bounds: PoaBounds
    proof_bounds: PoaBounds
    ok: np.ndarray


# The closed forms below take one reward as a float or a sweep's rewards as a
# vector. The few elementwise steps that branch dispatch on that: at one design
# point plain floats (per player, a list) are several times cheaper than numpy.


def _terms(profile: BenefitProfile, c_bar: float, R=0.0) -> tuple:
    # What every closed form at c_bar reads, computed once: c_bar, the good
    # bracket (lo, hi) and each player's slope at hi, per player: a column
    # over a sweep, a list at one reward, divided on floats up to
    # _FLOAT_PLAYERS players (hi >= 0, so `slopes` would not raise).
    lo, hi = profile.good_bracket(c_bar)
    if isinstance(R, np.ndarray):
        slopes = profile.slopes(hi)[:, None]
    elif profile.n_players <= _FLOAT_PLAYERS:
        g1 = hi + 1.0
        slopes = [a / g1 for a in profile.coefficients.tolist()]
    else:
        slopes = profile.slopes(hi).tolist()
    return c_bar, lo, hi, slopes


def _player_min(R, f, *per_player):
    # min over the players of f of their entries (`_player_count`: how many f
    # holds for): a vector over a sweep's rewards R, a number at one reward.
    return f(*per_player).min(axis=0) if isinstance(R, np.ndarray) else min(map(f, *per_player))


def _player_count(R, f, *per_player):
    return f(*per_player).sum(axis=0) if isinstance(R, np.ndarray) else sum(map(f, *per_player))


def _aggregate_payoff(profile: BenefitProfile, g):
    # sum_i h_i(g) - g. A single good goes through math.log1p, whose last bit
    # numpy's log1p does not always match, so single-point reports keep it.
    if isinstance(g, np.ndarray) and g.ndim:
        return profile.marginal_at_zero * np.log1p(g) - g
    return profile.aggregate_value(g) - g


def _poa(opt: float, payoff):
    # The socially optimal payoff `opt` over `payoff`, +inf where that is <= 0.
    if isinstance(payoff, np.ndarray):
        with np.errstate(divide="ignore"):
            return opt / np.maximum(payoff, 0.0)
    return opt / payoff if payoff > 0.0 else math.inf


def _order(x, y):
    # (min, max) of x and y, elementwise.
    if isinstance(x, np.ndarray):
        return np.minimum(x, y), np.maximum(x, y)
    return (x, y) if x <= y else (y, x)


def _select(cond, x, y):
    # x where cond holds, else y, elementwise.
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _invert(h0: float, arg, lo: float, hi: float):
    # H^-1(arg) = h0/arg - 1 clamped to [lo, hi]. An argument <= 0 puts no
    # ceiling on the good, which clamps to hi; one at or above H(0) = h0
    # puts the good at or below zero, which clamps to lo.
    if isinstance(arg, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.minimum(np.maximum(h0 / np.maximum(arg, 0.0) - 1.0, lo), hi)
    return min(max(h0 / arg - 1.0, lo), hi) if arg > 0.0 else hi


def reward_threshold(profile: BenefitProfile, c) -> float:
    """Smallest reward beyond which every player provably invests.

    The root of R/(R + G_U - c_bar) = m for the worst-case marginal shortfall
    m = max_i (1 - h_i'(G_U)) with G_U = max(G*, c_bar), in closed form
    m*(G_U - c_bar)/(1 - m). Returns 0 when m <= 0 or when G_U = c_bar
    (either way any positive reward suffices). Raises InvariantViolationError
    when c_bar < G* but a slope at G* is too small for m to differ from 1.
    """
    return _threshold(_terms(profile, math.fsum(np.asarray(c, dtype=float).tolist())))


def _threshold(terms: tuple) -> float:
    # `reward_threshold` from the `_terms` at one reward or over a sweep.
    c_bar, _, g_upper, slopes = terms
    gap = g_upper - c_bar
    # The perturbation total carries rounding; a budget at the optimum must
    # yield a zero threshold, not a rounding-sized one.
    if gap <= 1e-9 * max(1.0, g_upper):
        return 0.0
    m = 1.0 - (float(slopes.min()) if isinstance(slopes, np.ndarray) else min(slopes))
    if m >= 1.0:
        raise InvariantViolationError(
            "marginal shortfall rounds to 1 below the optimum: no finite threshold")
    return 0.0 if m <= 0.0 else m * gap / (1.0 - m)


def _compute_bounds(profile: BenefitProfile, terms: tuple, R, proof: bool):
    """(g_lower, g_upper, poa_lower, poa_upper, assured count) at reward(s) R,
    and the aggregate payoffs (lower, upper) at those two goods.

    Each bound inverts H at a formula's argument and clamps the good to the
    feasible bracket [gl, gu]. An argument above H(0) would place the good
    below zero: the bound is vacuous there and clamps to gl. `proof` selects
    the tightened variant, which puts the far bound into the near bound's
    numerator; otherwise the statement variant.
    """
    c_bar, gl, gu, slopes = terms
    n = profile.n_players
    h0 = profile.marginal_at_zero
    # Players whose activity the threshold criterion certifies: those with
    # R/(R + gu - c_bar) + h_i'(gu) - 1 > 0, compared without the subtraction,
    # which would lose a slope below the float spacing of 1.
    share = (gu - c_bar) / (R + gu - c_bar)
    k = _player_count(R, lambda slope: slope > share, slopes)

    if c_bar <= profile.g_star:
        # Far end: the good can fall short of the optimum by at most this much.
        g_far = _invert(h0, (n - 1) * (gu - c_bar) / (R + gl - c_bar) + 1.0, gl, gu)
        # Near end: how close to the optimum the good is guaranteed to sit.
        near = g_far if proof else gl - c_bar
        g_near = _invert(h0, (k - 1) * near / (R + gu - c_bar) + 1.0, gl, gu)
    else:
        den_far = R + gl - c_bar  # can be nonpositive when c_bar >= R + G*
        # There the far end stays at gu, where a zero argument inverts to.
        positive = den_far > 0.0
        arg_far = (k - 1) * (gl - c_bar) / _select(positive, den_far, 1.0) + 1.0
        g_far = _invert(h0, _select(positive, arg_far, 0.0), gl, gu)
        g_near = _invert(h0, (n - 1) * (gu - c_bar) / (R + gu - c_bar) + 1.0, gl, gu)
    p_low, p_high = _order(_aggregate_payoff(profile, g_far), _aggregate_payoff(profile, g_near))
    opt = profile.optimal_payoff
    return (*_order(g_far, g_near), _poa(opt, p_high), _poa(opt, p_low), k), (p_low, p_high)


def true_poa(profile: BenefitProfile, eq: EquilibriumResult) -> float:
    """Socially optimal payoff over the solved equilibrium's aggregate payoff."""
    return float(_poa(profile.optimal_payoff, _aggregate_payoff(profile, eq.G)))


def _graded(profile: BenefitProfile, terms: tuple, c, R, G, s, payoffs, threshold) -> list:
    """Each property as (name, margin, holds, rules) at reward(s) R.

    R and G are floats, or vectors over a sweep's rewards; c, s and the
    slopes in `terms` are per player, s players x rewards over a sweep;
    `payoffs` is the aggregate payoff (lower, upper) at the statement-variant
    good bounds, as `_compute_bounds` returns it. A rule
    (condition, reason) marks where the property does not apply; the first
    rule that holds gives the reason, a format string over `reward` and
    `threshold`.
    """
    floor = TOLERANCES["property_margin"]["value"]
    n = profile.n_players
    c_bar, lo, hi, slopes = terms
    g_star = profile.g_star

    pool = G + R - c_bar
    bracketed = _order(G - lo, hi - G)[0]
    inactive = (_player_min(R, lambda x: x, s) <= TOL_ACTIVE,
                "sensitivity formulas require every player active")
    dG_dR, dG_dc = _good_sensitivities(profile.marginal_at_zero, n, R, c_bar, G)
    if abs(c_bar - g_star) <= TOLERANCES["equality_case"]["value"]:
        margin = TOLERANCES["equality_reward_sensitivity"]["value"] - abs(dG_dR)
        reward_sensitivity = (margin, margin >= 0.0, [inactive])
        perturbation_sensitivity = (dG_dc, True, [inactive, (
            True, "perturbation total equals the social optimum (equality case)")])
    else:
        margin = math.copysign(1.0, g_star - c_bar) * dG_dR
        reward_sensitivity = (margin, margin >= floor, [inactive])
        # A lone player's good is pinned by its own first-order condition;
        # perturbations cannot move it, so a positive sensitivity is vacuous there.
        perturbation_sensitivity = (dG_dc, dG_dc > 0.0, [inactive, (
            n == 1, "single-player instance: perturbations cannot move the good")])
    # Per-player investment floor c_i + R (R/(R + hi - c_bar) + h_i'(hi) - 1),
    # asserted above the reward threshold.
    base = R / (R + hi - c_bar)
    floor_margin = _player_min(
        R, lambda s_i, c_i, slope: s_i - (c_i + R * (base + slope - 1.0)), s, c, slopes)
    # Aggregate payoff must land inside the closed-form sandwich.
    p_eq = _aggregate_payoff(profile, G)
    p_low, p_high = payoffs
    sandwich = _order(p_eq - p_low, p_high - p_eq)[0]
    return [
        ("pool_covers_perturbation", pool, pool >= floor, [
            (n == 1, "single-player instance is outside the property's hypothesis"),
            (abs(G - g_star) > TOLERANCES["optimum_attained"]["value"],
             "equilibrium good differs from the social optimum")]),
        ("good_bracketed", bracketed, bracketed >= floor, []),
        ("reward_sensitivity_sign", *reward_sensitivity),
        ("perturbation_sensitivity_sign", *perturbation_sensitivity),
        ("investment_lower_bound", floor_margin, floor_margin >= floor, [
            (R <= threshold, "reward {reward:.6g} not above threshold {threshold:.6g}")]),
        ("payoff_sandwich", sandwich,
         sandwich >= TOLERANCES["payoff_sandwich_margin"]["value"], []),
    ]


def check_properties(profile: BenefitProfile, design: DesignPoint,
                     eq: EquilibriumResult) -> list[dict]:
    """Grade a solved equilibrium against the feasibility and bound properties.

    Returns the report's property rows, one dict per property with keys
    "property", "holds", "margin" and "skipped_reason": a pass/fail with its
    margin (negative means violated), or None, None and the reason the
    property does not apply at this design point. The bracket, slopes,
    threshold and statement bounds are computed once, each a float or a list
    of floats per player; up to `_FLOAT_PLAYERS` players the slopes are
    divided on floats too, so the grade does no numpy arithmetic.
    """
    R = design.reward
    terms = _terms(profile, design.perturbation_total)
    threshold = _threshold(terms)
    bounds, payoffs = _compute_bounds(profile, terms, R, False)
    PoaBounds(*bounds)  # the order checks
    rows = []
    for name, margin, holds, rules in _graded(
            profile, terms, design.perturbation.tolist(), R, eq.G, eq.s_star.tolist(),
            payoffs, threshold):
        for skip, why in rules:
            if skip:
                rows.append({"property": name, "holds": None, "margin": None,
                             "skipped_reason": why.format(reward=R, threshold=threshold)})
                break
        else:
            rows.append({"property": name, "holds": bool(holds), "margin": float(margin),
                         "skipped_reason": None})
    return rows


def analyze_sweep(profile: BenefitProfile, c, rewards) -> SweepAnalysis:
    """Solve, bound and grade every reward of a sweep in one pass.

    One batched root-find (`solve_sweep`) gives the equilibria. Both bound
    variants, the true price of anarchy and the properties of
    `check_properties` are evaluated over the reward vector, each once per
    sweep, and the bracket, slopes and reward threshold once.
    """
    return _analyze_sweep(profile, *_sweep_inputs(profile, c, rewards))


def _analyze_sweep(profile: BenefitProfile, c: np.ndarray, c_bar: float,
                   rewards: np.ndarray) -> SweepAnalysis:
    # `analyze_sweep` on inputs already checked, as `_sweep_inputs` returns them.
    eq = _solve_sweep(profile, c, c_bar, rewards)
    R = eq.rewards
    terms = _terms(profile, c_bar, R)
    (bounds, payoffs), (proof, _) = (_compute_bounds(profile, terms, R, tight)
                                     for tight in (False, True))
    bounds, proof = PoaBounds(*bounds), PoaBounds(*proof)
    ok = np.ones(R.shape, dtype=bool)
    for _, _, holds, rules in _graded(profile, terms, c[:, None], R, eq.G, eq.s_star.T,
                                      payoffs, _threshold(terms)):
        skipped = False
        for skip, _ in rules:
            skipped = skipped | skip
        ok &= holds | skipped
    poa = _poa(profile.optimal_payoff, _aggregate_payoff(profile, eq.G))
    return SweepAnalysis(eq, poa, bounds, proof, ok)
