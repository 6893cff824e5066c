"""Perturbed fixed-prize lottery game: payoffs and equilibrium.

Players simultaneously invest s_i >= 0. If total investment covers the reward
R, player i receives the reward share (s_i - c_i)/(sum_j s_j - sum_j c_j)*R,
benefit h_i(sum_j s_j - R) from the financed public good, and pays s_i;
otherwise the lottery is canceled and everyone gets zero. The designer-chosen
offsets c_i shift each player's winning odds while the shares still sum to one.
The game is the players' `BenefitProfile` and a `DesignPoint` (R, c): every
function here takes the profile first.

The equilibrium is one scalar root in the good G of the players' clipped
closed-form investments (the share-function method for aggregative games).
One method finds it, Chandrupatla's, on one definition of that root's
equation, `_phi`, in two mirrored loops: `_chandrupatla_scalar` iterates on
plain floats at one design point (`solve_equilibrium`, 0.05-0.2 ms), and
`_chandrupatla` iterates on numpy vectors over all rewards of a sweep at once
(`solve_sweep`). The vector loop pays 60-100 microseconds of array calls per
step whatever the number of rewards, so it only pays off over many rewards:
a 200-reward sweep is about ten times faster than a `solve_equilibrium` loop
over it. Step for step the two loops are the same, and `_sum_players` adds
the players in one order at every shape, so at the same design point both
drivers return the same bits (good, pool, investments and largest FOC
violation), the same root included where Phi has several. A root of Phi
meets the first-order conditions only; `certify_equilibrium` says whether it
is a Nash equilibrium of the literal payoff, from each player's best
deviation in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .benefit import BenefitProfile
from .errors import (
    DomainError,
    InfeasibleRegimeError,
    InvariantViolationError,
    NonconvergenceError,
    SingularPoolError,
)

# Investments below this are reported as inactive.
TOL_ACTIVE = 1e-9
# Tolerances baked into pass/fail decisions, with their origin; every report
# states this table.
TOLERANCES = {
    "foc_residual": {"value": 1e-8, "origin": "equilibrium solver contract"},
    "deviation_gain": {
        "value": 1e-6, "origin": "largest certified unilateral gain at an equilibrium"},
    "constraint_residual": {"value": 1e-7, "origin": "design verification contract"},
    "good_gap": {"value": 1e-6, "origin": "design verification contract"},
    "payoff_gap": {"value": 1e-6, "origin": "design verification contract"},
    "prediction_gap": {"value": 1e-6, "origin": "design verification contract"},
    "property_margin": {"value": -1e-9, "origin": "property checker contract"},
    "payoff_sandwich_margin": {"value": -1e-7, "origin": "property checker contract"},
    "equality_reward_sensitivity": {
        "value": 1e-8, "origin": "property checker: largest |dG/dR| when sum(c) = G*"},
    "equality_case": {
        "value": 1e-9, "origin": "property checker: largest |sum(c) - G*| treated as equal"},
    "optimum_attained": {
        "value": 1e-6, "origin": "property checker: largest |G - G*| treated as optimal"},
}
# Required accuracy of the first-order conditions at a returned equilibrium,
# and of sum s = G + R relative to max(1, G + R).
FOC_TOL = TOLERANCES["foc_residual"]["value"]
# Smallest admissible pool when bracketing the aggregate FOC.
_POOL_FLOOR = 1e-12
# Both Chandrupatla loops stop where |Phi| is at most the smallest normal
# float, and give up after one step per binade of the normal floats.
_TINY = float(np.finfo(float).smallest_normal)
_MAX_STEPS = 2046
# Root tolerances of both loops: the absolute and relative bracket widths at
# which they stop. The absolute width is only a floor, so a root is found to
# a few ulps at any scale: a fixed 1e-14 left a good near 0.01 with 1e-12
# relative error.
_XTOL, _RTOL = _TINY, 8.9e-16
_NO_ROOT = ("aggregate first-order condition has no root with a positive pool; "
            "total perturbation exceeds what the reward and public good can cover")


@dataclass(frozen=True)
class DesignPoint:
    """The planner's decision: reward R > 0 and perturbation vector c >= 0."""

    reward: float
    perturbation: np.ndarray
    perturbation_total: float = field(init=False)

    def __post_init__(self):
        if not (self.reward > 0.0) or not math.isfinite(self.reward):
            raise InvariantViolationError(f"reward must be positive, got {self.reward!r}")
        c = _checked_perturbation(self.perturbation)
        object.__setattr__(self, "perturbation", c)
        object.__setattr__(self, "perturbation_total", float(c.sum()))


def _design_point(reward: float, c: np.ndarray) -> DesignPoint:
    # DesignPoint(reward, c), unchecked: R is finite > 0, `_checked_perturbation` made c.
    point = object.__new__(DesignPoint)
    point.__dict__.update(reward=reward, perturbation=c, perturbation_total=float(c.sum()))
    return point


def _checked_perturbation(c) -> np.ndarray:
    c = np.asarray(c, dtype=float).copy()
    if c.ndim != 1 or c.size < 1:
        raise InvariantViolationError("perturbation must be a nonempty vector")
    if np.count_nonzero((c >= 0.0) & (c < math.inf)) != c.size:  # NaN fails both
        raise InvariantViolationError("perturbation entries must be finite and >= 0")
    c.setflags(write=False)
    return c


@dataclass(frozen=True)
class EquilibriumResult:
    """Solved equilibrium with activity and consistency diagnostics."""

    s_star: np.ndarray
    active_set: tuple[int, ...]
    G: float
    pool: float
    max_foc_violation: float
    iterations: int


@dataclass(frozen=True)
class EquilibriumSweep:
    """Equilibria over a sweep's rewards: entry (or row) k belongs to rewards[k].

    `s_star` is rewards x players; `iterations` counts each reward's
    evaluations of Phi.
    """

    rewards: np.ndarray
    G: np.ndarray
    s_star: np.ndarray
    pool: np.ndarray
    max_foc_violation: np.ndarray
    iterations: np.ndarray


def _check_profile_shape(profile: BenefitProfile, design: DesignPoint, s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    n = profile.n_players
    if s.shape != (n,):
        raise DomainError(f"investment vector must have length {n}, got shape {s.shape}")
    if design.perturbation.shape != (n,):
        raise InvariantViolationError("design point does not match the player count")
    if np.count_nonzero(s < 0.0):
        raise DomainError("investments must be nonnegative")
    return s


def payoffs(profile: BenefitProfile, design: DesignPoint, s) -> np.ndarray:
    """Every player's payoff at investment profile s, in player order.

    All zeros when total investment falls short of the reward (the lottery is
    canceled and stakes are returned). With all perturbations zero this is the
    classic proportional-odds payoff. A negative reward share is kept as-is:
    the player pays that amount back to the planner.
    """
    return _payoffs(profile, design, _check_profile_shape(profile, design, s))


def _payoffs(profile: BenefitProfile, design: DesignPoint, s: np.ndarray) -> np.ndarray:
    # `payoffs` at a profile s already known to fit the game, such as a solved one.
    R = design.reward
    total = float(s.sum())
    if total < R:
        return np.zeros(profile.n_players)
    pool = total - design.perturbation_total
    if pool == 0.0:
        raise SingularPoolError(
            "total investment equals total perturbation: reward shares are undefined"
        )
    share = (s - design.perturbation) / pool
    return share * R + profile.values(total - R) - s


def _foc_residuals(a, c, c_bar, R, s) -> np.ndarray:
    # Every player's marginal payoff dU_k/ds_k at a validated profile s. Over
    # a sweep, s is players x rewards, a and c are columns and R is a vector.
    total = _sum_players(s)
    if np.count_nonzero(total < R):
        raise DomainError("first-order condition undefined while the lottery is canceled")
    pool = total - c_bar
    if np.count_nonzero(pool <= 0.0):
        raise SingularPoolError("first-order condition requires a positive pool")
    # pool * pool: a numpy float's pool**2 is not always the rounded product.
    return R * (pool - (s - c)) / (pool * pool) + a / (total - R + 1.0) - 1.0


def _phi(G, R, c_bar, a, neg_rc):
    """Phi at good G and reward R, the equation both drivers solve.

    At one design point G and R are floats, and a and neg_rc = -R*c are
    per-player vectors. Over a sweep G and R are vectors over the rewards,
    a is a column and neg_rc is players x rewards.
    """
    S = G + R - c_bar
    q = R / S
    return _sum_players(np.maximum(q - 1.0 + a / (G + 1.0), neg_rc / (S * S))) - q


def _sum_players(x):
    # Sum over the players (axis 0), added in index order at every shape, so
    # a reward's Phi, root and FOC residuals have the same bits at one point,
    # in a sweep and as a sweep's last open bracket. np.add.reduce adds in
    # that order down the columns of a players x rewards array, but sums one
    # column or a vector pairwise; np.add.accumulate adds in order and is no
    # slower there. Both skip the ndarray.sum wrapper: small games spend most
    # of a solve here.
    if x.ndim == 1 or x.shape[1] == 1:
        return np.add.accumulate(x)[-1]
    return np.add.reduce(x)


def _elementwise_max(x):
    # numpy's maximum over a sweep's vectors; at one design point the builtin,
    # several times cheaper on floats.
    return np.maximum if isinstance(x, np.ndarray) else max


def _bracket(R, c_bar, profile: BenefitProfile):
    # The profile's good bracket, padded and clipped to a positive pool; lo
    # is elementwise over a vector of rewards.
    maximum = _elementwise_max(R)
    deficit = c_bar - R
    g_floor = maximum(0.0, deficit + maximum(_POOL_FLOOR, 4e-16 * abs(deficit)))
    lo, hi = profile.good_bracket(c_bar)
    pad = 1e-12 * hi
    return maximum(g_floor, lo - pad), hi + pad


def _settle(a, c, c_bar, R, G):
    """Pool, investments, activity and largest FOC violation at a root G of Phi.

    Shapes as in `_phi`, with c shaped like a. Raises NonconvergenceError
    where sum s = G + R fails relative to max(1, G + R).
    """
    S = G + R - c_bar
    s = np.maximum(0.0, c + S - S * S * (1.0 - a / (G + 1.0)) / R)
    total = _sum_players(s)
    bad = abs(total - (G + R)) > FOC_TOL * _elementwise_max(G)(1.0, G + R)
    if np.count_nonzero(bad):
        k = np.argmax(bad)
        raise NonconvergenceError(
            f"aggregate consistency failed: sum s = {float(np.ravel(total)[k])!r} "
            f"vs G + R = {float(np.ravel(G + R)[k])!r}")
    # Active players must meet their FOC with equality, inactive ones as <= 0.
    active = s > TOL_ACTIVE
    res = _foc_residuals(a, c, c_bar, R, s)
    violation = np.where(active, np.abs(res), res).max(axis=0, initial=0.0)
    return S, s, active, violation


def solve_equilibrium(profile: BenefitProfile, design: DesignPoint) -> EquilibriumResult:
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
    catastrophically too. The root is bracketed by the profile's
    `good_bracket(c_bar)`, clipped to a positive pool, and found by
    Chandrupatla's method (`_chandrupatla_scalar`); with no sign change of Phi
    there, InfeasibleRegimeError is raised, and NonconvergenceError where the
    loop meets a non-finite value or its step cap. Where Phi has several roots
    in the bracket (possible when R < c_bar and inactive players carry
    perturbations), the one returned is the root the method converges to, not
    necessarily the smallest; it is the one `solve_sweep` returns, and a
    first-order-condition point there need not be a Nash equilibrium.
    `iterations` counts evaluations of Phi.
    """
    R = design.reward
    c = design.perturbation
    if c.shape != (profile.n_players,):
        raise InvariantViolationError("design point does not match the player count")
    c_bar = design.perturbation_total
    a = profile.coefficients
    neg_rc = -R * c
    lo, hi = _bracket(R, c_bar, profile)
    G, status, nfev = _chandrupatla_scalar(
        lambda G: float(_phi(G, R, c_bar, a, neg_rc)), lo, hi)
    if status == -1:
        raise InfeasibleRegimeError(_NO_ROOT)
    if status:
        raise NonconvergenceError(f"root-find failed with status {status}")
    S, s, active, violation = _settle(a, c, c_bar, R, G)
    s.setflags(write=False)
    return EquilibriumResult(
        s_star=s,
        active_set=tuple(np.nonzero(active)[0].tolist()),
        G=G,
        pool=float(S),
        max_foc_violation=float(violation),
        iterations=nfev,
    )


def solve_sweep(profile: BenefitProfile, c, rewards) -> EquilibriumSweep:
    """The equilibrium at every reward of a sweep, from one batched root-find.

    Solves Phi (see `solve_equilibrium`) on the same brackets, to the same
    tolerances and with the same checks, for all rewards at once with
    Chandrupatla's method. Raises InvariantViolationError for a reward that
    is not positive and finite, InfeasibleRegimeError when any reward's
    bracket holds no sign change, and NonconvergenceError when any row fails
    its consistency check.
    """
    rewards = np.asarray(rewards, dtype=float)
    if rewards.ndim != 1:
        raise InvariantViolationError("rewards must be a vector")
    bad = rewards[~((rewards > 0.0) & np.isfinite(rewards))]
    if bad.size:
        raise InvariantViolationError(f"reward must be positive, got {float(bad[0])!r}")
    c = _checked_perturbation(c)
    if c.shape != (profile.n_players,):
        raise InvariantViolationError("design point does not match the player count")
    c_bar = float(c.sum())
    a, c = profile.coefficients[:, None], c[:, None]
    neg_rc = -rewards * c
    lo, hi = _bracket(rewards, c_bar, profile)
    G, status, nfev = _chandrupatla(
        lambda G, k: _phi(G, rewards[k], c_bar, a, neg_rc[:, k]), lo, hi)
    if np.any(status == -1):
        raise InfeasibleRegimeError(_NO_ROOT)
    if np.any(status):
        raise NonconvergenceError(f"root-find failed with status {int(status.min())}")
    S, s, _, violation = _settle(a, c, c_bar, rewards, G)
    return EquilibriumSweep(rewards, G, s.T, S, violation, nfev)


def _chandrupatla(f, x1, x2):
    """Chandrupatla's method on the brackets [x1[k], x2[k]], all at once.

    f(x, k) evaluates the function of brackets k (an index vector) at x; x2
    may be a scalar. Step for step, and so bit for bit, this is SciPy 1.17's
    elementwise `find_root` with xatol = _XTOL, xrtol = _RTOL and its
    defaults otherwise; only the brackets still open are evaluated. Returns
    each bracket's root (NaN where none was found), status (0 converged, -1
    no sign change, -2 step cap reached, -3 non-finite value) and count of
    evaluations of f.
    """
    k = np.arange(x1.size)
    x2 = np.broadcast_to(x2, x1.shape)
    root = np.full(x1.size, np.nan)
    status = np.full(x1.size, -2)
    nfev = np.full(x1.size, 2 + _MAX_STEPS)
    f1, f2 = f(x1, k), f(x2, k)
    t = 0.5  # the first step bisects
    for step in range(_MAX_STEPS + 1):
        # Stop where the root is exact, where the bracket has no sign change
        # or a non-finite value (failures), or where it is narrow enough.
        near = abs(f1) < abs(f2)
        xmin = np.where(near, x1, x2)
        dx = abs(x2 - x1)
        tol = abs(xmin) * _RTOL + _XTOL
        converged = abs(np.where(near, f1, f2)) <= _TINY
        no_sign_change = ~converged & (np.sign(f1) == np.sign(f2))
        non_finite = ~(converged | no_sign_change) & (
            ~(np.isfinite(x1) & np.isfinite(x2)) | (np.isnan(f1) & np.isnan(f2)))
        converged |= ~(no_sign_change | non_finite) & (dx < tol)
        stop = converged | no_sign_change | non_finite
        if stop.any():
            done = k[stop]
            root[done] = np.where(converged, xmin, np.nan)[stop]
            status[done] = np.where(no_sign_change, -1, np.where(non_finite, -3, 0))[stop]
            nfev[done] = step + 2
            go = ~stop
            k, x1, f1, x2, f2, dx, tol = k[go], x1[go], f1[go], x2[go], f2[go], dx[go], tol[go]
            if step:
                x3, f3 = x3[go], f3[go]
        if not k.size or step == _MAX_STEPS:
            break
        if step:
            # Inverse quadratic interpolation through the last three points
            # where it is safe, else bisection; kept off the bracket ends.
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
                t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1.0 - tl)
        x = x1 + t * (x2 - x1)
        fx = f(x, k)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
    return root, status, nfev


def _sign(x):
    # np.sign on a float: 0.0 for either zero, NaN for NaN.
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else x


def _chandrupatla_scalar(f, x1, x2):
    """`_chandrupatla` on one bracket [x1, x2] of floats, f(x) a float.

    The same loop line for line on plain floats, so the same root, status
    and count of evaluations of f to the bit. Where numpy would divide by
    zero or take the root of a negative number inside the interpolation
    test, that test is false, so those errors mean bisection here.
    """
    x1, x2 = float(x1), float(x2)
    f1, f2 = f(x1), f(x2)
    t = 0.5  # the first step bisects
    for step in range(_MAX_STEPS + 1):
        # Stop where the root is exact, where the bracket has no sign change
        # or a non-finite value (failures), or where it is narrow enough.
        near = abs(f1) < abs(f2)
        xmin = x1 if near else x2
        dx = abs(x2 - x1)
        tol = abs(xmin) * _RTOL + _XTOL
        if abs(f1 if near else f2) <= _TINY:
            return xmin, 0, step + 2
        if _sign(f1) == _sign(f2):
            return math.nan, -1, step + 2
        if (not (math.isfinite(x1) and math.isfinite(x2))
                or (math.isnan(f1) and math.isnan(f2))):
            return math.nan, -3, step + 2
        if dx < tol:
            return xmin, 0, step + 2
        if step == _MAX_STEPS:
            break
        if step:
            # Inverse quadratic interpolation through the last three points
            # where it is safe, else bisection; kept off the bracket ends.
            t = 0.5
            try:
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                if 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
                    alpha = (x3 - x1) / (x2 - x1)
                    t = (f1 / (f1 - f2) * f3 / (f3 - f2)
                         - alpha * f1 / (f3 - f1) * f2 / (f2 - f3))
            except (ZeroDivisionError, ValueError):
                pass
            tl = 0.5 * tol / dx
            # np.clip: NaN stays NaN.
            t = min(max(t, tl), 1.0 - tl)
        x = x1 + t * (x2 - x1)
        fx = f(x)
        if _sign(fx) == _sign(f1):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
    return math.nan, -2, 2 + _MAX_STEPS


def certify_equilibrium(profile: BenefitProfile, design: DesignPoint, s) -> list[tuple]:
    """Each player's best unilateral deviation from profile s, in closed form.

    Returns one (gain, kind, witness) per player: the largest payoff gain
    over the player's own investment x >= 0 with the others held at s (+inf
    when unbounded), its kind, and an x that attains a finite gain (else
    None). With o = sum_{j != i} s_j, d = sum_{j != i}(s_j - c_j), the pool
    y = x + o - c_bar and x_lo = max(0, R - o), the least stake that keeps
    the lottery, the kinds are:

    - "cancel": x = 0 with o < R voids the lottery and pays 0;
    - "zero_pool": the reward share R(y - d)/y grows without bound as y -> 0
      from below when d > 0 and y(x_lo) < 0, or from above when d < 0 and
      y(x_lo) <= 0;
    - "interior": the best x on the positive-pool branch. There, with
      m = c_bar - R + 1, the payoff is u(y) = R(y - d)/y + a_i ln(y + m) - x,
      whose critical points are the real roots of the cubic
      -y^3 + (a_i - m) y^2 + R d y + R d m; u is compared at the real parts
      of its roots on the branch and at its start x_lo, and falls to -inf at
      the branch's other limits.

    s is a Nash equilibrium when no gain exceeds TOLERANCES["deviation_gain"].
    """
    s = _check_profile_shape(profile, design, s)
    R, c_bar = design.reward, design.perturbation_total
    m = c_bar - R + 1.0
    total = float(s.sum())
    trial = s.copy()
    certificate = []
    for i, (a_i, c_i, s_i, u_i) in enumerate(zip(
            profile.coefficients.tolist(), design.perturbation.tolist(),
            s.tolist(), _payoffs(profile, design, s).tolist())):
        o = total - s_i
        d = o - c_bar + c_i
        # R - o rounded may leave o + x_lo, or the summed profile, short of R:
        # step up to the least float stake that keeps the lottery by both.
        x_lo = trial[i] = max(0.0, R - o)
        while x_lo + o < R or trial.sum() < R:
            x_lo = trial[i] = math.nextafter(x_lo, math.inf)
        y_lo = float(trial.sum()) - c_bar
        if (d > 0.0 and y_lo < 0.0) or (d < 0.0 and y_lo <= 0.0):
            trial[i] = s_i
            certificate.append((math.inf, "zero_pool", None))
            continue

        def u(x):
            # The literal payoff of `_payoffs` with s_i = x, -inf where the
            # pool is zero: the value a witness is checked by.
            trial[i] = x
            t = float(trial.sum())
            if t < R:
                return 0.0
            pool = t - c_bar
            return (x - c_i) / pool * R + a_i * math.log1p(t - R) - x if pool else -math.inf

        roots = np.roots([-1.0, a_i - m, R * d, R * d * m]).real.tolist()
        value, x = max((u(x), x) for x in [0.0, x_lo] + [
            max(x_lo, y + c_bar - o) for y in roots if y > y_lo and y != 0.0])
        trial[i] = s_i
        certificate.append((value - u_i, "cancel" if x + o < R else "interior", x))
    return certificate


def _good_sensitivities(a_sum: float, n: int, R, c_bar: float, G):
    # dG/dR and the dG/dc_i common to all players; elementwise over vectors.
    S = R + G - c_bar
    den = S * S * (-a_sum / (G + 1.0) ** 2) - R * (n - 1)
    return -(G - c_bar) * (n - 1) / den, -R * (n - 1) / den
