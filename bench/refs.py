"""Independent references for checking the program's outputs.

Nothing here imports `lotterydesign`: every quantity is recomputed from the
model's formulas with numpy and scipy, so a fault in the program cannot hide
in its own reference. All players have scaled-log benefits h_i(v) = a_i ln(1+v).

- `g_star`, `aggregate_payoff`, `poa_from_good`: closed forms of the social
  optimum, the aggregate payoff and the price of anarchy at a given good.
- `share_root_good`: the equilibrium good as the root of the aggregate share
  function (Cornes and Hartley, 2005), a different method from the program's
  active-set loop.
- `kkt_violation`: per-player first-order residuals from the payoff formula.
- `deviation_search`: a dense grid search over each player's own investment,
  including 0, the canceled-lottery region, the kink at R - sum_{j!=i} s_j and
  the negative-pool region.
- `design_lp_reference`: the reformulated design LP assembled from constraint
  rows and solved with HiGHS, once for R* and then once per coordinate for
  the lexicographically smallest optimal c*.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq, linprog


def g_star(a) -> float:
    """Social optimum: sum_i a_i/(G+1) = 1 gives G* = sum(a) - 1."""
    return float(np.sum(a)) - 1.0


def aggregate_payoff(a, G: float) -> float:
    """sum_i h_i(G) - G."""
    return float(np.sum(a)) * math.log1p(G) - G


def poa_from_good(a, G: float) -> float:
    """Socially optimal payoff over the payoff at good G (+inf if that is <= 0)."""
    actual = aggregate_payoff(a, G)
    return aggregate_payoff(a, g_star(a)) / actual if actual > 0.0 else math.inf


def share_root_good(a, c, R: float) -> float:
    """Equilibrium good as the root of sum_k s_k(G) = G + R.

    With pool S = G + R - sum(c), each player's clipped first-order condition
    gives s_k(G) = max(0, c_k + S - S^2 (1 - a_k/(G+1)) / R). Used for c = 0,
    where the residual is positive at G = 0 and negative at G = G*.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    c_bar = float(c.sum())

    def residual(G):
        S = G + R - c_bar
        s = np.maximum(0.0, c + S - S * S * (1.0 - a / (G + 1.0)) / R)
        return float(s.sum()) - (G + R)

    lo = max(0.0, c_bar - R) + 1e-300
    hi = max(g_star(a), c_bar, 1.0)
    while residual(hi) > 0.0:
        hi *= 2.0
    return brentq(residual, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                  maxiter=500)


def kkt_violation(a, c, R: float, s) -> float:
    """Largest first-order violation at profile s.

    dU_i/ds_i = R (S - (s_i - c_i)) / S^2 + a_i/(G+1) - 1 with S = sum(s) -
    sum(c) and G = sum(s) - R; it must vanish for active players and be <= 0
    for inactive ones. Returns +inf when the lottery is canceled or the pool is
    not positive.
    """
    a, c, s = (np.asarray(x, dtype=float) for x in (a, c, s))
    total = float(s.sum())
    S = total - float(c.sum())
    G = total - R
    if G < 0.0 or S <= 0.0:
        return math.inf
    res = R * (S - (s - c)) / S**2 + a / (G + 1.0) - 1.0
    active = s > 1e-9
    return float(max(np.max(np.abs(res[active]), initial=0.0),
                     np.max(res[~active], initial=0.0)))


def _own_payoffs(a_i, c_i, c_bar, R, others, x):
    # Player i's payoff over candidate investments x, the others held fixed.
    total = x + others
    pool = total - c_bar
    on = (total >= R) & (pool != 0.0)
    out = np.zeros_like(x)
    out[on] = ((x[on] - c_i) / pool[on] * R + a_i * np.log1p(total[on] - R)
               - x[on])
    out[(total >= R) & (pool == 0.0)] = -np.inf
    return out


def deviation_search(a, c, R: float, s, points: int = 2049):
    """Best unilateral gain over a dense grid of each player's own investment.

    Returns (gain, player, kind): the largest payoff gain found, the player
    who finds it and where ('cancel' when the lottery is voided, 'negative_pool'
    when the deviation turns the pool negative, 'interior' otherwise). A
    gain found on the grid is a real deviation; the grid can only miss some.
    """
    a, c, s = (np.asarray(x, dtype=float) for x in (a, c, s))
    c_bar = float(c.sum())
    total = float(s.sum())
    best = (-math.inf, -1, "interior")
    for i in range(s.size):
        others = total - s[i]
        kink = R - others
        hi = 2.0 * (R + c_bar + others + 10.0) + 10.0 * a[i]
        parts = [np.linspace(0.0, hi, points), [0.0, s[i]]]
        if kink > 0.0:
            parts.append(kink + np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 64)])
                         * max(1.0, kink))
        # Deviations that make the pool negative: total >= R but sum < c_bar.
        neg_lo, neg_hi = max(0.0, kink), c_bar - others
        if neg_hi > neg_lo:
            width = neg_hi - neg_lo
            parts.append(neg_lo + np.linspace(0.0, 1.0, 257) * width)
            parts.append(neg_hi - np.geomspace(1e-12, 1.0, 64) * width)
        x = np.unique(np.clip(np.concatenate(parts), 0.0, None))
        vals = _own_payoffs(a[i], c[i], c_bar, R, others, x)
        current = _own_payoffs(a[i], c[i], c_bar, R, others, np.array([s[i]]))[0]
        k = int(np.argmax(vals))
        gain = float(vals[k] - current)
        if gain > best[0]:
            xk = x[k]
            if xk + others < R:
                kind = "cancel"
            elif xk + others - c_bar < 0.0:
                kind = "negative_pool"
            else:
                kind = "interior"
            best = (gain, i, kind)
    return best


def design_lp_reference(a, rows_a, rows_b, reward_floor: float):
    """HiGHS solution of the design LP over x = [R, c_1..c_N] >= 0.

    Each row a_s . s + a_R R <= b becomes (a_s . w + a_R) R + a_s . c <= b
    with w = a/sum(a), since the designed equilibrium is s = c + R w. The
    budget row is sum(c) = G* and the reward floor R >= floor. Returns
    (R*, c_lex): the minimal reward, then the lexicographically smallest c on
    the optimal face, found by minimizing each c_j in turn with R and the
    earlier coordinates fixed.
    """
    a = np.asarray(a, dtype=float)
    rows_a = np.asarray(rows_a, dtype=float)
    n = a.size
    w = a / a.sum()
    s_part = rows_a[:, :n]
    a_ub = np.hstack([(s_part @ w + rows_a[:, n])[:, None], s_part])
    a_eq = np.concatenate([[0.0], np.ones(n)])[None, :]
    b_eq = [g_star(a)]
    bounds = [(reward_floor, None)] + [(0.0, None)] * n

    def solve(cost, bnds):
        res = linprog(cost, A_ub=a_ub, b_ub=rows_b, A_eq=a_eq, b_eq=b_eq,
                      bounds=bnds, method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS reference failed: {res.message}")
        return res.x

    cost = np.zeros(n + 1)
    cost[0] = 1.0
    r_star = float(solve(cost, bounds)[0])
    bounds[0] = (r_star, r_star)
    c_lex = np.zeros(n)
    for j in range(n):
        cost = np.zeros(n + 1)
        cost[j + 1] = 1.0
        c_lex[j] = solve(cost, bounds)[j + 1]
        bounds[j + 1] = (c_lex[j], c_lex[j])
    return r_star, c_lex
