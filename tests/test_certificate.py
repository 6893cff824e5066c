"""The closed-form Nash certificate (`certify_equilibrium`) against the literal payoff.

Every finite gain the certificate reports is checked by `payoffs` at its
witness, so it is a real deviation. The golden-section best-response oracle
(`tests/oracles.py`), which makes no use of first-order conditions, can only
miss a gain, so the certificate's gain must be at least the oracle's. A +inf
gain must show as payoffs that grow without bound toward the zero pool.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lotterydesign import (
    BenefitProfile,
    DesignPoint,
    ScenarioConfig,
    certify_equilibrium,
    payoffs,
    run_scenario,
    solve_equilibrium,
)
from lotterydesign.errors import DomainError, InfeasibleRegimeError

from oracles import best_response_oracle

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
KINDS = ("cancel", "zero_pool", "interior")


def _with(s, i, x):
    trial = np.array(s, dtype=float)
    trial[i] = x
    return trial


def _pole_payoffs(profile, design, s, i):
    """Player i's payoffs 1e-6 and 1e-9 from the zero pool, on the side where
    the reward share grows, or None when that side is narrower than 1e-6."""
    o = float(s.sum() - s[i])
    d = o - float(np.delete(design.perturbation, i).sum())
    pole = design.perturbation_total - o
    x_lo = max(0.0, design.reward - o)
    if d > 0.0 and pole - 1e-6 < x_lo:
        return None
    side = -1.0 if d > 0.0 else 1.0
    return d, [float(payoffs(profile, design, _with(s, i, pole + side * delta))[i])
               for delta in (1e-6, 1e-9)]


def _check_certificate(profile, design, s):
    """Grade the certificate at s against the payoff, the oracle and the pole."""
    s = np.asarray(s, dtype=float)
    current = payoffs(profile, design, s)
    certificate = certify_equilibrium(profile, design, s)
    assert len(certificate) == profile.n_players
    for i, (gain, kind, witness) in enumerate(certificate):
        assert kind in KINDS
        scale = max(1.0, abs(float(current[i])))
        if gain == math.inf:
            assert kind == "zero_pool" and witness is None
            pole = _pole_payoffs(profile, design, s, i)
            if pole is not None:
                d, (far, near) = pole
                assert near - far >= 0.5 * design.reward * abs(d) * (1e9 - 1e6)
        else:
            assert kind != "zero_pool" and math.isfinite(gain)
            reached = float(payoffs(profile, design, _with(s, i, witness))[i])
            assert abs(reached - current[i] - gain) <= 1e-9 * max(scale, abs(reached))
            cancels = float(s.sum() - s[i]) + witness < design.reward
            assert cancels == (kind == "cancel")
        br = best_response_oracle(profile, design, np.delete(s, i), i)
        found = float(payoffs(profile, design, _with(s, i, br))[i] - current[i])
        assert gain >= found - 1e-9 * scale
    return certificate


@st.composite
def _games(draw):
    n = draw(st.integers(1, 6))
    a = draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
    assume(sum(a) > 1.0)
    profile = BenefitProfile.scaled_log(a)
    reward = 10.0 ** draw(st.floats(-2.0, 3.0))
    if draw(st.booleans()):
        c = np.zeros(n)
    else:
        c = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        c *= 2.0 * profile.g_star / n
    return profile, DesignPoint(reward, c)


class TestCertificate:
    @settings(max_examples=150, deadline=None)
    @given(_games())
    def test_certificate_at_solved_points(self, game):
        profile, design = game
        try:
            eq = solve_equilibrium(profile, design)
        except InfeasibleRegimeError:
            assume(False)
        _check_certificate(profile, design, eq.s_star)

    def test_classic_equilibrium_has_no_gain(self, i2_profile):
        # Each player's best response to 0.75 at R = 1 is 0.75: the cubic's root.
        design = DesignPoint(1.0, np.zeros(2))
        for gain, kind, witness in _check_certificate(i2_profile, design, [0.75, 0.75]):
            assert kind == "interior"
            assert abs(gain) <= 1e-12
            assert witness == pytest.approx(0.75, abs=1e-9)

    def test_off_equilibrium_interior_gain(self, i2_profile):
        design = DesignPoint(1.0, np.zeros(2))
        s = np.array([0.2, 0.75])
        gain, kind, witness = _check_certificate(i2_profile, design, s)[0]
        assert kind == "interior" and witness == pytest.approx(0.75, abs=1e-9)
        assert gain == pytest.approx(
            float(payoffs(i2_profile, design, [0.75, 0.75])[0]
                  - payoffs(i2_profile, design, s)[0]), rel=1e-12)

    def test_cancel_escape(self):
        profile = BenefitProfile.scaled_log(
            [2.527198457618032, 2.21153181508266, 0.9638223231898635,
             0.7285512391693785])
        design = DesignPoint(30.57563285110171,
                             np.array([0.00797228, 0.24058479, 1.58776761, 1.1356116]))
        eq = solve_equilibrium(profile, design)
        gain, kind, witness = _check_certificate(profile, design, eq.s_star)[2]
        assert (kind, witness) == ("cancel", 0.0)
        assert gain == -float(payoffs(profile, design, eq.s_star)[2]) > 1e-6

    def test_zero_pool_reached_at_the_least_stake(self):
        # With R = c_bar, player 1's least stake that keeps the lottery,
        # x_lo = R - o = 0.75, leaves a zero pool, and d = o - c_bar + c_1 < 0:
        # the payoff 0.25 R / y grows without bound as the pool y -> 0+.
        profile = BenefitProfile.scaled_log([1.0, 1.0])
        design = DesignPoint(1.0, np.array([0.5, 0.5]))
        gain, kind, witness = _check_certificate(profile, design, [1.0, 0.25])[0]
        assert (gain, kind, witness) == (math.inf, "zero_pool", None)

    def test_least_stake_witness_keeps_the_lottery(self):
        # Player 4's best stake is the least that keeps the lottery, where the
        # pool is R - c_bar = 2**-10. R - o rounded leaves the summed profile
        # short of R there, which cancels the lottery: the witness must be
        # the least float stake whose summed profile reaches R.
        profile = BenefitProfile.scaled_log([1.5, 0.4375, 1.578125, 2.8125])
        design = DesignPoint(1.0, np.array([0.0, 1023 / 1024, 0.0, 0.0]))
        s = solve_equilibrium(profile, design).s_star
        gain, kind, witness = _check_certificate(profile, design, s)[3]
        o = float(s.sum() - s[3])
        assert kind == "interior" and witness >= design.reward - o
        assert float(_with(s, 3, witness).sum()) >= design.reward
        assert gain > 60.0

    def test_two_player_design_point(self, tmp_path):
        # The shipped two-player design is not an equilibrium: player 2 gains
        # without bound by moving s_2 toward 0.9995 from below, and 0.307 by
        # withdrawing, which cancels the lottery.
        cfg = ScenarioConfig.from_file(CONFIGS / "two_player_design.yaml")
        results = run_scenario("design", cfg, out_dir=tmp_path).report["results"]
        design = DesignPoint(results["reward"], np.asarray(results["perturbation"]))
        assert design.reward == pytest.approx(0.001)
        assert design.perturbation.tolist() == pytest.approx([0.0, 1.0])
        profile = BenefitProfile.scaled_log([1.0, 1.0])
        s = solve_equilibrium(profile, design).s_star
        assert s.tolist() == pytest.approx([0.0005, 1.0005])
        certificate = _check_certificate(profile, design, s)
        assert certificate[1] == (math.inf, "zero_pool", None)
        assert certificate[0][1] == "interior" and certificate[0][0] <= 1e-6
        assert s[0] < design.reward
        cancel_gain = float(payoffs(profile, design, _with(s, 1, 0.0))[1]
                            - payoffs(profile, design, s)[1])
        assert cancel_gain == pytest.approx(0.307, abs=5e-4)
        far, near = _pole_payoffs(profile, design, s, 1)[1]
        assert near > far > 0.0

    def test_rejects_a_bad_profile(self, i2_profile):
        design = DesignPoint(1.0, np.zeros(2))
        with pytest.raises(DomainError):
            certify_equilibrium(i2_profile, design, [0.75])
        with pytest.raises(DomainError):
            certify_equilibrium(i2_profile, design, [-0.1, 0.75])
