"""Perturbed fixed-prize lottery games: equilibria, efficiency, optimal design.

Public surface, by concern:

- benefit: BenefitProfile, the game (a vector of scaled-log coefficients a,
  with the social optimum g_star = sum(a) - 1, its optimal_payoff and the
  good_bracket of the equilibrium good); every function that reads a game,
  at one point or over a sweep, takes it first
- game: DesignPoint / solve_equilibrium (one share-function root by a
  plain-float Chandrupatla loop; `iterations` counts its root evaluations),
  solve_sweep (the same root and FOC residuals, to the bit, for every reward
  of a sweep at once, by the same loop on numpy vectors), payoffs, and
  certify_equilibrium (each player's best unilateral deviation in closed form)
- analysis: reward threshold, public-good and price-of-anarchy bounds,
  check_properties (the report's property rows, as dicts), analyze_sweep
  (all of them over a sweep's rewards)
- design: ConstraintSet / DesignProblem, convex reformulation, LP solve,
  verification
- grid: MATPOWER-subset parsing, DC shift factors, demand-response constraints
- harness / cli: scenario configs, pipelines, reports
"""

from .benefit import BenefitProfile
from .design import (
    ConstraintSet,
    DesignProblem,
    DesignSolution,
    build_reformulation,
    individual_rationality_rows,
    solve_design,
    verify_design,
)
from .game import (
    DesignPoint,
    EquilibriumResult,
    EquilibriumSweep,
    certify_equilibrium,
    payoffs,
    solve_equilibrium,
    solve_sweep,
)
from .analysis import (
    PoaBounds,
    SweepAnalysis,
    analyze_sweep,
    check_properties,
    reward_threshold,
    true_poa,
)
from .grid import (
    Branch,
    Bus,
    DrScenario,
    Generator,
    GridCase,
    build_dr_constraints,
    monetize,
    parse_case,
    shift_factor_matrix,
)
from .harness import ScenarioConfig, run_scenario, run_selftest
from .simplex import LinearProgram, SimplexResult, solve_lp

__version__ = "0.1.0"

__all__ = [
    "BenefitProfile",
    "Branch",
    "Bus",
    "ConstraintSet",
    "DesignPoint",
    "DesignProblem",
    "DesignSolution",
    "DrScenario",
    "EquilibriumResult",
    "EquilibriumSweep",
    "Generator",
    "GridCase",
    "LinearProgram",
    "PoaBounds",
    "ScenarioConfig",
    "SimplexResult",
    "SweepAnalysis",
    "analyze_sweep",
    "build_dr_constraints",
    "build_reformulation",
    "certify_equilibrium",
    "check_properties",
    "individual_rationality_rows",
    "monetize",
    "parse_case",
    "payoffs",
    "reward_threshold",
    "run_scenario",
    "run_selftest",
    "shift_factor_matrix",
    "solve_design",
    "solve_equilibrium",
    "solve_lp",
    "solve_sweep",
    "true_poa",
    "verify_design",
]
