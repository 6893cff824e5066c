"""Perturbed fixed-prize lottery games: equilibria, efficiency, optimal design.

Public surface, by concern:

- benefit: BenefitProfile (a vector of scaled-log coefficients a; aggregate
  marginal H(G) = sum(a)/(G+1), social optimum G* = sum(a) - 1)
- game: LotteryInstance / DesignPoint / solve_equilibrium (one share-function
  root; `iterations` counts its root evaluations) and friends
- analysis: reward threshold, public-good and price-of-anarchy bounds,
  property checkers
- design: ConstraintSet / DesignProblem, convex reformulation, LP solve,
  brute-force oracle, verification
- grid: MATPOWER-subset parsing, DC shift factors, demand-response constraints
- harness / cli: scenario configs, pipelines, reports
"""

from .benefit import BenefitProfile
from .design import (
    ConstraintSet,
    DesignProblem,
    DesignSolution,
    brute_force_bilevel,
    build_reformulation,
    individual_rationality_rows,
    solve_design,
    verify_design,
)
from .game import (
    DesignPoint,
    EquilibriumResult,
    LotteryInstance,
    best_response_oracle,
    equilibrium_sensitivities,
    foc_residual,
    payoff,
    solve_equilibrium,
)
from .analysis import (
    PoaBounds,
    PropertyCheck,
    assured_active_count,
    check_properties,
    poa_bounds,
    public_good_bounds,
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
    "Generator",
    "GridCase",
    "LinearProgram",
    "LotteryInstance",
    "PoaBounds",
    "PropertyCheck",
    "ScenarioConfig",
    "SimplexResult",
    "assured_active_count",
    "best_response_oracle",
    "brute_force_bilevel",
    "build_dr_constraints",
    "build_reformulation",
    "check_properties",
    "equilibrium_sensitivities",
    "foc_residual",
    "individual_rationality_rows",
    "monetize",
    "parse_case",
    "payoff",
    "poa_bounds",
    "public_good_bounds",
    "reward_threshold",
    "run_scenario",
    "run_selftest",
    "shift_factor_matrix",
    "solve_design",
    "solve_equilibrium",
    "solve_lp",
    "true_poa",
    "verify_design",
]
