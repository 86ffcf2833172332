"""contestlab: effort allocation, equilibria, and benchmark hacking in contests.

A numerical laboratory for rank-order contests where participants split
effort between genuine improvement and score-chasing.  The core objects:

- :mod:`contestlab.model`: scenario primitives (production, mechanization,
  cost, types, noise, prizes) and assumption validation.
- :mod:`contestlab.costmin`: least-cost effort allocation for a fitness
  target, with its three-case structure.
- :mod:`contestlab.baseline`: the no-contest benchmark and its type
  thresholds.
- :mod:`contestlab.equilibrium`: symmetric monotone equilibrium schedules
  via an Anderson-accelerated best-response fixed point.
- :mod:`contestlab.hacking`: contest-vs-baseline effort comparisons, the
  mechanization cutoff, and prize-skewness sweeps.
- :mod:`contestlab.simulate`: Monte Carlo contests, submission
  trajectories, Mann-Kendall statistics, fixed-effects panels.
- :mod:`contestlab.cli`: command-line entry point with replayable runs.
"""

from .baseline import (
    BaselineGrid,
    BaselineThresholds,
    baseline_grid,
    baseline_thresholds,
)
from .costmin import (
    CASE_NAMES,
    CREATE_ONLY,
    INTERIOR,
    MECH_ONLY,
    AllocationGrid,
    allocate_grid,
)
from .equilibrium import (
    GainTable,
    OpponentMixture,
    StrategyProfile,
    best_response_grid,
    contest_gain,
    opponent_mixture,
    rank_probabilities,
    solve_equilibrium,
)
from .errors import (
    ContestLabError,
    DomainError,
    IntegrationError,
    SolverError,
    UnconvergedProfileError,
)
from .golden import GoldenCheck, golden_suite
from .hacking import (
    HackingProfile,
    SweepResult,
    compare_prize_vectors,
    hacking_threshold,
    hacking_verdicts,
    skewness_sweep,
)
from .model import (
    AssumptionCheck,
    CostForm,
    MechanizationForm,
    NoiseFamily,
    PrizeVector,
    ProductionForm,
    Scenario,
    TypeDistribution,
    ValidationReport,
    load_scenario,
    scenario_from_dict,
    validate_assumptions,
)
from .presets import EXAMPLE_CONFIGS, example_scenario
from .simulate import (
    ContestOutcome,
    MannKendall,
    PanelCell,
    PanelSpec,
    RegressionResult,
    SyntheticPanel,
    add_interactions,
    add_type_bins,
    fe_ols,
    mann_kendall,
    panel_cells,
    panel_regressions,
    run_contest,
    synthetic_panel,
    type_bin_edges,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "AssumptionCheck", "CostForm", "MechanizationForm", "NoiseFamily",
    "PrizeVector", "ProductionForm", "Scenario", "TypeDistribution",
    "ValidationReport", "load_scenario", "scenario_from_dict",
    "validate_assumptions",
    # presets and golden checks
    "EXAMPLE_CONFIGS", "example_scenario", "GoldenCheck", "golden_suite",
    # cost minimisation
    "CASE_NAMES", "CREATE_ONLY", "INTERIOR", "MECH_ONLY", "AllocationGrid",
    "allocate_grid",
    # baseline
    "BaselineGrid", "BaselineThresholds", "baseline_grid", "baseline_thresholds",
    # equilibrium
    "GainTable", "OpponentMixture", "StrategyProfile", "best_response_grid",
    "contest_gain", "opponent_mixture", "rank_probabilities", "solve_equilibrium",
    # hacking
    "HackingProfile", "SweepResult", "compare_prize_vectors", "hacking_threshold",
    "hacking_verdicts", "skewness_sweep",
    # simulation and panels
    "ContestOutcome", "MannKendall", "PanelCell", "PanelSpec",
    "RegressionResult", "SyntheticPanel", "add_interactions", "add_type_bins",
    "fe_ols", "mann_kendall", "panel_cells", "panel_regressions", "run_contest",
    "synthetic_panel", "type_bin_edges",
    # errors
    "ContestLabError", "DomainError", "IntegrationError", "SolverError",
    "UnconvergedProfileError",
]
