"""Threshold-test selection games.

Computes and verifies the quantitative objects of a two-firm selection game
driven by pass/fail threshold tests: principal-optimal test distributions
(identical, correlated, i.i.d.), Bayes-Nash equilibria for firms that choose
their own tests (unrestricted or restricted to an interval), the probability
that the principal picks the worse product, and Price-of-Anarchy ratios.
"""

from thresholdgame.dists import MixedCdf, quantile_to_quality
from thresholdgame.engine import (
    FixedThresholds,
    GameOutcome,
    IidRule,
    IndependentRule,
    InversionEstimate,
    SameTest,
    kendall_tau_fraction,
    mc_inversion,
    parse_rule,
    play_game,
    simulate,
)
from thresholdgame.inversion import (
    HybridCoefficients,
    hybrid_decompose,
    inversion_fixed,
    inversion_iid,
    inversion_rule,
    optimal_value_correlated,
    suboptimality_bound,
)
from thresholdgame.optimal import optimal_correlated, optimal_iid, optimal_same_test
from thresholdgame.equilibrium import (
    EquilibriumSolution,
    PayoffProfile,
    best_response_value,
    candidate_solution,
    equilibrium_interval,
    equilibrium_unrestricted,
    selection_probability,
    two_point_payoff_check,
    verify_equilibrium,
    win_probabilities,
)
from thresholdgame.analysis import (
    PoaReport,
    poa_report,
    search_best_interval,
    symmetric_equilibrium_floor_check,
)

__all__ = [
    "EquilibriumSolution",
    "FixedThresholds",
    "GameOutcome",
    "HybridCoefficients",
    "IidRule",
    "IndependentRule",
    "InversionEstimate",
    "MixedCdf",
    "PayoffProfile",
    "PoaReport",
    "SameTest",
    "best_response_value",
    "candidate_solution",
    "equilibrium_interval",
    "equilibrium_unrestricted",
    "hybrid_decompose",
    "inversion_fixed",
    "inversion_iid",
    "inversion_rule",
    "kendall_tau_fraction",
    "mc_inversion",
    "optimal_correlated",
    "optimal_iid",
    "optimal_same_test",
    "optimal_value_correlated",
    "parse_rule",
    "play_game",
    "poa_report",
    "quantile_to_quality",
    "search_best_interval",
    "selection_probability",
    "simulate",
    "suboptimality_bound",
    "symmetric_equilibrium_floor_check",
    "two_point_payoff_check",
    "verify_equilibrium",
    "win_probabilities",
]

__version__ = "0.1.0"
