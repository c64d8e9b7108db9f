"""Threshold-test selection games.

Computes and verifies the quantitative objects of a two-firm selection game
driven by pass/fail threshold tests: principal-optimal test distributions
(identical, correlated, i.i.d.), Bayes-Nash equilibria for firms that choose
their own tests (unrestricted or restricted to an interval), the probability
that the principal picks the worse product, and Price-of-Anarchy ratios.

Names resolve on first use: ``import thresholdgame`` loads no submodule and
no numpy, and reading ``thresholdgame.simulate`` (or ``thresholdgame.engine``)
imports the submodule that defines it.  Each read looks the name up in its
submodule again, so a function replaced there is seen here too.
"""

import importlib

#: Each submodule and the public names it defines; ``__all__`` is their union.
_EXPORTS = {
    "dists": ("MixedCdf", "quantile_to_quality"),
    "engine": ("FixedThresholds", "GameOutcome", "IidRule", "IndependentRule",
               "InversionEstimate", "SameTest", "kendall_tau_fraction", "mc_inversion",
               "parse_rule", "play_game", "simulate"),
    "inversion": ("HybridCoefficients", "hybrid_decompose", "inversion_fixed", "inversion_iid",
                  "inversion_rule", "suboptimality_bound"),
    "optimal": ("optimal_correlated", "optimal_iid", "optimal_same_test",
                "optimal_value_correlated"),
    "equilibrium": ("EquilibriumSolution", "PayoffProfile", "best_response_value",
                    "candidate_solution", "equilibrium_interval", "equilibrium_unrestricted",
                    "selection_probability", "two_point_payoff_check", "verify_equilibrium",
                    "win_probabilities"),
    "analysis": ("PoaReport", "poa_report", "search_best_interval",
                 "symmetric_equilibrium_floor_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("_checks", "_workers", "analysis", "cli", "dists", "engine", "equilibrium",
               "inversion", "optimal")

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
