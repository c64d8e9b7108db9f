"""Headline comparisons across the five test-assignment regimes.

Assembles the number line of principal error probabilities: optimal
correlated tests, optimal i.i.d. tests, the best interval-restricted
equilibrium, the unrestricted equilibrium, and the single-test baseline, plus
the Price-of-Anarchy ratios between the equilibrium and the principal's
optima.  Also searches over restriction intervals [a, b] for the equilibrium
the principal likes best.  The search scores every cell of its grid, row by
row in order, in one batch, and each round of its refinement's nested grids
(``equilibrium._nested_max``) in another: piece tables built from the
equilibrium's closed form (``equilibrium._interval_cells``), verified and
summed by the same routines as a single ``MixedCdf``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from thresholdgame.dists import _check_nonnegative, _check_real
from thresholdgame.engine import _as_count
from thresholdgame.equilibrium import EquilibriumSolution, _interval_cells, _nested_max
from thresholdgame.equilibrium import verify_equilibrium  # noqa: F401  (read by benchmarks/)
from thresholdgame.inversion import OPTIMAL_IID_VALUE, inversion_iid, optimal_value_correlated

__all__ = [
    "EQUILIBRIUM_FLOOR",
    "PoaReport",
    "SearchResult",
    "poa_report",
    "search_best_interval",
    "symmetric_equilibrium_floor_check",
]

#: Error floor for every symmetric equilibrium, on any restriction set.
EQUILIBRIUM_FLOOR = Fraction(5, 24) + Fraction(1, 82944)

#: Best known restriction interval (from the grid search; see Fig-1 ordering).
BEST_KNOWN_INTERVAL = (0.0, 0.79)


@dataclass(frozen=True)
class SearchResult:
    a: float
    b: float
    value: float

    def to_dict(self) -> dict:
        """``dataclasses.asdict(self)``, the form `benchmarks/worker.py` reads."""
        return asdict(self)


@dataclass(frozen=True)
class PoaReport:
    """Fig-1 style five-regime comparison for ``n`` firms.

    Only ``correlated`` depends on ``n``.  ``eq_unrestricted`` and
    ``eq_restricted_best`` are the errors of the two-firm equilibria whatever
    ``n`` is, so ``poa_vs_iid`` and ``poa_vs_correlated`` divide a two-firm
    equilibrium value too; no n-firm equilibrium is computed yet.
    """

    n: int
    same_test: float
    correlated: float
    iid_opt: float
    eq_restricted_best: SearchResult
    eq_unrestricted: float
    poa_vs_iid: float
    poa_vs_correlated: float


def _round_cells(values) -> np.ndarray:
    """``values`` rounded to 12 digits as the search's cells are, by Python's
    round, not np.round, which rounds some of them differently."""
    return np.array([round(float(v), 12) for v in values])


def _refine(cells, lo: float, hi: float) -> tuple[float, float]:
    """Minimize the equilibrium error over one coordinate in (lo, hi):
    ``cells`` maps an array of rounded coordinates to the ``(a, b)`` arrays
    of their cells.  Returns the best coordinate, rounded as its cell was,
    and its error."""
    x, neg_value = _nested_max(lambda x: -_interval_cells(*cells(_round_cells(x)))[0], lo, hi,
                               rounds=14)
    return round(x, 12), -neg_value


def search_best_interval(refine: bool = True, resolution: float = 0.01) -> SearchResult:
    """Minimize the equilibrium error probability over intervals [a, b].

    Coarse scan over the mixed-equilibrium region ``(1 - a) * b > 1/2`` (plus
    the step-regime boundary cell of each a) followed by two passes of
    coordinate-wise refinement around the best cell, b then a, each 14
    rounds of nested grids that narrow the bracket by 4**-14.
    ``resolution``, the grid step and the refinement half-width, must be a
    number in (0, 1].  Cells are rounded to 12 digits, and the result is the
    cell scored; the grid's best is its first strict minimum, a's rows in
    order.  The whole grid is one batch, and so is each round of
    refinement; every cell scored is verified by ``verify_equilibrium``'s
    routine at grid size 1000 and tol 1e-8, and a failure raises
    ``RuntimeError``.
    """
    _check_real("resolution", resolution)
    resolution = float(resolution)
    if not 0.0 < resolution <= 1.0:
        raise ValueError("resolution must lie in (0, 1]")
    a_grid = np.arange(0.0, 1.0, resolution)
    b_grid = np.arange(resolution, 1.0 + resolution / 2.0, resolution)
    # The last step overshoots 1 when resolution lies in (1/k, 2/(2k-1)) for
    # an integer k; rounding as the cells do keeps 1 + 2e-16 as 1.
    b_grid = b_grid[np.round(b_grid, 12) <= 1.0]

    a_cells, b_cells = _round_cells(a_grid), _round_cells(b_grid)
    rows = []
    for a, cell_a in zip(a_grid, a_cells):
        # a < b after the rounding: 0.954 and 0.954 + 1e-16 make no interval.
        above = b_cells > cell_a
        interior = np.flatnonzero(above & ((1.0 - a) * b_grid > 0.5))
        boundary = np.flatnonzero(above & ((1.0 - a) * b_grid <= 0.5))
        rows.append(np.concatenate([interior, boundary[-1:]]))
    cells_a = np.repeat(a_cells, [len(row) for row in rows])
    cells_b = b_cells[np.concatenate(rows)]
    values = _interval_cells(cells_a, cells_b)[0]
    best = int(np.argmin(values))  # the first minimum, in row order
    value, a_star, b_star = float(values[best]), float(cells_a[best]), float(cells_b[best])
    if refine:
        for _ in range(2):
            b_star, value = _refine(lambda b: (np.full(len(b), a_star), b),
                                    max(b_star - resolution, a_star + 1e-6),
                                    min(b_star + resolution, 1.0))
            a_lo = max(a_star - resolution, 0.0)
            a_hi = min(a_star + resolution, b_star - 1e-6)
            if a_hi > a_lo:
                a_star, value = _refine(lambda a: (a, np.full(len(a), b_star)), a_lo, a_hi)
    return SearchResult(a=a_star, b=b_star, value=value)


def poa_report(n: int = 2, run_search: bool = False, resolution: float = 0.01) -> PoaReport:
    """Assemble the five-regime comparison and the Price-of-Anarchy ratios.

    The restricted-equilibrium entry is the one on ``BEST_KNOWN_INTERVAL``;
    pass ``run_search=True`` to find it by grid search instead.
    """
    n = _as_count(n, "n")
    if n < 2:
        raise ValueError("need at least two firms")
    correlated = float(optimal_value_correlated(n))
    iid_opt = float(OPTIMAL_IID_VALUE)
    a, b = BEST_KNOWN_INTERVAL
    known, eq_unrestricted = _interval_cells([a, 0.0], [b, 1.0])[0].tolist()
    restricted = (search_best_interval(resolution=resolution) if run_search
                  else SearchResult(a=a, b=b, value=known))
    return PoaReport(
        n=n,
        same_test=0.25,
        correlated=correlated,
        iid_opt=iid_opt,
        eq_restricted_best=restricted,
        eq_unrestricted=eq_unrestricted,
        poa_vs_iid=eq_unrestricted / iid_opt,
        poa_vs_correlated=eq_unrestricted / correlated,
    )


def symmetric_equilibrium_floor_check(sol: EquilibriumSolution,
                                      slack: float = 1e-9) -> bool:
    """True when the equilibrium's error respects the symmetric floor."""
    _check_nonnegative("slack", slack)
    return inversion_iid(sol.dist).value >= float(EQUILIBRIUM_FLOOR) - slack
