"""Headline comparisons across the five test-assignment regimes.

Assembles the number line of principal error probabilities: optimal
correlated tests, optimal i.i.d. tests, the best interval-restricted
equilibrium, the unrestricted equilibrium, and the single-test baseline, plus
the Price-of-Anarchy ratios between the equilibrium and the principal's
optima.  Also searches over restriction intervals [a, b] for the equilibrium
the principal likes best.  The search scores every cell of its grid, row by
row in order, in one batch, and refines the best cell by Newton steps in
(a, b) jointly, each scoring one batch, a 3x3 stencil of cells centred on
the last step's target: piece tables built from the equilibrium's closed
form (``equilibrium._interval_cells``), verified by the same routine as a
single ``MixedCdf`` and valued by the error's own closed form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from thresholdgame.dists import _as_count, _check_nonnegative, _check_real
from thresholdgame.equilibrium import EquilibriumSolution, _interval_cells
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

#: Error floor for every symmetric equilibrium, on any restriction set:
#: 5/24 + (1/24)**3/6.  It does not follow from ``suboptimality_bound``'s
#: proven eps**3/48, which gives less than 1/82944 even at eps = 1/16.
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


def _check_flag(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a bool: a string such as "no"
    would otherwise count as true."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, not {value!r}")


def _round_cells(values) -> np.ndarray:
    """``values`` rounded to 12 digits as the search's cells are, by Python's
    round, not np.round, which rounds some of them differently."""
    return np.array([round(float(v), 12) for v in values])


#: Offsets of the refinement's 3x3 stencil, in units of its half-width.
_STENCIL = np.array([-1.0, 0.0, 1.0])


def _newton(a: float, b: float, value: float, h: float) -> tuple[float, float, float]:
    """Minimize the equilibrium error jointly in (a, b), from the cell (a, b)
    of error ``value``, by Newton steps on stencils of half-width ``h``.

    Each step scores one batch: a 3x3 stencil of cells centred on the last
    step's target (the cell (a, b) at first), shifted inward so that every
    cell keeps 0 <= a < b <= 1.  The best cell scored so far keeps its
    known error instead of being scored again.  The step takes the
    central-difference gradient and Hessian from the nine values and moves
    the target to the Newton point, clipped to 4h in each coordinate, where
    the next stencil is centred.  A step inside the stencil shrinks h to the
    step's size, by a factor of 64 at most, and a step outside it shrinks h
    by 4 when the stencil improved on no cell.  A Hessian that is not
    positive definite, or a target with no room for a stencil, recentres
    the target on the best cell and shrinks h by 4.  The refinement stops
    below h = 1e-8.  Returns the best cell scored, replaced only by a
    strictly lower error, and its error.
    """
    ta, tb = a, b
    while h >= 1e-8:
        sa = _round_cells(max(ta, h) + _STENCIL * h)
        sb = _round_cells(min(tb, 1.0 - h) + _STENCIL * h)
        if sa[2] >= sb[0]:
            ta, tb, h = a, b, h / 4.0
            continue
        cells_a, cells_b = np.repeat(sa, 3), np.tile(sb, 3)
        new = (cells_a != a) | (cells_b != b)  # all but the best cell, scored already
        f = np.full(9, value)
        f[new] = _interval_cells(cells_a[new], cells_b[new])[0]
        k = int(np.argmin(f))
        if improved := f[k] < value:
            value, a, b = float(f[k]), float(sa[k // 3]), float(sb[k % 3])
        f = f.reshape(3, 3).tolist()  # f[i][j] is the cell (sa[i], sb[j])
        ga, gb = (f[2][1] - f[0][1]) / (2.0 * h), (f[1][2] - f[1][0]) / (2.0 * h)
        haa = (f[2][1] - 2.0 * f[1][1] + f[0][1]) / h**2
        hbb = (f[1][2] - 2.0 * f[1][1] + f[1][0]) / h**2
        hab = (f[2][2] - f[2][0] - f[0][2] + f[0][0]) / (4.0 * h**2)
        det = haa * hbb - hab * hab
        if not (haa > 0.0 and det > 0.0):
            ta, tb, h = a, b, h / 4.0
            continue
        step_a, step_b = (hab * gb - hbb * ga) / det, (hab * ga - haa * gb) / det
        size = max(abs(step_a), abs(step_b))
        if size > 4.0 * h:
            step_a, step_b = step_a * 4.0 * h / size, step_b * 4.0 * h / size
        ta, tb = sa[1] + step_a, sb[1] + step_b
        if size <= h:
            h = max(size, h / 64.0)
        elif not improved:
            h /= 4.0
    return a, b, value


def search_best_interval(refine: bool = True, resolution: float = 0.01) -> SearchResult:
    """Minimize the equilibrium error probability over intervals [a, b].

    Coarse scan over the mixed-equilibrium region ``(1 - a) * b > 1/2`` (plus
    the step-regime boundary cell of each a) followed by a joint Newton
    refinement in (a, b) from the best cell (:func:`_newton`), its stencil's
    half-width starting at ``resolution / 8``.  ``resolution``, the grid
    step, must be a number in (0, 1], and ``refine`` a bool.  Cells are
    rounded to 12 digits, and the result is the cell scored with the lowest
    error, no worse than the grid's best, which is its first strict minimum,
    a's rows in order.  The whole grid is one batch, and so is each stencil
    (``_interval_cells`` spreads a batch's slabs over forked workers once
    each worker gets enough cells to pay for its fork); every cell scored
    is valued by the error's closed form (``equilibrium._interval_error``)
    and verified by ``verify_equilibrium``'s routine at tol 1e-8, its
    margins the exact suprema over [a, b], which bound those of any grid,
    and a failure raises ``RuntimeError``.  The
    objective is flat to about 1e-16 near the optimum, so a and b are good
    to about 1e-8 only, whatever digits they carry.
    """
    _check_flag("refine", refine)
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
        a_star, b_star, value = _newton(a_star, b_star, value, resolution / 8.0)
    return SearchResult(a=a_star, b=b_star, value=value)


def poa_report(n: int = 2, run_search: bool = False, resolution: float = 0.01) -> PoaReport:
    """Assemble the five-regime comparison and the Price-of-Anarchy ratios.

    The restricted-equilibrium entry is the one on ``BEST_KNOWN_INTERVAL``;
    pass ``run_search=True`` to find it by grid search instead.
    """
    _check_flag("run_search", run_search)
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
