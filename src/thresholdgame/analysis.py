"""Headline comparisons across the five test-assignment regimes.

Assembles the number line of principal error probabilities: optimal
correlated tests, optimal i.i.d. tests, the best interval-restricted
equilibrium, the unrestricted equilibrium, and the single-test baseline, plus
the Price-of-Anarchy ratios between the equilibrium and the principal's
optima.  Also searches over restriction intervals [a, b] for the equilibrium
the principal likes best.  The search builds its grid's cells in one
vectorised pass, row by row in order, and scores them in one batch
(``equilibrium._interval_cells``): piece tables built from the
equilibrium's closed form, verified by the same routine as a single
``MixedCdf`` and valued by the pair error's closed form, as every error is.  It refines the best
cell by Newton steps in (a, b) jointly, each valuing a 3x3 stencil of cells
centred on the last step's target by that closed form alone
(``equilibrium._interval_values``), and then verifies every cell it valued
in one more batch, in the order visited.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from thresholdgame._checks import _as_count, _check_nonnegative, _check_real
from thresholdgame.equilibrium import EquilibriumSolution, _interval_cells, _interval_values
from thresholdgame.equilibrium import verify_equilibrium  # noqa: F401  (read by benchmarks/)
from thresholdgame.optimal import OPTIMAL_IID_VALUE, optimal_value_correlated

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


#: The finest search grid step.  ``_grid_cells`` holds O(1/resolution**2)
#: values at once: at 0.001 (154,909 cells) a search peaks at 13 MiB traced
#: and takes 0.3 s, and at 1e-5 it would ask for 9.3 GiB before valuing any
#: cell.  The Newton refinement finds the optimum to about 1e-8 from any
#: grid, so a finer one would buy nothing.
MIN_RESOLUTION = 1e-3


def _check_resolution(resolution) -> float:
    """``resolution`` as a float; raise ``ValueError`` unless it is a real
    number in [``MIN_RESOLUTION``, 1], that is [0.001, 1]."""
    _check_real("resolution", resolution)
    resolution = float(resolution)
    if not MIN_RESOLUTION <= resolution <= 1.0:
        raise ValueError(f"resolution must lie in [{MIN_RESOLUTION:g}, 1]")
    return resolution


def _round_cells(values) -> np.ndarray:
    """``values`` rounded to 12 digits as the search's cells are, by Python's
    round, not np.round, which rounds some of them differently."""
    return np.array([round(float(v), 12) for v in values])


#: Offsets of the refinement's 3x3 stencil, in units of its half-width.
_STENCIL = np.array([-1.0, 0.0, 1.0])


def _newton(a: float, b: float, value: float, h: float) -> tuple[float, float, float]:
    """Minimize the equilibrium error jointly in (a, b), from the cell (a, b)
    of error ``value``, by Newton steps on stencils of half-width ``h``.

    Each step values one batch by the closed form alone
    (``equilibrium._interval_values``): a 3x3 stencil of cells centred on
    the last step's target (the cell (a, b) at first), shifted inward so
    that every cell keeps 0 <= a < b <= 1.  The best cell valued so far
    keeps its known error instead of being valued again.  The step takes the
    central-difference gradient and Hessian from the nine values and moves
    the target to the Newton point, clipped to 4h in each coordinate, where
    the next stencil is centred.  A step inside the stencil shrinks h to the
    step's size, by a factor of 64 at most, and a step outside it shrinks h
    by 4 when the stencil improved on no cell.  A Hessian that is not
    positive definite, or a target with no room for a stencil, recentres
    the target on the best cell and shrinks h by 4.  The refinement stops
    below h = 1e-8.  Then every cell valued is verified in one
    ``_interval_cells`` batch, in the order visited, so a failure raises
    the ``RuntimeError`` that names the first failing cell visited; at
    resolution 0.01 that is 44 cells, one slab.  Returns the best cell
    valued, replaced only by a strictly lower error, and its error.
    """
    ta, tb = a, b
    visited_a, visited_b = [], []
    while h >= 1e-8:
        sa = _round_cells(max(ta, h) + _STENCIL * h)
        sb = _round_cells(min(tb, 1.0 - h) + _STENCIL * h)
        if sa[2] >= sb[0]:
            ta, tb, h = a, b, h / 4.0
            continue
        cells_a, cells_b = np.repeat(sa, 3), np.tile(sb, 3)
        new = (cells_a != a) | (cells_b != b)  # all but the best cell, valued already
        visited_a.append(cells_a[new])
        visited_b.append(cells_b[new])
        f = np.full(9, value)
        f[new] = _interval_values(cells_a[new], cells_b[new])[0]
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
    if visited_a:
        _interval_cells(np.concatenate(visited_a), np.concatenate(visited_b))
    return a, b, value


def _grid_cells(resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """The cells (a, b) of the search's grid of step ``resolution``, rounded
    to 12 digits, a's rows in order: each row's cells in the
    mixed-equilibrium region ``(1 - a) * b > 1/2`` by b, then its last
    step-regime cell, built by masks in one pass.  It sorts nothing: the
    first ``np.lexsort`` call maps numpy's sort code and raised a search's
    peak RSS by 128 KiB (0.4 %)."""
    a_grid = np.arange(0.0, 1.0, resolution)
    b_grid = np.arange(resolution, 1.0 + resolution / 2.0, resolution)
    # The last step overshoots 1 when resolution lies in (1/k, 2/(2k-1)) for
    # an integer k; rounding as the cells do keeps 1 + 2e-16 as 1.
    b_grid = b_grid[np.round(b_grid, 12) <= 1.0]
    a_cells, b_cells = _round_cells(a_grid), _round_cells(b_grid)
    # a < b after the rounding: 0.954 and 0.954 + 1e-16 make no interval.
    above = b_cells > a_cells[:, None]
    # (1 - a) b rises with b, so a row's step cells are a prefix, the last
    # at column (step count - 1), and its cells above a a suffix: the last
    # step cell is kept when any step cell lies above a.  In an extra column
    # after the interior cells, it follows them when the mask is read row
    # by row.
    step = (1.0 - a_grid[:, None]) * b_grid <= 0.5
    last = np.count_nonzero(step, axis=1) - 1
    keep = np.column_stack([above & ~step, (above & step).any(axis=1)])
    cells_b = np.column_stack([np.broadcast_to(b_cells, step.shape), b_cells[last]])
    return np.broadcast_to(a_cells[:, None], keep.shape)[keep], cells_b[keep]


def search_best_interval(refine: bool = True, resolution: float = 0.01) -> SearchResult:
    """Minimize the equilibrium error probability over intervals [a, b].

    Coarse scan over the mixed-equilibrium region ``(1 - a) * b > 1/2`` (plus
    the step-regime boundary cell of each a) followed by a joint Newton
    refinement in (a, b) from the best cell (:func:`_newton`), its stencil's
    half-width starting at ``resolution / 8``.  ``resolution``, the grid
    step, must be a number in [0.001, 1] (``MIN_RESOLUTION``: a finer grid
    would hold too many cells at once), and ``refine`` a bool.  Cells are
    rounded to 12 digits, and the result is the cell valued with the lowest
    error, no worse than the grid's best, which is its first strict minimum,
    a's rows in order.  The whole grid is one ``_interval_cells`` batch,
    run slab by slab in this process; each Newton step values its stencil
    by the closed form alone, and the cells of all the stencils are one
    more batch, verified after the refinement.  Every cell valued is valued
    by the pair error of its cdf with itself, in closed form
    (``dists._pair_error``), and verified by ``verify_equilibrium``'s
    routine at tol 1e-8, its margins the exact suprema over [a, b], which
    bound those of any grid, and a failure raises ``RuntimeError``, naming
    the first failing cell.  At resolution 0.01 that is 1,684 grid cells in
    2 slabs and 44 stencil cells in 5 steps and one slab.  The objective is
    flat to about 1e-16 near the optimum, so a and b are good to about 1e-8
    only, whatever digits they carry.
    """
    _check_flag("refine", refine)
    resolution = _check_resolution(resolution)
    cells_a, cells_b = _grid_cells(resolution)
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
    ``resolution``, the search's grid step, must be a number in [0.001, 1]
    whether or not the search runs.
    """
    _check_flag("run_search", run_search)
    resolution = _check_resolution(resolution)
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
    # Imported here: poa and the search need neither inversion nor engine.
    from thresholdgame.inversion import inversion_iid

    _check_nonnegative("slack", slack)
    return inversion_iid(sol.dist).value >= float(EQUILIBRIUM_FLOOR) - slack
