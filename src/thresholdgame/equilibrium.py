"""Bayes-Nash equilibria of endogenous test selection.

When firms pick their own test difficulties before learning their quality,
the game has a unique (symmetric) equilibrium.  Facing an opponent whose
difficulty is drawn from a cdf ``T``, the probability that a firm playing
``theta`` is selected decomposes through three opponent quantities: the cdf
value ``T(theta)``, the running integral ``int_0^theta T``, and the
opponent's own failure probability.  Setting that selection probability to
1/2 on the support yields a differential equation whose solution is the
closed-form equilibrium family constructed here, both for the unrestricted
game on [0, 1] and for games restricted to an interval [a, b]:

* if ``(1 - a) * b <= 1/2`` both firms deterministically choose ``b``;
* otherwise the cdf rises continuously from ``a`` up to a cut point, stays
  flat, and jumps at ``b`` by a point mass.

The construction is verified numerically: on the support the selection
probability must equal 1/2 and off the support it must not exceed 1/2.
Against a cdf ``T`` with failure probability ``phi`` the selection
probability is ``(1 - t) phi + r^2 T + (1 - 2t) Gamma``, with ``r^2 = t^2 +
(1 - t)^2`` and ``Gamma = int_0^t T``.  On a piece ``(c0, c1, c2)`` of the
opponent's table (see :mod:`thresholdgame.dists`) the arc terms cancel and
the ``c0`` terms reduce to ``c0 (1 - t)``, as ``r^2 + t - 2t^2 = 1 - t``,
so the payoff is the piece's linear form ``A - B t`` plus the cubic
``c1 t (t^2 - 3t/2 + 1)`` of a line piece, less ``r^2 m / 2`` at an atom of
mass m (an exact tie is won half the time).  That form (``_linear_form``,
``_payoff``) is the one payoff formula.  One verifier, ``_verify``, checks a
single cdf and slabs of interval cells with it.  As the payoff is linear
on arcs and flat pieces and a cubic on line pieces, besides a grid the
verifier scores the few points where it can peak (``_peaks``), and these
alone give the exact best response against any distribution.  On arcs and
flat pieces the verifier gets the whole grid's margins, bit for bit, from
the ends of each run of grid points between two breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from thresholdgame import _workers
from thresholdgame.dists import (_JUNCTION_TOL, MixedCdf, _as_count, _check_nonnegative,
                                 _piece_table, _row_cdf, _unit_interval, _unit_points)
from thresholdgame.inversion import _pair_error

__all__ = [
    "EquilibriumSolution",
    "PayoffProfile",
    "VerificationReport",
    "best_response_value",
    "candidate_solution",
    "equilibrium_interval",
    "equilibrium_unrestricted",
    "selection_probabilities",
    "selection_probability",
    "two_point_payoff_check",
    "verify_equilibrium",
    "win_probabilities",
]

TWO_POINT_SET = (1.0 - math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0)


# ---------------------------------------------------------------------------
# Payoffs against a fixed opponent distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PayoffProfile:
    """Win probabilities of a firm playing ``theta`` against an opponent mix."""

    theta: float
    win_pass: float
    win_fail: float
    win_total: float


def _linear_form(table):
    """``(A, B)`` of every piece of ``table``, (cells, pieces) arrays: on a
    piece the payoff is ``A - B t + c1 t (t^2 - 3t/2 + 1)`` off its atoms,
    with ``K = prefix - anti_lo`` (so ``Gamma = K + c0 t + c1 t^2 / 2 + c2
    r``), ``A = phi + c0 + K`` and ``B = phi + c0 + 2K``."""
    k = table.prefix - table.anti_lo
    base = (1.0 - table.total) + table.c0
    return base + k, base + 2.0 * k


def _payoff(thetas, table, form=None, piece=None):
    """The one payoff formula: the selection probability at ``thetas``, a
    (cells, points) array, against each cell's cdf in ``table``, and whether
    each point is an atom of its cell (for ``table.support``).  ``form`` is
    :func:`_linear_form` of the table and ``piece`` ``table.piece(thetas)``,
    each computed when not given.  The cubic is added only when the table
    has a line piece: on the others it is exactly 0.  At t = 1 the cdf reads
    1, so the payoff there is ``phi``.  A cell's atoms sit at distinct
    points, so each point loses at most one half tie."""
    piece = table.piece(thetas) if piece is None else piece
    lin, slope = _linear_form(table) if form is None else form
    out = slope.ravel()[piece]
    out *= thetas
    np.subtract(lin.ravel()[piece], out, out=out)
    if table.c1.any():
        cubic = thetas - 1.5
        cubic *= thetas
        cubic += 1.0
        cubic *= thetas
        cubic *= table.c1.ravel()[piece]
        out += cubic
    np.copyto(out, 1.0 - table.total, where=thetas == 1.0)
    at_atom = np.zeros(thetas.shape, dtype=bool)
    for at, mass in zip(table.atom_at.T, table.atom_mass.T):
        hit = thetas == at[:, None]
        cell, point = np.divmod(np.flatnonzero(hit), hit.shape[1])  # 2-D nonzero is slower
        x = thetas[cell, point]
        out[cell, point] -= (x * x + (1.0 - x) * (1.0 - x)) * (0.5 * mass[cell])
        at_atom |= hit
    return out, at_atom


def _margins(payoff, on_support, tol):
    """The one verdict on payoffs, along the last axis: the largest
    ``|payoff - 1/2|`` on the support, the largest ``payoff - 1/2`` off it
    (at least 0) and whether both are within ``tol``."""
    excess = payoff - 0.5
    support_dev = np.where(on_support, np.abs(excess), 0.0).max(axis=-1)
    outside_gain = np.maximum(np.where(on_support, 0.0, excess).max(axis=-1), 0.0)
    return support_dev, outside_gain, (support_dev <= tol) & (outside_gain <= tol)


def win_probabilities(theta: float, opponent: MixedCdf) -> PayoffProfile:
    """Selection probabilities conditioned on passing/failing a test of ``theta``.

    Passing wins against every failing opponent and against passers with
    strictly easier tests, plus half of the exact ties; failing only beats
    failers with strictly easier tests, plus half of those ties.
    """
    theta = float(_unit_points(float(theta)))
    table, point = opponent._table, np.array([[theta]])
    cdf, gamma = (value.item() for value in table.evaluate(point, integral=True))
    phi, t_val = 1.0 - table.total.item(), cdf - 0.5 * opponent.atom_mass(theta)
    return PayoffProfile(theta=theta, win_pass=phi + (1.0 - theta) * t_val + gamma,
                         win_fail=theta * t_val - gamma,
                         win_total=_payoff(point, table)[0].item())


def selection_probabilities(thetas, opponent: MixedCdf) -> np.ndarray:
    """Vectorized overall selection probability for each ``theta``."""
    arr = _unit_points(thetas)
    return _payoff(arr.reshape(1, -1), opponent._table)[0].reshape(arr.shape)[()]


def selection_probability(theta: float, opponent: MixedCdf) -> float:
    """Overall probability of being selected when playing ``theta``."""
    return float(selection_probabilities([float(theta)], opponent)[0])


# ---------------------------------------------------------------------------
# Equilibrium construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumSolution:
    """An equilibrium distribution together with its structural data.

    ``regime`` is ``"step_at_b"`` when both firms deterministically choose the
    hardest allowed test, ``"interior"`` for the mixed closed form, and
    ``"candidate"`` for wrappers around user-supplied distributions awaiting
    verification.  ``cut_point`` marks the end of the strictly increasing part
    of the cdf; the plateau ``(cut_point, b)`` carries no mass and the jump at
    ``b`` has mass ``atom_b``.
    """

    dist: MixedCdf
    interval: tuple[float, float]
    regime: str
    cut_point: float
    atom_b: float
    failure_prob: float

    def to_dict(self) -> dict:
        data = self.dist.to_dict()
        data.update(
            interval=[self.interval[0], self.interval[1]],
            regime=self.regime,
            cut_point=self.cut_point,
            atom_b=self.atom_b,
            failure_prob=self.failure_prob,
        )
        return data


def equilibrium_unrestricted() -> EquilibriumSolution:
    """The unique equilibrium when any test in [0, 1] may be chosen.

    The cdf is ``(1 - (1-2t)/sqrt(t^2+(1-t)^2)) / 2``: continuous, full
    support, symmetric about 1/2, with failure probability exactly 1/2.  It is
    the [0, 1] member of :func:`equilibrium_interval`, under its own name.
    """
    return _equilibrium(0.0, 1.0, ("eq_unrestricted",))


def equilibrium_interval(a: float, b: float) -> EquilibriumSolution:
    """The unique equilibrium when tests are restricted to [a, b]."""
    a, b = _unit_interval("interval bound", a, b, "a < b")
    return _equilibrium(a, b, ("eq_interval", a, b))


def _interval_params(a, b):
    """The [a, b] equilibrium's closed form for arrays of cells: ``step``
    (``(1 - a) b <= 1/2``: both firms choose b), ``phi``, the piece rows,
    the cut point, the point mass at b (none on [0, 1]) and ``sound``: the
    cut point and mass formulas agree and the arc is 0 at a, both to 1e-9,
    the mass is positive and ``a < cut <= b``.

    The rows, as :func:`_piece_table`'s columns, hold the atom at b and four
    pieces a cell, ``(lo, hi, c0, 0, c2)``: 0 on [0, a) ([0, b) in the step
    regime), the arc ``(offset, 0, scale)`` on [a, cut), the plateau
    ``cdf(cut)`` on [cut, b) and 1 on [b, 1]; a piece the cell lacks is empty."""
    step = (1.0 - a) * b <= 0.5
    phi = np.where(step, b, 1.0 / (2.0 * (1.0 - a)))
    spread = np.sqrt(a * a + (1.0 - a) * (1.0 - a))
    offset = np.where(step, 0.0, phi * (1.0 - 2.0 * a))
    scale = np.where(step, 0.0, phi * spread)
    mass = (1.0 - a * (1.0 - b) - b * (1.0 - a)) / ((1.0 - a) * ((1.0 - b) ** 2 + b * b))
    with np.errstate(divide="ignore", invalid="ignore"):  # step cells only
        cut = (1.0 - a - 2.0 * b + 4.0 * a * b - 2.0 * a * b * b) / (
            1.0 - 4.0 * (1.0 - a) * b + 2.0 * (1.0 - 2.0 * a) * b * b
        )
    continuous = ~step & (mass <= 1e-15)
    cut = np.where(step | continuous, b, cut)
    plateau = _row_cdf(offset, 0.0, scale, cut)
    atom = np.where(step, 1.0, np.where(continuous, 0.0, 1.0 - plateau))
    sound = step | ((np.abs(plateau - (1.0 - mass)) <= 1e-9)
                    & (np.abs(_row_cdf(offset, 0.0, scale, a)) <= 1e-9)
                    & ((atom > 0.0) | continuous) & (a < cut) & (cut <= b))
    zero, one, start = np.zeros_like(a), np.ones_like(a), np.where(step, 0.0, a)
    c0 = np.stack([zero, offset, plateau, one], axis=-1)
    rows = (np.stack([zero, start, cut, b], axis=-1), np.stack([start, cut, b, one], axis=-1),
            c0, np.zeros_like(c0), np.stack([zero, scale, zero, zero], axis=-1),
            b[:, None], atom[:, None])
    return step, phi, rows, cut, atom, sound


def _equilibrium(a: float, b: float, family: tuple) -> EquilibriumSolution:
    """The [a, b] equilibrium, its cdf built once and labelled ``family``."""
    step, phi, rows, cut, atom_b, sound = _interval_params(np.array([a]), np.array([b]))
    if not sound[0]:
        raise AssertionError(f"the closed form on [{a}, {b}] fails its checks")
    pieces = tuple(row for row in zip(*(values[0].tolist() for values in rows[:5]))
                   if row[0] < row[1])
    atom_b = atom_b.item()
    return EquilibriumSolution(
        dist=MixedCdf(pieces, ((b, atom_b),) if atom_b else (), family=family),
        interval=(a, b),
        regime="step_at_b" if step[0] else "interior",
        cut_point=cut.item(),
        atom_b=atom_b,
        failure_prob=phi.item(),
    )


def candidate_solution(dist: MixedCdf,
                       interval: tuple[float, float] = (0.0, 1.0)) -> EquilibriumSolution:
    """Wrap a distribution, whose mass must lie in ``interval``, for verification."""
    a, b = _unit_interval("interval bound", interval[0], interval[1], "a < b")
    if dist.left_limit(a) > _JUNCTION_TOL or 1.0 - dist.cdf(b) > _JUNCTION_TOL:
        raise ValueError(f"the distribution has mass outside [{a}, {b}]")
    return EquilibriumSolution(
        dist=dist,
        interval=(a, b),
        regime="candidate",
        cut_point=b,
        atom_b=dist.atom_mass(b),
        failure_prob=dist.failure_probability(),
    )


# ---------------------------------------------------------------------------
# Verification and best responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    max_support_deviation: float
    max_outside_gain: float
    passed: bool
    grid_size: int
    tol: float

    def to_dict(self) -> dict:
        # ``passed`` is written as ``pass``, in its place.
        return {"pass" if name == "passed" else name: value
                for name, value in asdict(self).items()}


#: The largest grid :func:`verify_equilibrium` takes: grid indices are
#: floats, exact up to 2**53, so that the run ends are those of the grid.
_MAX_GRID = 2**53


def verify_equilibrium(sol: EquilibriumSolution, grid_size: int = 10_000,
                       tol: float = 1e-8) -> VerificationReport:
    """Check the equilibrium property of ``sol`` by payoff evaluation.

    On the support of the distribution the selection probability against it
    must equal 1/2 (within ``tol``); everywhere else on the allowed interval
    it must not exceed 1/2 + ``tol``.  The margins are those of a
    ``grid_size``-point grid on the interval with its special points and
    peaks (``_verify``).  Against a cdf of arcs and flat pieces they are
    computed from the grid's run ends, so time and memory barely grow with
    ``grid_size``; a cdf with a line piece is scored at every grid point, a
    chunk at a time, so memory does not grow with it.  ``grid_size`` lies
    in [1000, 2**53].
    """
    grid_size = _as_count(grid_size, "grid_size")
    if not 1000 <= grid_size <= _MAX_GRID:
        raise ValueError(f"grid_size must be between 1000 and {_MAX_GRID}")
    _check_nonnegative("tol", tol)
    table = sol.dist._table
    form = _linear_form(table)
    a, b = (np.array([end]) for end in sol.interval)
    dev, gain, passed = _verify(table, form, a, b, _peaks(table, form, a, b), grid_size, tol)
    return VerificationReport(dev.item(), gain.item(), bool(passed[0]), grid_size, tol)


def _peaks(table, form, a, b):
    """The points of [a, b] (arrays of cells) besides the piece lows where
    the payoff against each cell's cdf in ``table``, of
    :func:`_linear_form` ``form``, can peak, clipped into [a, b]: just
    right of each atom, where a tie is won in full, and the critical points
    of each line piece, or its low when they lie outside it.

    On a piece the payoff ``A - B t + c1 t (t^2 - 3t/2 + 1)`` has the
    derivative ``3 c1 (t^2 - t) + g`` with ``g = c1 - B``.  So it is linear
    on an arc or flat piece and peaks at one of its ends, and on a line
    piece it is a cubic with critical points ``1/2 +- sqrt(1/4 - g / (3
    c1))``."""
    g = table.c1 - form[1]
    with np.errstate(divide="ignore", invalid="ignore"):  # arcs and flat pieces
        half = np.sqrt(0.25 - g / (3.0 * table.c1))
    roots = [np.where((table.lo < x) & (x < table.hi), x, table.lo)
             for x in (0.5 - half, 0.5 + half)]
    return np.clip(np.concatenate([np.nextafter(table.atom_at, 2.0), *roots], axis=1),
                   a[:, None], b[:, None])


def _grid(a, b, size: int, k) -> np.ndarray:
    """Points ``k`` of ``np.linspace(a[i], b[i], size)`` in row i, for
    arrays of cells, ``size >= 2`` and float indices ``k``, one row shared
    by every cell or one row a cell; ``k = 0 ... size - 1`` is the whole
    grid.  Bit for bit linspace's, in one multiply-add: ``a + k * step``
    with the exact b at ``k = size - 1``, or ``a + (k / (size - 1)) * (b -
    a)`` in a cell whose step underflows to 0, as linspace does.  So no
    cell's grid depends on the cells beside it, and a point is the same
    whichever others are asked for."""
    div = size - 1
    delta = b - a
    step = delta / div
    grid = np.multiply(step[:, None], k)
    under = step == 0
    if under.any():
        grid[under] = np.multiply(delta[under, None], np.broadcast_to(k, grid.shape)[under] / div)
    grid += a[:, None]
    np.copyto(grid, b[:, None], where=k == div)
    return grid


def _run_ends(table, a, b, size: int) -> np.ndarray:
    """Indices into each cell's ``size``-point :func:`_grid` of its ends and
    of the last point below and the first point above each breakpoint of
    the cell's cdf in ``table``: each piece low, where the piece and the
    support flag change, each atom, and 1, where the payoff reads ``phi``.

    The count of points at or below x is the count below the next float up.
    """
    x = np.concatenate([table.lo, table.atom_at, np.ones((len(a), 1))], axis=1)
    x = np.concatenate([x, np.nextafter(x, 2.0)], axis=1)
    count = _count_below(a, b, size, x)
    count[:, :x.shape[1] // 2] -= 1.0  # the last point below; the rest are the first above
    ends = np.broadcast_to([0.0, size - 1.0], (len(a), 2))
    return np.clip(np.concatenate([ends, count], axis=1), 0.0, size - 1.0)


def _count_below(a, b, size: int, x) -> np.ndarray:
    """The count of points of each cell's ``size``-point :func:`_grid`
    below each of its x, a (cells, m) array, exactly, by binary lifting on
    k with the grid's own formula.  The grid is nondecreasing in k, as
    rounding is monotone, so the count is the largest c with point c - 1
    below x; no guess from ``(x - a) / step`` is used, as several k may
    give one point (on [0.3, 0.3 + 1e-14], say)."""
    count = np.zeros_like(x)
    step = 1 << (size.bit_length() - 1)  # the steps sum to at least size
    while step:
        k = count + step
        below = _grid(a, b, size, np.minimum(k, size) - 1.0) < x
        count += np.where(below & (k <= size), step, 0.0)
        step >>= 1
    return count


#: Points :func:`_verify` scores at once on a table with a line piece, a
#: whole grid of 10,000 with its special points among them: beyond it the
#: grid is scored in chunks, so memory does not grow with the grid size.
_CHUNK_POINTS = 1 << 14


def _verify(table, form, a, b, peaks, grid_size: int, tol: float):
    """:func:`_margins` against each cell's cdf in the piece ``table``, of
    :func:`_linear_form` ``form``, on [a, b] (arrays of cells): at a
    ``grid_size``-point grid, which holds a and b, every piece low, piece
    midpoint and atom clipped into [a, b] and the cells' :func:`_peaks`
    ``peaks``.  Each point gathers its piece's A and B, so it reads no cdf,
    integral or radius.

    The margins are the whole grid's, bit for bit, but on a table of arcs
    and flat pieces they are computed from the grid's run ends
    (:func:`_run_ends`).  Between two breakpoints a grid point's piece,
    support flag and atom flag do not change, and its payoff ``fl(A -
    fl(B t))`` is monotone in t, as rounding is; so are ``payoff - 1/2``
    and its size on either side of 1/2.  The largest of either over a run
    is at its first or last point.  The cubic of a line piece is not
    monotone bit for bit, so a table with one scores every grid point, in
    chunks of :data:`_CHUNK_POINTS` points with a running max."""
    special = np.concatenate([table.lo, 0.5 * (table.lo + table.hi), table.atom_at], axis=1)
    fixed = np.concatenate([np.clip(special, a[:, None], b[:, None]), peaks], axis=1)
    if not table.c1.any():
        grid = _grid(a, b, grid_size, _run_ends(table, a, b, grid_size))
        return _score(table, form, np.concatenate([grid, fixed], axis=1), tol)
    width = max(_CHUNK_POINTS // len(a) - fixed.shape[1], 1)
    support_dev = outside_gain = 0.0
    for start in range(0, grid_size, width):
        grid = _grid(a, b, grid_size, np.arange(start, min(start + width, grid_size), dtype=float))
        thetas = np.concatenate([grid, fixed], axis=1) if start == 0 else grid
        dev, gain, _ = _score(table, form, thetas, tol)
        support_dev, outside_gain = np.maximum(support_dev, dev), np.maximum(outside_gain, gain)
    return support_dev, outside_gain, (support_dev <= tol) & (outside_gain <= tol)


def _score(table, form, thetas, tol: float):
    """:func:`_margins` of the payoff at ``thetas`` against ``table``."""
    piece = table.piece(thetas)  # shared by the payoff and the support
    payoff, at_atom = _payoff(thetas, table, form, piece)
    return _margins(payoff, table.support(thetas, piece, at_atom), tol)


#: Cells per slab of :func:`_interval_cells`, verified in one call of
#: :func:`_verify` at 32 points a cell: 7,040 points.  On a 2-vCPU Xeon the
#: search at resolution 0.01 took a median 30.9 ms at 220 cells a slab, 32.1
#: at 110, 32.3 at 170 and 28.6 at 300 (12 fresh processes each), and 23.7,
#: 22.9 and 21.6 ms at 220, 256 and 300 in a second set of 16, within each
#: other's quartiles.  Its traced peak on one worker was 0.66 MiB at 220
#: cells and 0.86 MiB at 300, against 0.74 MiB when slabs were verified in
#: 10-cell blocks of 10,180 points.
_SLAB_CELLS = 220

#: Cells per group :func:`_interval_cells` values at once: valuing a whole
#: slab at once raised the search's peak RSS by 1.8 MiB.
_VALUE_CELLS = 40


def _interval_cells(a, b):
    """``(value, max_support_deviation, max_outside_gain)`` of the [a, b]
    equilibrium for arrays of cells, each checked by :func:`_interval_params`
    and by :func:`_verify` at grid 1000 and tol 1e-8 (the first failure, in
    cell order, raises ``RuntimeError``) and valued by :func:`_pair_error`.
    Every result is the cell's own, whatever cells come with it; the margins
    are those of the whole 1000-point grid, computed from its run ends.  The
    closed forms and their linear forms are built a slab of
    :data:`_SLAB_CELLS` cells at a time, and each slab is verified in one
    call and then valued in groups of :data:`_VALUE_CELLS`: a slab bounds
    the tables held and the points verified and a group the points valued,
    so beyond the cells and results memory does not grow with the number
    of cells.  Slab s runs on worker s mod W of
    :mod:`thresholdgame._workers`, with W one per CPU but at most one per
    slab, and writes its results in place, so W changes no bit."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not np.all((0.0 <= a) & (a < b) & (b <= 1.0)):  # NaN included
        raise ValueError("need 0 <= a < b <= 1")
    n_slabs = -(-len(a) // _SLAB_CELLS)

    def work(slabs, *results):
        for j in slabs:
            slab = slice(j * _SLAB_CELLS, (j + 1) * _SLAB_CELLS)
            sa, sb = a[slab], b[slab]
            value, support_dev, outside_gain = (r[slab] for r in results)  # views
            _, _, rows, _, _, sound = _interval_params(sa, sb)
            table = _piece_table(*rows)
            form = _linear_form(table)
            support_dev[:], outside_gain[:], passed = _verify(
                table, form, sa, sb, _peaks(table, form, sa, sb), 1000, 1e-8)
            if not np.all(passed & sound):
                i = np.argmin(passed & sound)
                raise RuntimeError(
                    f"constructed equilibrium on [{sa[i]}, {sb[i]}] failed verification"
                    f" ({support_dev[i]}, {outside_gain[i]}, sound: {sound[i]})")
            for s in range(0, len(sa), _VALUE_CELLS):
                group = table.cells(slice(s, s + _VALUE_CELLS))
                value[s:s + _VALUE_CELLS] = _pair_error(group.lo, group.hi, group)

    workers = min(_workers.available(), n_slabs)
    return tuple(_workers.run(work, n_slabs, workers, [(a.shape, np.float64)] * 3))


def best_response_value(opponent: MixedCdf, interval: tuple[float, float] = (0.0, 1.0)):
    """The best-response threshold against ``opponent`` on ``interval`` and
    its payoff: the best of the interval's ends, the piece lows in it and
    the :func:`_peaks`, where the payoff's supremum on a piece is attained,
    or at an atom approached to within one ulp of theta."""
    lo, hi = _unit_interval("interval bound", interval[0], interval[1])
    table, a, b = opponent._table, np.array([lo]), np.array([hi])
    form = _linear_form(table)
    peaks = _peaks(table, form, a, b)[0]
    thetas = np.unique(np.concatenate([a, b, np.clip(table.lo[0], lo, hi), peaks]))
    payoff = _payoff(thetas[None, :], table, form)[0][0]
    k = int(np.argmax(payoff))
    return float(thetas[k]), float(payoff[k])


def two_point_payoff_check(pair: tuple[float, float] = TWO_POINT_SET,
                           tol: float = 1e-12) -> bool:
    """True when every pure pair from ``pair x pair`` wins exactly half.

    For the set {1 - sqrt(2)/2, sqrt(2)/2} every ordered pure pair gives each
    firm selection probability 1/2, so *any* pair of mixtures over the set is
    an equilibrium.
    """
    _check_nonnegative("tol", tol)
    return all(abs(selection_probability(theta_x, MixedCdf.step(theta_y)) - 0.5) <= tol
               for theta_x in pair for theta_y in pair)
