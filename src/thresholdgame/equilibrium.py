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
``_payoff``) is the one payoff formula.  As the payoff is linear on arcs and
flat pieces and a cubic on line pieces, its supremum over any stretch of a
piece lies at the stretch's ends or at a line piece's critical points
(``_roots``).  So one verifier, ``_verify``, which checks a single cdf and
slabs of interval cells, scores each piece clipped to [a, b] at those few
points with the piece's own form, and its margins are the exact suprema
over [a, b], which bound those of any grid; the same points, and those just
right of each atom (``_peaks``), give the exact best response against any
distribution.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from thresholdgame._checks import _as_count, _check_nonnegative, _unit_interval
from thresholdgame.dists import (_JUNCTION_TOL, MixedCdf, _piece_table, _radius, _row_cdf,
                                 _unit_points)

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


def _on_piece(thetas, lin, slope, c1=None):
    """A piece's payoff ``A - B t`` at ``thetas``, from its :func:`_linear_form`
    ``lin`` and ``slope``, plus the cubic ``c1 t (t^2 - 3t/2 + 1)`` of a line
    piece when ``c1`` is given; arrays of one shape."""
    out = slope * thetas
    np.subtract(lin, out, out=out)
    if c1 is not None:
        cubic = thetas - 1.5
        cubic *= thetas
        cubic += 1.0
        cubic *= thetas
        cubic *= c1
        out += cubic
    return out


def _payoff(thetas, table, form=None, piece=None):
    """The one payoff formula: the selection probability at ``thetas``, a
    (cells, points) array, against each cell's cdf in ``table``, and whether
    each point is an atom of its cell.  ``form`` is
    :func:`_linear_form` of the table and ``piece`` ``table.piece(thetas)``,
    each computed when not given.  The cubic is added only when the table
    has a line piece: on the others it is exactly 0.  At t = 1 the cdf reads
    1, so the payoff there is ``phi``.  A cell's atoms sit at distinct
    points, so each point loses at most one half tie."""
    piece = table.piece(thetas) if piece is None else piece
    lin, slope = _linear_form(table) if form is None else form
    c1 = table.c1.ravel()[piece] if table.c1.any() else None
    out = _on_piece(thetas, lin.ravel()[piece], slope.ravel()[piece], c1)
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
    theta = float(_unit_points(theta))
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
    return float(selection_probabilities(theta, opponent))


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


def _interval_error(rows):
    """The error ``int_0^1 x (1 - G)^2 + 2 (1 - G) Gamma + (1 - x) G^2 dx``
    (:func:`thresholdgame.inversion.inversion_iid`) of the [a, b]
    equilibrium's cdf G for arrays of cells, in closed form from
    :func:`_interval_params`'s ``rows``, piece by piece.

    On [0, a) it is ``a^2 / 2`` and on [b, 1] ``(1 - b)^2 / 2``.  On the arc
    [a, cut), with ``s = 2x - 1``, ``r = sqrt(x^2 + (1 - x)^2)``, ``G = c0 +
    c2 s / r`` and ``Gamma = c0 x + c2 r - g0``, ``g0 = c0 a + c2 r(a)``,
    the integrand is ``(1 - 2 c0^2 - 4 c2^2) x + c0^2 + 2 c2^2 - 2 (1 - c0)
    g0 + c2^2 u^2 - 2 c2 (1 + c0) x u + 2 c2 (g0 + c0) u + 2 (1 - c0) c2 r``
    with ``u = s / r``, as ``u r = s``; by ``int u^2 = 2x - atan s``, ``int u
    = r``, ``int r = s r / 4 + asinh(s) / (4 sqrt 2)`` and ``int x u = int r
    + r / 2 - asinh(s) / (2 sqrt 2)`` its antiderivative is ``arc`` below.
    On the plateau [cut, b), where G is ``p = G(cut)``, the integrand is
    ``(1 - 2p^2) x + 2 (1 - p) (Gamma(cut) - p cut) + p^2``.  In the step
    regime the arc starts at 0 with ``c0 = c2 = 0`` and ends at b, so the
    error is ``(b^2 + (1 - b)^2) / 2``."""
    lo, _, level, _, scale = rows[:5]
    a, cut, b = lo[:, 1], lo[:, 2], lo[:, 3]
    c0, p, c2 = level[:, 1], level[:, 2], scale[:, 1]
    x = np.stack([a, cut])
    s = 2.0 * x - 1.0
    r = _radius(x)
    g0 = c0 * a + c2 * r[0]
    arc = (((0.5 - c0 * c0 - 2.0 * c2 * c2) * x + c0 * c0 + 4.0 * c2 * c2 - 2.0 * (1.0 - c0) * g0)
           * x - c2 * c2 * np.arctan(s)
           + c2 * (np.arcsinh(s) / math.sqrt(2.0) + (2.0 * g0 + c0 - 1.0 - c0 * s) * r))
    gamma_cut = c0 * cut + c2 * r[1] - g0
    plateau = (b - cut) * ((0.5 - p * p) * (b + cut) + 2.0 * (1.0 - p) * (gamma_cut - p * cut)
                          + p * p)
    return 0.5 * a * a + (arc[1] - arc[0]) + plateau + 0.5 * (1.0 - b) ** 2


def _interval_values(a, b):
    """``(value, rows, sound)`` of the [a, b] equilibrium for arrays of
    cells: its error valued by :func:`_interval_error` from
    :func:`_interval_params`'s closed form, with that form's ``rows`` and
    ``sound``.  The one path by which cells are valued; it verifies
    nothing."""
    _, _, rows, _, _, sound = _interval_params(a, b)
    return _interval_error(rows), rows, sound


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


def verify_equilibrium(sol: EquilibriumSolution, grid_size: int = 10_000,
                       tol: float = 1e-8) -> VerificationReport:
    """Check the equilibrium property of ``sol`` by payoff evaluation.

    On the support of the distribution the selection probability against it
    must equal 1/2 (within ``tol``); everywhere else on the allowed interval
    it must not exceed 1/2 + ``tol``.  The margins are the exact suprema of
    ``|payoff - 1/2|`` on the support and of ``payoff - 1/2`` off it over
    the whole interval (:func:`_verify`), so they bound those of any grid on
    it.  ``grid_size``, an integer of at least 1000, is validated and echoed
    in the report only: no grid is scored.
    """
    grid_size = _as_count(grid_size, "grid_size")
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    _check_nonnegative("tol", tol)
    a, b = (np.array([end]) for end in sol.interval)
    dev, gain, passed = _verify(sol.dist._table, a, b, tol)
    return VerificationReport(dev.item(), gain.item(), bool(passed[0]), grid_size, tol)


def _roots(table, form):
    """The critical points of each piece's payoff against ``table``, of
    :func:`_linear_form` ``form``: two (cells, pieces) arrays holding each
    line piece's two, or the piece's low where one lies outside the piece.

    On a piece the payoff ``A - B t + c1 t (t^2 - 3t/2 + 1)`` has the
    derivative ``3 c1 (t^2 - t) + g`` with ``g = c1 - B``.  So it is linear
    on an arc or flat piece and peaks at one of its ends, and on a line
    piece it is a cubic with critical points ``1/2 +- sqrt(1/4 - g / (3
    c1))``."""
    g = table.c1 - form[1]
    with np.errstate(divide="ignore", invalid="ignore"):  # arcs and flat pieces
        half = np.sqrt(0.25 - g / (3.0 * table.c1))
    return [np.where((table.lo < x) & (x < table.hi), x, table.lo)
            for x in (0.5 - half, 0.5 + half)]


def _peaks(table, form, a, b):
    """The points of [a, b] (arrays of cells) besides the piece lows where
    the payoff against each cell's cdf in ``table``, of
    :func:`_linear_form` ``form``, can peak, clipped into [a, b]: just
    right of each atom, where a tie is won in full, and the :func:`_roots`
    of each line piece."""
    return np.clip(np.concatenate([np.nextafter(table.atom_at, 2.0), *_roots(table, form)],
                                  axis=1), a[:, None], b[:, None])


def _verify(table, a, b, tol: float):
    """:func:`_margins` of the exact suprema of the payoff against each
    cell's cdf in the piece ``table`` over [a, b] (arrays of cells).

    Each piece that meets [a, b] in more than a point is clipped to it and
    scored with its own :func:`_linear_form` at both clipped ends, and at
    its :func:`_roots` clipped likewise when the table has a line piece,
    with no piece lookup; at a piece's right end that is the left limit,
    which no point reaches.  On an arc or flat piece ``fl(A - fl(B t))`` is
    monotone in t, as rounding is, so no point of the piece scores beyond
    its ends, bit for bit; a line piece's cubic may, by a few ulps.  A
    rising piece counts toward the support deviation and a flat one toward
    the outside gain.  The support is closed, so a flat piece's low in
    [a, b] after a rising piece, with no atom there, counts toward both.

    The forms miss the half ties and 1, where the payoff reads ``phi``: the
    point b and each atom in [a, b] are scored by :func:`_payoff`, the only
    piece lookups.  An atom is in the support, and b is when its piece or
    the last piece before it is rising."""
    form = _linear_form(table)
    lo, hi = (np.clip(x, a[:, None], b[:, None]) for x in (table.lo, table.hi))
    inside = lo < hi
    rising = (table.c1 > 1e-12) | (table.c2 > 0.0)
    c1 = table.c1 if table.c1.any() else None
    ends = [lo, hi] + ([np.clip(x, lo, hi) for x in _roots(table, form)] if c1 is not None else [])
    values = [_on_piece(x, *form, c1) for x in ends]
    flags = rising.ravel()
    closes = (~rising & (table.lo >= a[:, None]) & flags[table.piece(table.lo, left=True)]
              & ~(table.lo[:, :, None] == table.atom_at[:, None, :]).any(axis=2))
    points = np.concatenate([b[:, None], np.clip(table.atom_at, a[:, None], b[:, None])], axis=1)
    piece = table.piece(points)
    at_points, at_atom = _payoff(points, table, form, piece)
    b_support = flags[piece[:, :1]] | flags[table.piece(b[:, None], left=True)] | at_atom[:, :1]
    atom_in = (a[:, None] <= table.atom_at) & (table.atom_at <= b[:, None])
    payoff = np.concatenate([*values, values[0], at_points], axis=1)
    scored = np.concatenate([*[inside] * len(values), inside & closes,
                             np.ones_like(b_support), atom_in], axis=1)
    on_support = np.concatenate([*[rising] * len(values), closes, b_support, atom_in], axis=1)
    return _margins(np.where(scored, payoff, 0.5), on_support, tol)


#: Cells per slab of :func:`_interval_cells`, verified and valued in one
#: call each.  On a 2-vCPU Xeon the search at resolution 0.01 on one worker
#: took a median 9.8 ms at 440 cells a slab against 11.1 at 220 (440 lower
#: in 12 of 12 fresh-process pairs), 9.7 against 10.0 at 880 (6 of 12) and
#: 9.8 against 9.4 at 1,760, one slab (3 of 12); the grid phase's traced
#: peak was 0.34, 0.58, 1.07 and 1.95 MiB at 220, 440, 880 and 1,760 cells.
_SLAB_CELLS = 440


def _interval_cells(a, b):
    """``(value, max_support_deviation, max_outside_gain)`` of the [a, b]
    equilibrium for arrays of cells, each valued in closed form by
    :func:`_interval_values` and checked by its ``sound`` and by
    :func:`_verify` at tol 1e-8 (the first failure, in cell order, raises
    ``RuntimeError``).  Every result is the cell's own, whatever cells come
    with it; the margins are the exact suprema over the cell's interval.
    The closed forms and their linear forms are built a slab of
    :data:`_SLAB_CELLS` cells at a time, and each slab is valued and then
    verified in one call each: a slab bounds the tables held and the points
    verified, so beyond the cells and results memory does not grow with the
    number of cells."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not np.all((0.0 <= a) & (a < b) & (b <= 1.0)):  # NaN included
        raise ValueError("need 0 <= a < b <= 1")
    value, support_dev, outside_gain = results = tuple(np.empty(a.shape) for _ in range(3))
    for start in range(0, len(a), _SLAB_CELLS):
        slab = slice(start, start + _SLAB_CELLS)
        sa, sb = a[slab], b[slab]
        value[slab], rows, sound = _interval_values(sa, sb)
        support_dev[slab], outside_gain[slab], passed = _verify(_piece_table(*rows), sa, sb, 1e-8)
        if not np.all(passed & sound):
            i = start + np.argmin(passed & sound)
            raise RuntimeError(
                f"constructed equilibrium on [{a[i]}, {b[i]}] failed verification"
                f" ({support_dev[i]}, {outside_gain[i]}, sound: {sound[i - start]})")
    return results


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
    an equilibrium.  ``pair`` must hold exactly two points.
    """
    _check_nonnegative("tol", tol)
    if len(pair) != 2:
        raise ValueError(f"pair must hold exactly two points, got {len(pair)}")
    return all(abs(selection_probability(theta_x, MixedCdf.step(theta_y)) - 0.5) <= tol
               for theta_x in pair for theta_y in pair)
