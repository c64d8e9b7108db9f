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
probability must equal 1/2 and off the support it must not exceed 1/2, and a
grid-plus-golden-section best response search confirms there is no profitable
deviation against any candidate distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from thresholdgame._golden import golden_section_max
from thresholdgame.dists import MixedCdf, Piece, _row_cdf, _unit_points
from thresholdgame.engine import _as_count

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


def _opponent_terms(thetas, opponent: MixedCdf):
    """The one payoff evaluation: ``thetas`` as evaluation points (clipped,
    see :mod:`thresholdgame.dists`), the opponent's failure probability
    ``phi``, ``T = cdf - atom_mass / 2`` (an exact tie on the test is won
    half the time), ``Gamma = int_0^theta cdf`` and the selection probability."""
    thetas = _unit_points(thetas)
    t_val = opponent.cdf(thetas)
    half_atom = np.zeros_like(t_val)
    for loc, mass in opponent.atoms:
        half_atom[thetas == loc] = 0.5 * mass
    t_val = t_val - half_atom
    phi, gamma = opponent.failure_probability(), opponent.cdf_integral(thetas)
    # Expanded, not (1-theta) win_pass + theta win_fail, which rounds
    # differently: verify prints these bits.
    total = ((1.0 - thetas) * phi
             + ((1.0 - thetas) ** 2 + thetas**2) * t_val
             + (1.0 - 2.0 * thetas) * gamma)
    return thetas, phi, t_val, gamma, total


def win_probabilities(theta: float, opponent: MixedCdf) -> PayoffProfile:
    """Selection probabilities conditioned on passing/failing a test of ``theta``.

    Passing wins against every failing opponent and against passers with
    strictly easier tests, plus half of the exact ties; failing only beats
    failers with strictly easier tests, plus half of those ties.
    """
    (theta,), phi, (t_val,), (gamma,), (total,) = _opponent_terms([float(theta)], opponent)
    theta, t_val, gamma = float(theta), float(t_val), float(gamma)
    return PayoffProfile(theta=theta, win_pass=phi + (1.0 - theta) * t_val + gamma,
                         win_fail=theta * t_val - gamma, win_total=float(total))


def selection_probabilities(thetas, opponent: MixedCdf) -> np.ndarray:
    """Vectorized overall selection probability for each ``theta``."""
    return _opponent_terms(thetas, opponent)[-1]


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
    a, b = float(a), float(b)
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("need 0 <= a < b <= 1")
    return _equilibrium(a, b, ("eq_interval", a, b))


def _equilibrium(a: float, b: float, family: tuple) -> EquilibriumSolution:
    """The [a, b] equilibrium, its cdf built once and labelled ``family``."""
    pieces: list = []
    atoms: list[tuple[float, float]] = []
    if (1.0 - a) * b <= 0.5:
        # Both firms choose b: all mass sits there.
        regime, phi, cut, atom_b = "step_at_b", b, b, 1.0
        pieces.append(Piece(0.0, b, 0.0))
        atoms.append((b, 1.0))
    else:
        regime = "interior"
        phi = 1.0 / (2.0 * (1.0 - a))
        spread = math.sqrt(a * a + (1.0 - a) * (1.0 - a))
        offset, scale = phi * (1.0 - 2.0 * a), phi * spread
        atom_b = (1.0 - a * (1.0 - b) - b * (1.0 - a)) / (
            (1.0 - a) * ((1.0 - b) ** 2 + b * b)
        )
        cut = (1.0 - a - 2.0 * b + 4.0 * a * b - 2.0 * a * b * b) / (
            1.0 - 4.0 * (1.0 - a) * b + 2.0 * (1.0 - 2.0 * a) * b * b
        )
        if a > 0.0:
            pieces.append(Piece(0.0, a, 0.0))
        if atom_b <= 1e-15:
            # Continuous case (only [0, 1] itself): the arc reaches 1 at b.
            atom_b = 0.0
            cut = b
            pieces.append(Piece(a, b, offset, 0.0, scale))
        else:
            plateau = float(_row_cdf(offset, 0.0, scale, cut))
            if abs(plateau - (1.0 - atom_b)) > 1e-9:
                raise AssertionError(
                    "equilibrium cut point and point mass formulas disagree: "
                    f"cdf({cut}) = {plateau}, 1 - atom = {1.0 - atom_b}"
                )
            atom_b = 1.0 - plateau
            pieces.append(Piece(a, cut, offset, 0.0, scale))
            pieces.append(Piece(cut, b, plateau))
            atoms.append((b, atom_b))
    if b < 1.0:
        pieces.append(Piece(b, 1.0, 1.0))
    return EquilibriumSolution(
        dist=MixedCdf(tuple(pieces), tuple(atoms), family=family),
        interval=(a, b),
        regime=regime,
        cut_point=cut,
        atom_b=atom_b,
        failure_prob=phi,
    )


def candidate_solution(dist: MixedCdf,
                       interval: tuple[float, float] = (0.0, 1.0)) -> EquilibriumSolution:
    """Wrap an arbitrary distribution for equilibrium verification."""
    a, b = float(interval[0]), float(interval[1])
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("need 0 <= a < b <= 1")
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
        return {
            "max_support_deviation": self.max_support_deviation,
            "max_outside_gain": self.max_outside_gain,
            "pass": self.passed,
            "grid_size": self.grid_size,
            "tol": self.tol,
        }


def verify_equilibrium(sol: EquilibriumSolution, grid_size: int = 10_000,
                       tol: float = 1e-8) -> VerificationReport:
    """Check the equilibrium property of ``sol`` by payoff evaluation.

    On the support of the distribution the selection probability against it
    must equal 1/2 (within ``tol``); everywhere else on the allowed interval
    it must not exceed 1/2 + ``tol``.
    """
    grid_size = _as_count(grid_size, "grid_size")
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    if not 0.0 <= tol < math.inf:  # NaN included
        raise ValueError("tol must be finite and nonnegative")
    a, b = sol.interval
    dist = sol.dist
    pts = {a, b, float(sol.cut_point)}
    for p in dist.breakpoints:
        if a <= p <= b:
            pts.add(float(p))
    for piece in dist.pieces:
        mid = 0.5 * (piece.lo + piece.hi)
        if a <= mid <= b:
            pts.add(float(mid))
    thetas = np.union1d(np.linspace(a, b, grid_size), sorted(pts))
    payoff = selection_probabilities(thetas, dist)
    on_support = dist.support_mask(thetas)

    support_dev = 0.0
    if on_support.any():
        support_dev = float(np.max(np.abs(payoff[on_support] - 0.5)))
    outside_gain = 0.0
    if (~on_support).any():
        outside_gain = float(max(np.max(payoff[~on_support] - 0.5), 0.0))
    passed = support_dev <= tol and outside_gain <= tol
    return VerificationReport(
        max_support_deviation=support_dev,
        max_outside_gain=outside_gain,
        passed=passed,
        grid_size=grid_size,
        tol=tol,
    )


def best_response_value(opponent: MixedCdf, grid_size: int = 1000,
                        interval: tuple[float, float] = (0.0, 1.0)):
    """Approximate best-response threshold and payoff against ``opponent``.

    Grid scan (including the opponent's breakpoints, its atoms, and points
    just off each atom, where the payoff jumps) refined by golden section on
    the winning bracket.
    """
    grid_size = _as_count(grid_size, "grid_size")
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("need 0 <= lo < hi <= 1")
    candidates = set(np.linspace(lo, hi, grid_size))
    for p in opponent.breakpoints:
        if lo <= p <= hi:
            candidates.add(float(p))
    for loc, _ in opponent.atoms:
        for probe in (loc - 1e-9, loc + 1e-9):
            if lo <= probe <= hi:
                candidates.add(float(probe))
    thetas = np.array(sorted(candidates))
    payoff = selection_probabilities(thetas, opponent)
    k = int(np.argmax(payoff))
    best_theta, best_payoff = float(thetas[k]), float(payoff[k])

    step = (hi - lo) / (grid_size - 1)
    bracket_lo = max(lo, best_theta - step)
    bracket_hi = min(hi, best_theta + step)
    theta_gs, payoff_gs = golden_section_max(
        lambda t: selection_probability(t, opponent), bracket_lo, bracket_hi,
        iterations=60,
    )
    if payoff_gs > best_payoff:
        best_theta, best_payoff = theta_gs, payoff_gs
    return best_theta, best_payoff


def two_point_payoff_check(pair: tuple[float, float] = TWO_POINT_SET,
                           tol: float = 1e-12) -> bool:
    """True when every pure pair from ``pair x pair`` wins exactly half.

    For the set {1 - sqrt(2)/2, sqrt(2)/2} every ordered pure pair gives each
    firm selection probability 1/2, so *any* pair of mixtures over the set is
    an equilibrium.
    """
    for theta_x in pair:
        for theta_y in pair:
            payoff = selection_probability(theta_x, MixedCdf.step(theta_y))
            if abs(payoff - 0.5) > tol:
                return False
    return True
