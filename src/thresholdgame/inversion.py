"""Deterministic evaluation of the principal's error probability.

When two firms draw tests independently from cdfs ``G_A`` and ``G_B`` over
[0, 1], the chance of selecting the worse product is the double integral
over the ordered-quality triangle ``{0 <= y <= x <= 1}`` of the pair sum
``(1 - G_A(x) + G_A(y)) (1 - G_B(x) + G_B(y))``, which is
``(1 - G(x) + G(y))^2`` when both draw from ``G``.  Integrating out ``y``
with ``Gamma(x) = int_0^x G`` leaves the one-dimensional form

    B(G_A, G_B) = int_0^1 [x (1 - G_A)(1 - G_B) + (1 - G_A) Gamma_B
                           + (1 - G_B) Gamma_A + (1 - x) G_A G_B] dx,

whose integrand is smooth on every piece of the cdfs (atoms sit only at
piece junctions).  This pair error is the one error functional:
``thresholdgame.dists._pair_error`` integrates it in closed form piece by
piece, over the pieces of one piece table or of two cut at their merged
breakpoints.  ``inversion_iid`` is ``I(G) = B(G, G)``, ``inversion_rule``
the mean of B over a rule's pairs of firms, ``hybrid_decompose`` three
values of B, and the interval search values its cells by it too.  B is
linear in each cdf's measure, so against any cdf the best reply is a point
mass.  The tests check B against adaptive 2-D quadrature of the original
integrand and against a Gauss-Legendre sum of the one-dimensional form.

:func:`inversion_rule` uses the exact pairwise formula for deterministic
threshold lists when no firm draws its test.  The module also provides the
decomposition of the error of an arbitrary cdf into linear and quadratic
coefficients of its mixture with the optimal cdf, and the cubic-in-deviation
lower bound those coefficients imply.  It re-exports the exact optimal
values, ``OPTIMAL_IID_VALUE`` and :func:`optimal_value_correlated`, from the
numpy-free :mod:`thresholdgame.optimal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from thresholdgame._checks import _as_count, _check_unit_params
from thresholdgame.dists import MixedCdf, _pair_error
from thresholdgame.engine import (FixedThresholds, IidRule, IndependentRule, InversionEstimate,
                                  SameTest, _single_atom)
from thresholdgame.optimal import OPTIMAL_IID_VALUE, optimal_value_correlated

__all__ = [
    "HybridCoefficients",
    "OPTIMAL_IID_VALUE",
    "SuboptimalityBound",
    "hybrid_decompose",
    "inversion_fixed",
    "inversion_iid",
    "inversion_rule",
    "optimal_value_correlated",
    "suboptimality_bound",
]


def _merged_edges(*dists) -> np.ndarray:
    """The sorted union of the breakpoints of ``dists``, as a (1, k) array."""
    return np.array([sorted(set().union(*(d.breakpoints for d in dists)))], dtype=float)


def _merged_tables(*dists) -> list:
    """The piece table of each of ``dists`` on the pieces cut by all their
    breakpoints, as ``_pair_error`` pairs them."""
    edges = _merged_edges(*dists)
    return [d._table.split(edges[:, :-1], edges[:, 1:]) for d in dists]


# ---------------------------------------------------------------------------
# The error functional
# ---------------------------------------------------------------------------


def inversion_iid(d: MixedCdf) -> InversionEstimate:
    """Error probability when both firms draw tests i.i.d. from ``d``, the
    pair error of ``d`` with itself."""
    return InversionEstimate(value=float(_pair_error(d._table)[0]), method="closed_form")


def inversion_rule(rule) -> InversionEstimate:
    """Expected fraction of inverted pairs under a test-assignment rule: the
    mean over its pairs of firms, so for any firm count the rule admits.
    A rule whose every firm takes a fixed test, or draws it independently
    from a single atom, is valued by :func:`inversion_fixed`, any other by
    the pair error."""
    if isinstance(rule, IidRule):
        return inversion_iid(rule.dist)
    if isinstance(rule, SameTest):
        thresholds = [rule.theta, rule.theta]
    elif isinstance(rule, FixedThresholds):
        thresholds = sorted(rule.thresholds)
    elif isinstance(rule, IndependentRule):
        thresholds = [_single_atom(d) for d in rule.dists]
        if None in thresholds:
            pairs = list(combinations(_merged_tables(*rule.dists), 2))
            total = sum(_pair_error(a, b)[0] for a, b in pairs)
            return InversionEstimate(value=float(total / len(pairs)), method="closed_form")
        thresholds.sort()
    else:
        raise ValueError(f"not a test-assignment rule: {rule!r}")
    return InversionEstimate(value=float(inversion_fixed(thresholds)), method="closed_form")


def inversion_fixed(thresholds) -> float | Fraction:
    """Expected fraction of inverted pairs for fixed, sorted thresholds.

    For each pair the principal errs exactly when both qualities land in the
    same band cut by the two thresholds, which happens with probability
    ``(lo^2 + (hi - lo)^2 + (1 - hi)^2) / 2``.  Exact for Fraction inputs.
    """
    seq = list(thresholds)
    n = len(seq)
    if n < 2:
        raise ValueError("need at least two thresholds")
    _check_unit_params("threshold", *seq)
    for lo, hi in zip(seq, seq[1:]):
        if lo > hi:
            raise ValueError("thresholds must be sorted ascending")
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            lo, hi = seq[i], seq[j]
            total += lo * lo + (hi - lo) * (hi - lo) + (1 - hi) * (1 - hi)
    n_pairs = n * (n - 1) // 2
    return total / (2 * n_pairs)


# ---------------------------------------------------------------------------
# Hybrid decomposition and the deviation lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HybridCoefficients:
    """Coefficients of the error along the mixture path toward a cdf ``H``.

    Mixing the optimal cdf with ``H`` at weight ``t`` has error
    ``base_value + a_coeff * t + b_coeff * t^2``; at ``t = 1`` this is the
    error of ``H`` itself.  ``a_coeff >= 0`` and ``b_coeff >= 0`` for every
    cdf, which certifies the optimum.
    """

    a_coeff: float
    b_coeff: float
    base_value: float = float(OPTIMAL_IID_VALUE)

    @property
    def total(self) -> float:
        return self.base_value + self.a_coeff + self.b_coeff


class SuboptimalityBound(NamedTuple):
    epsilon: float
    lower_bound: float


def _optimal_cdf() -> MixedCdf:
    return MixedCdf.uniform(0.25, 0.75)


def hybrid_decompose(d: MixedCdf) -> HybridCoefficients:
    """Linear and quadratic error coefficients of ``d`` against the optimum.

    The pair error B is bilinear, so mixing at weight t gives ``I(t G + (1 -
    t) G_0) = B(G_0, G_0) + 2t (B(G, G_0) - B(G_0, G_0)) + t^2 (B(G, G) -
    2 B(G, G_0) + B(G_0, G_0))``: three pair errors give both coefficients.
    """
    table, opt = _merged_tables(d, _optimal_cdf())
    own, cross, base = _pair_error(table)[0], _pair_error(table, opt)[0], _pair_error(opt)[0]
    return HybridCoefficients(a_coeff=float(2.0 * (cross - base)),
                              b_coeff=float(own - 2.0 * cross + base))


#: The finest scan of :func:`suboptimality_bound`: its grid of 10**6 + 1
#: points peaks at 76 MiB traced (0.15 s) on a cdf of six pieces, and 10**12
#: points would ask for 7.3 TiB.  Any scan keeps the floor sound.
MAX_GRID_SIZE = 10**6


def suboptimality_bound(d: MixedCdf, grid_size: int = 10_000) -> SuboptimalityBound:
    """Sup-distance ``eps`` of ``d`` from the optimal cdf and the error floor
    ``5/24 + eps^3/48`` it implies.

    The scan covers a uniform grid of ``grid_size`` steps, a whole number in
    [0, 10**6] (``MAX_GRID_SIZE``; 0 scans the point 0 alone), plus every
    breakpoint of either cdf, with left limits at the breakpoints so jumps
    are measured from both sides.

    Proof.  Write ``D = G_opt - G``.  ``hybrid_decompose`` gives ``I = 5/24
    + a + Var(D)`` with ``a >= 0``, the variance under a uniform x (its
    ``b_coeff``).  ``G_opt`` rises with slope 2 and G never falls, so D rises
    no faster than slope 2.  Say D reaches ``eps`` at ``x0``, as a value or a
    left limit.  Then ``x0 >= 1/4 + eps/2`` as ``D <= G_opt``, ``D >= eps -
    2t`` at ``x0 - t`` for t in [0, eps/4], a window past 1/4, and ``D <= 0``
    on [0, 1/4].  ``Var(D)`` is the least ``int (D - c)^2`` over constants
    c: for ``c <= eps/2`` the window gives ``int_0^{eps/4} (eps/2 - 2t)^2 dt = eps^3/48``,
    and for ``c > eps/2`` [0, 1/4] gives ``c^2/4 > eps^2/16 >= eps^3/48``.
    ``D = -eps`` mirrors this on [3/4, 1].  A scan never finds more than the
    true supremum, so the scanned eps keeps the floor sound.
    """
    grid_size = _as_count(grid_size, "grid_size")
    if not 0 <= grid_size <= MAX_GRID_SIZE:
        raise ValueError(f"grid_size must lie in [0, {MAX_GRID_SIZE}]")
    g0 = _optimal_cdf()
    special = _merged_edges(d, g0)[0]
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    pts = np.union1d(grid, special)
    eps = float(np.max(np.abs(g0.cdf(pts) - d.cdf(pts))))
    eps_left = float(np.max(np.abs(g0.left_limit(special) - d.left_limit(special))))
    eps = max(eps, eps_left)
    return SuboptimalityBound(eps, float(OPTIMAL_IID_VALUE) + eps**3 / 48.0)
