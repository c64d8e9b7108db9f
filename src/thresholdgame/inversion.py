"""Deterministic evaluation of the principal's error probability.

When two firms draw tests independently from cdfs ``G_A`` and ``G_B`` over
[0, 1], the chance of selecting the worse product is the double integral
over the ordered-quality triangle ``{0 <= y <= x <= 1}`` of the pair sum
``(1 - G_A(x) + G_A(y)) (1 - G_B(x) + G_B(y))``, which is
``(1 - G(x) + G(y))^2`` when both draw from ``G``.  Integrating out ``y``
with ``Gamma(x) = int_0^x G`` leaves the one-dimensional form

    I(G) = int_0^1 [x (1 - G)^2 + 2 (1 - G) Gamma + (1 - x) G^2] dx,

whose integrand is smooth on every piece of the cdf (atoms sit only at piece
junctions), so a fixed-order Gauss-Legendre sum per piece evaluates it to
rounding error.  One node layout (``_gauss_nodes``) over the pieces of a
piece table, or of merged breakpoints, serves ``inversion_iid``,
``inversion_rule`` and ``hybrid_decompose``, and in the tests checks the
closed form that values the interval search's cells
(``equilibrium._interval_error``).  The same reduction serves every
integrand over the triangle that separates into functions of ``x`` alone
and of ``y`` alone (:func:`_separable_triangle`).
The tests check these reductions against adaptive 2-D quadrature of the
original integrands.

:func:`inversion_rule` values every test-assignment rule as the mean of the
pair sum over its pairs of firms, by the exact pairwise formula for
deterministic threshold lists when no firm draws its test.  The module also
provides the decomposition of the error of an arbitrary cdf into linear and
quadratic coefficients of its mixture with the optimal cdf, and the
cubic-in-deviation lower bound those coefficients imply.  It re-exports the
exact optimal values, ``OPTIMAL_IID_VALUE`` and
:func:`optimal_value_correlated`, from the numpy-free
:mod:`thresholdgame.optimal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from thresholdgame._checks import _as_count, _check_unit_params
from thresholdgame.dists import MixedCdf
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

#: The positive half of the 30-node Gauss-Legendre rule on [-1, 1]
#: (``numpy.polynomial.legendre.leggauss(30)``, to the last bit), nodes
#: ascending with their weights; the rule is exactly symmetric, so mirroring
#: restores all of it.  Per cdf piece it is exact on polynomial pieces (the
#: integrand of a degree-k piece has degree 2k + 1 <= 59 for k <= 29).  The
#: arc pieces' nearest singularities, at (1 +- i) / 2, lie 1/2 away from
#: [0, 1], so the rule converges far below rounding error on them.
_HALF_NODES = (
    0.0514718425553177, 0.15386991360858354, 0.25463692616788985, 0.3527047255308781,
    0.44703376953808915, 0.5366241481420199, 0.6205261829892429, 0.6978504947933158,
    0.7677774321048262, 0.8295657623827684, 0.8825605357920527, 0.9262000474292743,
    0.9600218649683075, 0.9836681232797472, 0.9968934840746495,
)
_HALF_WEIGHTS = (
    0.10285265289355859, 0.10176238974840528, 0.09959342058679493, 0.09636873717464392,
    0.09212252223778594, 0.08689978720108285, 0.08075589522941996, 0.0737559747377049,
    0.06597422988218044, 0.05749315621761923, 0.04840267283059379, 0.03879919256962683,
    0.02878470788332254, 0.01846646831109169, 0.007968192496169034,
)

#: The rule's nodes and weights rescaled to [0, 1].
_UNIT_NODES = 0.5 * (np.concatenate([-np.array(_HALF_NODES[::-1]), _HALF_NODES]) + 1.0)
_UNIT_WEIGHTS = 0.5 * np.array(_HALF_WEIGHTS[::-1] + _HALF_WEIGHTS)


def _gauss_nodes(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the pieces [lo, hi) along the
    last axis, piece by piece; an empty piece gets nodes of weight 0."""
    width = (hi - lo)[..., None]
    shape = (*lo.shape[:-1], -1)
    return ((lo[..., None] + width * _UNIT_NODES).reshape(shape),
            (width * _UNIT_WEIGHTS).reshape(shape))


def _merged_edges(*dists) -> np.ndarray:
    """The sorted union of the breakpoints of ``dists``, as a (1, k) array."""
    return np.array([sorted(set().union(*(d.breakpoints for d in dists)))], dtype=float)


def _separable_triangle(x, w, p, r, q, s, gamma_q, gamma_s):
    """Integral over ``{0 <= y <= x <= 1}`` of a separable integrand.

    The integrand is ``P(x)R(x) + P(x)S(y) + Q(y)R(x) + Q(y)S(y)``; ``p``,
    ``r``, ``q``, ``s`` hold those functions at the nodes ``x``, and
    ``gamma_q``, ``gamma_s`` their running integrals ``int_0^x Q`` and
    ``int_0^x S``.  Integrating out ``y`` leaves
    ``int_0^1 [x P R + P Gamma_S + R Gamma_Q + (1 - x) Q S] dx``, which the
    weights ``w`` evaluate.  Each row of nodes along the last axis is one
    integral; ``vecdot`` sums a row exactly as ``np.dot`` sums a vector.
    """
    return np.vecdot(x * p * r + p * gamma_s + r * gamma_q + (1.0 - x) * q * s, w)


# ---------------------------------------------------------------------------
# The error functional
# ---------------------------------------------------------------------------


def inversion_iid(d: MixedCdf) -> InversionEstimate:
    """Error probability when both firms draw tests i.i.d. from ``d``; a
    single atom is valued in closed form."""
    atom = _single_atom(d)
    if atom is not None:
        return InversionEstimate(value=float(inversion_fixed([atom, atom])), method="closed_form")
    table = d._table
    return InversionEstimate(value=float(_pair_error(table.lo, table.hi, table)[0]),
                             method="quadrature")


def _pair_error(lo, hi, table, other=None):
    """The pair sum for every cell, on the nodes of the pieces [lo, hi):
    ``G_A`` is ``table``'s cdf and ``G_B`` is ``other``'s, or ``G_A`` when
    ``other`` is None.  It is separable, with ``P = 1 - G_A``,
    ``R = 1 - G_B``, ``Q = G_A`` and ``S = G_B``."""
    x, w = _gauss_nodes(lo, hi)
    g, gamma = table.evaluate(x, integral=True)
    h, eta = (g, gamma) if other is None else other.evaluate(x, integral=True)
    return _separable_triangle(x, w, 1.0 - g, 1.0 - h, g, h, gamma, eta)


def inversion_rule(rule) -> InversionEstimate:
    """Expected fraction of inverted pairs under a test-assignment rule: the
    mean over its pairs of firms, so for any firm count the rule admits.
    A rule whose every firm takes a fixed test, or draws it from a single
    atom, is valued in closed form."""
    if isinstance(rule, IidRule):
        return inversion_iid(rule.dist)
    if isinstance(rule, SameTest):
        thresholds = [rule.theta, rule.theta]
    elif isinstance(rule, FixedThresholds):
        thresholds = sorted(rule.thresholds)
    elif isinstance(rule, IndependentRule):
        thresholds = [_single_atom(d) for d in rule.dists]
        if None in thresholds:
            edges = _merged_edges(*rule.dists)
            pairs = list(combinations([d._table for d in rule.dists], 2))
            total = sum(_pair_error(edges[:, :-1], edges[:, 1:], a, b)[0] for a, b in pairs)
            return InversionEstimate(value=float(total / len(pairs)), method="quadrature")
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

    With ``D = G_opt - d``, the coefficients are triangle integrals of
    ``(1 - G_opt(x) + G_opt(y)) (D(x) - D(y))`` (times 2) and of
    ``(D(x) - D(y))^2``, both separable.
    """
    g0 = _optimal_cdf()
    edges = _merged_edges(d, g0)
    x, w = _gauss_nodes(edges[:, :-1], edges[:, 1:])
    (g0_x, g0_gamma), (d_x, d_gamma) = (h._table.evaluate(x, integral=True) for h in (g0, d))
    delta, delta_gamma = g0_x - d_x, g0_gamma - d_gamma

    a = 2.0 * _separable_triangle(x, w, 1.0 - g0_x, delta, g0_x, -delta,
                                  g0_gamma, -delta_gamma)[0]
    b = _separable_triangle(x, w, delta, delta, -delta, -delta, -delta_gamma, -delta_gamma)[0]
    return HybridCoefficients(a_coeff=float(a), b_coeff=float(b))


def suboptimality_bound(d: MixedCdf, grid_size: int = 10_000) -> SuboptimalityBound:
    """Sup-distance ``eps`` of ``d`` from the optimal cdf and the error floor
    ``5/24 + eps^3/48`` it implies.

    The scan covers a uniform grid plus every breakpoint of either cdf, with
    left limits at the breakpoints so jumps are measured from both sides.

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
    g0 = _optimal_cdf()
    special = _merged_edges(d, g0)[0]
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    pts = np.union1d(grid, special)
    eps = float(np.max(np.abs(g0.cdf(pts) - d.cdf(pts))))
    eps_left = float(np.max(np.abs(g0.left_limit(special) - d.left_limit(special))))
    eps = max(eps, eps_left)
    return SuboptimalityBound(eps, float(OPTIMAL_IID_VALUE) + eps**3 / 48.0)
