"""Deterministic evaluation of the principal's error probability.

When both firms draw tests i.i.d. from a cdf ``G`` over [0, 1], the chance of
selecting the worse product is the double integral over the ordered-quality
triangle ``{0 <= y <= x <= 1}`` of ``(1 - G(x) + G(y))^2``.  Integrating out
``y`` with ``Gamma(x) = int_0^x G`` leaves the one-dimensional form

    I(G) = int_0^1 [x (1 - G)^2 + 2 (1 - G) Gamma + (1 - x) G^2] dx,

whose integrand is smooth on every piece of the cdf (atoms sit only at piece
junctions), so a fixed-order Gauss-Legendre sum per piece evaluates it to
rounding error.  The same reduction serves every integrand over the triangle
that separates into functions of ``x`` alone and of ``y`` alone
(:func:`_separable_triangle`).  The tests check these reductions against
adaptive 2-D quadrature of the original integrands over the triangle.

The module also provides the exact pairwise formula for deterministic
threshold lists, the optimal-value formula for correlated tests, the
decomposition of the error of an arbitrary cdf into linear and quadratic
coefficients of its mixture with the optimal cdf, and the cubic-in-deviation
lower bound those coefficients imply.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np

from thresholdgame.dists import MixedCdf, _check_unit_params
from thresholdgame.engine import InversionEstimate, _as_count

__all__ = [
    "HybridCoefficients",
    "OPTIMAL_IID_VALUE",
    "SuboptimalityBound",
    "hybrid_decompose",
    "inversion_fixed",
    "inversion_iid",
    "optimal_value_correlated",
    "suboptimality_bound",
]

#: Error probability of the optimal i.i.d. rule (uniform tests on [1/4, 3/4]).
OPTIMAL_IID_VALUE = Fraction(5, 24)

#: Gauss-Legendre nodes per cdf piece for the one-dimensional reductions.
#: Exact on polynomial pieces (the integrand of a degree-k piece has degree
#: 2k + 1 <= 59 for k <= 29).  The arc pieces' nearest singularities, at
#: (1 +- i) / 2, lie 1/2 away from [0, 1], so the rule converges far below
#: rounding error on them.
_PIECE_ORDER = 30


@cache
def _unit_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights rescaled to [0, 1], built on first use
    so that importing the package does not load ``numpy.polynomial``."""
    x, w = np.polynomial.legendre.leggauss(_PIECE_ORDER)
    return 0.5 * (x + 1.0), 0.5 * w


def _piece_nodes(breaks) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on every interval between the
    distinct ``breaks``, which must include 0 and 1."""
    edges = np.array(sorted(breaks), dtype=float)
    u, w = _unit_nodes()
    width = np.diff(edges)[:, None]
    return (edges[:-1, None] + width * u).ravel(), (width * w).ravel()


def _separable_triangle(x, w, p, r, q, s, gamma_q, gamma_s) -> float:
    """Integral over ``{0 <= y <= x <= 1}`` of a separable integrand.

    The integrand is ``P(x)R(x) + P(x)S(y) + Q(y)R(x) + Q(y)S(y)``; ``p``,
    ``r``, ``q``, ``s`` hold those functions at the nodes ``x``, and
    ``gamma_q``, ``gamma_s`` their running integrals ``int_0^x Q`` and
    ``int_0^x S``.  Integrating out ``y`` leaves
    ``int_0^1 [x P R + P Gamma_S + R Gamma_Q + (1 - x) Q S] dx``, which the
    weights ``w`` evaluate.
    """
    return float(np.dot(w, x * p * r + p * gamma_s + r * gamma_q + (1.0 - x) * q * s))


# ---------------------------------------------------------------------------
# The error functional
# ---------------------------------------------------------------------------


def inversion_iid(d: MixedCdf) -> InversionEstimate:
    """Error probability when both firms draw tests i.i.d. from ``d``.

    The integrand ``(1 - G(x) + G(y))^2`` is separable, with
    ``P = R = 1 - G`` and ``Q = S = G``.
    """
    x, w = _piece_nodes(d.breakpoints)
    g = d.cdf(x)
    gamma = d.cdf_integral(x)
    value = _separable_triangle(x, w, 1.0 - g, 1.0 - g, g, g, gamma, gamma)
    return InversionEstimate(value=value, method="quadrature")


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


def optimal_value_correlated(n: int) -> Fraction:
    """Best achievable fraction of inverted pairs with n correlated tests."""
    n = _as_count(n, "n")
    if n < 2:
        raise ValueError("need at least two firms")
    return Fraction(5 * n - 4, 12 * (2 * n - 1))


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
    x, w = _piece_nodes(set(d.breakpoints) | set(g0.breakpoints))
    g0_x = g0.cdf(x)
    g0_gamma = g0.cdf_integral(x)
    delta = g0_x - d.cdf(x)
    delta_gamma = g0_gamma - d.cdf_integral(x)

    a = 2.0 * _separable_triangle(x, w, 1.0 - g0_x, delta, g0_x, -delta,
                                  g0_gamma, -delta_gamma)
    b = _separable_triangle(x, w, delta, delta, -delta, -delta,
                            -delta_gamma, -delta_gamma)
    return HybridCoefficients(a_coeff=a, b_coeff=b)


def suboptimality_bound(d: MixedCdf, grid_size: int = 10_000) -> SuboptimalityBound:
    """Sup-distance of ``d`` from the optimal cdf and the error floor it implies.

    The scan covers a uniform grid plus every breakpoint of either cdf, with
    left limits at the breakpoints so jumps are measured from both sides.
    """
    grid_size = _as_count(grid_size, "grid_size")
    g0 = _optimal_cdf()
    special = np.array(sorted(set(d.breakpoints) | set(g0.breakpoints)))
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    pts = np.union1d(grid, special)
    eps = float(np.max(np.abs(g0.cdf(pts) - d.cdf(pts))))
    eps_left = float(np.max(np.abs(g0.left_limit(special) - d.left_limit(special))))
    eps = max(eps, eps_left)
    return SuboptimalityBound(eps, float(OPTIMAL_IID_VALUE) + eps**3 / 6.0)
