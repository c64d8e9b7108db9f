"""Reference implementations the tests check the library against.

The library evaluates the error functional, the pair error, in closed form
on a one-dimensional reduction; the tests check it against an adaptive
tensor quadrature of the original double integrals, which shares no code
with it, against a 30-node Gauss-Legendre sum of the same reduction, which
shares only the cdf's evaluation, and on the interval equilibria against a
closed form derived for that family alone.  The quantile
function is checked against a per-record loop over ``searchsorted`` indices,
which shares only the table of quantile records with it.  The payoff,
which the library takes from each piece's linear form, and the verifier's
support are checked against the direct formula: the cdf and its running
integral at every point, every atom's mass summed over an (atoms, cells,
points) array and a second full piece lookup for the left limits.  The
verifier, which takes the exact suprema from the ends of each piece clipped
to [a, b], is checked against scoring every point of a grid, built by
``np.linspace`` cell by cell, and the right limit at every piece low: its
margins must bound the grid's, by little.
The row formulas, which work in place, are checked against the plain
expressions.
"""

from functools import lru_cache
from typing import Callable

import numpy as np

from thresholdgame.dists import _radius, _unit_points
from thresholdgame.equilibrium import _margins, _on_piece, _payoff
from thresholdgame.inversion import _merged_edges


def quantile_reference(d, u):
    """``d.inverse(u)`` one record at a time: every u finds its record by
    ``searchsorted`` and each record fills its own masked entries."""
    u = _unit_points(u, "probability u")
    uppers, records, _ = d._quantile
    idx = np.clip(np.searchsorted(uppers, u, side="right"), 0, len(records) - 1)
    out = np.empty_like(u, dtype=float)
    for i, (_, c0, s, kind) in enumerate(records):
        mask = idx == i
        if kind == "atom":
            out[mask] = c0
        elif kind == "line":
            out[mask] = (u[mask] - c0) / s
        else:
            g = np.clip((u[mask] - c0) / s, -1.0, 1.0)
            out[mask] = 0.5 * (1.0 + g / np.sqrt(2.0 - g * g))
    return np.clip(out, 0.0, 1.0)


def row_cdf_reference(c0, c1, c2, theta):
    """The cdf of rows ``(c0, c1, c2)`` at ``theta``, as one expression."""
    r = np.sqrt(theta * theta + (1.0 - theta) * (1.0 - theta))
    return c0 + c1 * theta + c2 * (2.0 * theta - 1.0) / r


def row_integral_reference(c0, c1, c2, theta):
    """The antiderivative of :func:`row_cdf_reference`, as one expression."""
    r = np.sqrt(theta * theta + (1.0 - theta) * (1.0 - theta))
    return (c0 + 0.5 * c1 * theta) * theta + c2 * r


def payoff_reference(thetas, table):
    """The selection probability at ``thetas``, a (cells, points) array,
    against each cell's cdf in ``table`` by the direct formula ``(1 - t) phi
    + r^2 T + (1 - 2t) Gamma``, and whether each point is in the support.
    ``T`` subtracts half of every atom's mass at the point, summed over all
    atoms, and a point is in the support when it is an atom or its piece or
    its left piece (both looked up in full) is rising."""
    cdf, gamma = table.evaluate(thetas, integral=True)
    at_atom = thetas == table.atom_at.T[:, :, None]
    mass = np.where(at_atom, table.atom_mass.T[:, :, None], 0.0)
    t_val = cdf - 0.5 * mass.sum(axis=0)
    payoff = ((1.0 - thetas) * (1.0 - table.total)
              + ((1.0 - thetas) ** 2 + thetas**2) * t_val + (1.0 - 2.0 * thetas) * gamma)
    rising = ((table.c1 > 1e-12) | (table.c2 > 0.0)).ravel()
    support = (rising[table.piece(thetas)] | rising[table.piece(thetas, left=True)]
               | at_atom.any(axis=0))
    return payoff, support


def reference_points(table, a, b, peaks, grid_size):
    """Every point the verifier's margins range over in each cell [a, b]
    (arrays of cells): ``np.linspace(a, b, grid_size)``, every piece low,
    piece midpoint and atom clipped into [a, b], and the ``peaks``."""
    special = np.concatenate([table.lo, 0.5 * (table.lo + table.hi), table.atom_at], axis=1)
    grid = np.array([np.linspace(lo, hi, grid_size) for lo, hi in zip(a.tolist(), b.tolist())])
    return np.concatenate([grid, np.clip(special, a[:, None], b[:, None]), peaks], axis=1)


def right_limits(table, form, a, b):
    """The payoff's right limit at the low of every piece that is not empty
    and starts in [a, b) (arrays of cells), scored with that piece's own
    row, and whether the piece rises.  No point may lie inside a piece an
    ulp wide, so no grid point reaches its limit.  Every other entry scores
    1/2 off the support, which moves no margin."""
    c1 = table.c1 if table.c1.any() else None
    keep = (a[:, None] <= table.lo) & (table.lo < b[:, None]) & (table.lo < table.hi)
    rising = (table.c1 > 1e-12) | (table.c2 > 0.0)
    return np.where(keep, _on_piece(table.lo, *form, c1), 0.5), keep & rising


def verify_reference(table, form, a, b, peaks, grid_size, tol):
    """The margins and verdicts of a ``grid_size``-point grid, which those
    of ``equilibrium._verify``, the exact suprema over [a, b], bound: every
    one of the :func:`reference_points` scored with the library's payoff,
    support and verdict, and the :func:`right_limits`."""
    thetas = reference_points(table, a, b, peaks, grid_size)
    limits, rising = right_limits(table, form, a, b)
    return _margins(np.concatenate([_payoff(thetas, table, form)[0], limits], axis=1),
                    np.concatenate([table.support(thetas), rising], axis=1), tol)


@lru_cache(maxsize=None)
def _unit_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights rescaled to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_nodes(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """30-node Gauss-Legendre nodes and weights on the pieces [lo, hi) along
    the last axis, piece by piece; an empty piece gets nodes of weight 0.
    Per piece the rule is exact on lines, and the arcs' nearest
    singularities, at (1 +- i) / 2, lie 1/2 away from [0, 1], so it
    converges far below rounding error on them."""
    nodes, weights = _unit_nodes(30)
    width = (hi - lo)[..., None]
    shape = (*lo.shape[:-1], -1)
    return (lo[..., None] + width * nodes).reshape(shape), (width * weights).reshape(shape)


def separable_triangle(x, w, p, r, q, s, gamma_q, gamma_s):
    """Integral over ``{0 <= y <= x <= 1}`` of a separable integrand.

    The integrand is ``P(x)R(x) + P(x)S(y) + Q(y)R(x) + Q(y)S(y)``; ``p``,
    ``r``, ``q``, ``s`` hold those functions at the nodes ``x``, and
    ``gamma_q``, ``gamma_s`` their running integrals ``int_0^x Q`` and
    ``int_0^x S``.  Integrating out ``y`` leaves
    ``int_0^1 [x P R + P Gamma_S + R Gamma_Q + (1 - x) Q S] dx``, which the
    weights ``w`` evaluate, one integral per row along the last axis.
    """
    return np.vecdot(x * p * r + p * gamma_s + r * gamma_q + (1.0 - x) * q * s, w)


def gauss_pair_error(lo, hi, table, other=None):
    """The pair error of every cell by the Gauss sum on the pieces [lo, hi),
    which must hold the breakpoints of both cdfs: ``G_A`` is ``table``'s
    cdf and ``G_B`` is ``other``'s, or ``G_A`` when ``other`` is None.  It
    is separable, with ``P = 1 - G_A``, ``R = 1 - G_B``, ``Q = G_A`` and
    ``S = G_B``."""
    x, w = gauss_nodes(lo, hi)
    g, gamma = table.evaluate(x, integral=True)
    h, eta = (g, gamma) if other is None else other.evaluate(x, integral=True)
    return separable_triangle(x, w, 1.0 - g, 1.0 - h, g, h, gamma, eta)


def gauss_pair_value(d_a, d_b=None) -> float:
    """:func:`gauss_pair_error` of two cdfs, or of one cdf with itself, on
    their merged breakpoints."""
    edges = _merged_edges(d_a, *([] if d_b is None else [d_b]))
    other = None if d_b is None else d_b._table
    return float(gauss_pair_error(edges[:, :-1], edges[:, 1:], d_a._table, other)[0])


def gauss_hybrid(d, g0):
    """The hybrid coefficients ``(a, b)`` of ``d`` against ``g0`` by two
    separable Gauss sums: with ``D = G_0 - G``, the triangle integrals of
    ``(1 - G_0(x) + G_0(y)) (D(x) - D(y))`` (times 2) and of
    ``(D(x) - D(y))^2``."""
    edges = _merged_edges(d, g0)
    x, w = gauss_nodes(edges[:, :-1], edges[:, 1:])
    (g0_x, g0_gamma), (d_x, d_gamma) = (h._table.evaluate(x, integral=True) for h in (g0, d))
    delta, delta_gamma = g0_x - d_x, g0_gamma - d_gamma
    a = 2.0 * separable_triangle(x, w, 1.0 - g0_x, delta, g0_x, -delta,
                                 g0_gamma, -delta_gamma)[0]
    b = separable_triangle(x, w, delta, delta, -delta, -delta, -delta_gamma, -delta_gamma)[0]
    return float(a), float(b)


def interval_error(rows):
    """The error ``int_0^1 x (1 - G)^2 + 2 (1 - G) Gamma + (1 - x) G^2 dx``
    of the [a, b] equilibrium's cdf G for arrays of cells, in closed form
    from ``equilibrium._interval_params``'s ``rows``, piece by piece: a form
    derived for this family alone.

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
           + c2 * (np.arcsinh(s) / np.sqrt(2.0) + (2.0 * g0 + c0 - 1.0 - c0 * s) * r))
    gamma_cut = c0 * cut + c2 * r[1] - g0
    plateau = (b - cut) * ((0.5 - p * p) * (b + cut) + 2.0 * (1.0 - p) * (gamma_cut - p * cut)
                          + p * p)
    return 0.5 * a * a + (arc[1] - arc[0]) + plateau + 0.5 * (1.0 - b) ** 2


def _rect(f, x0, x1, y0, y1, order):
    u, w = _unit_nodes(order)
    xs = x0 + (x1 - x0) * u
    ys = y0 + (y1 - y0) * u
    values = f(xs[:, None], ys[None, :])
    return (x1 - x0) * (y1 - y0) * float(np.einsum("i,j,ij->", w, w, values))


def _tri(f, x0, x1, order):
    # Duffy transform of the triangle {x0 <= y <= x <= x1}: x = x0 + h*xi,
    # y = x0 + h*xi*eta, Jacobian h^2 * xi.  Keeps the integrand smooth on a
    # square whenever it is smooth on the closed triangle.
    u, w = _unit_nodes(order)
    h = x1 - x0
    xs = x0 + h * u
    ys = x0 + h * u[:, None] * u[None, :]
    values = f(xs[:, None], ys)
    return h * h * float(np.einsum("i,j,ij->", w * u, w, values))


def _adaptive_rect(f, x0, x1, y0, y1, tol, order, depth):
    coarse = _rect(f, x0, x1, y0, y1, order)
    xm = 0.5 * (x0 + x1)
    ym = 0.5 * (y0 + y1)
    parts = [
        (x0, xm, y0, ym),
        (x0, xm, ym, y1),
        (xm, x1, y0, ym),
        (xm, x1, ym, y1),
    ]
    fine = sum(_rect(f, *p, order) for p in parts)
    if abs(fine - coarse) <= tol:
        return fine
    if depth <= 0:
        raise RuntimeError(f"cell [{x0}, {x1}] x [{y0}, {y1}] missed its tolerance at max_depth")
    return sum(_adaptive_rect(f, *p, tol / 4.0, order, depth - 1) for p in parts)


def _adaptive_tri(f, x0, x1, tol, order, depth):
    coarse = _tri(f, x0, x1, order)
    xm = 0.5 * (x0 + x1)
    fine = (
        _tri(f, x0, xm, order)
        + _tri(f, xm, x1, order)
        + _rect(f, xm, x1, x0, xm, order)
    )
    if abs(fine - coarse) <= tol:
        return fine
    if depth <= 0:
        raise RuntimeError(f"triangle over [{x0}, {x1}] missed its tolerance at max_depth")
    return (
        _adaptive_tri(f, x0, xm, tol / 3.0, order, depth - 1)
        + _adaptive_tri(f, xm, x1, tol / 3.0, order, depth - 1)
        + _adaptive_rect(f, xm, x1, x0, xm, tol / 3.0, order, depth - 1)
    )


def triangle_integral(f: Callable, breaks, tol: float = 1e-9, order: int = 20,
                      max_depth: int = 12) -> float:
    """Integrate ``f(x, y)`` over ``{0 <= y <= x <= 1}``.

    ``breaks`` lists interior smoothness boundaries; the domain is split at
    every break in both coordinates so each cell sees an analytic integrand.
    ``f`` must accept broadcastable numpy arrays.  Raises ``RuntimeError``
    when a cell still misses its share of ``tol`` after ``max_depth``
    bisections, rather than returning an unconverged sum.
    """
    edges = sorted({0.0, 1.0} | {float(b) for b in breaks if 0.0 < float(b) < 1.0})
    n_int = len(edges) - 1
    n_cells = n_int * (n_int + 1) // 2
    cell_tol = tol / max(n_cells, 1)
    total = 0.0
    for j in range(n_int):
        x0, x1 = edges[j], edges[j + 1]
        for i in range(j + 1):
            y0, y1 = edges[i], edges[i + 1]
            if i == j:
                total += _adaptive_tri(f, x0, x1, cell_tol, order, max_depth)
            else:
                total += _adaptive_rect(f, x0, x1, y0, y1, cell_tol, order, max_depth)
    return total
