"""Mixed distributions over test difficulties on the unit quantile scale.

A test is identified with the probability ``theta`` in [0, 1] that a product
of uniformly distributed quality fails it.  Strategies of the principal and
of the firms are probability distributions over such difficulties, and the
ones that matter here are *mixed*: an absolutely continuous part described by
closed-form pieces, plus finitely many point masses (atoms).

:class:`MixedCdf` stores the cumulative distribution function as an ordered
tiling of [0, 1] by analytic pieces together with an explicit atom list.  A
piece is a plain row ``(lo, hi, c0, c1, c2)``: on [lo, hi) the cdf is
``c0 + c1 t + c2 (2t-1) / r`` with ``r = sqrt(t^2 + (1-t)^2)``, a line
``(lo, hi, level, slope, 0)`` or an arc of the equilibrium family
``(lo, hi, offset, 0, scale)``, never both.  Uniforms, steps and
piecewise-linear cdfs build their lines from ``(theta, value)`` knots along
one path.  In JSON an arc is an ``arc`` segment with its ``offset`` and
``scale`` and a line a ``poly`` segment with ``coeffs: [c0, c1]``.  The cdf's
running integral is ``(c0 + c1 t / 2) t + c2 r`` and its density
``c1 + c2 / r^3``.  One piece table (``_piece_table``), built once per cdf
from the rows' columns, holds them with a leading cells axis: a cdf is one
cell, the batched interval search many, with empty pieces (``lo == hi``).  A
point's piece is the count of piece lows after the first that it reaches
(``>=``), or for left limits passes (``>``), so no empty piece is found.  The
cdf, its left limits, the running integral ``int_0^theta cdf(t) dt``, the
density and the support each gather the rows of the points' pieces and apply
one formula.  The quantile function inverts each atom, line or arc in closed
form from records built with the cdf, evaluating one record over all of u in
place and patching the other records' stretches, read from comparisons of u
against their upper ends.  Storing formulas rather than sampled grids keeps
breakpoints exact, and the pair error (``_pair_error``), the one error
functional of :mod:`thresholdgame.inversion` and of the interval search,
integrates each piece of one table, or of two split at their merged
breakpoints (``_PieceTable.split``), in closed form.

A cdf built from a named family (uniform, step, the unrestricted equilibrium
or its restriction to [a, b]) records that recipe in ``MixedCdf.family``.
``_FAMILY_FIELDS`` names each family's parameters, which are also its
serialized keys, and :meth:`MixedCdf.from_family` is the one place that
turns a recipe back into a cdf: JSON and the rule grammar both go through it.

Conventions:

* cdfs are right-continuous and nondecreasing with ``cdf(1) == 1``;
* an atom of mass ``m`` at ``t`` appears as a jump: ``cdf(t) - left_limit(t) == m``;
* an evaluation point, a ``theta`` where a cdf, integral, density, atom
  mass, support or payoff is read or the ``u`` of :meth:`MixedCdf.inverse`,
  may lie up to 1e-12 outside [0, 1]: it is clipped to the nearest end once,
  before anything reads it, and NaN, a point further out, a bool or a string
  raises (a bool inside a list of floats, such as ``[True, 0.5]``, is
  already a float when it is checked, and passes as 1.0);
* a parameter (a rule threshold, a quality, a step or atom location, a
  bound of a uniform or of an equilibrium's interval, a threshold of
  ``inversion_fixed``) must lie in [0, 1] exactly, as a real number such as
  a float or a ``Fraction``, never as a bool or a string;
* values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from collections import namedtuple
from typing import Callable, Sequence

import numpy as np

from thresholdgame._checks import _check_real, _check_unit_params, _unit_interval

__all__ = [
    "MixedCdf",
    "quantile_to_quality",
]


def _unit_points(values, name: str = "threshold") -> np.ndarray:
    """``values`` as evaluation points (see Conventions): a float array on
    [0, 1], copied only when a point needs clipping."""
    arr = np.asarray(values)
    if arr.dtype.kind in "bSU":
        raise ValueError(f"{name} must be a number, got {values!r}")
    arr = arr.astype(float, copy=False)
    if arr.size:
        lo, hi = np.min(arr), np.max(arr)
        # Phrased as "not inside" so that NaN, which fails every comparison,
        # is rejected as well.
        if not (lo >= -1e-12 and hi <= 1 + 1e-12):
            raise ValueError(f"{name} outside [0, 1]")
        if lo < 0.0 or hi > 1.0:
            arr = np.clip(arr, 0.0, 1.0)
    return arr


# The row formulas work in place on their first temporary, which has the
# shape of theta and so of the result: a verification block evaluates them
# at thousands of points, and dropping a fresh array per operation took
# search_best_interval(resolution=0.01) from 266 to 220 ms (one process,
# 2-vCPU Xeon, numpy 2.4).
# Each step forms the sum or product the plain expression forms (the two
# operands may swap, which rounds alike), so no bit moves.


def _radius(theta):
    """``sqrt(theta^2 + (1 - theta)^2)``."""
    square = 1.0 - theta
    square *= square
    square += theta * theta
    return np.sqrt(square)


def _row_cdf(c0, c1, c2, theta, r=None):
    """The cdf ``c0 + c1 t + c2 (2t - 1) / r`` at ``theta`` of rows
    ``(c0, c1, c2)``, which broadcast to theta's shape; ``r`` is
    ``_radius(theta)``."""
    arc = 2.0 * theta
    arc -= 1.0
    arc *= c2
    arc /= _radius(theta) if r is None else r
    out = c1 * theta
    out += c0
    out += arc
    return out


def _row_integral(c0, c1, c2, theta, r=None):
    """An antiderivative ``(c0 + c1 t / 2) t + c2 r`` of :func:`_row_cdf`,
    as d r / dt = (2t - 1) / r."""
    out = 0.5 * c1 * theta
    out += c0
    out *= theta
    out += c2 * (_radius(theta) if r is None else r)
    return out


_SQRT2 = math.sqrt(2.0)

#: The odd tails ``x^3 sum_j c_j x^(2j)`` of :func:`_arc_terms`, c_j stacked
#: highest power first: ``sin h - h cos h``, ``c_j = (-1)^j (2j + 2) / (2j +
#: 3)!``, for h <= pi / 4, and ``sinh L - L``, ``c_j = 1 / (2j + 3)!``, for L
#: <= 2 asinh(1); the first term left out is below 2^-56 of either sum.
_ODD_TAILS = np.array([[(-1) ** j * (2 * j + 2) / math.factorial(2 * j + 3),
                        1.0 / math.factorial(2 * j + 3)]
                       for j in range(10, -1, -1)])[..., None, None]


def _arc_terms(lo, hi, w):
    """``(E(w), int_0^w E, int_0^w D^2, u(lo))`` on the pieces [lo, hi) of
    width w, where x = lo + t, ``r = sqrt(x^2 + (1 - x)^2)``, ``u = (2x - 1)
    / r``, ``D = u - u(lo)`` and ``E = int_lo^x D``: each to a few ulps of
    itself however narrow the piece.

    With s = 2x - 1 = tan phi, ``u = sqrt2 sin phi`` and ``r = sec phi /
    sqrt2``.  A piece sweeps the angle 2h, ``tan 2h = 2w / (1 + s0 s1)``, so
    ``E(w) = 2 r1 sin^2 h`` and ``int D^2 = 2 r1 / r0 ((sin h - h cos h) (cos
    h - 2 s0 sin h) + h sin^2 h)``.  With the secant slope m = (r - r0) / t
    as the variable, ``t = 2 r0 (m - u0) / (2 - m^2)`` and ``E = (m - u0)
    t``, so ``int E = w E(w) / 2 - int t^2 / 2 dm``, and ``m = sqrt2 tanh``
    makes the last ``sqrt2 (sinh L - L) / 8``, where ``L = asinh(s1) -
    asinh(s0) = log1p((2w + sqrt2 (r1 - r0)) / (s0 + sqrt2 r0))`` and ``r1 -
    r0 = w (s0 + s1) / (r0 + r1)``.  Both differences of third order are
    :data:`_ODD_TAILS`."""
    s0, s1, r0, r1 = 2.0 * lo - 1.0, 2.0 * hi - 1.0, _radius(lo), _radius(hi)
    width = 2.0 * w
    # Half the angle swept and L, side by side for their tails.
    x = np.empty((2, *w.shape))
    np.arctan2(width, 1.0 + s0 * s1, out=x[0])
    np.log1p(((s0 + s1) * w / (r0 + r1) * _SQRT2 + width) / (s0 + _SQRT2 * r0), out=x[1])
    x[0] *= 0.5
    y = x * x
    tails = np.broadcast_to(_ODD_TAILS[0], y.shape).copy()
    for c in _ODD_TAILS[1:]:
        tails *= y
        tails += c
    tails *= x * y
    half = x[0]
    sin, cos = np.sin(half), np.cos(half)
    sin2 = sin * sin
    ew = 2.0 * r1 * sin2
    k = ((cos - 2.0 * s0 * sin) * tails[0] + half * sin2) * (2.0 * r1 / r0)
    return ew, 0.5 * w * ew - (0.125 * _SQRT2) * tails[1], k, s0 / r0


def _pair_error(table, other=None):
    """The pair error ``B(G_A, G_B)`` of every cell, in closed form: the
    chance that the principal selects the worse product when one firm draws
    its test from ``table``'s cdf and the other from ``other``'s, or
    ``table``'s again when None.  The two piece tables share their pieces.

    B is ``int_0^1 f`` with ``f = x (1 - G_A)(1 - G_B) + (1 - G_A) Gamma_B +
    (1 - G_B) Gamma_A + (1 - x) G_A G_B`` and ``Gamma = int_0^x G`` (see
    :mod:`thresholdgame.inversion`).  On a piece [lo, hi) of width w, with
    x = lo + t, a row reads ``G = g + c1 t + c2 D`` and ``Gamma = P + g t +
    c1 t^2 / 2 + c2 E``, where ``g = G(lo+)``, ``P = Gamma(lo)`` and D, E are
    :func:`_arc_terms`'.  Without arcs f is a cubic in t, integrated over [0,
    w]; its coefficients are of the order of g, P and c1 w, all at most 1,
    where in powers of x a steep line's would cancel.  An arc adds ``c2_A (D
    (G_B - x - Gamma_B)_lin + E (1 - G_B)_lin)``, the same with A and B
    swapped, and ``c2_A c2_B (D^2 - 2 D E)``, _lin being the cubic's line
    part.  As E' = D and D(lo) = E(lo) = 0, integrating by parts leaves
    ``c2_A (E(w) Q_B + (2 - c1_B) int E)``, ``Q = (G - x - Gamma)_lin(hi)``,
    and ``c2_A c2_B (int D^2 - E(w)^2)``: a steep arc's c2, about 1 / w,
    multiplies terms of order w and smaller, each formed to its own
    rounding.  A line's terms are formed only when a table has a line piece,
    and an arc's only where one has an arc piece: elsewhere they are 0."""
    same = other is None
    other = table if same else other
    lines = table.c1.any() or not same and other.c1.any()
    arcs = table.c2.any() or not same and other.c2.any()
    lo, hi, ha, hb = table.lo, table.hi, table.prefix, other.prefix
    w = hi - lo
    aa, ab, sa, sb = table.c1, other.c1, table.c2, other.c2
    ga = table.c0 + aa * lo if lines else table.c0.copy()
    gb = ga if same else other.c0 + ab * lo if lines else other.c0.copy()
    if arcs:
        # The arc terms, on the run of pieces where either table has an arc.
        cols = np.flatnonzero(sa.any(axis=0) if same else sa.any(axis=0) | sb.any(axis=0))
        arc = slice(cols[0], cols[-1] + 1)
        ew, j0, k, u0 = _arc_terms(lo[:, arc], hi[:, arc], w[:, arc])
        ga[:, arc] += sa[:, arc] * u0
        if not same:
            gb[:, arc] += sb[:, arc] * u0
    # The cubic p0 + p1 t + p2 t^2 + p3 t^3, integrated as w (p0 + w half)
    # with half = p1 / 2 + w (p2 / 3 + w p3 / 4) and p3 = -c1_A c1_B.
    cross = ga * gb
    p0 = lo * (1.0 - (ga + gb)) + cross + (ha * (1.0 - gb) + hb * (1.0 - ga))
    half = 0.5 - cross
    if lines:
        half += 0.5 * ((ga * ab + gb * aa) - (aa * hb + ab * ha) - lo * (aa + ab))
        half += w * ((aa * ab - 0.5 * (aa + ab) - 1.5 * (ga * ab + gb * aa)) / 3.0
                     - 0.25 * w * (aa * ab))
    total = np.add.reduce(w * (p0 + w * half), axis=-1)
    if not arcs:
        return total
    hi, w, sa, sb = hi[:, arc], w[:, arc], sa[:, arc], sb[:, arc]
    line = ew * w * (1.0 - 0.5 * w) - j0 if lines else None

    def side(g, h, c1):
        """E(w) Q + (2 - c1) int E of one table."""
        out = (g[:, arc] * (1.0 - w) - (hi + h[:, arc])) * ew + 2.0 * j0
        return out + c1[:, arc] * line if lines else out

    side_a = side(ga, ha, aa)
    side_b = side_a if same else side(gb, hb, ab)
    return total + np.add.reduce(sb * side_a + sa * side_b + sa * sb * (k - ew * ew), axis=-1)


def _quantile_record(record, u, out, scratch=None) -> None:
    """Write the quantile of one record ``(upper, c0, s, kind)`` of
    ``MixedCdf._quantile_table`` at ``u`` into ``out``, which may be ``u``;
    an arc uses ``scratch``, or a temporary, beside ``out``."""
    _, c0, s, kind = record
    if kind == "atom":
        out[...] = c0
        return
    np.subtract(u, c0, out=out)
    np.divide(out, s, out=out)
    if kind == "arc":
        # cdf(t) = u  <=>  (2t-1)/sqrt(t^2+(1-t)^2) = g with g = (u-c0)/s;
        # substituting q = 2t-1 gives q = g / sqrt(2 - g^2).
        np.clip(out, -1.0, 1.0, out=out)
        root = np.multiply(out, out, out=scratch)
        np.subtract(2.0, root, out=root)
        np.sqrt(root, out=root)
        np.divide(out, root, out=out)
        np.add(1.0, out, out=out)
        np.multiply(0.5, out, out=out)


def _select_bits(out, mask, value, scratch=None) -> None:
    """Set ``out`` to ``value`` where ``mask`` holds, bit for bit, as
    ``np.putmask`` would, with ``scratch`` (or a temporary) of out's shape as
    the 64-bit select mask.  Branch-free: a masked store mispredicts on a
    random mask, and on 131,072 values with 31 % set ``np.putmask`` took
    0.78 ms against 0.30 ms for these four passes."""
    bits = out.view(np.int64)
    value = np.float64(value).view(np.int64)
    keep = (np.empty(out.shape) if scratch is None else scratch).view(np.int64)
    np.add(mask, -1, out=keep)  # 0 where mask holds, all ones elsewhere
    np.bitwise_xor(bits, value, out=bits)
    np.bitwise_and(bits, keep, out=bits)
    np.bitwise_xor(bits, value, out=bits)


class _PieceTable(namedtuple("_PieceTable", ["lo", "hi", "c0", "c1", "c2", "anti_lo", "prefix",
                                            "total", "atom_at", "atom_mass"])):
    """One cdf per cell: (cells, pieces) arrays of the pieces [lo, hi), their
    rows, ``_row_integral`` at lo and ``int_0^lo cdf``, ``int_0^1 cdf`` as a
    column and (cells, atoms) arrays of the atoms."""

    __slots__ = ()

    def piece(self, theta, left: bool = False) -> np.ndarray:
        """Flat indices of the pieces holding ``theta`` (see the module docs)."""
        lows = self.lo.T[1:, :, None]
        count = (theta > lows if left else theta >= lows).sum(axis=0)
        return count + np.arange(0, self.lo.size, self.lo.shape[1])[:, None]

    def rows(self, piece):
        """The rows ``(c0, c1, c2)`` of the pieces at flat indices ``piece``."""
        return self.c0.ravel()[piece], self.c1.ravel()[piece], self.c2.ravel()[piece]

    def split(self, lo, hi) -> "_PieceTable":
        """The same cdfs on the pieces [lo, hi), (cells, pieces) arrays that
        tile [0, 1], each within one of this table's pieces."""
        return _piece_table(lo, hi, *self.rows(self.piece(lo)), self.atom_at, self.atom_mass)

    def evaluate(self, theta, integral: bool = False, piece=None):
        """The cdf at ``theta``, and ``int_0^theta cdf`` too with ``integral``;
        ``piece``, when given, is ``self.piece(theta)``."""
        piece = self.piece(theta) if piece is None else piece
        rows, r = self.rows(piece), _radius(theta)
        cdf = _row_cdf(*rows, theta, r)
        cdf[theta == 1.0] = 1.0
        if not integral:
            return cdf
        gamma = _row_integral(*rows, theta, r)
        gamma -= self.anti_lo.ravel()[piece]
        gamma += self.prefix.ravel()[piece]
        return cdf, gamma

    def left_limit(self, theta) -> np.ndarray:
        out = _row_cdf(*self.rows(self.piece(theta, left=True)), theta)
        out[theta == 0.0] = 0.0
        return out

    def support(self, theta) -> np.ndarray:
        """Whether each point is an atom or lies in a rising piece, ends
        included: its own piece or, at a piece's low, the piece before."""
        rising = ((self.c1 > 1e-12) | (self.c2 > 0.0)).ravel()
        at_atom = (theta == self.atom_at.T[:, :, None]).any(axis=0)
        return rising[self.piece(theta)] | rising[self.piece(theta, left=True)] | at_atom


def _piece_table(lo, hi, c0, c1, c2, atom_at, atom_mass) -> _PieceTable:
    """The table of pieces [lo, hi) with rows (c0, c1, c2) and atoms; an
    empty piece adds an exact 0 to the prefix integrals."""
    anti_lo, anti_hi = _row_integral(c0, c1, c2, np.stack([lo, hi]))
    runs = np.cumsum(anti_hi - anti_lo, axis=-1)
    prefix = np.concatenate([np.zeros_like(runs[:, :1]), runs[:, :-1]], axis=-1)
    return _PieceTable(lo, hi, c0, c1, c2, anti_lo, prefix, runs[:, -1:], atom_at, atom_mass)


def _check_numbers(name: str, values) -> None:
    """Raise unless ``values`` is a list of ints or floats, bools excluded:
    the one type check of serialized input."""
    if not isinstance(values, (list, tuple)) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in values
    ):
        raise ValueError(f"{name}: expected numbers, got {values!r}")


def _check_keys(where: str, data, keys, optional=None) -> None:
    """Raise unless ``data``, serialized input, is a dict holding ``keys``,
    and, when ``optional`` is given, no key outside ``keys`` and ``optional``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object, got {data!r}")
    extra = set() if optional is None else set(data) - {*keys, *optional}
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in {where}")
    missing = set(keys) - set(data)
    if missing:
        raise ValueError(f"missing keys {sorted(missing)} in {where}")


_JUNCTION_TOL = 1e-9

#: The recipes a cdf can be built from (``MixedCdf.family``): each kind maps
#: to its parameter names, which are also its serialized keys.
_FAMILY_FIELDS = {
    "uniform": ("lo", "hi"),
    "step": ("at",),
    "eq_unrestricted": (),
    "eq_interval": ("a", "b"),
}

#: The keys a serialized segment holds besides ``kind``: a family's
#: parameters, or the fields of a piece.
_SEGMENT_FIELDS = {**_FAMILY_FIELDS, "poly": ("lo", "hi", "coeffs"),
                   "arc": ("lo", "hi", "offset", "scale")}


@dataclass(frozen=True)
class MixedCdf:
    """A mixed (continuous + atoms) distribution over [0, 1].

    ``pieces`` are float rows ``(lo, hi, c0, c1, c2)`` that tile [0, 1]; each
    row gives the full cdf on the closure of its interval.  ``atoms`` lists
    the jump locations and masses; every jump between adjacent pieces (or
    before the first / after the last piece) must be declared as an atom.
    ``family`` optionally records the recipe, which keeps serialization exact.
    """

    pieces: tuple[tuple[float, float, float, float, float], ...]
    atoms: tuple[tuple[float, float], ...] = ()
    family: tuple | None = None
    _table: _PieceTable = field(init=False, repr=False, compare=False)
    _quantile: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.array(self.pieces, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 5:
            raise ValueError("MixedCdf needs at least one piece, a row (lo, hi, c0, c1, c2)")
        for row in self.pieces:
            _check_real("piece parameter", *row)
        for atom in self.atoms:
            _check_real("atom", *atom)
        object.__setattr__(self, "pieces", tuple(map(tuple, rows.tolist())))
        object.__setattr__(
            self, "atoms", tuple((float(t), float(m)) for t, m in self.atoms)
        )
        columns = rows.T[:, None].copy()  # (lo, hi, c0, c1, c2), one cell
        ends = self._validate(columns)
        atoms = np.array(self.atoms, dtype=float).reshape(-1, 2).T[:, None].copy()
        object.__setattr__(self, "_table", _piece_table(*columns, *atoms))
        object.__setattr__(self, "_quantile", self._quantile_table(columns[1:, 0], *ends))

    # -- validation ---------------------------------------------------------

    def _validate(self, columns) -> list:
        """Raise unless the (5, 1, pieces) columns ``(lo, hi, c0, c1, c2)``
        and the atoms make a cdf; return the cdf at each piece's lo and hi as
        two lists.  On a few pieces, Python floats check faster than numpy."""
        lo, hi, c0, c1, c2 = columns[:, 0].tolist()
        if not all(map(math.isfinite, lo + hi + c0 + c1 + c2)):
            raise ValueError("piece parameters must be finite")
        if any(slope and scale for slope, scale in zip(c1, c2)):
            raise ValueError("a piece is a line (c2 == 0) or an arc (c1 == 0)")
        if lo[0] != 0.0 or hi[-1] != 1.0:
            raise ValueError("pieces must tile [0, 1] exactly")
        if hi[:-1] != lo[1:]:
            raise ValueError("pieces must be contiguous")
        if any(right <= left for left, right in zip(lo, hi)):
            raise ValueError("pieces must have positive width and be ordered")
        # Every piece is linear or an arc, hence monotone, so comparing its
        # ends decides whether the cdf decreases along it.
        v_lo, v_hi = ends = _row_cdf(*columns[2:], columns[:2])[:, 0].tolist()
        for left, right, lo_val, hi_val in zip(lo, hi, v_lo, v_hi):
            if hi_val < lo_val - _JUNCTION_TOL:
                raise ValueError(f"cdf decreases on [{left}, {right}]")

        atom_at = dict(self.atoms)
        if len(atom_at) != len(self.atoms):
            raise ValueError("duplicate atom location")
        for loc, mass in self.atoms:
            _check_unit_params("atom location", loc)
            if not mass > 0.0:  # NaN included
                raise ValueError("atom mass must be positive")

        # Jumps at piece junctions (and at 0 and 1) must match declared atoms;
        # a declared mass is positive, so this also rejects a drop.
        junctions = [0.0, *lo[1:], 1.0]
        jumps = [v_lo[0], *(right - left for left, right in zip(v_hi, v_lo[1:])), 1.0 - v_hi[-1]]
        for t, jump in zip(junctions, jumps):
            declared = atom_at.get(t, 0.0)
            if abs(jump - declared) > _JUNCTION_TOL:
                raise ValueError(
                    f"cdf jump {jump:.3e} at {t} does not match declared atom {declared:.3e}"
                )
        if not atom_at.keys() <= set(junctions):
            raise ValueError("atoms must sit at piece junctions (or at 0 or 1)")
        return ends

    # -- evaluation ---------------------------------------------------------

    def _on_table(self, evaluate, theta):
        """``evaluate``, a method of the piece table, at evaluation points
        ``theta``, in their shape."""
        arr = _unit_points(theta)
        out = evaluate(arr.reshape(1, -1))
        return float(out[0, 0]) if arr.shape == () else out.reshape(arr.shape)

    def cdf(self, theta):
        """Right-continuous cumulative probability at ``theta``."""
        return self._on_table(self._table.evaluate, theta)

    def left_limit(self, theta):
        """``lim_{t -> theta^-} cdf(t)``, evaluated analytically."""
        return self._on_table(self._table.left_limit, theta)

    def atom_mass(self, theta: float) -> float:
        return dict(self.atoms).get(float(_unit_points(theta)), 0.0)

    def pdf(self, theta: float) -> float | None:
        """Density at ``theta`` (right-sided at kinks), or ``None`` at an atom."""
        theta = float(_unit_points(theta))
        if self.atom_mass(theta) > 0.0:
            return None
        point = np.array([[theta]])
        _, c1, c2 = self._table.rows(self._table.piece(point))
        r = _radius(point)
        return (c1 + c2 / (r * r * r)).item()

    def cdf_integral(self, theta):
        """``int_0^theta cdf(t) dt``, closed form per piece."""
        return self._on_table(lambda t: self._table.evaluate(t, integral=True)[1], theta)

    def failure_probability(self) -> float:
        """Mean of the distribution: the chance a firm fails its own sampled test."""
        return 1.0 - self._table.total.item()

    @property
    def breakpoints(self) -> tuple[float, ...]:
        pts = {*self._table.lo[0].tolist(), 1.0, *(loc for loc, _ in self.atoms)}
        return tuple(sorted(pts))

    def support_mask(self, thetas) -> np.ndarray:
        """Elementwise: ``theta`` carries mass, being an atom or lying in an
        increasing piece ``lo <= theta <= hi``."""
        arr = _unit_points(thetas)
        return self._table.support(arr.reshape(1, -1)).reshape(arr.shape)

    def support_contains(self, theta: float) -> bool:
        """Scalar form of :meth:`support_mask`."""
        return bool(self.support_mask(float(_unit_points(theta))))

    # -- sampling -----------------------------------------------------------

    def _quantile_table(self, columns, v_lo: list, v_hi: list) -> tuple[list, tuple, int]:
        # From the columns (hi, c0, c1, c2) and the cdf at the piece ends, one
        # record (upper, c0, s, kind) per stretch of u that maps to a single
        # atom or piece: the stretch's upper end in u, then the atom location
        # c0, the line (u - c0) / s, or the arc g = (u - c0) / s.
        # Record i covers uppers[i-1] <= u < uppers[i]; the first reaches
        # down to 0 and the last up to 1.  _inverse_into evaluates the base
        # record over every u: the widest line or arc, since an atom's
        # stretch is patched without gathering its u, else the widest atom.
        records = []
        atom_at = dict(self.atoms)
        if 0.0 in atom_at:
            records.append((atom_at[0.0], 0.0, 0.0, "atom"))
        for t, c0, c1, c2, lo_val, hi_val in zip(*columns.tolist(), v_lo, v_hi):
            if hi_val > lo_val:
                records.append((hi_val, c0, c2, "arc") if c2 else (hi_val, c0, c1, "line"))
            if t in atom_at and t != 0.0:
                records.append((hi_val + atom_at[t], t, 0.0, "atom"))
        uppers = [r[0] for r in records]
        widths = [hi - lo for lo, hi in zip([0.0] + uppers, uppers[:-1] + [1.0])]
        base = max(range(len(records)), key=lambda i: (records[i][3] != "atom", widths[i]))
        return uppers, tuple(records), base

    def inverse(self, u):
        """Quantile function (generalized inverse of the cdf); u must lie in [0, 1]."""
        u = _unit_points(u, "probability u")
        out = np.empty(u.size)
        self._inverse_into(u.reshape(-1), out)
        return out.reshape(u.shape)[()]

    def _inverse_into(self, u, out, scratch=None) -> None:
        """Write :meth:`inverse` of ``u``, an array already on [0, 1], into
        ``out``, which may be ``u`` itself.  ``scratch``, a float array of
        u's shape, spares the arc formula a temporary.

        The base record is evaluated over all of u in place.  Every other
        record's stretch and u values are read first, from comparisons of u
        against the uppers, and written over the base values afterwards, so
        a one-record table builds no mask at all.
        """
        uppers, records, base = self._quantile
        last = len(records) - 1
        others = []
        for i, record in enumerate(records):
            if i != base:
                if i == 0:
                    mask = u < uppers[0]
                elif i == last:
                    mask = u >= uppers[i - 1]
                else:
                    mask = (u >= uppers[i - 1]) & (u < uppers[i])
                others.append((record, mask, None if record[3] == "atom" else u[mask]))
        _quantile_record(records[base], u, out, scratch)
        for record, mask, values in others:
            if values is None:
                _select_bits(out, mask, record[1], scratch)
            else:
                _quantile_record(record, values, values)
                out[mask] = values
        # Only a line can round past [0, 1].  An atom lies in [0, 1] by
        # validation, and an arc clips g to [-1, 1] and divides it by
        # sqrt(2 - g**2) >= 1, so |q| <= |g| <= 1 and 0.5 * (1 + q) lies in
        # [0, 1]: each of these steps rounds monotonically onto a bound.
        if any(record[3] == "line" for record in records):
            np.clip(out, 0.0, 1.0, out=out)

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-transform sampling from a caller-supplied random stream."""
        if size is None:
            return float(self.inverse(np.array([rng.random()]))[0])
        return self.inverse(rng.random(size))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        if self.family is not None:
            kind, *values = self.family
            segments = [{"kind": kind, **dict(zip(_FAMILY_FIELDS[kind], values))}]
        else:
            segments = [{"kind": "arc", "lo": lo, "hi": hi, "offset": c0, "scale": c2} if c2
                        else {"kind": "poly", "lo": lo, "hi": hi, "coeffs": [c0, c1]}
                        for lo, hi, c0, c1, c2 in self.pieces]
        return {"segments": segments, "atoms": [[loc, mass] for loc, mass in self.atoms]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "MixedCdf":
        """Decode :meth:`to_dict`'s form.  Every value but a segment's ``kind``,
        each coefficient and each atom entry must be an int or a float."""
        _check_keys("a cdf", data, ("segments",), optional=("atoms",))
        segments, atoms = data["segments"], data.get("atoms", [])
        for name, values in (("segments", segments), ("atoms", atoms)):
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {values!r}")
        for atom in atoms:
            _check_numbers("atom", atom)
            if len(atom) != 2:
                raise ValueError(f"an atom must be a [location, mass] pair, got {atom!r}")
        atoms = [tuple(a) for a in atoms]
        rows = []
        for seg in segments:
            _check_keys("a segment", seg, ("kind",))
            kind = seg["kind"]
            if not isinstance(kind, str) or kind not in _SEGMENT_FIELDS:
                raise ValueError(f"unknown segment kind {kind!r}")
            _check_keys(f"a {kind!r} segment", seg, _SEGMENT_FIELDS[kind], optional=("kind",))
            for name, value in seg.items():
                if name != "kind":
                    _check_numbers(name, value if name == "coeffs" else [value])
            if kind == "poly":
                if not 1 <= len(seg["coeffs"]) <= 2:
                    raise ValueError("a poly piece has degree <= 1: one or two coefficients")
                c0, c1 = (*seg["coeffs"], 0.0)[:2]
                rows.append((seg["lo"], seg["hi"], c0, c1, 0.0))
            elif kind == "arc":
                rows.append((seg["lo"], seg["hi"], seg["offset"], 0.0, seg["scale"]))
        if len(segments) == 1 and kind in _FAMILY_FIELDS:  # seg is the only one
            d = cls.from_family(kind, *(seg[name] for name in _FAMILY_FIELDS[kind]))
            # A family's atoms follow from its parameters; given ones must agree.
            if "atoms" in data and atoms != list(d.atoms):
                raise ValueError(f"atoms {atoms} differ from {kind!r}'s {list(d.atoms)}")
            return d
        if len(rows) < len(segments):
            raise ValueError("family segments cannot be mixed with piece segments")
        return cls(tuple(rows), tuple(atoms))

    @classmethod
    def from_json(cls, text: str) -> "MixedCdf":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_family(cls, kind: str, *values) -> "MixedCdf":
        """Rebuild a cdf from its recipe, ``MixedCdf.from_family(*d.family)``."""
        if kind not in _FAMILY_FIELDS:
            raise ValueError(f"unknown segment kind {kind!r}")
        if kind == "uniform":
            return cls.uniform(*values)
        if kind == "step":
            return cls.step(*values)
        # The equilibrium module builds on this one, hence the late import.
        from thresholdgame.equilibrium import equilibrium_interval, equilibrium_unrestricted

        if kind == "eq_interval":
            return equilibrium_interval(*values).dist
        return equilibrium_unrestricted(*values).dist

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "MixedCdf":
        """Uniform distribution on [lo, hi]."""
        lo, hi = _unit_interval("uniform bound", lo, hi)
        knots = [(0.0, 0.0), (lo, 0.0), (hi, 1.0), (1.0, 1.0)]
        return cls._from_knots(knots, ("uniform", lo, hi))

    @classmethod
    def step(cls, at: float) -> "MixedCdf":
        """Deterministic test: all mass at ``at``."""
        _check_unit_params("step location", at)
        at = float(at)
        return cls._from_knots([(0.0, 0.0), (at, 0.0), (at, 1.0), (1.0, 1.0)], ("step", at))

    @classmethod
    def piecewise_linear(cls, knots: Sequence[tuple[float, float]]) -> "MixedCdf":
        """Build a mixed piecewise-linear cdf from ``(theta, value)`` knots.

        Knots must be nondecreasing in both coordinates; a repeated ``theta``
        with increased value declares an atom of the difference.  The first
        knot must be ``(0, v0)`` (``v0 > 0`` puts an atom at 0) and the last
        ``(1, 1)``.  Every coordinate is a real number (see Conventions).
        """
        if len(knots) < 2:
            raise ValueError("piecewise_linear needs at least two knots")
        for t, v in knots:
            _check_real("knot", t, v)
        return cls._from_knots([(float(t), float(v)) for t, v in knots])

    @classmethod
    def _from_knots(cls, knots: list[tuple[float, float]],
                    family: tuple | None = None) -> "MixedCdf":
        """:meth:`piecewise_linear` on float knots, labelled ``family``."""
        if knots[0][0] != 0.0 or knots[-1] != (1.0, 1.0):
            raise ValueError("knots must start at theta=0 and end at (1, 1)")
        pieces = []
        atoms = {}
        if knots[0][1] > 0.0:
            atoms[0.0] = knots[0][1]
        for (t0, v0), (t1, v1) in zip(knots, knots[1:]):
            if t1 < t0 or v1 < v0 - 1e-15:
                raise ValueError("knots must be nondecreasing")
            if t1 > t0:
                slope = (v1 - v0) / (t1 - t0)
                pieces.append((t0, t1, v0 - slope * t0, slope, 0.0))
            elif v1 > v0:
                atoms[t0] = atoms.get(t0, 0.0) + (v1 - v0)
        return cls(tuple(pieces), tuple(sorted(atoms.items())), family=family)


def quantile_to_quality(theta: float, prior_inverse_cdf: Callable[[float], float]) -> float:
    """Map a quantile-scale difficulty to a quality-scale threshold.

    ``prior_inverse_cdf`` must be strictly increasing on [0, 1] (priors with
    atoms or flat stretches are rejected rather than silently resolved) and
    never NaN; its ends may be infinite.
    """
    theta = float(_unit_points(theta))
    probe = np.linspace(0.0, 1.0, 101)
    values = np.array([prior_inverse_cdf(p) for p in probe], dtype=float)
    # "Not all increasing", so that a NaN, failing every comparison, fails.
    if not np.all(np.diff(values) > 0.0):
        raise ValueError("prior inverse cdf must be strictly increasing on [0, 1]")
    quality = float(prior_inverse_cdf(theta))
    if math.isnan(quality):
        raise ValueError(f"prior inverse cdf is NaN at {theta}")
    return quality
