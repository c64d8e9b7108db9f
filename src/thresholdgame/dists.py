"""Mixed distributions over test difficulties on the unit quantile scale.

A test is identified with the probability ``theta`` in [0, 1] that a product
of uniformly distributed quality fails it.  Strategies of the principal and
of the firms are probability distributions over such difficulties, and the
ones that matter here are *mixed*: an absolutely continuous part described by
closed-form pieces, plus finitely many point masses (atoms).

:class:`MixedCdf` stores the cumulative distribution function as an ordered
tiling of [0, 1] by analytic pieces together with an explicit atom list.  A
piece is a polynomial of degree <= 1 (:class:`PolyPiece`) or an arc of the
equilibrium family (:class:`ArcPiece`); either is one row ``(c0, c1, c2)``,
``(level, slope, 0)`` or ``(offset, 0, scale)``, of the cdf
``c0 + c1 t + c2 (2t-1) / r`` with ``r = sqrt(t^2 + (1-t)^2)``, whose running
integral is ``(c0 + c1 t / 2) t + c2 r`` and whose density is
``c1 + c2 / r^3``.  The cdf, its left limits, the running integral
``int_0^theta cdf(t) dt`` and the density each gather the rows of the points'
pieces and apply one formula; construction reads the piece ends and prefix
integrals from the same formulas.  The quantile function inverts each atom,
line or arc in closed form from a table of records built with the cdf.
Storing formulas rather than sampled grids keeps breakpoints exact, which
the per-piece quadrature in :mod:`thresholdgame.inversion` relies on to split
its integration domain.

A cdf built from a named family (uniform, step, the unrestricted equilibrium
or its restriction to [a, b]) records that recipe in ``MixedCdf.family``.
``_FAMILY_FIELDS`` names each family's parameters, which are also its
serialized keys, and :meth:`MixedCdf.from_family` is the one place that
turns a recipe back into a cdf: JSON and the rule grammar both go through it.

Conventions:

* cdfs are right-continuous and nondecreasing with ``cdf(1) == 1``;
* an atom of mass ``m`` at ``t`` appears as a jump: ``cdf(t) - left_limit(t) == m``;
* values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ArcPiece",
    "MixedCdf",
    "PolyPiece",
    "quantile_to_quality",
]


def _check_domain(arr: np.ndarray, name: str = "threshold") -> None:
    # Phrased as "not inside" so that NaN, which fails every comparison, is
    # rejected as well.
    if arr.size and not (np.min(arr) >= -1e-12 and np.max(arr) <= 1 + 1e-12):
        raise ValueError(f"{name} outside [0, 1]")


def _check_finite(kind: str, *values) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise ValueError(f"{kind} parameters must be finite")


def _radius(theta):
    return np.sqrt(theta * theta + (1.0 - theta) * (1.0 - theta))


def _row_cdf(c0, c1, c2, theta):
    """The cdf at ``theta`` of the pieces with rows ``(c0, c1, c2)``."""
    return c0 + c1 * theta + c2 * (2.0 * theta - 1.0) / _radius(theta)


def _row_integral(c0, c1, c2, theta):
    # An antiderivative of _row_cdf: d r / dt = (2t-1) / r.
    return (c0 + 0.5 * c1 * theta) * theta + c2 * _radius(theta)


@dataclass(frozen=True)
class PolyPiece:
    """Polynomial cdf piece of degree <= 1: ``cdf(t) = coeffs[0] + coeffs[1] * t``
    on [lo, hi).

    ``coeffs`` holds one coefficient (a constant piece) or two (a linear
    piece); its row is ``(level, slope, 0)``.
    """

    lo: float
    hi: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= len(self.coeffs) <= 2:
            raise ValueError("a poly piece has degree <= 1: one or two coefficients")
        _check_finite("poly piece", self.lo, self.hi, *self.coeffs)

    def row(self) -> tuple[float, float, float]:
        level, slope = (*self.coeffs, 0.0)[:2]
        return float(level), float(slope), 0.0

    def to_segment_dict(self) -> dict:
        return {"kind": "poly", "lo": self.lo, "hi": self.hi, "coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class ArcPiece:
    """Equilibrium-family cdf piece ``offset + scale * (2t-1) / sqrt(t^2 + (1-t)^2)``.

    The antiderivative of ``(2t-1)/sqrt(t^2+(1-t)^2)`` is ``sqrt(t^2+(1-t)^2)``,
    so the running integral and the quantile function are both closed-form;
    its row is ``(offset, 0, scale)``.
    """

    lo: float
    hi: float
    offset: float
    scale: float

    def __post_init__(self):
        _check_finite("arc piece", self.lo, self.hi, self.offset, self.scale)

    def row(self) -> tuple[float, float, float]:
        return float(self.offset), 0.0, float(self.scale)

    def to_segment_dict(self) -> dict:
        return {
            "kind": "arc",
            "lo": self.lo,
            "hi": self.hi,
            "offset": self.offset,
            "scale": self.scale,
        }


def constant_piece(lo: float, hi: float, level: float) -> PolyPiece:
    return PolyPiece(lo, hi, (float(level),))


def linear_piece(lo: float, hi: float, v_lo: float, v_hi: float) -> PolyPiece:
    slope = (v_hi - v_lo) / (hi - lo)
    return PolyPiece(lo, hi, (v_lo - slope * lo, slope))


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

    ``pieces`` tile [0, 1]; each piece's row gives the full cdf on the closure
    of its interval.  ``atoms`` lists the jump locations and masses; every
    jump between adjacent pieces (or before the first / after the last piece)
    must be declared as an atom.  ``family`` optionally records the recipe
    the cdf was built from, which keeps serialization exact.
    """

    pieces: tuple
    atoms: tuple[tuple[float, float], ...] = ()
    family: tuple | None = None
    _bounds: np.ndarray = field(init=False, repr=False, compare=False)
    _coef: np.ndarray = field(init=False, repr=False, compare=False)
    _rising: np.ndarray = field(init=False, repr=False, compare=False)
    _ends: tuple = field(init=False, repr=False, compare=False)
    _anti_lo: np.ndarray = field(init=False, repr=False, compare=False)
    _prefix: np.ndarray = field(init=False, repr=False, compare=False)
    _quantile: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("MixedCdf needs at least one piece")
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(
            self, "atoms", tuple((float(t), float(m)) for t, m in self.atoms)
        )
        rows = [p.row() for p in self.pieces]
        # (cdf at lo, cdf at hi) of each piece, evaluated once.
        object.__setattr__(self, "_ends", tuple(
            (float(_row_cdf(*r, p.lo)), float(_row_cdf(*r, p.hi)))
            for p, r in zip(self.pieces, rows)
        ))
        self._validate()
        object.__setattr__(self, "_bounds", np.array([p.lo for p in self.pieces] + [1.0]))
        object.__setattr__(self, "_coef", np.array(rows).T.copy())
        # Whether each piece carries mass; the closing False is what the index
        # -1 or len(pieces) of a point outside [0, 1] reads (see support_mask).
        object.__setattr__(self, "_rising", np.array(
            [c1 > 1e-12 or c2 > 0.0 for _, c1, c2 in rows] + [False]))
        anti_lo = np.array([float(_row_integral(*r, p.lo)) for p, r in zip(self.pieces, rows)])
        anti_hi = np.array([float(_row_integral(*r, p.hi)) for p, r in zip(self.pieces, rows)])
        object.__setattr__(self, "_anti_lo", anti_lo)
        # _prefix[i] == cdf_integral(pieces[i].lo)
        prefix = np.concatenate(([0.0], np.cumsum(anti_hi - anti_lo)))
        object.__setattr__(self, "_prefix", prefix)
        object.__setattr__(self, "_quantile", self._quantile_table(rows))

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        pieces = self.pieces
        if abs(pieces[0].lo) > 0 or abs(pieces[-1].hi - 1.0) > 0:
            raise ValueError("pieces must tile [0, 1] exactly")
        for left, right in zip(pieces, pieces[1:]):
            if left.hi != right.lo:
                raise ValueError("pieces must be contiguous")
            if right.lo <= left.lo:
                raise ValueError("pieces must have positive width and be ordered")
        # Every piece is linear or an arc, hence monotone, so comparing its
        # ends decides whether the cdf decreases along it.
        for piece, (v_lo, v_hi) in zip(pieces, self._ends):
            if v_hi < v_lo - _JUNCTION_TOL:
                raise ValueError(f"cdf decreases on [{piece.lo}, {piece.hi}]")

        atom_at = dict(self.atoms)
        if len(atom_at) != len(self.atoms):
            raise ValueError("duplicate atom location")
        for loc, mass in self.atoms:
            if not 0.0 <= loc <= 1.0:
                raise ValueError("atom location outside [0, 1]")
            if not mass > 0.0:  # NaN included
                raise ValueError("atom mass must be positive")

        # Jumps at piece junctions (and at 0 and 1) must match declared atoms.
        ends = self._ends
        junctions = [(0.0, 0.0, ends[0][0])]
        junctions += [(p.hi, left[1], right[0])
                      for p, left, right in zip(pieces, ends, ends[1:])]
        junctions.append((1.0, ends[-1][1], 1.0))
        seen = set()
        for t, lo_val, hi_val in junctions:
            jump = hi_val - lo_val
            declared = atom_at.get(t, 0.0)
            if abs(jump - declared) > _JUNCTION_TOL:
                raise ValueError(
                    f"cdf jump {jump:.3e} at {t} does not match declared atom {declared:.3e}"
                )
            if jump < -_JUNCTION_TOL:
                raise ValueError(f"cdf decreases at {t}")
            if t in atom_at:
                seen.add(t)
        if seen != set(atom_at):
            raise ValueError("atoms must sit at piece junctions (or at 0 or 1)")

    # -- evaluation ---------------------------------------------------------

    def _rows_at(self, theta, side: str = "right"):
        """Check ``theta`` against [0, 1] and clip it; return the flat points,
        their piece indices, the rows ``(c0, c1, c2)`` of those pieces and the
        input's shape.  ``side="left"`` puts a junction in the piece on its left."""
        arr = np.asarray(theta, dtype=float)
        _check_domain(arr)
        flat = np.clip(arr.ravel(), 0.0, 1.0)
        idx = np.searchsorted(self._bounds, flat, side=side) - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        return flat, idx, self._coef[:, idx], arr.shape

    def cdf(self, theta):
        """Right-continuous cumulative probability at ``theta``."""
        flat, _, rows, shape = self._rows_at(theta)
        out = _row_cdf(*rows, flat)
        out[flat == 1.0] = 1.0
        return float(out[0]) if shape == () else out.reshape(shape)

    def left_limit(self, theta):
        """``lim_{t -> theta^-} cdf(t)``, evaluated analytically."""
        # Away from junctions the cdf is continuous and the left limit is the
        # value itself.
        flat, _, rows, shape = self._rows_at(theta, side="left")
        out = _row_cdf(*rows, flat)
        out[flat == 0.0] = 0.0
        return float(out[0]) if shape == () else out.reshape(shape)

    def atom_mass(self, theta: float) -> float:
        for loc, mass in self.atoms:
            if loc == theta:
                return mass
        return 0.0

    def pdf(self, theta: float) -> float | None:
        """Density at ``theta`` (right-sided at kinks), or ``None`` at an atom."""
        theta = float(theta)
        if not 0.0 <= theta <= 1.0:
            raise ValueError("threshold outside [0, 1]")
        if self.atom_mass(theta) > 0.0:
            return None
        flat, _, (_, c1, c2), _ = self._rows_at(theta)
        r = _radius(flat)
        return float((c1 + c2 / (r * r * r))[0])

    def cdf_integral(self, theta):
        """``int_0^theta cdf(t) dt``, closed form per piece."""
        flat, idx, rows, shape = self._rows_at(theta)
        out = self._prefix[idx] + (_row_integral(*rows, flat) - self._anti_lo[idx])
        return float(out[0]) if shape == () else out.reshape(shape)

    def failure_probability(self) -> float:
        """Mean of the distribution: the chance a firm fails its own sampled test."""
        return 1.0 - self.cdf_integral(1.0)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        pts = {p.lo for p in self.pieces} | {1.0} | {loc for loc, _ in self.atoms}
        return tuple(sorted(pts))

    def support_mask(self, thetas) -> np.ndarray:
        """Elementwise: ``theta`` carries mass, being an atom or lying in an
        increasing piece ``lo <= theta <= hi``."""
        arr = np.asarray(thetas, dtype=float)
        _check_domain(arr)
        flat = arr.ravel()
        # The piece on the right of theta, and the one on its left when theta
        # is a junction, which belongs to both.
        right = np.searchsorted(self._bounds, flat, side="right") - 1
        left = right - (self._bounds[right] == flat)
        mask = self._rising[right] | self._rising[left]
        for loc, _ in self.atoms:
            mask |= flat == loc
        return mask.reshape(arr.shape)

    def support_contains(self, theta: float) -> bool:
        """Scalar form of :meth:`support_mask`."""
        return bool(self.support_mask(float(theta)))

    # -- sampling -----------------------------------------------------------

    def _quantile_table(self, rows) -> tuple[np.ndarray, tuple]:
        # One record (upper, c0, s, kind) per stretch of u that maps to a
        # single atom or piece: the stretch's upper end in u, then the atom
        # location c0, the line (u - c0) / s, or the arc g = (u - c0) / s.
        records = []
        atom_at = dict(self.atoms)
        if 0.0 in atom_at:
            records.append((atom_at[0.0], 0.0, 0.0, "atom"))
        for piece, (c0, c1, c2), (v_lo, v_hi) in zip(self.pieces, rows, self._ends):
            if v_hi > v_lo:
                records.append((v_hi, c0, c2, "arc") if c2 else (v_hi, c0, c1, "line"))
            t = piece.hi
            if t in atom_at and t != 0.0:
                records.append((v_hi + atom_at[t], float(t), 0.0, "atom"))
        return np.array([r[0] for r in records]), tuple(records)

    def inverse(self, u):
        """Quantile function (generalized inverse of the cdf); u must lie in [0, 1]."""
        u = np.asarray(u, dtype=float)
        _check_domain(u, "probability u")
        uppers, records = self._quantile
        idx = np.clip(np.searchsorted(uppers, u, side="right"), 0, len(records) - 1)
        out = np.empty_like(u, dtype=float)
        for i, (_, c0, s, kind) in enumerate(records):
            mask = idx == i
            if kind == "atom":
                out[mask] = c0
            elif kind == "line":
                out[mask] = (u[mask] - c0) / s
            else:
                # cdf(t) = u  <=>  (2t-1)/sqrt(t^2+(1-t)^2) = g with g = (u-c0)/s;
                # substituting q = 2t-1 gives q = g / sqrt(2 - g^2).
                g = np.clip((u[mask] - c0) / s, -1.0, 1.0)
                out[mask] = 0.5 * (1.0 + g / np.sqrt(2.0 - g * g))
        return np.clip(out, 0.0, 1.0)

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
            segments = [p.to_segment_dict() for p in self.pieces]
        return {"segments": segments, "atoms": [[loc, mass] for loc, mass in self.atoms]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "MixedCdf":
        segments = data["segments"]
        atoms = [tuple(a) for a in data.get("atoms", [])]
        for seg in segments:
            kind = seg["kind"]
            if kind not in _SEGMENT_FIELDS:
                raise ValueError(f"unknown segment kind {kind!r}")
            extra = set(seg) - {"kind", *_SEGMENT_FIELDS[kind]}
            if extra:
                raise ValueError(f"unknown keys {sorted(extra)} in a {kind!r} segment")
        if len(segments) == 1 and kind in _FAMILY_FIELDS:  # seg is the only one
            d = cls.from_family(kind, *(seg[name] for name in _FAMILY_FIELDS[kind]))
            # A family's atoms follow from its parameters; given ones must agree.
            if "atoms" in data and atoms != list(d.atoms):
                raise ValueError(f"atoms {atoms} differ from {kind!r}'s {list(d.atoms)}")
            return d
        pieces = []
        for seg in segments:
            if seg["kind"] == "poly":
                pieces.append(PolyPiece(seg["lo"], seg["hi"], tuple(seg["coeffs"])))
            elif seg["kind"] == "arc":
                pieces.append(ArcPiece(seg["lo"], seg["hi"], seg["offset"], seg["scale"]))
            else:
                raise ValueError("family segments cannot be mixed with piece segments")
        return cls(tuple(pieces), tuple(atoms))

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
        lo, hi = float(lo), float(hi)
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("need 0 <= lo < hi <= 1")
        pieces = []
        if lo > 0.0:
            pieces.append(constant_piece(0.0, lo, 0.0))
        pieces.append(linear_piece(lo, hi, 0.0, 1.0))
        if hi < 1.0:
            pieces.append(constant_piece(hi, 1.0, 1.0))
        return cls(tuple(pieces), (), family=("uniform", lo, hi))

    @classmethod
    def step(cls, at: float) -> "MixedCdf":
        """Deterministic test: all mass at ``at``."""
        at = float(at)
        if not 0.0 <= at <= 1.0:
            raise ValueError("step location outside [0, 1]")
        if at == 0.0:
            pieces = (constant_piece(0.0, 1.0, 1.0),)
        elif at == 1.0:
            pieces = (constant_piece(0.0, 1.0, 0.0),)
        else:
            pieces = (constant_piece(0.0, at, 0.0), constant_piece(at, 1.0, 1.0))
        return cls(pieces, ((at, 1.0),), family=("step", at))

    @classmethod
    def piecewise_linear(cls, knots: Sequence[tuple[float, float]]) -> "MixedCdf":
        """Build a mixed piecewise-linear cdf from ``(theta, value)`` knots.

        Knots must be nondecreasing in both coordinates; a repeated ``theta``
        with increased value declares an atom of the difference.  The first
        knot must be ``(0, v0)`` (``v0 > 0`` puts an atom at 0) and the last
        ``(1, 1)``.
        """
        knots = [(float(t), float(v)) for t, v in knots]
        if knots[0][0] != 0.0 or knots[-1] != (1.0, 1.0):
            raise ValueError("knots must start at theta=0 and end at (1, 1)")
        pieces = []
        atoms = []
        if knots[0][1] > 0.0:
            atoms.append((0.0, knots[0][1]))
        for (t0, v0), (t1, v1) in zip(knots, knots[1:]):
            if t1 < t0 or v1 < v0 - 1e-15:
                raise ValueError("knots must be nondecreasing")
            if t1 == t0:
                if v1 > v0:
                    atoms.append((t0, v1 - v0))
                continue
            pieces.append(linear_piece(t0, t1, v0, v1))
        merged = {}
        for loc, mass in atoms:
            merged[loc] = merged.get(loc, 0.0) + mass
        return cls(tuple(pieces), tuple(sorted(merged.items())))


def quantile_to_quality(theta: float, prior_inverse_cdf: Callable[[float], float]) -> float:
    """Map a quantile-scale difficulty to a quality-scale threshold.

    ``prior_inverse_cdf`` must be strictly increasing on [0, 1] (priors with
    atoms or flat stretches are rejected rather than silently resolved).
    """
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ValueError("threshold outside [0, 1]")
    probe = np.linspace(0.0, 1.0, 101)
    values = np.array([prior_inverse_cdf(p) for p in probe], dtype=float)
    if np.any(np.diff(values) <= 0.0):
        raise ValueError("prior inverse cdf must be strictly increasing on [0, 1]")
    return float(prior_inverse_cdf(theta))
