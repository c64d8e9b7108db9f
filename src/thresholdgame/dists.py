"""Mixed distributions over test difficulties on the unit quantile scale.

A test is identified with the probability ``theta`` in [0, 1] that a product
of uniformly distributed quality fails it.  Strategies of the principal and
of the firms are probability distributions over such difficulties, and the
ones that matter here are *mixed*: an absolutely continuous part described by
closed-form pieces, plus finitely many point masses (atoms).

:class:`MixedCdf` stores the cumulative distribution function as an ordered
tiling of [0, 1] by analytic pieces together with an explicit atom list.  A
piece is a polynomial of degree <= 1 (:class:`PolyPiece`) or an arc of the
equilibrium family (:class:`ArcPiece`).  All evaluations are exact per piece:
the cdf, its left limits, the running integral
``integral(theta) = int_0^theta cdf(t) dt``, densities away from atoms, and
the quantile function used for inverse-transform sampling, which inverts
both kinds of piece in closed form.
Storing evaluators rather than sampled grids keeps breakpoints exact, which
the per-piece quadrature in :mod:`thresholdgame.inversion` relies on to split
its integration domain.

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


def _as_float_array(theta) -> tuple[np.ndarray, bool]:
    arr = np.asarray(theta, dtype=float)
    return arr, arr.ndim == 0


def _check_domain(arr: np.ndarray, name: str = "threshold") -> None:
    # Phrased as "not inside" so that NaN, which fails every comparison, is
    # rejected as well.
    if arr.size and not (np.min(arr) >= -1e-12 and np.max(arr) <= 1 + 1e-12):
        raise ValueError(f"{name} outside [0, 1]")


def _check_finite(kind: str, *values) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise ValueError(f"{kind} parameters must be finite")


@dataclass(frozen=True)
class PolyPiece:
    """Polynomial cdf piece of degree <= 1: ``cdf(t) = coeffs[0] + coeffs[1] * t``
    on [lo, hi).

    ``coeffs`` holds one coefficient (a constant piece) or two (a linear
    piece), so the running integral and the quantile are closed-form.
    """

    lo: float
    hi: float
    coeffs: tuple[float, ...]
    _level: float = field(init=False, repr=False, compare=False)
    _slope: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= len(self.coeffs) <= 2:
            raise ValueError("a poly piece has degree <= 1: one or two coefficients")
        _check_finite("poly piece", self.lo, self.hi, *self.coeffs)
        level, slope = (*self.coeffs, 0.0)[:2]
        object.__setattr__(self, "_level", float(level))
        object.__setattr__(self, "_slope", float(slope))

    def value(self, theta):
        return self._level + self._slope * np.asarray(theta, dtype=float)

    def density(self, theta):
        return np.full(np.shape(theta), self._slope)

    def antiderivative(self, theta):
        theta = np.asarray(theta, dtype=float)
        return (self._level + 0.5 * self._slope * theta) * theta

    def integral(self, t0: float, t1: float) -> float:
        return float(self.antiderivative(t1) - self.antiderivative(t0))

    def inverse(self, u):
        # Quantile restricted to this piece; a flat piece sends every u to hi.
        u = np.asarray(u, dtype=float)
        if self._slope <= 0.0:
            return np.full_like(u, self.hi)
        return (u - self._level) / self._slope

    def is_increasing_at(self, theta):
        """Elementwise: the density at ``theta`` is positive."""
        return np.full(np.shape(theta), self._slope > 1e-12)

    def to_segment_dict(self) -> dict:
        return {"kind": "poly", "lo": self.lo, "hi": self.hi, "coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class ArcPiece:
    """Equilibrium-family cdf piece ``offset + scale * (2t-1) / sqrt(t^2 + (1-t)^2)``.

    The antiderivative of ``(2t-1)/sqrt(t^2+(1-t)^2)`` is ``sqrt(t^2+(1-t)^2)``,
    so the running integral and the quantile function are both closed-form.
    """

    lo: float
    hi: float
    offset: float
    scale: float

    def __post_init__(self):
        _check_finite("arc piece", self.lo, self.hi, self.offset, self.scale)

    @staticmethod
    def _radius(theta):
        theta = np.asarray(theta, dtype=float)
        return np.sqrt(theta * theta + (1.0 - theta) * (1.0 - theta))

    def value(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.offset + self.scale * (2.0 * theta - 1.0) / self._radius(theta)

    def density(self, theta):
        r = self._radius(theta)
        return self.scale / (r * r * r)

    def antiderivative(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.offset * theta + self.scale * self._radius(theta)

    def integral(self, t0: float, t1: float) -> float:
        return float(self.antiderivative(t1) - self.antiderivative(t0))

    def inverse(self, u):
        # value(t) = u  <=>  (2t-1)/sqrt(t^2+(1-t)^2) = g with g = (u-offset)/scale;
        # substituting q = 2t-1 gives q = g / sqrt(2 - g^2).
        u = np.asarray(u, dtype=float)
        g = np.clip((u - self.offset) / self.scale, -1.0, 1.0)
        q = g / np.sqrt(2.0 - g * g)
        return 0.5 * (1.0 + q)

    def is_increasing_at(self, theta):
        """Elementwise: the density at ``theta`` is positive."""
        return np.full(np.shape(theta), self.scale > 0.0)

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


@dataclass(frozen=True)
class MixedCdf:
    """A mixed (continuous + atoms) distribution over [0, 1].

    ``pieces`` tile [0, 1]; each piece evaluates the full cdf on the closure
    of its interval.  ``atoms`` lists the jump locations and masses; every
    jump between adjacent pieces (or before the first / after the last piece)
    must be declared as an atom.  ``family`` optionally records the recipe
    the cdf was built from, which keeps serialization exact.
    """

    pieces: tuple
    atoms: tuple[tuple[float, float], ...] = ()
    family: tuple | None = None
    _edges: np.ndarray = field(init=False, repr=False, compare=False)
    _prefix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("MixedCdf needs at least one piece")
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(
            self, "atoms", tuple((float(t), float(m)) for t, m in self.atoms)
        )
        self._validate()
        edges = np.array([p.lo for p in self.pieces], dtype=float)
        object.__setattr__(self, "_edges", edges)
        # _prefix[i] == cdf_integral(pieces[i].lo)
        prefix = np.concatenate(
            ([0.0], np.cumsum([p.integral(p.lo, p.hi) for p in self.pieces]))
        )
        object.__setattr__(self, "_prefix", prefix)

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
        for piece in pieces:
            if float(piece.value(piece.hi)) < float(piece.value(piece.lo)) - _JUNCTION_TOL:
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
        junctions = [(0.0, 0.0, float(pieces[0].value(0.0)))]
        for left, right in zip(pieces, pieces[1:]):
            t = left.hi
            junctions.append((t, float(left.value(t)), float(right.value(t))))
        junctions.append((1.0, float(pieces[-1].value(1.0)), 1.0))
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

    def _piece_index(self, arr: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._edges, arr, side="right") - 1
        return np.clip(idx, 0, len(self.pieces) - 1)

    def cdf(self, theta):
        """Right-continuous cumulative probability at ``theta``."""
        arr, scalar = _as_float_array(theta)
        _check_domain(arr)
        flat = np.clip(arr.ravel(), 0.0, 1.0)
        out = np.empty_like(flat)
        idx = self._piece_index(flat)
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if mask.any():
                out[mask] = piece.value(flat[mask])
        out[flat == 1.0] = 1.0
        out = out.reshape(arr.shape)
        return float(out) if scalar else out

    def left_limit(self, theta):
        """``lim_{t -> theta^-} cdf(t)``, evaluated analytically."""
        arr, scalar = _as_float_array(theta)
        _check_domain(arr)
        flat = np.clip(arr.ravel(), 0.0, 1.0)
        out = np.empty_like(flat)
        # A point on a junction belongs to the piece on its left; elsewhere the
        # cdf is continuous and the left limit is the value itself.
        idx = np.searchsorted(self._edges, flat, side="left") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if mask.any():
                out[mask] = piece.value(flat[mask])
        out[flat == 0.0] = 0.0
        out = out.reshape(arr.shape)
        return float(out) if scalar else out

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
        if theta == 1.0:
            piece = self.pieces[-1]
        else:
            piece = self.pieces[int(self._piece_index(np.array([theta]))[0])]
        return float(piece.density(theta))

    def cdf_integral(self, theta):
        """``int_0^theta cdf(t) dt``, closed form per piece."""
        arr, scalar = _as_float_array(theta)
        _check_domain(arr)
        flat = np.clip(arr.ravel(), 0.0, 1.0)
        idx = self._piece_index(flat)
        out = self._prefix[idx]
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if mask.any():
                out[mask] += piece.antiderivative(flat[mask]) - piece.antiderivative(
                    piece.lo
                )
        out = out.reshape(arr.shape)
        return float(out) if scalar else out

    def failure_probability(self) -> float:
        """Mean of the distribution: the chance a firm fails its own sampled test."""
        return 1.0 - self.cdf_integral(1.0)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        pts = {p.lo for p in self.pieces} | {1.0} | {loc for loc, _ in self.atoms}
        return tuple(sorted(pts))

    def support_mask(self, thetas) -> np.ndarray:
        """Elementwise: ``theta`` carries mass, being an atom or lying in a
        piece ``lo <= theta <= hi`` that is increasing at ``theta``."""
        arr = np.asarray(thetas, dtype=float)
        _check_domain(arr)
        flat = arr.ravel()
        mask = np.zeros(flat.shape, dtype=bool)
        for loc, _ in self.atoms:
            mask |= flat == loc
        for piece in self.pieces:
            inside = (piece.lo <= flat) & (flat <= piece.hi)
            if inside.any():
                mask[inside] |= piece.is_increasing_at(flat[inside])
        return mask.reshape(arr.shape)

    def support_contains(self, theta: float) -> bool:
        """Scalar form of :meth:`support_mask`."""
        return bool(self.support_mask(float(theta)))

    # -- sampling -----------------------------------------------------------

    def _inversion_table(self):
        records = []
        atom_at = dict(self.atoms)
        if 0.0 in atom_at:
            records.append((0.0, atom_at[0.0], "atom", 0.0))
        for piece in self.pieces:
            v_lo = float(piece.value(piece.lo))
            v_hi = float(piece.value(piece.hi))
            if v_hi > v_lo:
                records.append((v_lo, v_hi, "piece", piece))
            t = piece.hi
            if t in atom_at and t != 0.0:
                records.append((v_hi, v_hi + atom_at[t], "atom", t))
        return records

    def inverse(self, u):
        """Quantile function (generalized inverse of the cdf); u must lie in [0, 1]."""
        u = np.asarray(u, dtype=float)
        _check_domain(u, "probability u")
        records = self._inversion_table()
        uppers = np.array([r[1] for r in records])
        idx = np.searchsorted(uppers, u, side="right")
        idx = np.clip(idx, 0, len(records) - 1)
        out = np.empty_like(u, dtype=float)
        for i, (v_lo, v_hi, kind, payload) in enumerate(records):
            mask = idx == i
            if not mask.any():
                continue
            if kind == "atom":
                out[mask] = payload
            else:
                out[mask] = payload.inverse(u[mask])
        return np.clip(out, 0.0, 1.0)

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-transform sampling from a caller-supplied random stream."""
        if size is None:
            return float(self.inverse(np.array([rng.random()]))[0])
        return self.inverse(rng.random(size))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        if self.family is not None:
            kind = self.family[0]
            if kind == "uniform":
                segments = [{"kind": "uniform", "lo": self.family[1], "hi": self.family[2]}]
            elif kind == "step":
                segments = [{"kind": "step", "at": self.family[1]}]
            elif kind == "eq_unrestricted":
                segments = [{"kind": "eq_unrestricted"}]
            elif kind == "eq_interval":
                segments = [{"kind": "eq_interval", "a": self.family[1], "b": self.family[2]}]
            else:  # pragma: no cover - families are constructed internally
                raise ValueError(f"unknown family {kind!r}")
        else:
            segments = [p.to_segment_dict() for p in self.pieces]
        return {"segments": segments, "atoms": [[loc, mass] for loc, mass in self.atoms]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "MixedCdf":
        segments = data["segments"]
        atoms = [tuple(a) for a in data.get("atoms", [])]
        if len(segments) == 1 and segments[0]["kind"] != "poly":
            seg = segments[0]
            kind = seg["kind"]
            if kind == "uniform":
                return cls.uniform(seg["lo"], seg["hi"])
            if kind == "step":
                return cls.step(seg["at"])
            if kind == "eq_unrestricted":
                from thresholdgame.equilibrium import equilibrium_unrestricted

                return equilibrium_unrestricted().dist
            if kind == "eq_interval":
                from thresholdgame.equilibrium import equilibrium_interval

                return equilibrium_interval(seg["a"], seg["b"]).dist
            if kind == "arc":
                pieces = (ArcPiece(seg["lo"], seg["hi"], seg["offset"], seg["scale"]),)
                return cls(pieces, tuple(atoms))
            raise ValueError(f"unknown segment kind {kind!r}")
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
