"""Simulation engine for the threshold-test selection game.

One play of the game: every firm owns a test difficulty on the quantile
scale, qualities are drawn i.i.d. uniformly on [0, 1], each firm passes or
fails its own test, and the principal ranks firms by the only rational rule:
all passers ahead of all failers, harder tests first within each group, and
uniformly random order inside blocks that tie on both outcome and difficulty.

Monte Carlo estimates use a counter-based generator (Philox) keyed by
``(seed, chunk index)`` with a fixed chunk size and a fixed draw order inside
each chunk, so results are reproducible bit-for-bit for a given seed and
independent of how chunks would be scheduled across workers.  Chunk sums are
reduced with numpy's pairwise summation in a fixed order.

The Monte Carlo kernel sorts nothing.  For every pair of firms it decides
which one ranks higher: a lone passer, else the harder test, else the random
tie key (a single fair draw per play when there are two firms).  It then
counts the pair as inverted when the lower-ranked firm has the strictly
higher quality.  A total order is fixed by its pairs, so the inversion
count and the winner equal those of a stable sort on (passed, threshold,
tie key), for any number of firms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from thresholdgame.dists import _FAMILY_FIELDS, MixedCdf, _check_unit_params, _unit_points

__all__ = [
    "CHUNK_TRIALS",
    "DEFAULT_TRIALS",
    "FixedThresholds",
    "GameOutcome",
    "IidRule",
    "IndependentRule",
    "InversionEstimate",
    "SameTest",
    "SimulationSummary",
    "kendall_tau_fraction",
    "mc_inversion",
    "parse_rule",
    "play_game",
    "rank_firms",
    "select_two",
    "simulate",
]

CHUNK_TRIALS = 1 << 16
DEFAULT_TRIALS = 10_000_000

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class InversionEstimate:
    """A value of the principal's error probability with its provenance."""

    value: float
    method: str  # "closed_form" | "quadrature" | "monte_carlo"
    std_error: float = 0.0
    trials: int = 0

    def __post_init__(self):
        _unit_points(self.value, "estimate")
        if self.std_error < 0.0:
            raise ValueError("negative standard error")


@dataclass(frozen=True)
class GameOutcome:
    """Record of a single play: inputs, pass/fail bits, inferred ranking."""

    thresholds: tuple[float, ...]
    qualities: tuple[float, ...]
    passed: tuple[bool, ...]
    ranking: tuple[int, ...]


# ---------------------------------------------------------------------------
# Single plays
# ---------------------------------------------------------------------------


def _as_count(value, name: str) -> int:
    """``value`` as an int, or ValueError unless it is a whole number:
    ``int`` alone would truncate 2.5 to another count."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def select_two(theta_x: float, theta_y: float, x: float, y: float,
               coin: np.random.Generator) -> int:
    """Winner index (0 or 1) between two firms: the first of their ranking."""
    return play_game((theta_x, theta_y), (x, y), coin).ranking[0]


def rank_firms(thresholds: Sequence[float], qualities: Sequence[float],
               coin: np.random.Generator) -> tuple[int, ...]:
    """Ranking of firm indices, best first, under the selection rule."""
    return play_game(thresholds, qualities, coin).ranking


def play_game(thresholds: Sequence[float], qualities: Sequence[float],
              coin: np.random.Generator) -> GameOutcome:
    thresholds = tuple(float(t) for t in thresholds)
    qualities = tuple(float(q) for q in qualities)
    n = len(thresholds)
    if len(qualities) != n:
        raise ValueError("thresholds and qualities must have the same length")
    if n < 2:
        raise ValueError("need at least two firms")
    _check_unit_params("threshold", *thresholds)
    _check_unit_params("quality", *qualities)
    passed = tuple(q >= t for q, t in zip(qualities, thresholds))
    tie_keys = coin.random(n)
    order = sorted(
        range(n),
        key=lambda i: (passed[i], thresholds[i], tie_keys[i]),
        reverse=True,
    )
    return GameOutcome(thresholds, qualities, passed, tuple(order))


def kendall_tau_fraction(ranking: Sequence[int], qualities: Sequence[float]) -> float:
    """Fraction of pairs the ranking orders against the true quality order."""
    n = len(ranking)
    if sorted(ranking) != list(range(n)):
        raise ValueError("ranking is not a permutation")
    if len(qualities) != n:
        raise ValueError("ranking and qualities must have the same length")
    if n < 2:
        raise ValueError("need at least two firms")
    _check_unit_params("quality", *qualities)
    inversions = 0
    for p in range(n):
        for q in range(p + 1, n):
            if qualities[ranking[p]] < qualities[ranking[q]]:
                inversions += 1
    return inversions / (n * (n - 1) // 2)


# ---------------------------------------------------------------------------
# Test-assignment rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SameTest:
    """Both firms take one fixed test."""

    theta: float

    def __post_init__(self):
        _check_unit_params("threshold", self.theta)


@dataclass(frozen=True)
class FixedThresholds:
    """Firm i deterministically takes thresholds[i]."""

    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        if len(self.thresholds) < 2:
            raise ValueError("need at least two thresholds")
        _check_unit_params("threshold", *self.thresholds)


@dataclass(frozen=True)
class IidRule:
    """Every firm draws its test i.i.d. from one distribution."""

    dist: MixedCdf


@dataclass(frozen=True)
class IndependentRule:
    """Firm i draws its test from its own distribution, independently."""

    dists: tuple[MixedCdf, ...]

    def __post_init__(self):
        if len(self.dists) < 2:
            raise ValueError("need at least two distributions")


Rule = SameTest | FixedThresholds | IidRule | IndependentRule


def _rule_firm_count(rule: Rule, n_firms: int | None) -> int:
    if n_firms is not None:
        n_firms = _as_count(n_firms, "n_firms")
    if isinstance(rule, FixedThresholds):
        implied = len(rule.thresholds)
    elif isinstance(rule, IndependentRule):
        implied = len(rule.dists)
    else:
        implied = None
    if implied is not None:
        if n_firms is not None and n_firms != implied:
            raise ValueError(f"rule implies {implied} firms, got n_firms={n_firms}")
        return implied
    n = 2 if n_firms is None else n_firms
    if n < 2:
        raise ValueError("need at least two firms")
    return n


def parse_dist(spec: str) -> MixedCdf:
    """Parse a distribution spec: ``uniform:lo,hi`` | ``eq`` | ``eq:a,b`` | ``step:t``."""
    head, _, rest = spec.partition(":")
    if head not in ("uniform", "step", "eq"):
        raise ValueError(f"unknown distribution kind {head!r}")
    kind = ("eq_interval" if rest else "eq_unrestricted") if head == "eq" else head
    try:
        values = tuple(float(v) for v in rest.split(",")) if rest else ()
        n = len(_FAMILY_FIELDS[kind])
        if len(values) != n:
            raise ValueError(f"expected {n} value{'s' * (n != 1)}, got {len(values)}")
        return MixedCdf.from_family(kind, *values)
    except ValueError as exc:
        label = "equilibrium" if head == "eq" else head
        raise ValueError(f"bad {label} spec {spec!r}: {exc}") from exc


def parse_rule(spec: str) -> Rule:
    """Parse a test-assignment rule.

    Grammar: ``same:0.5`` | ``fixed:0.333,0.667`` | ``iid:<dist>`` |
    ``indep:<dist>;<dist>`` with ``<dist>`` as in :func:`parse_dist`.
    """
    head, sep, rest = spec.partition(":")
    if head == "same":
        try:
            return SameTest(float(rest))
        except ValueError as exc:
            raise ValueError(f"bad rule spec {spec!r}") from exc
    if head == "fixed":
        try:
            thresholds = tuple(float(v) for v in rest.split(","))
        except ValueError as exc:
            raise ValueError(f"bad rule spec {spec!r}") from exc
        return FixedThresholds(thresholds)
    if head == "iid":
        if not sep:
            raise ValueError(f"bad rule spec {spec!r}")
        return IidRule(parse_dist(rest))
    if head == "indep":
        parts = rest.split(";")
        if len(parts) < 2:
            raise ValueError("indep rule needs at least two distributions")
        return IndependentRule(tuple(parse_dist(p) for p in parts))
    raise ValueError(f"unknown rule kind {head!r}")


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregate outcome of many seeded plays."""

    n_firms: int
    trials: int
    seed: int
    inversion_mean: float
    inversion_std_error: float
    win_rates: tuple[float, ...]
    win_rate_std_errors: tuple[float, ...]


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    key = seed + (chunk_index << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_thresholds(rule: Rule, gen: np.random.Generator, m: int, n: int) -> np.ndarray:
    if isinstance(rule, SameTest):
        return np.full((m, n), rule.theta)
    if isinstance(rule, FixedThresholds):
        return np.tile(np.asarray(rule.thresholds), (m, 1))
    if isinstance(rule, IidRule):
        return rule.dist.inverse(gen.random((m, n)))
    u = gen.random((m, n))
    thr = np.empty_like(u)
    for j, dist in enumerate(rule.dists):
        thr[:, j] = dist.inverse(u[:, j])
    return thr


def _score_chunk(qual: np.ndarray, thr: np.ndarray, tie: np.ndarray):
    """Score one chunk of plays; returns (sum_frac, sum_frac_sq, win_counts).

    ``qual`` and ``thr`` are (plays, firms) arrays.  ``tie`` orders firms that
    tie on (passed, threshold): with two firms it holds one draw per play and
    firm 0 ranks first when that draw is below 0.5; otherwise it holds one key
    per firm, a larger key ranks first and equal keys keep index order.

    No play is sorted: each pair i < j is decided on its own, on firm-major
    copies so that every row read is contiguous.  Everything is elementwise
    boolean algebra: ``np.where`` on a random mask mispredicts branches and
    costs far more per element.
    """
    m, n = qual.shape
    q = np.ascontiguousarray(qual.T)
    t = np.ascontiguousarray(thr.T)
    passed = q >= t
    if tie.ndim == 1:
        # The single draw as a key per firm: firm 0 leads when it is below 0.5.
        keys = np.stack([tie < 0.5, tie >= 0.5])
    else:
        keys = np.ascontiguousarray(tie.T)
    pairs = n * (n - 1) // 2
    inv = np.zeros(m, dtype=np.min_scalar_type(pairs))  # exact counts
    top = np.ones((n, m), dtype=bool)  # firm ranks above every other
    for i in range(n - 1):
        for j in range(i + 1, n):
            by_test = (t[i] > t[j]) | ((t[i] == t[j]) & (keys[i] >= keys[j]))
            ahead = (passed[i] > passed[j]) | ((passed[i] == passed[j]) & by_test)
            behind = ~ahead
            inv += (ahead & (q[j] > q[i])) | (behind & (q[i] > q[j]))
            top[i] &= ahead
            top[j] &= behind
    frac = inv / pairs
    return float(np.sum(frac)), float(np.sum(frac * frac)), np.count_nonzero(top, axis=1)


def _simulate_chunk(rule: Rule, n: int, gen: np.random.Generator, m: int):
    """One chunk of plays; returns (sum_frac, sum_frac_sq, win_counts)."""
    qual = gen.random((m, n))
    thr = _chunk_thresholds(rule, gen, m, n)
    tie = gen.random(m) if n == 2 else gen.random((m, n))
    return _score_chunk(qual, thr, tie)


def simulate(rule: Rule, n_firms: int | None = None, trials: int = DEFAULT_TRIALS,
             seed: int = 0) -> SimulationSummary:
    """Play ``trials`` seeded games and summarize inversions and win rates."""
    trials = _as_count(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be positive")
    seed = _as_count(seed, "seed")
    if not 0 <= seed <= _MASK64:
        # Philox keys hold 64 bits of seed; a larger one would alias another.
        raise ValueError("seed must lie in [0, 2**64)")
    n = _rule_firm_count(rule, n_firms)

    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    sums = np.zeros(n_chunks)
    sq_sums = np.zeros(n_chunks)
    win_counts = np.zeros((n_chunks, n), dtype=np.int64)
    for c in range(n_chunks):
        m = min(CHUNK_TRIALS, trials - c * CHUNK_TRIALS)
        gen = _chunk_generator(seed, c)
        sums[c], sq_sums[c], win_counts[c] = _simulate_chunk(rule, n, gen, m)

    total = float(np.sum(sums))
    total_sq = float(np.sum(sq_sums))
    mean = total / trials
    if trials > 1:
        var = max(total_sq - total * total / trials, 0.0) / (trials - 1)
    else:
        var = 0.0
    std_error = math.sqrt(var / trials)
    rates = np.sum(win_counts, axis=0) / trials
    rate_ses = tuple(math.sqrt(max(r * (1.0 - r), 0.0) / trials) for r in rates)
    return SimulationSummary(
        n_firms=n,
        trials=trials,
        seed=seed,
        inversion_mean=mean,
        inversion_std_error=std_error,
        win_rates=tuple(float(r) for r in rates),
        win_rate_std_errors=rate_ses,
    )


def mc_inversion(rule: Rule, n_firms: int | None = None,
                 trials: int = DEFAULT_TRIALS, seed: int = 0) -> InversionEstimate:
    """Monte Carlo estimate of the expected fraction of inverted pairs."""
    summary = simulate(rule, n_firms=n_firms, trials=trials, seed=seed)
    return InversionEstimate(
        value=summary.inversion_mean,
        method="monte_carlo",
        std_error=summary.inversion_std_error,
        trials=trials,
    )
