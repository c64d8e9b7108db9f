"""Simulation engine for the threshold-test selection game.

One play of the game: every firm owns a test difficulty on the quantile
scale, qualities are drawn i.i.d. uniformly on [0, 1], each firm passes or
fails its own test, and the principal ranks firms by the only rational rule:
all passers ahead of all failers, harder tests first within each group, and
uniformly random order inside blocks that tie on both outcome and difficulty.

Monte Carlo estimates split their plays into chunks of a fixed size, and
chunk c of seed s reads the stream of ``PCG64DXSM(SeedSequence(s,
spawn_key=(c,)))`` from its start, child c of ``SeedSequence(s).spawn``, in a
fixed draw order, so results are reproducible bit-for-bit for a given seed
and independent of how chunks are scheduled.  A ``simulate`` call runs its
chunks on W workers, one per CPU available to the process, but no more than
there are chunks or than give each worker 2**18 trials (2**19 for two
firms on a rule that draws no thresholds).  The calling
process is worker 0, the others are forked processes (see
:mod:`thresholdgame._workers`; a process running other threads gets one
worker), and worker w runs chunks w, w + W, w + 2W, ...  Each chunk writes
its sums and win counts into its own slot of arrays in shared memory, and
the slots are reduced with numpy's pairwise summation in chunk order once
every worker is done, so W changes no bit.  If a chunk raises, every later
chunk is skipped and the exception of the lowest failing chunk is raised in
the caller, with its type and message.

Each worker allocates its arrays once and every chunk refills them in place
(``Generator.random(out=...)``, ``np.copyto``, ufuncs with ``out=``).  A
chunk is drawn and scored in row blocks, and the W workers share one budget
of about 2**19 values, or one chunk's plays if that is less, so memory grows
neither with the firm count nor with W.  A block is held only firm-major,
one row per firm, so that the kernel reads contiguous rows.  The stream is
plays-major: each of its segments (qualities, uniforms, tie draws) is read
through its own generator into a small plays-major tile of about 2**15
values and copied tile by tile into the block's rows, so the draws, and
every seeded result, are those of one generator read straight through.
Each worker builds its three generators once, with no OS entropy, and
places one at a segment by assigning its chunk's seeded state, worked out
once per chunk, and advancing it by the draws that come before.
Uniforms are inverted into thresholds in their rows.  A rule that draws no
thresholds (a fixed test, or a single atom for every firm) fills its
thresholds once per worker and decides once whether two of them are equal;
its uniforms are never drawn, and the tie draws keep their place in the
stream.  A block reads its tie draws only if two firms of one of its plays
share a threshold, the one case a tie draw decides: a block without such a
play skips them, and the next block that reads them places its generator
at its own part of the segment, so no draw moves.

The Monte Carlo kernel sorts nothing.  For every pair of firms it decides
which one ranks higher: a lone passer, else the harder test, else the random
tie key (a single fair draw per play when there are two firms).  It then
counts the pair as inverted when the lower-ranked firm has the strictly
higher quality.  A total order is fixed by its pairs, so the inversion
count and the winner equal those of a stable sort on (passed, threshold,
tie key), for any number of firms.  With two firms each play's fraction
of inverted pairs is 0 or 1, so a chunk's sums are the count of its
inverted plays, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from thresholdgame._checks import _as_count, _check_nonnegative, _check_unit_params
from thresholdgame.dists import _FAMILY_FIELDS, MixedCdf, _unit_points

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
    "simulate",
]

CHUNK_TRIALS = 1 << 16
DEFAULT_TRIALS = 10_000_000

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class InversionEstimate:
    """A value of the principal's error probability with its provenance."""

    value: float
    method: str  # "closed_form" | "monte_carlo"
    std_error: float = 0.0
    trials: int = 0

    def __post_init__(self):
        _unit_points(self.value, "estimate")
        _check_nonnegative("std_error", self.std_error)
        if _as_count(self.trials, "trials") < 0:
            raise ValueError("trials must be nonnegative")
        if self.method not in ("closed_form", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")


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


def play_game(thresholds: Sequence[float], qualities: Sequence[float],
              coin: np.random.Generator) -> GameOutcome:
    thresholds, qualities = tuple(thresholds), tuple(qualities)
    n = len(thresholds)
    if len(qualities) != n:
        raise ValueError("thresholds and qualities must have the same length")
    if n < 2:
        raise ValueError("need at least two firms")
    _check_unit_params("threshold", *thresholds)
    _check_unit_params("quality", *qualities)
    thresholds = tuple(float(t) for t in thresholds)
    qualities = tuple(float(q) for q in qualities)
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
    # Integers only: True and 1.0 would pass as the index 1.
    if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in ranking) \
            or sorted(ranking) != list(range(n)):
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
        object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class FixedThresholds:
    """Firm i deterministically takes thresholds[i]."""

    thresholds: tuple[float, ...]

    def __post_init__(self):
        thresholds = tuple(self.thresholds)
        if len(thresholds) < 2:
            raise ValueError("need at least two thresholds")
        _check_unit_params("threshold", *thresholds)
        object.__setattr__(self, "thresholds", tuple(float(t) for t in thresholds))


@dataclass(frozen=True)
class IidRule:
    """Every firm draws its test i.i.d. from one distribution."""

    dist: MixedCdf

    def __post_init__(self):
        _check_dists(self.dist)


@dataclass(frozen=True)
class IndependentRule:
    """Firm i draws its test from its own distribution, independently."""

    dists: tuple[MixedCdf, ...]

    def __post_init__(self):
        object.__setattr__(self, "dists", tuple(self.dists))
        if len(self.dists) < 2:
            raise ValueError("need at least two distributions")
        _check_dists(*self.dists)


def _check_dists(*dists) -> None:
    """Raise unless every distribution is a ``MixedCdf``: anything else
    would only fail once ``simulate`` draws from it."""
    for dist in dists:
        if not isinstance(dist, MixedCdf):
            raise ValueError(f"a rule's distribution must be a MixedCdf, got {dist!r}")


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


#: Values (plays x firms) the blocks of all workers hold together: with n
#: firms and W workers a chunk is drawn and scored
#: ``max(1, min(plays, _BLOCK_VALUES // n) // W)`` plays at a time, so the
#: arrays of a ``simulate`` call grow neither with the firm count nor with W.
_BLOCK_VALUES = 1 << 19


#: Values (plays x firms) of the plays-major tile that each segment of the
#: stream is read through on its way into a block's firm-major rows: a tile
#: of ``_TILE_VALUES // n`` plays stays in cache while it is copied across.
#: On a 2-vCPU Xeon a (65,536 x 8) block took 0.47 ms to copy through tiles
#: of 2**15 or 2**16 values, 0.53 ms through 2**14 and 1.9-2.1 ms at once.
_TILE_VALUES = 1 << 15


#: Fewest trials per worker, doubled for two firms on a rule that draws no
#: thresholds, whose plays cost least.  A fork, exit and wait round trip
#: took about 4 ms on a 2-vCPU Xeon, against 1.7 ms (``same:0.5``) to
#: 4.4 ms (``iid:eq:0,0.79``) for a two-firm chunk.  Two workers took
#: 0.65-0.81 of one worker's time on drawn rules at 2**19 trials, 0.57-0.70
#: at 2**20 and 0.51-0.53 at 10**7, but 0.81-1.38 (median 1.06) on two-firm
#: ``same:0.5`` at 2**19 and 0.68-1.12 (median 0.73) at 2**20.  From three
#: firms on the plain floor holds: at n = 3 they took 0.98-1.16 on
#: ``fixed:0.2,0.5,0.8`` at 2**18 trials and 0.65-0.89 at 2**19, and at
#: n = 5 (``fixed:0.1,0.3,0.5,0.7,0.9``) 0.61-0.65 at 2**19.
_MIN_WORKER_TRIALS = 1 << 18


def _seeded_state(seed: int, chunk: int) -> dict:
    """The start state of chunk ``chunk``'s stream: that of
    ``PCG64DXSM(SeedSequence(seed, spawn_key=(chunk,)))``, child ``chunk`` of
    ``SeedSequence(seed).spawn``.  The seed sequence is given its entropy,
    so none is read from the OS."""
    return np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(chunk,))).state


def _stream(gen: np.random.Generator, state: dict, offset: int = 0) -> np.random.Generator:
    """Place ``gen``, a PCG64DXSM generator, ``offset`` draws of ``random()``
    into the stream that starts at ``state`` and return it.

    Each draw of ``random()`` is one step of the generator, so assigning the
    state and advancing it ``offset`` steps, a jump of logarithmic cost,
    gives the generator that read those draws.
    """
    gen.bit_generator.state = state
    gen.bit_generator.advance(offset)
    return gen


class _ChunkArrays:
    """The arrays one of ``workers`` workers of a ``simulate`` call reuses
    for each of its chunks of at most ``plays`` plays.

    A block of ``rows`` plays is held only firm-major: ``q`` its qualities,
    ``t`` its thresholds and ``keys`` its tie keys, one row per firm (with
    two firms, two boolean rows of the single draw).  The stream is
    plays-major, and each segment reaches the rows through ``stage``, a tile
    of ``len(stage)`` plays.  ``fixed`` holds the thresholds of a rule that draws
    none, with whether two of them are equal, once ``t`` has been filled
    with them; ``inv`` holds a whole chunk's inversion counts and, with
    three firms or more, ``frac`` its misordered fractions and then their
    squares.  Short blocks and chunks use leading slices.  ``streams`` are
    the PCG64DXSM generators of the qualities, uniforms and tie draws, built
    once from a fixed seed, so without entropy, and placed by ``_stream`` in
    every chunk's stream.
    """

    def __init__(self, n: int, plays: int, workers: int = 1):
        self.rows = rows = max(1, min(plays, _BLOCK_VALUES // n) // workers)
        self.pairs = n * (n - 1) // 2
        self.streams = tuple(np.random.Generator(np.random.PCG64DXSM(0)) for _ in range(3))
        self.stage = np.empty((max(1, min(rows, _TILE_VALUES // n)), n))
        self.q = np.empty((n, rows))
        self.t = np.empty((n, rows))
        self.keys = np.empty((2, rows), dtype=bool) if n == 2 else np.empty((n, rows))
        self.passed = np.empty((n, rows), dtype=bool)
        self.top = np.empty((n, rows), dtype=bool)
        self.flags = np.empty((3, rows), dtype=bool)  # per-pair work rows
        self.inv = np.empty(plays, dtype=np.min_scalar_type(self.pairs))  # exact counts
        self.frac = np.empty(plays) if self.pairs > 1 else None
        self.fixed = None


def _fixed_thresholds(rule: Rule, n: int) -> tuple[float, ...] | None:
    """Each firm's threshold if ``rule`` draws none, being a fixed test or
    one whose every distribution is a single atom; else None."""
    if isinstance(rule, SameTest):
        return (rule.theta,) * n
    if isinstance(rule, FixedThresholds):
        return rule.thresholds
    dists = (rule.dist,) * n if isinstance(rule, IidRule) else rule.dists
    atoms = tuple(_single_atom(dist) for dist in dists)
    return None if None in atoms else atoms


def _single_atom(dist: MixedCdf) -> float | None:
    """The location of ``dist`` if all its mass is one atom, else None: its
    quantile table is then one atom record."""
    _, records, _ = dist._quantile
    if len(records) == 1 and records[0][3] == "atom":
        return records[0][1]
    return None


def _read_rows(gen: np.random.Generator, stage: np.ndarray, out: np.ndarray) -> None:
    """Read ``out.shape[1]`` plays of a plays-major stream segment from
    ``gen`` into ``out``, firm-major rows, a tile of ``len(stage)`` plays at
    a time.  Boolean ``out`` takes two-firm tie draws, one a play: row 0
    marks where firm 0 ranks first, a draw below 0.5, and row 1 the rest."""
    width = len(stage)
    for s in range(0, out.shape[1], width):
        part = out[:, s:s + width]
        if out.dtype == bool:
            draws = gen.random(out=stage.reshape(-1)[:part.shape[1]])
            np.less(draws, 0.5, out=part[0])
            np.greater_equal(draws, 0.5, out=part[1])
        else:
            np.copyto(part, gen.random(out=stage[:part.shape[1]]).T)


def _invert(rule: IidRule | IndependentRule, t: np.ndarray, scratch: np.ndarray) -> None:
    """Turn the uniforms in ``t``, firm-major rows, into thresholds in place,
    with ``scratch``, a float array of the same shape, as the arc inverse's
    work space."""
    if isinstance(rule, IidRule):
        rule.dist._inverse_into(t, t, scratch)
    else:
        for j, dist in enumerate(rule.dists):
            dist._inverse_into(t[j], t[j], scratch[j])


def _ties(t: np.ndarray, scratch: np.ndarray) -> bool:
    """Whether two firms of some play, a column of ``t``, share a threshold;
    ``scratch`` is a boolean row of a play each."""
    n = len(t)
    return any(np.equal(t[i], t[j], out=scratch).any()
               for i in range(n - 1) for j in range(i + 1, n))


def _score_block(q: np.ndarray, t: np.ndarray, keys: np.ndarray | None, arrays: _ChunkArrays,
                 inv: np.ndarray) -> np.ndarray:
    """Score one block of plays: write each play's inverted-pair count into
    ``inv`` and return the firms' win counts.

    ``q`` and ``t`` are (firms, plays) rows.  ``keys`` order firms that tie
    on (passed, threshold), as (firms, plays) rows where a larger key ranks
    first and equal keys keep index order; with two firms they are the two
    boolean rows of ``_read_rows``.  ``keys`` is None when no two firms of a
    play share a threshold: no key could then decide a pair.

    No play is sorted: each pair i < j is decided on its own, on firm-major
    rows so that every row read is contiguous.  Everything is elementwise
    boolean algebra written into reused rows: ``np.where`` on a random mask
    mispredicts branches and costs far more per element.
    """
    n, m = q.shape
    passed, top = arrays.passed[:, :m], arrays.top[:, :m]
    ahead, hit, other = arrays.flags[:, :m]
    np.greater_equal(q, t, out=passed)
    inv[...] = 0
    top[...] = True  # firm ranks above every other
    for i in range(n - 1):
        for j in range(i + 1, n):
            # ahead: i ranks above j, by a lone pass, else the harder test,
            # else the tie key.
            np.greater(t[i], t[j], out=ahead)
            if keys is not None:
                np.equal(t[i], t[j], out=hit)
                hit &= np.greater_equal(keys[i], keys[j], out=other)
                ahead |= hit
            ahead &= np.equal(passed[i], passed[j], out=other)
            ahead |= np.greater(passed[i], passed[j], out=other)
            top[i] &= ahead
            # Inverted: the firm ranked lower has the strictly higher quality.
            np.greater(q[j], q[i], out=hit)
            hit &= ahead
            np.logical_not(ahead, out=ahead)
            top[j] &= ahead
            ahead &= np.greater(q[i], q[j], out=other)
            hit |= ahead
            inv += hit.view(np.uint8)  # a bool operand is cast on every call
    # One count per row: count_nonzero of a whole row counts its bytes in
    # words, where the axis form sums through a cast.
    return [np.count_nonzero(row) for row in top]


def _simulate_chunk(rule: Rule, n: int, seed: int, c: int, m: int,
                    arrays: _ChunkArrays):
    """Chunk ``c`` of ``m`` plays; returns (sum_frac, sum_frac_sq, win_counts).

    The chunk's stream holds its qualities, then any uniforms of drawn
    thresholds, then its tie draws, each in (plays, firms) order (one tie
    draw per play with two firms).  The qualities and uniforms each get a
    generator placed at the start of their segment, and every block
    continues where the previous one stopped.  A block draws its uniforms
    into ``t`` and inverts them there, with ``q`` as scratch, before its
    qualities fill ``q``; a rule that draws no thresholds fills ``t`` and
    decides whether two firms tie once per ``arrays``.  A block reads its
    tie draws only if two firms of one of its plays share a threshold: the
    tie generator is placed at the block's part of its segment when the
    block before did not read, and read on otherwise.  So every draw read is
    the one a straight read of the stream gives.
    """
    rows, stage = arrays.rows, arrays.stage
    drawn = isinstance(rule, (IidRule, IndependentRule))
    fixed = _fixed_thresholds(rule, n)
    if fixed is None:
        arrays.fixed = None  # the blocks overwrite t
    elif arrays.fixed is None or arrays.fixed[0] != fixed:
        arrays.t[...] = np.reshape(fixed, (n, 1))
        arrays.fixed = fixed, len(set(fixed)) < n
    q_gen, u_gen, tie_gen = arrays.streams
    state = _seeded_state(seed, c)
    qualities = _stream(q_gen, state)
    uniforms = _stream(u_gen, state, m * n) if fixed is None else None
    ties_start, per_play = m * n * (1 + drawn), 1 if n == 2 else n
    ties, ties_next = None, None  # the tie generator and the play it reads next
    wins = np.zeros(n, dtype=np.int64)
    for r0 in range(0, m, rows):
        b = min(rows, m - r0)
        q, t, keys = arrays.q[:, :b], arrays.t[:, :b], arrays.keys[:, :b]
        if fixed is None:
            _read_rows(uniforms, stage, t)
            _invert(rule, t, q)
            tied = _ties(t, arrays.flags[0, :b])
        else:
            tied = arrays.fixed[1]
        _read_rows(qualities, stage, q)
        if tied:
            if ties_next != r0:
                ties = _stream(tie_gen, state, ties_start + r0 * per_play)
            ties_next = r0 + b
            _read_rows(ties, stage, keys)
        wins += _score_block(q, t, keys if tied else None, arrays, arrays.inv[r0:r0 + b])
    if arrays.pairs == 1:
        # Each fraction is 0.0 or 1.0 and its own square, and every partial
        # sum of them below 2**53 is exact, so the count is both sums.
        count = float(np.count_nonzero(arrays.inv[:m]))
        return count, count, wins
    frac = np.divide(arrays.inv[:m], arrays.pairs, out=arrays.frac[:m])
    total = float(np.sum(frac))
    return total, float(np.sum(np.multiply(frac, frac, out=frac))), wins


def _run_chunks(rule: Rule, n: int, seed: int, trials: int):
    """Run every chunk of ``trials`` plays; returns the chunks' inversion
    sums, sums of squares and win counts, one row per chunk.

    Worker w of W runs chunks w, w + W, ... through arrays of its own (see
    :mod:`thresholdgame._workers`): worker 0 is the calling process and the
    others are forked.  W is one per CPU, but at most one per chunk and
    one per ``_MIN_WORKER_TRIALS`` trials, or twice that for two firms on a
    rule that draws no thresholds; the firm count sets no other floor, as
    forked workers share no interpreter lock and their blocks shrink with
    W.  A chunk that raises stops every later one, and the exception of the
    lowest such chunk is raised here once no worker is left.
    """
    # Imported here, so that only Monte Carlo loads the fork machinery.
    from thresholdgame import _workers

    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    plays = min(CHUNK_TRIALS, trials)
    fixed = n == 2 and _fixed_thresholds(rule, n) is not None
    workers = max(1, min(_workers.available(), n_chunks, trials // (_MIN_WORKER_TRIALS << fixed)))

    def work(chunks, sums, sq_sums, win_counts):
        arrays = _ChunkArrays(n, plays, workers)
        for c in chunks:
            m = min(CHUNK_TRIALS, trials - c * CHUNK_TRIALS)
            sums[c], sq_sums[c], win_counts[c] = _simulate_chunk(rule, n, seed, c, m, arrays)

    return _workers.run(work, n_chunks, workers, [((n_chunks,), np.float64),
                                                  ((n_chunks,), np.float64),
                                                  ((n_chunks, n), np.int64)])


def simulate(rule: Rule, n_firms: int | None = None, trials: int = DEFAULT_TRIALS,
             seed: int = 0) -> SimulationSummary:
    """Play ``trials`` seeded games and summarize inversions and win rates."""
    trials = _as_count(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be positive")
    seed = _as_count(seed, "seed")
    if not 0 <= seed <= _MASK64:
        # SeedSequence takes any nonnegative int, but the seeds accepted
        # stay one unsigned 64-bit word, whatever the stream.
        raise ValueError("seed must lie in [0, 2**64)")
    n = _rule_firm_count(rule, n_firms)

    sums, sq_sums, win_counts = _run_chunks(rule, n, seed, trials)
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
