"""Tests for the selection-game engine and Monte Carlo estimator."""

import functools
import math
import os
import random
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholdgame import _workers, engine
from thresholdgame.dists import MixedCdf
from thresholdgame.engine import (
    FixedThresholds,
    IidRule,
    IndependentRule,
    InversionEstimate,
    SameTest,
    kendall_tau_fraction,
    mc_inversion,
    parse_rule,
    play_game,
    simulate,
)
from thresholdgame.inversion import inversion_fixed, inversion_rule

from conftest import count_forks, no_child_left
from oracles import quantile_reference


def _winner(theta_x, theta_y, x, y, coin):
    """The first of the two-firm ranking."""
    return play_game((theta_x, theta_y), (x, y), coin).ranking[0]


class TestSelectTwo:
    def test_single_passer_wins(self):
        # Y passes its easy test, X fails its hard one.
        rng = np.random.default_rng(0)
        assert _winner(0.7, 0.3, 0.5, 0.6, rng) == 1

    def test_both_pass_higher_threshold_wins(self):
        # Both pass; X held the harder test, so X wins even though y > x.
        rng = np.random.default_rng(0)
        assert _winner(0.6, 0.4, 0.7, 0.9, rng) == 0

    def test_both_fail_higher_threshold_wins(self):
        rng = np.random.default_rng(0)
        assert _winner(0.8, 0.2, 0.1, 0.1, rng) == 0

    def test_tie_is_fair_coin(self):
        rng = np.random.default_rng(123)
        wins = sum(_winner(0.5, 0.5, 0.8, 0.9, rng) == 0 for _ in range(20000))
        assert abs(wins / 20000 - 0.5) < 3 * 0.5 / np.sqrt(20000)

    def test_domain_error(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            _winner(1.2, 0.5, 0.5, 0.5, rng)

    @given(st.lists(st.integers(0, 4), min_size=4, max_size=4),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_is_the_first_of_play_game(self, quarters, seed):
        # Values on a grid of quarters, so outcome and threshold ties occur.
        # The winner is the lone passer, else the harder test, else the
        # larger of the two tie keys the coin draws.
        theta_x, theta_y, x, y = (q / 4 for q in quarters)
        winner = _winner(theta_x, theta_y, x, y, np.random.default_rng(seed))
        passed_x, passed_y = x >= theta_x, y >= theta_y
        if passed_x != passed_y:
            expected = 0 if passed_x else 1
        elif theta_x != theta_y:
            expected = 0 if theta_x > theta_y else 1
        else:
            keys = np.random.default_rng(seed).random(2)
            expected = 0 if keys[0] > keys[1] else 1
        assert winner == expected


class TestRankFirms:
    def test_all_pass_descending_threshold(self):
        rng = np.random.default_rng(0)
        ranking = play_game((0.2, 0.5, 0.8), (0.9, 0.9, 0.9), rng).ranking
        assert ranking == (2, 1, 0)

    def test_all_fail_descending_threshold(self):
        rng = np.random.default_rng(0)
        ranking = play_game((0.2, 0.8), (0.1, 0.1), rng).ranking
        assert ranking == (1, 0)

    def test_passer_ahead_of_failer(self):
        rng = np.random.default_rng(0)
        ranking = play_game((0.5, 0.5), (0.3, 0.9), rng).ranking
        assert ranking == (1, 0)

    def test_length_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            play_game((0.2, 0.5), (0.1, 0.2, 0.3), rng)

    @pytest.mark.parametrize("thresholds, qualities", [
        ((0.5, 2.0), (0.3, 0.4)),
        ((0.5, -0.1), (0.3, 0.4)),
        ((0.5, 0.5), (math.nan, 0.4)),
        ((math.nan, 0.5), (0.3, 0.4)),
        ((0.5, 0.5), (0.3, 1.5)),
    ])
    def test_rejects_out_of_range_and_nan(self, thresholds, qualities):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            play_game(thresholds, qualities, rng)

    def test_outcome_invariants(self):
        rng = np.random.default_rng(7)
        thresholds = rng.random(6)
        qualities = rng.random(6)
        outcome = play_game(thresholds, qualities, rng)
        assert sorted(outcome.ranking) == list(range(6))
        for i in range(6):
            assert outcome.passed[i] == (outcome.qualities[i] >= outcome.thresholds[i])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_pairwise_consistency_with_select_two(self, seed):
        # Restricting the n-firm ranking to any two firms with distinct
        # thresholds must agree with the two-firm rule (no coin involved).
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        thresholds = np.round(rng.random(n), 3)
        qualities = rng.random(n)
        ranking = play_game(thresholds, qualities, rng).ranking
        position = {firm: p for p, firm in enumerate(ranking)}
        for i in range(n):
            for j in range(i + 1, n):
                if thresholds[i] == thresholds[j]:
                    continue
                winner = _winner(
                    thresholds[i], thresholds[j], qualities[i], qualities[j],
                    np.random.default_rng(0),
                )
                first = i if winner == 0 else j
                second = j if winner == 0 else i
                assert position[first] < position[second]


class TestKendallTau:
    def test_perfect_ranking(self):
        assert kendall_tau_fraction((2, 1, 0), (0.1, 0.5, 0.9)) == 0.0

    def test_reversed_ranking(self):
        assert kendall_tau_fraction((0, 1, 2), (0.1, 0.5, 0.9)) == 1.0

    def test_one_adjacent_swap(self):
        assert kendall_tau_fraction((2, 0, 1), (0.1, 0.5, 0.9)) == pytest.approx(1 / 3)

    def test_invalid_permutation(self):
        # True == 1 and 1.0 == 1: either would pass as the index it equals.
        for ranking in [(0, 0, 1), (True, False, 2), (0.0, 1.0, 2.0),
                        np.array([0.0, 1.0, 2.0]), np.array([1, 0, 2], bool)]:
            with pytest.raises(ValueError, match="permutation"):
                kendall_tau_fraction(ranking, (0.1, 0.5, 0.9))

    def test_accepts_numpy_integer_rankings(self):
        for dtype in (np.int64, np.int32, np.uint8):
            ranking = np.array([2, 0, 1], dtype=dtype)
            assert kendall_tau_fraction(ranking, (0.1, 0.5, 0.9)) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("ranking, qualities", [((0,), (0.5,)), ((), ())])
    def test_needs_two_firms(self, ranking, qualities):
        with pytest.raises(ValueError):
            kendall_tau_fraction(ranking, qualities)

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_rejects_quality_outside_unit_interval(self, bad):
        # NaN compares False against every quality, so it would count no inversion.
        with pytest.raises(ValueError, match="quality outside"):
            kendall_tau_fraction((0, 1), (bad, 0.5))


class TestParseRule:
    def test_same(self):
        assert parse_rule("same:0.5") == SameTest(0.5)

    def test_fixed(self):
        rule = parse_rule("fixed:0.333,0.667")
        assert isinstance(rule, FixedThresholds)
        assert rule.thresholds == (0.333, 0.667)

    def test_iid_uniform(self):
        rule = parse_rule("iid:uniform:0.25,0.75")
        assert isinstance(rule, IidRule)
        assert rule.dist.family == ("uniform", 0.25, 0.75)

    def test_iid_equilibria(self):
        assert parse_rule("iid:eq").dist.family == ("eq_unrestricted",)
        assert parse_rule("iid:eq:0,0.79").dist.family == ("eq_interval", 0.0, 0.79)

    def test_indep(self):
        rule = parse_rule("indep:step:0.3;step:0.7")
        assert isinstance(rule, IndependentRule)
        assert [d.family for d in rule.dists] == [("step", 0.3), ("step", 0.7)]

    @pytest.mark.parametrize(
        "bad", ["median:0.5", "same:", "fixed:0.5", "iid:eq:0.5", "indep:step:0.3",
                "iid:uniform:0.9,0.1", "same:1.5"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rule(bad)


class TestMonteCarlo:
    def test_median_test_value(self):
        est = mc_inversion(parse_rule("same:0.5"), trials=1_000_000, seed=1)
        assert est.method == "monte_carlo"
        assert abs(est.value - 0.25) < 3 * est.std_error

    def test_optimal_fixed_pair(self):
        est = mc_inversion(parse_rule("fixed:0.3333333333333333,0.6666666666666666"),
                           trials=1_000_000, seed=2)
        assert abs(est.value - 1 / 6) < 3 * est.std_error

    def test_optimal_iid(self):
        est = mc_inversion(parse_rule("iid:uniform:0.25,0.75"), trials=1_000_000, seed=3)
        assert abs(est.value - 5 / 24) < 3 * est.std_error

    def test_matches_pairwise_formula_n3(self):
        thresholds = (0.2, 0.45, 0.9)
        est = mc_inversion(FixedThresholds(thresholds), trials=2_000_000, seed=4)
        assert abs(est.value - inversion_fixed(thresholds)) < 3 * est.std_error

    def test_seed_reproducibility(self):
        rule = parse_rule("iid:uniform:0.1,0.9")
        a = mc_inversion(rule, trials=200_000, seed=11)
        b = mc_inversion(rule, trials=200_000, seed=11)
        assert a == b
        c = mc_inversion(rule, trials=200_000, seed=12)
        assert c.value != a.value

    def test_symmetric_rule_win_rates(self):
        summary = simulate(parse_rule("iid:eq"), trials=1_000_000, seed=6)
        for rate, se in zip(summary.win_rates, summary.win_rate_std_errors):
            assert abs(rate - 0.5) < 3 * se

    def test_asymmetric_two_point_pair(self):
        # The sqrt(2)/2 pure pair: each firm still wins half the time.
        lo = 1 - np.sqrt(2) / 2
        hi = np.sqrt(2) / 2
        summary = simulate(parse_rule(f"indep:step:{lo};step:{hi}"),
                           trials=1_000_000, seed=7)
        for rate, se in zip(summary.win_rates, summary.win_rate_std_errors):
            assert abs(rate - 0.5) < 3 * se
        assert abs(summary.inversion_mean - (3 - 2 * np.sqrt(2))) < \
            3 * summary.inversion_std_error

    def test_n_firm_general_path(self):
        rule = FixedThresholds((0.3, 0.5, 0.7))
        est = mc_inversion(rule, trials=300_000, seed=8)
        assert abs(est.value - float(inversion_fixed((0.3, 0.5, 0.7)))) < 3 * est.std_error

    def test_firm_count_validation(self):
        with pytest.raises(ValueError):
            simulate(FixedThresholds((0.3, 0.7)), n_firms=3, trials=10)
        with pytest.raises(ValueError):
            simulate(SameTest(0.5), n_firms=1, trials=10)
        with pytest.raises(ValueError):
            simulate(SameTest(0.5), trials=0)

    def test_seed_must_fit_64_bits(self):
        # The seeds accepted are the unsigned 64-bit words, though the seed
        # sequence would take any nonnegative int.
        rule = parse_rule("iid:eq")
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError):
                simulate(rule, trials=100, seed=seed)
        assert simulate(rule, trials=100, seed=2**64 - 1).seed == 2**64 - 1


class TestInversionEstimate:
    @pytest.mark.parametrize("field, bad", [
        ("std_error", math.nan), ("std_error", math.inf), ("std_error", -1e-3),
        ("trials", -5), ("trials", 2.5), ("method", "bogus"),
    ])
    def test_rejects_invalid_field(self, field, bad):
        fields = {"value": 0.2, "method": "monte_carlo", "std_error": 1e-3, "trials": 100}
        InversionEstimate(**fields)
        with pytest.raises(ValueError):
            InversionEstimate(**{**fields, field: bad})


# ---------------------------------------------------------------------------
# The pairwise chunk kernel against the sort-based rule it replaced
# ---------------------------------------------------------------------------


def _chunk_gen(seed, c):
    """Chunk c's random stream: PCG64DXSM seeded by child c of the seed's
    sequence, spawned."""
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed).spawn(c + 1)[c]))


def _reference_thresholds(rule, gen, m, n):
    """Thresholds of m plays drawn from ``gen``, as (plays, firms), through the
    oracle quantile function."""
    if isinstance(rule, SameTest):
        return np.full((m, n), rule.theta)
    if isinstance(rule, FixedThresholds):
        return np.tile(np.asarray(rule.thresholds), (m, 1))
    u = gen.random((m, n))
    if isinstance(rule, IidRule):
        return quantile_reference(rule.dist, u)
    return np.column_stack([quantile_reference(d, u[:, j]) for j, d in enumerate(rule.dists)])


def _lexsort_chunk(rule, n, gen, m):
    """The sort-based chunk kernel, kept here as the reference of the pairwise
    one: qualities, then thresholds, then tie draws, from one stream."""
    qual = gen.random((m, n))
    thr = _reference_thresholds(rule, gen, m, n)
    if n == 2:
        tie = gen.random(m)
        q0, q1 = qual[:, 0], qual[:, 1]
        t0, t1 = thr[:, 0], thr[:, 1]
        p0 = q0 >= t0
        p1 = q1 >= t1
        first_wins = np.where(p0 != p1, p0, np.where(t0 != t1, t0 > t1, tie < 0.5))
        frac = np.where(first_wins, q1 > q0, q0 > q1).astype(float)
        wins0 = np.count_nonzero(first_wins)
        win_counts = np.array([wins0, m - wins0], dtype=np.int64)
    else:
        tie = gen.random((m, n))
        passed = qual >= thr
        rows = np.repeat(np.arange(m), n)
        order = np.lexsort(
            ((-tie).ravel(), (-thr).ravel(), (~passed).ravel(), rows)
        )
        ranking = order.reshape(m, n) - (np.arange(m) * n)[:, None]
        ranked_qual = np.take_along_axis(qual, ranking, axis=1)
        inv = np.zeros(m)
        for p in range(n - 1):
            inv += np.sum(ranked_qual[:, p + 1:] > ranked_qual[:, p:p + 1], axis=1)
        frac = inv / (n * (n - 1) / 2)
        win_counts = np.bincount(ranking[:, 0], minlength=n)
    return float(np.sum(frac)), float(np.sum(frac * frac)), win_counts


KERNEL_CASES = [
    ("fixed:0.1,0.3,0.5,0.7,0.9", 5),
    ("iid:eq", 3),
    ("iid:uniform:0.25,0.75", 8),
    ("same:0.4", 4),
    ("iid:eq", 2),
    ("iid:eq:0,0.79", 2),
    ("indep:step:0.2928932;step:0.7071068", 2),
    ("same:0.5", 2),
]


def _simulate_chunk(rule, n, seed, c, m):
    return engine._simulate_chunk(rule, n, seed, c, m, engine._ChunkArrays(n, m))


def _score_chunk(q, t, tie):
    """Score (firms, plays) rows as one block with the block's tie draws,
    one a play with two firms; returns the chunk triple."""
    n, m = q.shape
    arrays = engine._ChunkArrays(n, m)
    assert arrays.rows == m
    # With two firms the keys are the two sides of the single draw.
    keys = np.array([tie < 0.5, tie >= 0.5]) if n == 2 else tie
    wins = engine._score_block(q, t, keys, arrays, arrays.inv)
    frac = arrays.inv / arrays.pairs
    return float(np.sum(frac)), float(np.sum(frac * frac)), wins


def _assert_same_chunk(got, want):
    assert got[0].hex() == want[0].hex()
    assert got[1].hex() == want[1].hex()
    assert list(got[2]) == list(want[2])


#: An atom of mass 0.05 at 0.4: with blocks of a few hundred plays or fewer,
#: some blocks hold a play where two firms share the atom and others do not.
SMALL_ATOM = IidRule(MixedCdf.piecewise_linear([(0.0, 0.0), (0.4, 0.38), (0.4, 0.43),
                                                (1.0, 1.0)]))


def _record_streams(monkeypatch):
    """Record the (seeded state, offset) of every generator ``engine`` places."""
    placed = []
    real = engine._stream

    def stream(gen, state, offset=0):
        placed.append((state, offset))
        return real(gen, state, offset)

    monkeypatch.setattr(engine, "_stream", stream)
    return placed


def _tie_offsets(placed, rule, n, seed, c, m):
    """The offsets at which chunk c of m plays of seed ``seed`` placed its tie
    generator: the tie draws follow the qualities and any uniforms."""
    drawn = isinstance(rule, (IidRule, IndependentRule))
    start = _chunk_gen(seed, c).bit_generator.state
    return [p for state, p in placed if state == start and p >= m * n * (1 + drawn)]


class TestPairwiseKernel:
    @pytest.mark.parametrize("spec, n", KERNEL_CASES)
    def test_full_chunks_match_sort_kernel(self, spec, n):
        rule = parse_rule(spec)
        for c in range(4):
            got = _simulate_chunk(rule, n, 7, c, engine.CHUNK_TRIALS)
            want = _lexsort_chunk(rule, n, _chunk_gen(7, c), engine.CHUNK_TRIALS)
            _assert_same_chunk(got, want)

    @pytest.mark.parametrize("spec, n", [("iid:eq", 2), ("iid:uniform:0.1,0.9", 6)])
    def test_partial_chunk_matches_sort_kernel(self, spec, n):
        rule = parse_rule(spec)
        m = 12_345
        got = _simulate_chunk(rule, n, 3, 4, m)
        want = _lexsort_chunk(rule, n, _chunk_gen(3, 4), m)
        _assert_same_chunk(got, want)

    @pytest.mark.parametrize("m", [engine.CHUNK_TRIALS, 12_345])
    @pytest.mark.parametrize("n", [2, 3])
    def test_mixed_blocks_match_sort_kernel(self, monkeypatch, n, m):
        # Blocks of about 256 plays: a block where two firms share the atom
        # reads its tie draws, one after it continues the same generator, and
        # one after a skipped block places the generator again.
        arrays = engine._ChunkArrays(n, m, workers=m // 256)
        starts = range(0, m, arrays.rows)
        gen = _chunk_gen(5, 1)
        gen.random((m, n))
        thr = _reference_thresholds(SMALL_ATOM, gen, m, n)
        tied = [bool(np.any(np.diff(np.sort(thr[r0:r0 + arrays.rows], axis=1), axis=1) == 0))
                for r0 in starts]
        after = list(zip([False] + tied, tied))  # (the block before tied, this one ties)
        assert (True, True) in after and (False, True) in after and False in tied
        placed = _record_streams(monkeypatch)
        got = engine._simulate_chunk(SMALL_ATOM, n, 5, 1, m, arrays)
        _assert_same_chunk(got, _lexsort_chunk(SMALL_ATOM, n, _chunk_gen(5, 1), m))
        per_play = 1 if n == 2 else n
        assert _tie_offsets(placed, SMALL_ATOM, n, 5, 1, m) == [
            2 * m * n + r0 * per_play for r0, step in zip(starts, after) if step == (False, True)]

    @pytest.mark.parametrize("spec, n", [("fixed:0.1,0.3,0.5,0.7,0.9", 5),
                                         ("iid:uniform:0.25,0.75", 8),
                                         ("same:0.5", 2)])
    def test_tie_draws_are_read_only_where_thresholds_tie(self, monkeypatch, spec, n):
        # Distinct fixed thresholds never tie, and uniform(0.25, 0.75) does
        # only if two uniforms round to one threshold; same:0.5 ties in every
        # block, so each chunk places its tie generator once and reads on.
        rule, seed = parse_rule(spec), 11
        trials = engine.CHUNK_TRIALS + 12_345
        _force_workers(monkeypatch, 1)
        monkeypatch.setattr(engine, "_BLOCK_VALUES", 3 * 4096)
        placed = _record_streams(monkeypatch)
        simulate(rule, n_firms=n, trials=trials, seed=seed)
        for c, m in enumerate((engine.CHUNK_TRIALS, 12_345)):
            want = [] if n > 2 else [m * n]
            assert _tie_offsets(placed, rule, n, seed, c, m) == want

    @staticmethod
    def _sorted_reference(q, t, tie):
        # Sort each play, a column, by (passed, threshold, tie key), best
        # first; the stable sort keeps index order on equal keys.
        n, m = q.shape
        fracs, win_counts = [], np.zeros(n, dtype=np.int64)
        for r in range(m):
            if tie.ndim == 1:
                keys = (1.0, 0.0) if tie[r] < 0.5 else (0.0, 1.0)
            else:
                keys = tie[:, r]
            order = sorted(range(n), reverse=True, key=lambda i: (
                bool(q[i, r] >= t[i, r]), t[i, r], keys[i]))
            fracs.append(kendall_tau_fraction(order, q[:, r]))
            win_counts[order[0]] += 1
        frac = np.array(fracs)
        return float(np.sum(frac)), float(np.sum(frac * frac)), win_counts

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_exact_ties_match_sort_by_key(self, n):
        # Coarse grids force exact ties in pass/fail, in threshold, in the tie
        # key and in quality.
        rng = np.random.default_rng(n)
        m = 400
        # Drawn one play a row, as they always were, and scored one play a column.
        q = rng.integers(0, 5, (m, n)).T / 4
        t = rng.integers(0, 3, (m, n)).T / 2
        tie = rng.integers(0, 3, m) / 4 if n == 2 else rng.integers(0, 2, (m, n)).T / 2
        got = _score_chunk(q, t, tie)
        _assert_same_chunk(got, self._sorted_reference(q, t, tie))

    def test_hand_built_chunk(self):
        # Written one play a row, and scored one play a column.
        q = np.array([[0.6, 0.7, 0.8],     # one block; equal keys 1, 2
                      [0.6, 0.7, 0.8],     # one block; all keys equal
                      [0.6, 0.3, 0.7],     # firm 1 fails despite its key
                      [0.9, 0.1, 0.3],     # two failers tie on threshold
                      [0.99, 0.5, 0.7]]).T  # all pass; harder test first
        t = np.array([[0.5, 0.5, 0.5],
                      [0.5, 0.5, 0.5],
                      [0.5, 0.5, 0.5],
                      [0.2, 0.6, 0.6],
                      [0.2, 0.4, 0.6]]).T
        tie = np.array([[0.2, 0.7, 0.7],
                        [0.4, 0.4, 0.4],
                        [0.5, 0.9, 0.1],
                        [0.0, 0.3, 0.3],
                        [0.9, 0.5, 0.1]]).T
        # Rankings (1, 2, 0), (0, 1, 2), (0, 2, 1), (0, 1, 2), (2, 1, 0) invert
        # 1, 3, 1, 1 and 2 of the 3 pairs.
        s, s2, wins = _score_chunk(q, t, tie)
        assert s == pytest.approx(8 / 3)
        assert s2 == pytest.approx(16 / 9)
        assert list(wins) == [3, 1, 1]
        _assert_same_chunk((s, s2, wins), self._sorted_reference(q, t, tie))


# ---------------------------------------------------------------------------
# Seeded output pinned to the values of the sort-based kernel
# ---------------------------------------------------------------------------

# (rule, n, seed, trials, inversion_mean, inversion_std_error, win_rates), all
# floats as float.hex() of ``_reference_hex``, the sort-based kernel run chunk
# by chunk; every trial count ends in a partial chunk.
GOLDEN_SIMULATIONS = [
('iid:eq', 2, 0, 100000, '0x1.d66277c45cbbcp-3', '0x1.5cb09821f9f42p-10', ('0x1.ff290abb44e51p-2', '0x1.006b7aa25d8d8p-1')),
('iid:eq:0,0.79', 2, 1, 100000, '0x1.d9945b6c3760cp-3', '0x1.5d847cdbc84c1p-10', ('0x1.0074a771c970fp-1', '0x1.ff16b11c6d1e1p-2')),
('indep:step:0.2928932;step:0.7071068', 2, 2, 70000, '0x1.60f54ab905ad0p-3', '0x1.7635de67acc60p-10', ('0x1.fe730a018578ap-2', '0x1.00c67aff3d43bp-1')),
('same:0.5', 2, 3, 70000, '0x1.fabbd4b30dc04p-3', '0x1.ab8e482ff5075p-10', ('0x1.0129b87edbe59p-1', '0x1.fdac8f024834ep-2')),
('iid:eq', 3, 4, 150000, '0x1.d731da55c2d9ep-3', '0x1.55f2f857c7ac9p-11', ('0x1.53ed527e52157p-2', '0x1.566b34baab1a8p-2', '0x1.55a778c702d00p-2')),
('fixed:0.1,0.3,0.5,0.7,0.9', 5, 5, 100000, '0x1.d721d53cddd6ep-3', '0x1.d176b9051b992p-12', ('0x1.5e00d1b71758ep-4', '0x1.c476f2a5a469dp-3', '0x1.41da7b0b39192p-2', '0x1.12ad81adea897p-2', '0x1.c6f1561911490p-4')),
('same:0.4', 4, 6, 70000, '0x1.097974c667063p-2', '0x1.8758ac6c6e391p-11', ('0x1.fcc0a10804369p-3', '0x1.02d6836c4f587p-2', '0x1.fdc6c5e533513p-3', '0x1.ffcb923a29c78p-3')),
('iid:uniform:0.25,0.75', 8, 7, 70000, '0x1.aa7b3b286ef16p-3', '0x1.5dc8753859890p-12', ('0x1.fe20a6a610446p-4', '0x1.03126e978d4fep-3', '0x1.ff3d43b3769bcp-4', '0x1.054ba8b259febp-3', '0x1.f577a9661b807p-4', '0x1.fec56d5cfaacep-4', '0x1.05bc01a36e2ebp-3', '0x1.f230cd08b7f81p-4')),
('indep:eq;uniform:0.2,0.6;step:0.5', 3, 8, 70000, '0x1.b194c3481bee4p-3', '0x1.de3ea5c6b1ff8p-11', ('0x1.413e5155b932ap-2', '0x1.272922b2efcaap-2', '0x1.97988bf75702cp-2')),
]


#: Test ids of the inputs alone, which a new stream leaves as they are.
GOLDEN_IDS = [f"{spec}-{n}-{seed}-{trials}" for spec, n, seed, trials, *_ in GOLDEN_SIMULATIONS]


@pytest.mark.parametrize("spec, n, seed, trials, mean, se, rates", GOLDEN_SIMULATIONS,
                         ids=GOLDEN_IDS)
def test_seeded_output_is_pinned(spec, n, seed, trials, mean, se, rates):
    summary = simulate(parse_rule(spec), n_firms=n, trials=trials, seed=seed)
    assert summary.inversion_mean.hex() == mean
    assert summary.inversion_std_error.hex() == se
    assert tuple(r.hex() for r in summary.win_rates) == rates
    # The pinned mean is a fair draw: inversion_rule is the mean over the
    # rule's pairs of firms, and the pairs of a same: or iid: rule all err
    # alike, so its value holds for any n.
    value = inversion_rule(parse_rule(spec)).value
    assert abs(summary.inversion_mean - value) < 3 * summary.inversion_std_error


# ---------------------------------------------------------------------------
# Whole simulations against the chunk-by-chunk reference
# ---------------------------------------------------------------------------

RULE_KINDS = [
    ("same:0.4", 3),
    ("fixed:0.1,0.3,0.5,0.7,0.9", 5),
    ("iid:eq:0,0.79", 2),
    ("indep:eq;uniform:0.2,0.6;step:0.5", 3),
]


#: RULE_KINDS, with n = 2, 3 and 8 where the rule leaves n free, and rules
#: whose firms all draw from single atoms, or only some of them do.
SCHEDULE_CASES = [
    *[("same:0.4", n) for n in (2, 3, 8)],
    ("fixed:0.1,0.3,0.5,0.7,0.9", 5),
    *[("iid:eq:0,0.79", n) for n in (2, 3, 8)],
    ("indep:eq;uniform:0.2,0.6;step:0.5", 3),
    *[("iid:step:0.5", n) for n in (2, 3, 8)],
    ("indep:step:0.3;step:0.7", 2),
    ("indep:step:0.5;eq", 2),
]


def _summary_hex(summary):
    return (summary.inversion_mean.hex(), summary.inversion_std_error.hex(),
            tuple(r.hex() for r in summary.win_rates))


@functools.lru_cache(maxsize=None)
def _reference_chunk(spec, n, seed, c, m):
    # Cached: runs with more chunks repeat the full chunks of shorter ones.
    rule = parse_rule(spec) if isinstance(spec, str) else spec
    return _lexsort_chunk(rule, n, _chunk_gen(seed, c), m)


def _reference_hex(spec, n, seed, trials):
    """``_summary_hex`` of ``simulate``, worked out chunk by chunk with the
    sort-based kernel and reduced in chunk order; ``spec`` is a rule or its
    spec."""
    n_chunks = math.ceil(trials / engine.CHUNK_TRIALS)
    chunks = [_reference_chunk(spec, n, seed, c,
                               min(engine.CHUNK_TRIALS, trials - c * engine.CHUNK_TRIALS))
              for c in range(n_chunks)]
    total = float(np.sum([s for s, _, _ in chunks]))
    total_sq = float(np.sum([s2 for _, s2, _ in chunks]))
    var = max(total_sq - total * total / trials, 0.0) / (trials - 1)
    rates = np.sum([w for _, _, w in chunks], axis=0) / trials
    return ((total / trials).hex(), math.sqrt(var / trials).hex(),
            tuple(float(r).hex() for r in rates))


def _force_workers(monkeypatch, workers):
    """``workers`` CPUs, and no floor of trials per worker."""
    monkeypatch.setattr(_workers, "cpu_count", lambda: workers)
    monkeypatch.setattr(engine, "_MIN_WORKER_TRIALS", 1)


def _chunk_log(path):
    """A ``_simulate_chunk`` stand-in that appends its chunk to ``path`` (a
    list would not see the forked workers' chunks) and runs the real one."""
    real = engine._simulate_chunk

    def chunk(rule, n, seed, c, m, arrays):
        with open(path, "a") as log:
            log.write(f"{c}\n")
        return real(rule, n, seed, c, m, arrays)

    return chunk


def _logged(path):
    return sorted(int(line) for line in path.read_text().split())


class TestSimulate:
    @pytest.mark.parametrize("spec, n", RULE_KINDS)
    def test_matches_chunk_by_chunk_reference(self, spec, n):
        # Three full chunks and a partial one, all through the same arrays.
        rule, seed = parse_rule(spec), 21
        trials = 3 * engine.CHUNK_TRIALS + 12_345
        got = simulate(rule, n_firms=n, trials=trials, seed=seed)
        assert _summary_hex(got) == _reference_hex(spec, n, seed, trials)

    @pytest.mark.parametrize("chunks", [1, 2, 5])
    @pytest.mark.parametrize("spec, n", SCHEDULE_CASES)
    def test_worker_count_changes_no_bit(self, monkeypatch, spec, n, chunks):
        # One, two or three workers, some of them idle when there are fewer
        # chunks; every last chunk is partial.
        rule, seed = parse_rule(spec), 21
        trials = (chunks - 1) * engine.CHUNK_TRIALS + 12_345
        want = _reference_hex(spec, n, seed, trials)
        for workers in (1, 2, 3):
            _force_workers(monkeypatch, workers)
            assert _summary_hex(simulate(rule, n_firms=n, trials=trials, seed=seed)) == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_mixed_blocks_change_no_bit(self, monkeypatch, n):
        # Blocks of at most 256 plays per worker, some of which tie on the
        # atom and read their tie draws while others skip them, on one, two
        # or three workers; the last chunk is partial.
        seed, trials = 13, 2 * engine.CHUNK_TRIALS + 12_345
        want = _reference_hex(SMALL_ATOM, n, seed, trials)
        monkeypatch.setattr(engine, "_BLOCK_VALUES", 512)
        for workers in (1, 2, 3):
            _force_workers(monkeypatch, workers)
            assert _summary_hex(simulate(SMALL_ATOM, n_firms=n, trials=trials, seed=seed)) == want

    @pytest.mark.parametrize("spec, n", [
        *RULE_KINDS, *[pytest.param(SMALL_ATOM, n, id=f"SMALL_ATOM-{n}") for n in (2, 3)]])
    def test_small_tiles_change_no_bit(self, monkeypatch, spec, n):
        # Tiles of 3 plays in blocks of at most 512 values per worker, on
        # chunks of 2,000 plays and a last one of 1,001: some block of each
        # run ends in a partial tile, on one, two or three workers.
        rule = parse_rule(spec) if isinstance(spec, str) else spec
        seed = 17
        monkeypatch.setattr(engine, "CHUNK_TRIALS", 2000)
        monkeypatch.setattr(engine, "_BLOCK_VALUES", 512)
        monkeypatch.setattr(engine, "_TILE_VALUES", 3 * n)
        trials = 3 * 2000 + 1001
        want = _reference_hex(spec, n, seed, trials)
        for workers in (1, 2, 3):
            arrays = engine._ChunkArrays(n, 2000, workers)
            assert len(arrays.stage) == 3
            assert any(m % arrays.rows % 3 or arrays.rows % 3 for m in (2000, 1001))
            _force_workers(monkeypatch, workers)
            assert _summary_hex(simulate(rule, n_firms=n, trials=trials, seed=seed)) == want

    def test_more_workers_than_cpus_lose_no_chunk(self, monkeypatch):
        # Four workers on nine chunks, more workers than this machine's CPUs:
        # a chunk written to the wrong slot, or not at all, changes the sums.
        rule = parse_rule("iid:eq")
        trials = 8 * engine.CHUNK_TRIALS + 12_345
        want = _reference_hex("iid:eq", 2, 4, trials)
        _force_workers(monkeypatch, 4)
        assert _summary_hex(simulate(rule, trials=trials, seed=4)) == want
        no_child_left()

    @pytest.mark.parametrize("spec, n, trials", [
        ("iid:eq:0,0.79", 3, engine.CHUNK_TRIALS + 12_345),
        ("indep:eq;uniform:0.2,0.6;step:0.5;eq:0.3,0.9;step:0.5", 5,
         engine.CHUNK_TRIALS + 12_345),
        ("fixed:0.3,0.3,0.5,0.7,0.7", 5, 12_345),
        ("same:0.5", 2, 12_345),
    ])
    def test_row_blocks_keep_the_stream(self, monkeypatch, spec, n, trials):
        # Blocks of 12,288 values split the partial chunk of 12,345 plays into
        # at least three, so every segment of the stream is placed mid-chunk.
        # Each rule ties on some thresholds, so the tie draws count too.
        rule = parse_rule(spec)
        whole = simulate(rule, n_firms=n, trials=trials, seed=9)
        monkeypatch.setattr(engine, "_BLOCK_VALUES", 3 * 4096)
        assert math.ceil(12_345 / (engine._BLOCK_VALUES // n)) >= 3
        assert _summary_hex(simulate(rule, n_firms=n, trials=trials, seed=9)) == \
            _summary_hex(whole)

    def test_memory_is_bounded_in_the_firm_count(self):
        # At n = 64 a chunk of 24,576 plays holds 1.5M values per array; in
        # three blocks of 2**19 values the arrays of the call stay near 25 MiB.
        tracemalloc.start()
        try:
            simulate(FixedThresholds(tuple(np.linspace(0.01, 0.99, 64))),
                     trials=24_576, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_blocks_are_held_only_firm_major(self, monkeypatch):
        # At n = 8 a block of one worker is a whole chunk of 65,536 plays.
        # Its firm-major qualities, thresholds and tie keys take 4 MiB each
        # and every other array of the call about 2.6 MiB, so a plays-major
        # copy of any of them, another 4 MiB, would break the bound.
        _force_workers(monkeypatch, 1)
        tracemalloc.start()
        try:
            simulate(parse_rule("iid:eq"), n_firms=8, trials=2 * engine.CHUNK_TRIALS, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 12 * 2**20 < peak < 17 * 2**20

    @pytest.mark.parametrize("spec, n, compared", [
        ("fixed:0.1,0.3,0.5,0.7,0.9", 5, False),
        ("same:0.4", 3, False),
        ("iid:step:0.5", 3, False),
        ("iid:eq", 3, True),
    ])
    def test_only_drawn_thresholds_are_compared_per_block(self, monkeypatch, spec, n, compared):
        # Fixed thresholds, and thresholds that are all atoms, are the same in
        # every block: whether two of them tie is decided once per worker.
        # Drawn thresholds are compared in every block.
        calls = []
        real = engine._ties

        def ties(t, scratch):
            calls.append(t.shape[1])
            return real(t, scratch)

        _force_workers(monkeypatch, 1)  # the calls are recorded in this process
        monkeypatch.setattr(engine, "_ties", ties)
        monkeypatch.setattr(engine, "_BLOCK_VALUES", 3 * 4096)
        trials = engine.CHUNK_TRIALS + 12_345
        simulate(parse_rule(spec), n_firms=n, trials=trials, seed=3)
        assert sum(calls) == (trials if compared else 0)

    @pytest.mark.parametrize("n", [2, 16, 17, 64])
    def test_many_firms_fork(self, monkeypatch, n):
        # Two CPUs give two workers whatever the firm count, though beyond
        # 16 firms a worker's block holds fewer than 2**14 plays: forked
        # workers share no interpreter lock, so small blocks still pay.
        # Each chunk writes the process it ran in as its sum.
        def chunk(rule, n, seed, c, m, arrays):
            return float(os.getpid()), 0.0, np.zeros(n, dtype=np.int64)

        _force_workers(monkeypatch, 2)
        monkeypatch.setattr(engine, "_simulate_chunk", chunk)
        pids, _, _ = engine._run_chunks(SameTest(0.5), n, 0, 4 * engine.CHUNK_TRIALS)
        assert len(set(pids.tolist())) == 2
        assert os.getpid() in pids

    def test_workers_share_the_block_budget(self, monkeypatch):
        # Two workers at n = 64 split the 2**19 values into blocks of 4,096
        # plays each, so the two processes together peak near 15 MiB
        # (unsplit, each worker's arrays alone would take about 14 MiB).
        # Each chunk reports its process and that process's traced peak.
        # Chunks of 8,192 plays keep the test short and the blocks as they
        # are with full chunks.
        real = engine._simulate_chunk

        def chunk(rule, n, seed, c, m, arrays):
            real(rule, n, seed, c, m, arrays)
            return float(os.getpid()), float(tracemalloc.get_traced_memory()[1]), np.zeros(n)

        _force_workers(monkeypatch, 2)
        monkeypatch.setattr(engine, "CHUNK_TRIALS", 8192)
        monkeypatch.setattr(engine, "_simulate_chunk", chunk)
        tracemalloc.start()
        try:
            pids, peaks, _ = engine._run_chunks(
                FixedThresholds(tuple(np.linspace(0.01, 0.99, 64))), 64, 1, 2 * 8192)
        finally:
            tracemalloc.stop()
        assert len(set(pids.tolist())) == 2
        assert sum(peaks) < 24 * 2**20

    def test_a_failing_chunk_stops_every_worker(self, monkeypatch, tmp_path):
        # Chunk 1 runs on the forked worker and raises; the calling process
        # holds chunk 0 until that worker has ended, then stops at its next
        # chunk, so no later chunk runs and no process is left behind.
        log = tmp_path / "chunks"
        logged = _chunk_log(log)

        def chunk(rule, n, seed, c, m, arrays):
            if c == 1:
                logged(rule, n, seed, c, m, arrays)
                raise ValueError("chunk 1 failed")
            deadline = time.monotonic() + 60
            # Wait, without reaping, for a child to end.
            while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None \
                    and time.monotonic() < deadline:
                time.sleep(1e-3)
            return logged(rule, n, seed, c, m, arrays)

        _force_workers(monkeypatch, 2)
        monkeypatch.setattr(engine, "_simulate_chunk", chunk)
        with pytest.raises(ValueError, match="^chunk 1 failed$"):
            simulate(parse_rule("iid:eq"), trials=6 * engine.CHUNK_TRIALS, seed=1)
        assert _logged(log) == [0, 1]
        no_child_left()

    def test_an_interrupt_stops_the_workers(self, monkeypatch, tmp_path):
        # The calling process is interrupted in its first chunk; the two
        # other workers are killed instead of running all 30 chunks, and
        # none outlives the call.
        log = tmp_path / "chunks"
        logged = _chunk_log(log)

        def chunk(rule, n, seed, c, m, arrays):
            if c == 0:
                raise KeyboardInterrupt
            return logged(rule, n, seed, c, m, arrays)

        _force_workers(monkeypatch, 3)
        monkeypatch.setattr(engine, "_simulate_chunk", chunk)
        with pytest.raises(KeyboardInterrupt):
            simulate(parse_rule("iid:eq"), trials=30 * engine.CHUNK_TRIALS, seed=1)
        assert not {c for c in _logged(log) if c % 3 == 0}
        no_child_left()

    def test_a_multithreaded_caller_gets_one_worker(self, monkeypatch):
        # A fork copies the calling thread only, so while another thread runs
        # the call forks nothing, and keeps its bits.
        rule, trials = parse_rule("iid:eq:0,0.79"), 3 * engine.CHUNK_TRIALS + 12_345
        want = _reference_hex("iid:eq:0,0.79", 2, 5, trials)
        _force_workers(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            got = _summary_hex(simulate(rule, trials=trials, seed=5))
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive()
        assert got == want
        assert forks == []
        assert _summary_hex(simulate(rule, trials=trials, seed=5)) == want
        assert forks == [1]

    # From three firms on, a rule that draws no thresholds has the plain floor.
    @pytest.mark.parametrize("text, n", [("iid:eq", 2), ("fixed:0.2,0.5,0.8", 3)])
    @pytest.mark.parametrize("trials, forked", [(engine._MIN_WORKER_TRIALS * 2 - 1, False),
                                                (engine._MIN_WORKER_TRIALS * 2, True)])
    def test_calls_below_the_floor_do_not_fork(self, monkeypatch, text, n, trials, forked):
        monkeypatch.setattr(_workers, "cpu_count", lambda: 2)
        forks = count_forks(monkeypatch)
        simulate(parse_rule(text), n_firms=n, trials=trials, seed=2)
        assert forks == ([1] if forked else [])

    @pytest.mark.parametrize("text", ["same:0.5", "indep:step:0.2928932;step:0.7071068"])
    @pytest.mark.parametrize("trials, forked", [(engine._MIN_WORKER_TRIALS * 4 - 1, False),
                                                (engine._MIN_WORKER_TRIALS * 4, True)])
    def test_two_firms_drawing_no_thresholds_fork_from_their_own_floor(self, monkeypatch, text,
                                                                        trials, forked):
        monkeypatch.setattr(_workers, "cpu_count", lambda: 2)
        forks = count_forks(monkeypatch)
        simulate(parse_rule(text), n_firms=2, trials=trials, seed=2)
        assert forks == ([1] if forked else [])

    # The operations of the benchmark's mc_pair and mc_field workloads.
    @pytest.mark.parametrize("text, n, trials", [
        ("iid:eq", 2, 10**7), ("iid:eq:0,0.79", 2, 10**7),
        ("indep:step:0.2928932;step:0.7071068", 2, 10**7), ("same:0.5", 2, 10**7),
        ("iid:eq", 3, 2**20), ("fixed:0.1,0.3,0.5,0.7,0.9", 5, 2**20),
        ("iid:uniform:0.25,0.75", 8, 2**20),
    ])
    def test_benchmark_operations_keep_two_workers(self, monkeypatch, text, n, trials):
        monkeypatch.setattr(_workers, "cpu_count", lambda: 2)
        seen = []

        def run(work, units, workers, outputs):
            seen.append(workers)
            return [np.zeros(shape, dtype) for shape, dtype in outputs]

        monkeypatch.setattr(_workers, "run", run)
        engine._run_chunks(parse_rule(text), n, 0, trials)
        assert seen == [2]

    def test_threads_sharing_a_rule_get_the_serial_results(self):
        # Each call owns its arrays and MixedCdf is immutable, so concurrent
        # calls on one rule cannot disturb each other.
        rule = parse_rule("iid:eq:0.3,0.9")
        seeds = range(6)
        serial = [_summary_hex(simulate(rule, n_firms=3, trials=70_000, seed=s))
                  for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(simulate, rule, 3, 70_000, s) for s in seeds]
                threaded = [_summary_hex(f.result(timeout=120)) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestChunkBookkeeping:
    """Each worker places its own three generators by state, a two-firm chunk
    sums by counting and the kernel counts wins row by row; none of these
    may move a bit of the stream or of the sums."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec, n", [
        ("same:0.4", 2), ("same:0.4", 3),
        ("fixed:0.3,0.7", 2), ("fixed:0.1,0.5,0.9", 3),
        ("iid:eq:0,0.79", 2), ("iid:eq:0,0.79", 3),
        ("indep:eq;step:0.5", 2), ("indep:eq;uniform:0.2,0.6;step:0.5", 3),
    ])
    def test_simulate_reads_no_os_entropy(self, monkeypatch, spec, n, workers):
        # numpy's SeedSequence() without a seed reads OS entropy through
        # SystemRandom.getrandbits, which calls random._urandom.
        def urandom(size):
            raise AssertionError("OS entropy was read")

        rule, trials = parse_rule(spec), engine.CHUNK_TRIALS + 12_345
        want = _summary_hex(simulate(rule, n_firms=n, trials=trials, seed=6))
        _force_workers(monkeypatch, workers)
        monkeypatch.setattr(random, "_urandom", urandom)
        with pytest.raises(AssertionError, match="entropy"):
            np.random.SeedSequence()
        assert _summary_hex(simulate(rule, n_firms=n, trials=trials, seed=6)) == want

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_a_placed_generator_is_the_keyed_stream_advanced(self, seed):
        # One generator placed again and again, each time after reading on
        # mid-stream, half a 64-bit word included, so that its buffered
        # 32-bit half must not survive the placement.
        offsets = [*range(10), *(2**20 + d for d in range(-3, 4))]
        gen = np.random.Generator(np.random.PCG64DXSM(0))
        for chunk in (0, 1, 77):
            state = engine._seeded_state(seed, chunk)
            assert state == _chunk_gen(seed, chunk).bit_generator.state
            for offset in offsets:
                want = _chunk_gen(seed, chunk)
                want.random(offset)
                assert engine._stream(gen, state, offset) is gen
                assert gen.bit_generator.state == want.bit_generator.state
                assert gen.random(7).tobytes() == want.random(7).tobytes()
                gen.integers(0, 2**32, dtype=np.uint32)

    @pytest.mark.parametrize("m", [engine.CHUNK_TRIALS, 12_345])
    @pytest.mark.parametrize("spec", ["iid:eq", "iid:eq:0,0.79", "same:0.5"])
    def test_a_two_firm_chunk_sums_its_count(self, spec, m):
        arrays = engine._ChunkArrays(2, m)
        got = engine._simulate_chunk(parse_rule(spec), 2, 3, 1, m, arrays)
        frac = np.divide(arrays.inv[:m], arrays.pairs)
        assert 0 < got[0] < m
        assert got[0].hex() == float(np.sum(frac)).hex()
        assert got[1].hex() == float(np.sum(np.multiply(frac, frac))).hex()

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_wins_are_counted_row_by_row(self, n):
        # Thresholds on a grid of quarters, so that firms tie and the keys
        # decide some pairs.
        m = 5_000
        rng = np.random.default_rng(n)
        q, t = rng.random((n, m)), rng.integers(0, 5, (n, m)) / 4
        draws = rng.random(m) if n == 2 else rng.random((n, m))
        keys = np.array([draws < 0.5, draws >= 0.5]) if n == 2 else draws
        arrays = engine._ChunkArrays(n, m)
        wins = engine._score_block(q, t, keys, arrays, arrays.inv[:m])
        assert list(wins) == list(np.count_nonzero(arrays.top[:, :m], axis=1))
        assert sum(wins) == m and min(wins) > 0
