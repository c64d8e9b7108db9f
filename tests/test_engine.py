"""Tests for the selection-game engine and Monte Carlo estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholdgame import engine
from thresholdgame.engine import (
    FixedThresholds,
    IidRule,
    IndependentRule,
    SameTest,
    kendall_tau_fraction,
    mc_inversion,
    parse_rule,
    play_game,
    rank_firms,
    select_two,
    simulate,
)
from thresholdgame.inversion import inversion_fixed


class TestSelectTwo:
    def test_single_passer_wins(self):
        # Y passes its easy test, X fails its hard one.
        rng = np.random.default_rng(0)
        assert select_two(0.7, 0.3, 0.5, 0.6, rng) == 1

    def test_both_pass_higher_threshold_wins(self):
        # Both pass; X held the harder test, so X wins even though y > x.
        rng = np.random.default_rng(0)
        assert select_two(0.6, 0.4, 0.7, 0.9, rng) == 0

    def test_both_fail_higher_threshold_wins(self):
        rng = np.random.default_rng(0)
        assert select_two(0.8, 0.2, 0.1, 0.1, rng) == 0

    def test_tie_is_fair_coin(self):
        rng = np.random.default_rng(123)
        wins = sum(select_two(0.5, 0.5, 0.8, 0.9, rng) == 0 for _ in range(20000))
        assert abs(wins / 20000 - 0.5) < 3 * 0.5 / np.sqrt(20000)

    def test_domain_error(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            select_two(1.2, 0.5, 0.5, 0.5, rng)

    @given(st.lists(st.integers(0, 4), min_size=4, max_size=4),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_is_the_first_of_play_game(self, quarters, seed):
        # Values on a grid of quarters, so outcome and threshold ties occur.
        theta_x, theta_y, x, y = (q / 4 for q in quarters)
        winner = select_two(theta_x, theta_y, x, y, np.random.default_rng(seed))
        outcome = play_game((theta_x, theta_y), (x, y), np.random.default_rng(seed))
        assert winner == outcome.ranking[0]


class TestRankFirms:
    def test_all_pass_descending_threshold(self):
        rng = np.random.default_rng(0)
        ranking = rank_firms((0.2, 0.5, 0.8), (0.9, 0.9, 0.9), rng)
        assert ranking == (2, 1, 0)

    def test_all_fail_descending_threshold(self):
        rng = np.random.default_rng(0)
        ranking = rank_firms((0.2, 0.8), (0.1, 0.1), rng)
        assert ranking == (1, 0)

    def test_passer_ahead_of_failer(self):
        rng = np.random.default_rng(0)
        ranking = rank_firms((0.5, 0.5), (0.3, 0.9), rng)
        assert ranking == (1, 0)

    def test_length_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            rank_firms((0.2, 0.5), (0.1, 0.2, 0.3), rng)

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
        with pytest.raises(ValueError):
            rank_firms(thresholds, qualities, rng)

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
        ranking = rank_firms(thresholds, qualities, rng)
        position = {firm: p for p, firm in enumerate(ranking)}
        for i in range(n):
            for j in range(i + 1, n):
                if thresholds[i] == thresholds[j]:
                    continue
                winner = select_two(
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
        with pytest.raises(ValueError):
            kendall_tau_fraction((0, 0, 1), (0.1, 0.5, 0.9))

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
        # Philox keys hold 64 bits of seed; 2**64 would replay seed 0.
        rule = parse_rule("iid:eq")
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError):
                simulate(rule, trials=100, seed=seed)
        assert simulate(rule, trials=100, seed=2**64 - 1).seed == 2**64 - 1


# ---------------------------------------------------------------------------
# The pairwise chunk kernel against the sort-based rule it replaced
# ---------------------------------------------------------------------------


def _lexsort_chunk(rule, n, gen, m):
    """The sort-based chunk kernel, kept here as the reference of the pairwise one."""
    qual = gen.random((m, n))
    thr = engine._chunk_thresholds(rule, gen, m, n)
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


def _assert_same_chunk(got, want):
    assert got[0].hex() == want[0].hex()
    assert got[1].hex() == want[1].hex()
    assert list(got[2]) == list(want[2])


class TestPairwiseKernel:
    @pytest.mark.parametrize("spec, n", KERNEL_CASES)
    def test_full_chunks_match_sort_kernel(self, spec, n):
        rule = parse_rule(spec)
        for c in range(4):
            got = engine._simulate_chunk(rule, n, engine._chunk_generator(7, c),
                                         engine.CHUNK_TRIALS)
            want = _lexsort_chunk(rule, n, engine._chunk_generator(7, c),
                                  engine.CHUNK_TRIALS)
            _assert_same_chunk(got, want)

    @pytest.mark.parametrize("spec, n", [("iid:eq", 2), ("iid:uniform:0.1,0.9", 6)])
    def test_partial_chunk_matches_sort_kernel(self, spec, n):
        rule = parse_rule(spec)
        m = 12_345
        got = engine._simulate_chunk(rule, n, engine._chunk_generator(3, 4), m)
        want = _lexsort_chunk(rule, n, engine._chunk_generator(3, 4), m)
        _assert_same_chunk(got, want)

    @staticmethod
    def _sorted_reference(qual, thr, tie):
        # Sort each play by (passed, threshold, tie key), best first; the
        # stable sort keeps index order on equal keys.
        m, n = qual.shape
        fracs, win_counts = [], np.zeros(n, dtype=np.int64)
        for r in range(m):
            if tie.ndim == 1:
                keys = (1.0, 0.0) if tie[r] < 0.5 else (0.0, 1.0)
            else:
                keys = tie[r]
            order = sorted(range(n), reverse=True, key=lambda i: (
                bool(qual[r, i] >= thr[r, i]), thr[r, i], keys[i]))
            fracs.append(kendall_tau_fraction(order, qual[r]))
            win_counts[order[0]] += 1
        frac = np.array(fracs)
        return float(np.sum(frac)), float(np.sum(frac * frac)), win_counts

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_exact_ties_match_sort_by_key(self, n):
        # Coarse grids force exact ties in pass/fail, in threshold, in the tie
        # key and in quality.
        rng = np.random.default_rng(n)
        m = 400
        qual = rng.integers(0, 5, (m, n)) / 4
        thr = rng.integers(0, 3, (m, n)) / 2
        tie = rng.integers(0, 3, m) / 4 if n == 2 else rng.integers(0, 2, (m, n)) / 2
        got = engine._score_chunk(qual, thr, tie)
        _assert_same_chunk(got, self._sorted_reference(qual, thr, tie))

    def test_hand_built_chunk(self):
        qual = np.array([[0.6, 0.7, 0.8],     # one block; equal keys 1, 2
                         [0.6, 0.7, 0.8],     # one block; all keys equal
                         [0.6, 0.3, 0.7],     # firm 1 fails despite its key
                         [0.9, 0.1, 0.3],     # two failers tie on threshold
                         [0.99, 0.5, 0.7]])   # all pass; harder test first
        thr = np.array([[0.5, 0.5, 0.5],
                        [0.5, 0.5, 0.5],
                        [0.5, 0.5, 0.5],
                        [0.2, 0.6, 0.6],
                        [0.2, 0.4, 0.6]])
        tie = np.array([[0.2, 0.7, 0.7],
                        [0.4, 0.4, 0.4],
                        [0.5, 0.9, 0.1],
                        [0.0, 0.3, 0.3],
                        [0.9, 0.5, 0.1]])
        # Rankings (1, 2, 0), (0, 1, 2), (0, 2, 1), (0, 1, 2), (2, 1, 0) invert
        # 1, 3, 1, 1 and 2 of the 3 pairs.
        s, s2, wins = engine._score_chunk(qual, thr, tie)
        assert s == pytest.approx(8 / 3)
        assert s2 == pytest.approx(16 / 9)
        assert list(wins) == [3, 1, 1]
        _assert_same_chunk((s, s2, wins), self._sorted_reference(qual, thr, tie))


# ---------------------------------------------------------------------------
# Seeded output pinned to the values of the sort-based kernel
# ---------------------------------------------------------------------------

# (rule, n, seed, trials, inversion_mean, inversion_std_error, win_rates), all
# floats as float.hex(); every trial count ends in a partial chunk.
GOLDEN_SIMULATIONS = [
('iid:eq', 2, 0, 100000, '0x1.d4467381d7dbfp-3', '0x1.5c23bd77d01e7p-10', ('0x1.fe86833c6002ap-2', '0x1.00bcbe61cffebp-1')),
('iid:eq:0,0.79', 2, 1, 100000, '0x1.d3458cd20afa3p-3', '0x1.5be0771d93652p-10', ('0x1.00d4562e09fe8p-1', '0x1.fe5753a3ec02fp-2')),
('indep:step:0.2928932;step:0.7071068', 2, 2, 70000, '0x1.616d210f819bfp-3', '0x1.766822e9c808ap-10', ('0x1.00d9347cc0a11p-1', '0x1.fe4d97067ebdfp-2')),
('same:0.5', 2, 3, 70000, '0x1.fea777c75bb12p-3', '0x1.aca90a8600096p-10', ('0x1.0072384a6e1fbp-1', '0x1.ff1b8f6b23c09p-2')),
('iid:eq', 3, 4, 150000, '0x1.da55c2d9ece74p-3', '0x1.57e6b581baa8bp-11', ('0x1.5306a2b1704ffp-2', '0x1.56c455be30e10p-2', '0x1.563507905ecf1p-2')),
('fixed:0.1,0.3,0.5,0.7,0.9', 5, 5, 100000, '0x1.d5379fa97e133p-3', '0x1.d13b79943b6afp-12', ('0x1.5d6e04c059210p-4', '0x1.c48beb5b2d4d4p-3', '0x1.41719f7f8ca82p-2', '0x1.1460aa64c2f83p-2', '0x1.c230fcf80dc33p-4')),
('same:0.4', 4, 6, 70000, '0x1.0a87b6d1712fap-2', '0x1.873290df01468p-11', ('0x1.0068db8bac711p-2', '0x1.fecceac2626bdp-3', '0x1.0077d6567beefp-2', '0x1.ff71b1794cd45p-3')),
('iid:uniform:0.25,0.75', 8, 7, 70000, '0x1.aa07ac799c01ep-3', '0x1.5f2abae3dafc5p-12', ('0x1.0086d1214b6ccp-3', '0x1.fcc81e6d6bf57p-4', '0x1.fc8c33422dfe0p-4', '0x1.013a92a305532p-3', '0x1.03b7354e77b86p-3', '0x1.f846af6d0319fp-4', '0x1.fa43fe5c91d15p-4', '0x1.0497e730a0185p-3')),
('indep:eq;uniform:0.2,0.6;step:0.5', 3, 8, 70000, '0x1.b1fd9ed3c85f5p-3', '0x1.de8fbd245e4a1p-11', ('0x1.40651cd8f8919p-2', '0x1.269356c6d4e00p-2', '0x1.99078c60328e7p-2')),
]


@pytest.mark.parametrize("spec, n, seed, trials, mean, se, rates", GOLDEN_SIMULATIONS)
def test_seeded_output_is_pinned(spec, n, seed, trials, mean, se, rates):
    summary = simulate(parse_rule(spec), n_firms=n, trials=trials, seed=seed)
    assert summary.inversion_mean.hex() == mean
    assert summary.inversion_std_error.hex() == se
    assert tuple(r.hex() for r in summary.win_rates) == rates
