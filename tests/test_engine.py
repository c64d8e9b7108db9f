"""Tests for the selection-game engine and Monte Carlo estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
