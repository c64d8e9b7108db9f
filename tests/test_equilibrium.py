"""Tests for equilibrium construction, payoffs, and verification."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_mixed_piecewise_linear
from thresholdgame.dists import ArcPiece, MixedCdf
from thresholdgame.engine import parse_rule, simulate
from thresholdgame.equilibrium import (
    best_response_value,
    candidate_solution,
    equilibrium_interval,
    equilibrium_unrestricted,
    selection_probability,
    two_point_payoff_check,
    verify_equilibrium,
    win_probabilities,
)
from thresholdgame.inversion import inversion_iid

OPPONENTS = {
    "uniform": MixedCdf.uniform(0.25, 0.75),
    "step": MixedCdf.step(0.5),
    "eq": equilibrium_unrestricted().dist,
    "eq_interval": equilibrium_interval(0.1, 0.9).dist,
}


class TestWinProbabilities:
    @pytest.mark.parametrize("name", ["uniform", "step", "eq", "eq_interval"])
    def test_theta_zero_collapses(self, name):
        profile = win_probabilities(0.0, OPPONENTS[name])
        phi = OPPONENTS[name].failure_probability()
        assert profile.win_fail == pytest.approx(0.0, abs=1e-15)
        assert profile.win_pass == pytest.approx(phi, abs=1e-15)
        assert profile.win_total == pytest.approx(phi, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
    def test_mirror_match_is_fair(self, theta):
        profile = win_probabilities(theta, MixedCdf.step(theta))
        assert profile.win_total == pytest.approx(0.5, abs=1e-15)

    def test_facing_equilibrium_is_half_everywhere(self):
        d = equilibrium_unrestricted().dist
        for theta in np.linspace(0.0, 1.0, 101):
            profile = win_probabilities(float(theta), d)
            assert profile.win_total == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("name", ["uniform", "step", "eq", "eq_interval"])
    def test_passing_strictly_beats_failing(self, name):
        for theta in np.linspace(0.0, 1.0, 21):
            profile = win_probabilities(float(theta), OPPONENTS[name])
            assert profile.win_pass > profile.win_fail

    @pytest.mark.parametrize("name", ["uniform", "step", "eq", "eq_interval"])
    def test_consistency_with_selection_probability(self, name):
        # win_total is selection_probability's formula, so the two agree bit
        # for bit; recombining win_pass and win_fail, an independent formula
        # for the same quantity, rounds differently in the last place.
        opponent = OPPONENTS[name]
        for theta in np.linspace(0.0, 1.0, 41):
            profile = win_probabilities(float(theta), opponent)
            direct = selection_probability(float(theta), opponent)
            assert profile.win_total == direct
            combined = (1 - theta) * profile.win_pass + theta * profile.win_fail
            assert direct == pytest.approx(combined, abs=1e-12)


class TestSelectionProbability:
    def test_hand_evaluated_example(self):
        # Against a deterministic median test, playing 0.9:
        # 0.1*0.5 + (0.81 + 0.01)*1 + (1 - 1.8)*0.4 = 0.55.
        value = selection_probability(0.9, MixedCdf.step(0.5))
        assert value == pytest.approx(0.55, abs=1e-15)

    def test_hand_example_against_simulation(self):
        summary = simulate(parse_rule("indep:step:0.9;step:0.5"),
                           trials=1_000_000, seed=31)
        assert abs(summary.win_rates[0] - 0.55) < 3 * summary.win_rate_std_errors[0]

    def test_against_equilibrium_on_support(self):
        d = equilibrium_unrestricted().dist
        assert selection_probability(0.37, d) == pytest.approx(0.5, abs=1e-9)

    def test_interval_equilibrium_at_left_endpoint(self):
        a, b = 0.1, 0.9
        sol = equilibrium_interval(a, b)
        value = selection_probability(a, sol.dist)
        assert value == pytest.approx((1 - a) * sol.failure_prob, abs=1e-12)
        assert value == pytest.approx(0.5, abs=1e-12)


class TestUnrestrictedEquilibrium:
    def test_cdf_endpoints(self):
        d = equilibrium_unrestricted().dist
        assert d.cdf(0.0) == 0.0
        assert d.cdf(1.0) == 1.0
        assert d.cdf(0.5) == 0.5

    def test_pdf_midpoint(self):
        # pdf(t) = (t^2 + (1-t)^2)^(-3/2) / 2, so pdf(1/2) = sqrt(2).
        d = equilibrium_unrestricted().dist
        assert d.pdf(0.5) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_pdf_integrates_to_one(self):
        d = equilibrium_unrestricted().dist
        total, err = quad(d.pdf, 0.0, 1.0, limit=200)
        assert total == pytest.approx(1.0, abs=max(1e-10, err))

    def test_solution_metadata(self):
        sol = equilibrium_unrestricted()
        assert sol.regime == "interior"
        assert sol.atom_b == 0.0
        assert sol.failure_prob == 0.5
        assert sol.interval == (0.0, 1.0)

    def test_is_the_unit_interval_member(self):
        sol, member = equilibrium_unrestricted(), equilibrium_interval(0.0, 1.0)
        assert sol.dist.family == ("eq_unrestricted",)
        assert member.dist.family == ("eq_interval", 0.0, 1.0)
        assert sol.dist.pieces == member.dist.pieces == (ArcPiece(0.0, 1.0, 0.5, 0.5),)
        assert sol.dist.atoms == member.dist.atoms == ()
        for name in ("interval", "regime", "cut_point", "atom_b", "failure_prob"):
            assert getattr(sol, name) == getattr(member, name)


@pytest.mark.parametrize("build", [
    equilibrium_unrestricted,
    lambda: equilibrium_interval(0.0, 1.0),
    lambda: equilibrium_interval(0.0, 0.79),
    lambda: equilibrium_interval(0.2, 0.5),  # the step regime
    lambda: equilibrium_interval(0.6, 1.0),  # the step regime at b = 1
], ids=["unrestricted", "[0,1]", "[0,0.79]", "[0.2,0.5]", "[0.6,1]"])
def test_builds_its_cdf_once(build, monkeypatch):
    families = []
    post_init = MixedCdf.__post_init__

    def counting(self):
        families.append(self.family)
        post_init(self)

    monkeypatch.setattr(MixedCdf, "__post_init__", counting)
    sol = build()
    assert families == [sol.dist.family]


class TestIntervalEquilibrium:
    def test_step_regime(self):
        sol = equilibrium_interval(0.0, 0.4)
        assert sol.regime == "step_at_b"
        assert sol.dist.cdf(0.39) == 0.0
        assert sol.dist.cdf(0.4) == 1.0
        assert sol.failure_prob == pytest.approx(0.4)

    def test_regime_boundary_is_step(self):
        # (1-a)*b == 1/2 exactly classifies as the degenerate case.
        sol = equilibrium_interval(0.0, 0.5)
        assert sol.regime == "step_at_b"

    def test_full_interval_matches_unrestricted(self):
        grid = np.linspace(0.0, 1.0, 1001)
        d_int = equilibrium_interval(0.0, 1.0).dist
        d_unr = equilibrium_unrestricted().dist
        np.testing.assert_allclose(d_int.cdf(grid), d_unr.cdf(grid), atol=1e-12)

    def test_limit_continuity_toward_full_interval(self):
        grid = np.linspace(0.0, 1.0, 1001)
        d_lim = equilibrium_interval(0.0, 1.0 - 1e-9).dist
        d_unr = equilibrium_unrestricted().dist
        np.testing.assert_allclose(d_lim.cdf(grid), d_unr.cdf(grid), atol=1e-6)

    @pytest.mark.parametrize("a,b", [(0.0, 0.79), (0.1, 0.9), (0.25, 0.8), (0.3, 1.0)])
    def test_interior_regime_identities(self, a, b):
        sol = equilibrium_interval(a, b)
        assert sol.regime == "interior"
        assert sol.failure_prob == pytest.approx(1 / (2 * (1 - a)), abs=1e-14)
        assert sol.dist.failure_probability() == pytest.approx(sol.failure_prob,
                                                               abs=1e-12)
        assert sol.dist.cdf(a) == pytest.approx(0.0, abs=1e-14)
        # The only atom sits at b; the plateau meets the jump consistently.
        assert [loc for loc, _ in sol.dist.atoms] == [b]
        delta_fppmb = (1 - 2 * b + 2 * b * sol.failure_prob) / ((1 - b) ** 2 + b * b)
        assert sol.atom_b == pytest.approx(delta_fppmb, abs=1e-12)
        assert sol.dist.cdf(sol.cut_point) == pytest.approx(1 - sol.atom_b, abs=1e-9)
        assert sol.dist.left_limit(b) == pytest.approx(1 - sol.atom_b, abs=1e-12)
        assert a < sol.cut_point < b

    def test_restricting_helps_the_principal(self):
        restricted = inversion_iid(equilibrium_interval(0.0, 0.79).dist).value
        unrestricted = inversion_iid(equilibrium_unrestricted().dist).value
        assert restricted < unrestricted
        # Frozen from two independent high-precision quadratures.
        assert restricted == pytest.approx(0.22977103003, abs=1e-7)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            equilibrium_interval(0.9, 0.2)
        with pytest.raises(ValueError):
            equilibrium_interval(0.5, 0.5)

    def test_monte_carlo_win_rates(self):
        sol = equilibrium_interval(0.1, 0.9)
        summary = simulate(parse_rule("iid:eq:0.1,0.9"), trials=1_000_000, seed=13)
        for rate, se in zip(summary.win_rates, summary.win_rate_std_errors):
            assert abs(rate - 0.5) < 3 * se
        assert sol.dist.failure_probability() == pytest.approx(1 / 1.8, abs=1e-12)


class TestVerifyEquilibrium:
    def test_unrestricted_passes(self):
        report = verify_equilibrium(equilibrium_unrestricted(), grid_size=10_000,
                                    tol=1e-8)
        assert report.passed
        assert report.max_support_deviation <= 1e-8

    def test_interval_passes(self):
        report = verify_equilibrium(equilibrium_interval(0.1, 0.9))
        assert report.passed
        assert report.max_outside_gain <= 1e-8

    def test_optimal_iid_is_not_an_equilibrium(self):
        report = verify_equilibrium(candidate_solution(MixedCdf.uniform(0.25, 0.75)))
        assert not report.passed
        # Profitable deviations exist, e.g. playing 0.9 wins 0.548 > 1/2.
        assert report.max_outside_gain > 1e-3 or report.max_support_deviation > 1e-3

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            verify_equilibrium(equilibrium_unrestricted(), grid_size=100)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_rejects_tol_outside_zero_to_infinity(self, tol):
        with pytest.raises(ValueError, match="tol"):
            verify_equilibrium(equilibrium_unrestricted(), tol=tol)

    def test_zero_tol_is_allowed(self):
        report = verify_equilibrium(candidate_solution(MixedCdf.uniform(0.25, 0.75)), tol=0.0)
        assert report.tol == 0.0 and not report.passed

    @pytest.mark.parametrize(
        "sol",
        [equilibrium_unrestricted()]
        + [equilibrium_interval(a, b) for a in (0.0, 0.2, 0.4, 0.6, 0.8)
           for b in (0.2, 0.4, 0.6, 0.8, 1.0) if a < b],
        ids=lambda sol: f"{sol.regime}[{sol.interval[0]},{sol.interval[1]}]",
    )
    def test_candidate_wrapper_reports_the_same(self, sol):
        # The cut point is a breakpoint of the cdf, so wrapping the bare cdf
        # with its interval checks the same grid.
        candidate = candidate_solution(sol.dist, sol.interval)
        assert verify_equilibrium(candidate) == verify_equilibrium(sol)


class TestBestResponse:
    def test_against_equilibrium(self):
        _, value = best_response_value(equilibrium_unrestricted().dist)
        assert value == pytest.approx(0.5, abs=1e-8)

    def test_against_median_step(self):
        theta, value = best_response_value(MixedCdf.step(0.5))
        assert value > 0.5
        assert theta > 0.5
        # The payoff is 1 - theta/2 just above 1/2, approaching 3/4.
        assert value == pytest.approx(0.75, abs=1e-2)

    def test_restricted_search_step_regime(self):
        # With (1-a)*b <= 1/2 the step at b is the equilibrium: no in-range
        # response beats 1/2, attained at b itself.
        theta, value = best_response_value(MixedCdf.step(0.4), interval=(0.0, 0.4))
        assert value == pytest.approx(0.5, abs=1e-12)
        assert theta == pytest.approx(0.4, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_strategy_stealing_floor(self, seed):
        rng = np.random.default_rng(300 + seed)
        d = random_mixed_piecewise_linear(rng)
        _, value = best_response_value(d)
        assert value >= 0.5 - 1e-9


class TestTwoPointSet:
    def test_payoff_check_passes(self):
        assert two_point_payoff_check()

    def test_every_ordered_pair_is_fair(self):
        lo = 1 - math.sqrt(2) / 2
        hi = math.sqrt(2) / 2
        for tx in (lo, hi):
            for ty in (lo, hi):
                value = selection_probability(tx, MixedCdf.step(ty))
                assert value == pytest.approx(0.5, abs=1e-12)

    def test_generic_pair_fails(self):
        assert not two_point_payoff_check(pair=(0.3, 0.6))


class TestSerialization:
    def test_solution_dict_round_trip(self):
        sol = equilibrium_interval(0.0, 0.79)
        data = sol.to_dict()
        assert data["regime"] == "interior"
        assert data["interval"] == [0.0, 0.79]
        assert data["segments"] == [{"kind": "eq_interval", "a": 0.0, "b": 0.79}]
        rebuilt = MixedCdf.from_dict(data)
        grid = np.linspace(0, 1, 101)
        np.testing.assert_array_equal(rebuilt.cdf(grid), sol.dist.cdf(grid))
