"""Tests for equilibrium construction, payoffs, and verification."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from conftest import random_mixed_piecewise_linear, verifier_inputs
from oracles import payoff_reference, verify_reference
from thresholdgame import equilibrium
from thresholdgame.analysis import EQUILIBRIUM_FLOOR
from thresholdgame.dists import MixedCdf, _piece_table, _row_cdf
from thresholdgame.engine import parse_rule, simulate
from thresholdgame.equilibrium import (
    _interval_cells,
    _interval_error,
    _interval_params,
    _linear_form,
    _margins,
    _payoff,
    _peaks,
    _verify,
    best_response_value,
    candidate_solution,
    equilibrium_interval,
    equilibrium_unrestricted,
    selection_probabilities,
    selection_probability,
    two_point_payoff_check,
    verify_equilibrium,
    win_probabilities,
)
from thresholdgame.inversion import _pair_error, inversion_iid

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
        assert sol.dist.pieces == member.dist.pieces == ((0.0, 1.0, 0.5, 0.0, 0.5),)
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

    def test_a_tiny_cell_leaves_the_cell_beside_it_alone(self):
        # [0, 5e-322] is a step cell a few subnormals wide; the cell beside
        # it keeps its own margins.
        alone = verify_equilibrium(equilibrium_interval(0.05, 0.8), grid_size=1000, tol=1e-8)
        _, support_dev, outside_gain = _interval_cells([0.0, 0.05], [5e-322, 0.8])
        assert support_dev[1].hex() == alone.max_support_deviation.hex() == "0x1.8000000000000p-53"
        assert outside_gain[1].hex() == alone.max_outside_gain.hex()

    @pytest.mark.parametrize("grid_size", [100, 999, 1000.5, "1000", True])
    def test_rejects_a_grid_size_that_is_no_integer_from_1000(self, grid_size):
        with pytest.raises(ValueError, match="grid_size"):
            verify_equilibrium(equilibrium_unrestricted(), grid_size=grid_size)

    @pytest.mark.parametrize("grid_size", [1000, 10**9, 2**53 + 1, 10**30])
    def test_echoes_any_grid_size_and_scores_no_grid(self, grid_size):
        report = verify_equilibrium(candidate_solution(MixedCdf.step(0.5)), grid_size=grid_size)
        assert report.grid_size == grid_size
        assert report.max_outside_gain == 0.25 and not report.passed

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-9, -1e-300])
    def test_rejects_tol_outside_zero_to_infinity(self, tol):
        with pytest.raises(ValueError, match="tol"):
            verify_equilibrium(equilibrium_unrestricted(), tol=tol)

    def test_takes_the_right_limit_after_an_atom(self):
        # Against a median step the payoff tends to 3/4 just right of 1/2; a
        # grid of 10,000 reached only 0.749975.
        report = verify_equilibrium(candidate_solution(MixedCdf.step(0.5)), tol=0.24999)
        assert report.max_outside_gain == 0.25 and not report.passed

    def test_zero_tol_is_allowed(self):
        report = verify_equilibrium(candidate_solution(MixedCdf.uniform(0.25, 0.75)), tol=0.0)
        assert report.tol == 0.0 and not report.passed

    @pytest.mark.parametrize("dist, interval", [
        (MixedCdf.step(0.5), (0.0, 0.4)),  # all of its mass above b
        (MixedCdf.uniform(0.1, 0.9), (0.2, 0.9)),  # mass 1/8 below a
    ])
    def test_candidate_rejects_mass_outside_its_interval(self, dist, interval):
        with pytest.raises(ValueError, match="mass outside"):
            candidate_solution(dist, interval)

    def test_candidate_accepts_every_equilibrium_on_its_interval(self):
        grid = [round(x, 12) for x in np.arange(0.0, 1.0 + 0.025, 0.05)]
        for a in grid:
            for b in grid:
                if a < b:
                    candidate_solution(equilibrium_interval(a, b).dist, (a, b))

    @pytest.mark.parametrize(
        "sol",
        [equilibrium_unrestricted()]
        + [equilibrium_interval(a, b) for a in (0.0, 0.2, 0.4, 0.6, 0.8)
           for b in (0.2, 0.4, 0.6, 0.8, 1.0) if a < b],
        ids=lambda sol: f"{sol.regime}[{sol.interval[0]},{sol.interval[1]}]",
    )
    def test_candidate_wrapper_reports_the_same(self, sol):
        # The verifier reads only the cdf and the interval, so wrapping the
        # bare cdf with its interval checks the same points.
        candidate = candidate_solution(sol.dist, sol.interval)
        assert verify_equilibrium(candidate) == verify_equilibrium(sol)


#: Cdfs with 0, 1 and 5 atoms.  Five atoms sit at 0 and 1, on a plateau's
#: low and at the low of a rising piece; at 0.6 in "two_plateaus" a flat
#: piece follows a flat piece, with no atom.
VERIFIED_CDFS = {
    "uniform": MixedCdf.uniform(0.25, 0.75),
    "two_plateaus": MixedCdf.piecewise_linear([
        (0.0, 0.0), (0.2, 0.0), (0.4, 0.5), (0.6, 0.5), (0.8, 0.5), (1.0, 1.0)]),
    "eq": equilibrium_unrestricted().dist,
    "step": MixedCdf.step(0.5),
    "eq[0,0.79]": equilibrium_interval(0.0, 0.79).dist,
    "five_atoms": MixedCdf.piecewise_linear([
        (0.0, 0.1), (0.2, 0.2), (0.2, 0.3), (0.4, 0.4), (0.4, 0.5), (0.6, 0.5),
        (0.6, 0.6), (0.9, 0.7), (1.0, 0.8), (1.0, 1.0)]),
    **{f"random{seed}": random_mixed_piecewise_linear(np.random.default_rng(seed))
       for seed in range(4)},
}

#: Step cells, whose empty pieces repeat lows, interior cells and the
#: continuous [0, 1] cell, whose table holds an atom of mass 0 at 1.
VERIFIED_CELLS = [(0.2, 0.5), (0.3, 0.5), (0.0, 5e-322), (0.0, 0.79), (0.0, 1.0),
                  (0.3, 0.9), (0.1, 1.0)]


#: The largest gap allowed between the payoff from each piece's linear form
#: and the direct formula.  The largest gap measured on the cdfs and cells
#: here, at the points of :func:`payoff_points`, was 5.3e-15 (random1).
PAYOFF_TOL = 1e-14


def payoff_points(table, a, b):
    """A 10,000-point grid of each cell's [a, b], and every piece end, atom
    and right limit of an atom or a piece low clipped into it, and the
    :func:`_peaks`."""
    special = np.concatenate([table.lo, table.hi, table.atom_at, np.nextafter(table.atom_at, 2.0),
                              np.nextafter(table.lo, 2.0)], axis=1)
    grid = np.array([np.linspace(lo, hi, 10_000) for lo, hi in zip(a.tolist(), b.tolist())])
    return np.concatenate([grid, np.clip(special, a[:, None], b[:, None]),
                           _peaks(table, _linear_form(table), a, b)], axis=1)


def interval_cells_table():
    """The piece table of the :data:`VERIFIED_CELLS` and their ends."""
    table, _, a, b, _ = verifier_inputs(VERIFIED_CELLS)
    assert ((1.0 - a) * b <= 0.5).any() and (table.lo == table.hi).any()  # step cells
    return table, a, b


class TestPayoff:
    """The payoff from each piece's linear form agrees with the direct
    formula, and its atom flags give the support the direct lookup gives,
    bit for bit."""

    def check(self, table, a, b):
        thetas = payoff_points(table, a, b)
        got, at_atom = _payoff(thetas, table)
        want, want_support = payoff_reference(thetas, table)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=PAYOFF_TOL)
        np.testing.assert_array_equal(table.support(thetas), want_support)
        np.testing.assert_array_equal(at_atom, (thetas == table.atom_at.T[:, :, None]).any(axis=0))
        return thetas, got

    @pytest.mark.parametrize("name", VERIFIED_CDFS)
    def test_a_cdf(self, name):
        d = VERIFIED_CDFS[name]
        thetas, got = self.check(d._table, np.array([0.0]), np.array([1.0]))
        assert 1.0 in thetas
        assert selection_probabilities(thetas[0], d).tobytes() == got[0].tobytes()

    def test_interval_cells(self):
        # The underflowing cell [0, 5e-322] and the massless atom at 1 of
        # the [0, 1] cell among them.
        table, a, b = interval_cells_table()
        self.check(table, a, b)

    @pytest.mark.parametrize("name", ["five_atoms", "random2"])
    def test_at_one_the_cdf_reads_one(self, name):
        # The payoff at 1 is phi less the half tie of an atom at 1, whatever
        # the last piece's row reads there.
        d = VERIFIED_CDFS[name]
        phi, mass = d.failure_probability(), d.atom_mass(1.0)
        assert mass > 0.0
        assert selection_probability(1.0, d) == pytest.approx(phi - mass / 2, abs=1e-15)

    def test_without_line_pieces_it_is_a_less_b_theta(self):
        # Off the atoms and 1, bit for bit: no cubic term is added.
        table, a, b = interval_cells_table()
        assert not table.c1.any()
        thetas = payoff_points(table, a, b)
        got = _payoff(thetas, table)[0]
        lin, slope = _linear_form(table)
        piece = table.piece(thetas)
        want = lin.ravel()[piece] - slope.ravel()[piece] * thetas
        off = (thetas != 1.0) & ~(thetas == table.atom_at.T[:, :, None]).any(axis=0)
        assert got[off].tobytes() == want[off].tobytes()


def rounding(table):
    """A few ulps of the largest payoff terms ``A``, ``B t`` and ``c1 t (t^2
    - 3t/2 + 1)`` of each cell in ``table``: a line piece's cubic, unlike
    ``A - B t``, is not monotone as rounded, so a point inside the piece may
    score that much above its ends and critical points."""
    lin, slope = _linear_form(table)
    return 4 * 2.0**-52 * (np.abs(lin) + np.abs(slope) + np.abs(table.c1)).max(axis=1)


def grid_bound(table, a, b, grid_size):
    """How far the exact margins on [a, b] (arrays of cells) may exceed a
    ``grid_size``-point grid's: the payoff's steepest slope on a piece,
    ``|c1 - B| + 3 |c1| / 4`` as its derivative is ``3 c1 (t^2 - t) + c1 -
    B``, times the grid's step, plus its :func:`rounding`."""
    steep = (np.abs(table.c1 - _linear_form(table)[1]) + 0.75 * np.abs(table.c1)).max(axis=1)
    return steep * (b - a) / (grid_size - 1) + rounding(table)


class TestVerifierTerms:
    """``_verify``'s margins bound those of the direct formula on a
    10,000-point grid with every piece end, atom and right limit, within the
    payoff's gap and the grid's step, and its verdicts are theirs."""

    def check(self, table, a, b):
        payoff, support = payoff_reference(payoff_points(table, a, b), table)
        want = _margins(payoff, support, 1e-8)
        got = _verify(table, a, b, 1e-8)
        bound = grid_bound(table, a, b, 10_000) + PAYOFF_TOL
        for value, reference in zip(got[:2], want[:2]):
            assert np.all(value >= reference - PAYOFF_TOL) and np.all(value <= reference + bound)
        np.testing.assert_array_equal(got[2], want[2])

    @pytest.mark.parametrize("name", VERIFIED_CDFS)
    def test_a_cdf_on_the_unit_interval(self, name):
        self.check(VERIFIED_CDFS[name]._table, np.array([0.0]), np.array([1.0]))

    def test_interval_cells(self):
        self.check(*interval_cells_table())

    def test_looks_up_b_and_the_atoms_alone(self, monkeypatch):
        # Every other score comes from a piece's own form at its clipped ends.
        seen = []
        original = equilibrium._payoff
        monkeypatch.setattr(equilibrium, "_payoff",
                            lambda thetas, *args: seen.append(thetas) or original(thetas, *args))
        table, a, b = interval_cells_table()
        _verify(table, a, b, 1e-8)
        [thetas] = seen
        want = np.concatenate([b[:, None], np.clip(table.atom_at, a[:, None], b[:, None])], axis=1)
        assert thetas.tobytes() == want.tobytes()

    def test_support_mask_of_a_cdf(self):
        thetas = np.linspace(0.0, 1.0, 101)
        for d in VERIFIED_CDFS.values():
            points = np.concatenate([thetas, d._table.lo.ravel(), d._table.atom_at.ravel()])
            want = payoff_reference(points.reshape(1, -1), d._table)[1]
            np.testing.assert_array_equal(d.support_mask(points), want.ravel())


#: Cells of a few ulps, where several grid points round to one, and
#: cells whose step underflows.
NARROW_CELLS = [(0.3, 0.3 + 1e-14), (0.9, 0.9 + 1e-14), (0.5, 0.5 + 2**-52),
                (1.0 - 2**-53, 1.0), (0.0, 5e-324), (0.0, 5e-322)]


@st.composite
def arc_flat_cdfs(draw):
    """A cdf of arcs and flat pieces, with atoms wherever it jumps; at times
    it ends up to 1e-10 short of 1 with no atom at 1, so that the payoff at
    1, which reads phi, is off its piece's linear form."""
    n = draw(st.integers(1, 5))
    cuts = sorted(set(draw(st.lists(st.floats(0.001, 0.999), min_size=n - 1, max_size=n - 1))))
    ends = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2 * len(cuts) + 2,
                                max_size=2 * len(cuts) + 2)))
    short = draw(st.booleans())
    if short:
        ends[-1] = 1.0 - draw(st.floats(0.0, 1e-10))
    pieces, atoms, reached = [], [], 0.0
    for lo, hi, v_lo, v_hi, arc in zip([0.0, *cuts], [*cuts, 1.0], ends[::2], ends[1::2],
                                       draw(st.lists(st.booleans(), min_size=n, max_size=n))):
        q_lo, q_hi = ((2.0 * t - 1.0) / math.hypot(t, 1.0 - t) for t in (lo, hi))
        scale = (v_hi - v_lo) / (q_hi - q_lo) if arc and q_hi > q_lo else 0.0  # cuts an ulp apart
        row = (lo, hi, v_lo - scale * q_lo, 0.0, scale) if scale > 0.0 else (lo, hi, v_hi, 0, 0)
        pieces.append(row)
        start, end = (float(_row_cdf(*row[2:], t)) for t in (lo, hi))
        if start - reached > 1e-12:
            atoms.append((lo, start - reached))
        reached = end
    if not short and 1.0 - reached > 1e-12:
        atoms.append((1.0, 1.0 - reached))
    return MixedCdf(tuple(pieces), tuple(atoms))


class TestExactVerifier:
    """``_verify``'s margins, the exact suprema over [a, b], are at least
    those of a grid (:func:`verify_reference`), less the :func:`rounding`
    of a table with a line piece, and exceed them by at most
    :func:`grid_bound`; its verdicts are the grid's."""

    def check(self, table, a, b, grid_size=1000, verdicts=True):
        form = _linear_form(table)
        got = _verify(table, a, b, 1e-8)
        want = verify_reference(table, form, a, b, _peaks(table, form, a, b), grid_size, 1e-8)
        bound = grid_bound(table, a, b, grid_size)
        below = rounding(table) if table.c1.any() else 0.0
        for name, value, reference in zip(("support_dev", "outside_gain"), got, want):
            assert np.all(value >= reference - below), name
            assert np.all(value - reference <= bound), name
        # A random cdf's verdict may differ only where tol lies between the two.
        near = np.any([(w <= 1e-8) & (g > 1e-8) for g, w in zip(got[:2], want[:2])], axis=0)
        assert np.all((got[2] == want[2]) | (near & ~verdicts))
        return got, want

    def test_every_cell_of_the_search_grid(self):
        # The support deviations are the grid's bit for bit: on the arc each
        # cell's largest one is at a or at a grid point.
        grid = [round(x, 12) for x in np.arange(0.0, 1.0 + 0.005, 0.01)]
        cells = [(a, b) for a in grid for b in grid if a < b]
        assert len(cells) == 5050
        for start in range(0, len(cells), 600):
            table, _, a, b, _ = verifier_inputs(cells[start:start + 600])
            got, want = self.check(table, a, b)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[2].all()

    @pytest.mark.parametrize("grid_size", [1000, 10_000, 12_345])
    def test_interval_cells(self, grid_size):
        # Step cells, whose empty pieces repeat lows, the massless atom at 1
        # of the [0, 1] cell and cells a few ulps wide.
        table, _, a, b, _ = verifier_inputs(VERIFIED_CELLS + NARROW_CELLS)
        self.check(table, a, b, grid_size)

    @pytest.mark.parametrize("grid_size", [1000, 10_000, 12_345, 40_001])
    @pytest.mark.parametrize("name", VERIFIED_CDFS)
    def test_a_cdf(self, name, grid_size):
        table = VERIFIED_CDFS[name]._table
        for a, b in ((0.0, 1.0), (0.2, 0.5), (0.4, 0.5), (0.1, 0.1 + 1e-14)):
            self.check(table, np.array([a]), np.array([b]), grid_size)

    @given(arc_flat_cdfs(), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.sampled_from([1000, 1001, 4099]))
    # A flat piece an ulp wide after an atom: no float lies inside it, so
    # only the oracle's right limit at its low sees its outside gain.
    @example(MixedCdf(((0.0, 0.001, 0.0, 0.0, 0.0), (0.001, 0.0010000000000000002, 0.5, 0.0, 0.0),
                       (0.0010000000000000002, 0.5, 1.0, 0.0, 0.500501252755699),
                       (0.5, 1.0, 1.0, 0.0, 0.0)), ((0.001, 0.5),)), 0.0, 0.0, 1000)
    @settings(max_examples=150, deadline=None)
    def test_arcs_flat_pieces_and_atoms(self, d, x, y, grid_size):
        a, b = (np.array([v]) for v in sorted((x, y)))
        if a[0] < b[0]:
            self.check(d._table, a, b, grid_size, verdicts=False)
        self.check(d._table, np.array([0.0]), np.array([1.0]), grid_size, verdicts=False)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_line_pieces_and_atoms(self, seed, x, y):
        table = random_mixed_piecewise_linear(np.random.default_rng(seed))._table
        a, b = (np.array([v]) for v in sorted((x, y)))
        if a[0] < b[0]:
            self.check(table, a, b, verdicts=False)
        self.check(table, np.array([0.0]), np.array([1.0]), verdicts=False)

    def test_takes_the_left_limit_at_one(self):
        # An arc that ends 5e-10 short of 1, with no atom at 1: the payoff at
        # 1 reads phi, off the arc's form, and the largest support deviation
        # is the arc's limit at 1, which no grid point reaches.
        beta = 0.49999
        alpha = 1.0 - 5e-10 - beta
        table = MixedCdf(((0.0, 1.0, alpha, 0.0, beta),), ((0.0, alpha - beta),))._table
        got, want = self.check(table, np.array([0.99]), np.array([1.0]))
        lin, slope = _linear_form(table)
        assert got[0][0] == abs(lin[0, 0] - slope[0, 0] - 0.5) > want[0][0]

    def test_a_flat_low_after_a_rising_piece_is_in_the_support(self):
        # On [0.4, 0.5] "two_plateaus" is flat, but 0.4 ends the rising piece
        # before it; the support is closed, so 0.4 is in it.  The points
        # beyond it are not, and the payoff's limit at 0.4 is its value.
        d = VERIFIED_CDFS["two_plateaus"]
        got, _ = self.check(d._table, np.array([0.4]), np.array([0.5]))
        excess = selection_probability(0.4, d) - 0.5
        assert excess > 1e-3 and got[0][0] == excess and got[1][0] == excess

    def test_an_atom_scores_its_half_tie(self):
        # Against a median step the payoff is 1/2 at the atom, its only
        # support point, and tends to 3/4 just right of it.
        table = VERIFIED_CDFS["step"]._table
        got, _ = self.check(table, np.array([0.0]), np.array([1.0]))
        assert got[0][0] == 0.0 and got[1][0] == 0.25

    @pytest.mark.parametrize("name", VERIFIED_CDFS)
    def test_the_grid_size_changes_no_margin(self, name):
        # Line pieces included: a billion-point grid costs what 1000 do.
        sol = candidate_solution(VERIFIED_CDFS[name])
        reports = [verify_equilibrium(sol, grid_size=g) for g in (1000, 10_000, 10**9)]
        assert len({(r.max_support_deviation, r.max_outside_gain, r.passed)
                    for r in reports}) == 1


def closed_form_and_sum(cells):
    """:func:`_interval_error` and :func:`_pair_error`'s Gauss sum of the
    equilibria on ``cells``, pairs (a, b), from one :func:`_interval_params`."""
    a, b = np.array(cells, dtype=float).T
    rows = _interval_params(a, b)[2]
    table = _piece_table(*rows)
    return _interval_error(rows), _pair_error(table.lo, table.hi, table)


@st.composite
def crowded_cells(draw):
    """A cell (a, b) near the regime boundary ``(1 - a) b = 1/2`` on either
    side, where on the mixed side the cut point nears a; near b = 1; or
    anywhere."""
    a = draw(st.floats(0.0, 0.98))
    near = draw(st.sampled_from(["boundary", "one", "anywhere"]))
    gap = 10.0 ** -draw(st.floats(1.0, 15.0))
    if near == "boundary":
        b = 0.5 / (1.0 - a) * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * gap)
    elif near == "one":
        b = 1.0 - gap
    else:
        b = draw(st.floats(a, 1.0))
    assume(a < b <= 1.0)
    return a, b


class TestClosedFormError:
    """:func:`_interval_error`, the error of the interval equilibria in
    closed form, agrees with the Gauss sum of :func:`_pair_error` within
    1e-14 and with adaptive quadrature of the integrand, and respects the
    symmetric floor."""

    def check(self, cells):
        got, want = closed_form_and_sum(cells)
        assert np.all(np.abs(got - want) <= 1e-14)
        assert np.all(got >= float(EQUILIBRIUM_FLOOR))

    def test_every_cell_of_the_search_grid(self):
        grid = [round(x, 12) for x in np.arange(0.0, 1.0 + 0.005, 0.01)]
        cells = [(a, b) for a in grid for b in grid if a < b]
        assert len(cells) == 5050
        self.check(cells)

    def test_verified_and_narrow_cells(self):
        self.check(VERIFIED_CELLS + NARROW_CELLS)

    @given(st.lists(crowded_cells(), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_cells_near_the_boundary_and_one(self, cells):
        self.check(cells)

    def test_step_regime_is_a_polynomial_in_b(self):
        cells = [(0.0, 5e-324), (0.1, 0.2), (0.2, 0.5), (0.1, 0.55)]
        b = np.array(cells)[:, 1]
        got, _ = closed_form_and_sum(cells)
        assert np.all(np.abs(got - (b * b + (1.0 - b) ** 2) / 2.0) <= 2**-53)

    @pytest.mark.parametrize("a, b", [(0.0, 0.79), (0.0, 1.0), (0.3, 0.9), (0.1, 1.0),
                                      (0.0147, 0.7997), (0.45, 0.95)])
    def test_agrees_with_quad_of_the_integrand(self, a, b):
        sol = equilibrium_interval(a, b)
        d = sol.dist

        def integrand(x):
            g, gamma = float(d.cdf(x)), float(d.cdf_integral(x))
            return x * (1.0 - g) ** 2 + 2.0 * (1.0 - g) * gamma + (1.0 - x) * g * g

        ends = sorted({0.0, a, sol.cut_point, b, 1.0})
        want = sum(quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-14)[0]
                   for lo, hi in zip(ends, ends[1:]))
        assert abs(_interval_cells([a], [b])[0][0] - want) <= 1e-14

    def test_acceptance_6a_exact_witness(self):
        """I(eq[0, 0.79]), which acceptance 6a bounds by 0.22975: 40-digit
        mpmath quadrature of the integrand on each piece gives
        0.229771030029991012, so the exact value does not meet the bound."""
        value = _interval_cells([0.0], [0.79])[0][0]
        assert abs(value - 0.229771030029991) <= 1e-15
        assert value > 0.22975


#: An arc that is no equilibrium: the cdf 0.5 + 0.3 (2t - 1) / r on
#: [0.2, 0.8], with equal jumps at both ends.
_ARC_JUMP = 0.5 - 0.3 * 0.6 / math.sqrt(0.68)
OFF_ARC = MixedCdf(((0.0, 0.2, 0.0, 0.0, 0.0), (0.2, 0.8, 0.5, 0.0, 0.3),
                    (0.8, 1.0, 1.0, 0.0, 0.0)), ((0.2, _ARC_JUMP), (0.8, _ARC_JUMP)))

#: The families, the off-equilibrium arc and random cdfs, those of the
#: strategy-stealing floor (seeds 300-305) among them.
PAYOFF_CDFS = {
    **OPPONENTS,
    "step(0.4)": MixedCdf.step(0.4),
    "eq[0,0.79]": equilibrium_interval(0.0, 0.79).dist,
    "eq[0.2,0.5]": equilibrium_interval(0.2, 0.5).dist,
    "off_arc": OFF_ARC,
    **{f"random{seed}": random_mixed_piecewise_linear(np.random.default_rng(seed))
       for seed in range(300, 340)},
}


class TestBestResponse:
    def test_against_equilibrium(self):
        _, value = best_response_value(equilibrium_unrestricted().dist)
        assert value == pytest.approx(0.5, abs=1e-8)

    def test_against_median_step(self):
        theta, value = best_response_value(MixedCdf.step(0.5))
        # The payoff is 1 - theta/2 just above 1/2, approaching 3/4.
        assert theta == np.nextafter(0.5, 1.0)
        assert value == pytest.approx(0.75, abs=1e-15)

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

    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.1, 0.7)])
    @pytest.mark.parametrize("name", PAYOFF_CDFS)
    def test_is_exact(self, name, interval):
        # Never below a fine grid's best: the payoff peaks only at the points
        # it scores, or just right of an atom, which it takes to one ulp.
        d = PAYOFF_CDFS[name]
        theta, value = best_response_value(d, interval)
        assert value >= selection_probabilities(np.linspace(*interval, 10**5), d).max() - 1e-15
        assert interval[0] <= theta <= interval[1]
        assert value == selection_probability(theta, d)

    @pytest.mark.parametrize("seed", range(300, 340))
    def test_line_piece_maxima_match_scipy(self, seed):
        # On each rising line piece the best of its ends' limits and its
        # critical points is no worse than a bounded scalar search, and an
        # interior maximum that search finds is one of the critical points.
        d = random_mixed_piecewise_linear(np.random.default_rng(seed))
        table = d._table
        peaks = _peaks(table, _linear_form(table), np.array([0.0]), np.array([1.0]))[0]
        for lo, hi in zip(table.lo[0][table.c1[0] > 0], table.hi[0][table.c1[0] > 0]):
            inside = peaks[(lo < peaks) & (peaks < hi)]
            ends = [np.nextafter(lo, 1.0), np.nextafter(hi, 0.0)]
            found = minimize_scalar(lambda x: -selection_probability(x, d), bounds=(lo, hi),
                                    method="bounded", options={"xatol": 1e-10})
            ours = selection_probabilities(np.concatenate([ends, inside]), d).max()
            assert ours >= -found.fun - 1e-13
            if lo + 1e-6 < found.x < hi - 1e-6:
                assert selection_probabilities(inside, d).max() >= -found.fun - 1e-13


class TestPayoffOnPieces:
    """The payoff on a piece, with ``K = prefix - anti_lo`` and ``g = c1 -
    phi - c0 - 2K``, has the derivative ``3 c1 (t^2 - t) + g``: it is linear
    on an arc or flat piece (c1 = 0) and a cubic on a line piece.  ``g`` is
    ``c1 - B`` of the linear form, the slope ``_peaks`` reads."""

    @pytest.mark.parametrize("name", PAYOFF_CDFS)
    def test_is_linear_on_arcs_and_flats_and_cubic_on_lines(self, name):
        d = PAYOFF_CDFS[name]
        table = d._table
        g = table.c1 - _linear_form(table)[1]
        expanded = table.c1 - (1.0 - table.total) - table.c0 - 2.0 * (table.prefix - table.anti_lo)
        np.testing.assert_allclose(g, expanded, rtol=1e-15, atol=1e-15)
        for lo, hi, c1, slope in zip(table.lo[0], table.hi[0], table.c1[0], g[0]):
            x = np.linspace(lo, hi, 12)[1:-1]  # inside the piece, off its atoms
            payoff = selection_probabilities(x, d)
            want = (payoff[0] + c1 * (x**3 - x[0]**3) - 1.5 * c1 * (x**2 - x[0]**2)
                    + slope * (x - x[0]))
            np.testing.assert_allclose(payoff, want, rtol=0.0, atol=1e-12)

    def test_an_arc_off_equilibrium_is_not_flat(self):
        # Its slope -phi - c0 - 2K is -0.305; on an equilibrium's arc it is 0.
        left, right = selection_probabilities([0.3, 0.7], OFF_ARC)
        assert (right - left) / 0.4 == pytest.approx(-0.30523, abs=1e-5)

    @pytest.mark.parametrize("name", PAYOFF_CDFS)
    def test_an_atom_adds_its_half_tie_just_right_of_it(self, name):
        d = PAYOFF_CDFS[name]
        for at, mass in d.atoms:
            if at < 1.0:
                right, here = selection_probabilities([np.nextafter(at, 1.0), at], d)
                assert right == pytest.approx(here + ((1 - at)**2 + at**2) * mass / 2, abs=1e-12)


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

    @pytest.mark.parametrize("pair", [(), (0.3,), (0.2, 0.5, 0.8)])
    def test_rejects_a_pair_of_other_than_two_points(self, pair):
        # An empty or one-point pair passed vacuously.
        with pytest.raises(ValueError, match="exactly two points"):
            two_point_payoff_check(pair)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_rejects_tol_outside_zero_to_infinity(self, tol):
        # NaN would fail every comparison and so pass every pair.
        with pytest.raises(ValueError, match="tol"):
            two_point_payoff_check((0.2, 0.5), tol=tol)


class TestSerialization:
    def test_solution_dict_round_trip(self):
        sol = equilibrium_interval(0.0, 0.79)
        data = sol.to_dict()
        assert data["regime"] == "interior"
        assert data["interval"] == [0.0, 0.79]
        assert data["segments"] == [{"kind": "eq_interval", "a": 0.0, "b": 0.79}]
        # A solution is not a cdf: the cdf is its segments and atoms.
        rebuilt = MixedCdf.from_dict({key: data[key] for key in ("segments", "atoms")})
        grid = np.linspace(0, 1, 101)
        np.testing.assert_array_equal(rebuilt.cdf(grid), sol.dist.cdf(grid))
