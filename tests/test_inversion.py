"""Tests for the error-probability functional and its decompositions."""

import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from conftest import random_mixed_piecewise_linear
from oracles import gauss_hybrid, gauss_pair_value, triangle_integral
from thresholdgame.dists import MixedCdf, _pair_error
from thresholdgame.engine import (IidRule, InversionEstimate, mc_inversion,
                                  parse_rule, simulate)
from thresholdgame.equilibrium import equilibrium_interval, equilibrium_unrestricted
from thresholdgame.inversion import (
    MAX_GRID_SIZE,
    _merged_tables,
    hybrid_decompose,
    inversion_fixed,
    inversion_iid,
    inversion_rule,
    optimal_value_correlated,
    suboptimality_bound,
)

# Reference value computed independently at 30-digit precision by nested
# tanh-sinh quadrature of the closed-form equilibrium cdf.
EQ_INVERSION_REFERENCE = 0.23052615844150636


class TestTriangleIntegral:
    def test_constant(self):
        assert triangle_integral(lambda x, y: np.broadcast_arrays(x, y)[0] * 0 + 1.0,
                                 ()) == pytest.approx(0.5, abs=1e-12)

    def test_polynomial(self):
        # int_0^1 int_0^x x^2 y dy dx = int x^4/2 = 1/10
        assert triangle_integral(lambda x, y: x * x * y, (0.3, 0.7)) == pytest.approx(
            0.1, abs=1e-12
        )

    def test_raises_when_a_cell_misses_its_tolerance(self):
        # A jump that is not declared as a break never converges.
        with pytest.raises(RuntimeError, match="max_depth"):
            triangle_integral(lambda x, y: (x > 0.3137) + 0.0 * y, (), max_depth=3)


# Cdfs on which the one-dimensional reductions are checked against the 2-D
# adaptive quadrature of the original triangle integrands.
ORACLE_CASES = (
    [random_mixed_piecewise_linear(np.random.default_rng(3000 + k)) for k in range(6)]
    + [equilibrium_interval(0.0, 0.79).dist, equilibrium_interval(0.3, 0.9).dist]
)


class TestOneDimensionalReductions:
    @pytest.mark.parametrize("d", ORACLE_CASES)
    def test_inversion_iid(self, d):
        def integrand(x, y):
            return (1.0 - d.cdf(x) + d.cdf(y)) ** 2

        reference = triangle_integral(integrand, d.breakpoints, tol=1e-11)
        assert inversion_iid(d).value == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("d", ORACLE_CASES)
    def test_hybrid_decompose(self, d):
        g0 = MixedCdf.uniform(0.25, 0.75)
        breaks = set(d.breakpoints) | set(g0.breakpoints)

        def delta(x, y):
            return (g0.cdf(x) - d.cdf(x)) - (g0.cdf(y) - d.cdf(y))

        def cross(x, y):
            return (1.0 - g0.cdf(x) + g0.cdf(y)) * delta(x, y)

        coeffs = hybrid_decompose(d)
        a_ref = 2.0 * triangle_integral(cross, breaks, tol=1e-11)
        b_ref = triangle_integral(lambda x, y: delta(x, y) ** 2, breaks, tol=1e-11)
        assert coeffs.a_coeff == pytest.approx(a_ref, abs=1e-9)
        assert coeffs.b_coeff == pytest.approx(b_ref, abs=1e-9)


class TestInversionIid:
    def test_optimal_uniform(self):
        est = inversion_iid(MixedCdf.uniform(0.25, 0.75))
        assert est.method == "closed_form"
        assert est.std_error == 0.0 and est.trials == 0
        assert est.value == pytest.approx(5 / 24, abs=1e-8)

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.8, 1.0])
    def test_step_closed_form(self, theta):
        est = inversion_iid(MixedCdf.step(theta))
        assert est.method == "closed_form"
        assert est.value == float(inversion_fixed([theta, theta]))
        assert est.value == pytest.approx(
            0.5 * (theta**2 + (1 - theta) ** 2), abs=1e-9
        )

    def test_unrestricted_equilibrium(self):
        est = inversion_iid(equilibrium_unrestricted().dist)
        assert est.value == pytest.approx(EQ_INVERSION_REFERENCE, abs=1e-7)
        assert abs(est.value - 0.23056) < 5e-4

    def test_against_scipy_dblquad(self):
        d = MixedCdf.piecewise_linear([(0.0, 0.0), (0.2, 0.1), (0.6, 0.8), (1.0, 1.0)])

        def integrand(y, x):
            return (1.0 - d.cdf(x) + d.cdf(y)) ** 2

        reference, err = dblquad(integrand, 0, 1, 0, lambda x: x,
                                 epsabs=1e-8, epsrel=1e-8)
        assert inversion_iid(d).value == pytest.approx(reference, abs=max(1e-8, 10 * err))

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(8)
        d = random_mixed_piecewise_linear(rng)
        quad_value = inversion_iid(d).value
        est = mc_inversion(IidRule(d), trials=1_000_000, seed=21)
        assert abs(quad_value - est.value) < 3 * est.std_error


def _pair_value(d_a: MixedCdf, d_b: MixedCdf) -> float:
    """The pair sum of firms drawing from ``d_a`` and ``d_b``, on the merged
    pieces that ``inversion_rule`` lays out for them."""
    return float(_pair_error(*_merged_tables(d_a, d_b))[0])


#: The cdfs of the golden evaluations and 20 seeded random ones.
PAIR_CASES = (
    [MixedCdf.from_json(case["json"]) for case in json.loads(
        (Path(__file__).parent / "golden" / "cdf_float_hex.json").read_text()).values()]
    + [random_mixed_piecewise_linear(np.random.default_rng(4000 + k)) for k in range(20)]
)

#: Half the mass at 1/3 and half at 2/3: the optimal pure pair, mixed.
HALF_AND_HALF = MixedCdf.piecewise_linear(
    [(0.0, 0.0), (1 / 3, 0.0), (1 / 3, 0.5), (2 / 3, 0.5), (2 / 3, 1.0), (1.0, 1.0)])


class TestPairError:
    @pytest.mark.parametrize("d", PAIR_CASES)
    def test_one_cdf_twice_is_inversion_iid(self, d):
        # Two tables on the merged edges, the layout of an independent rule,
        # give the float of one on the cdf's own pieces, which is
        # inversion_iid's.
        own = float(_pair_error(d._table)[0])
        assert _pair_value(d, d) == own
        assert own == inversion_iid(d).value

    @pytest.mark.parametrize("d_a, d_b", [
        (MixedCdf.uniform(0.1, 0.9), equilibrium_unrestricted().dist),
        (equilibrium_interval(0.0, 0.79).dist, MixedCdf.step(0.3)),
    ], ids=["uniform-eq", "eq79-step"])
    def test_asymmetric_pair_against_triangle_oracle(self, d_a, d_b):
        def integrand(x, y):
            return (1.0 - d_a.cdf(x) + d_a.cdf(y)) * (1.0 - d_b.cdf(x) + d_b.cdf(y))

        breaks = set(d_a.breakpoints) | set(d_b.breakpoints)
        reference = triangle_integral(integrand, breaks, tol=1e-11)
        assert _pair_value(d_a, d_b) == pytest.approx(reference, abs=1e-9)
        assert _pair_value(d_b, d_a) == pytest.approx(reference, abs=1e-9)

    def test_linear_in_each_cdf(self):
        # So the best reply to any cdf is a point mass.
        opponent = equilibrium_unrestricted().dist
        mixed = 0.5 * (_pair_value(MixedCdf.step(1 / 3), opponent)
                       + _pair_value(MixedCdf.step(2 / 3), opponent))
        assert _pair_value(HALF_AND_HALF, opponent) == pytest.approx(mixed, abs=1e-15)

    @pytest.mark.parametrize("opponent", [
        equilibrium_unrestricted().dist, equilibrium_interval(0.0, 0.79).dist,
        MixedCdf.uniform(0.0, 1.0), MixedCdf.uniform(0.25, 0.75), HALF_AND_HALF,
    ], ids=["eq", "eq79", "uniform01", "uniform-quartiles", "half-and-half"])
    def test_no_reply_beats_the_optimal_pure_pair(self, opponent):
        # The paper's first claim: against any cdf the best reply is a point
        # mass, and on a 1001-point grid none scores below the pure pair
        # (1/3, 2/3), whose 1/6 is the correlated optimum.
        best = min(_pair_value(MixedCdf.step(t), opponent) for t in np.linspace(0.0, 1.0, 1001))
        assert best >= 1 / 6
        assert _pair_value(MixedCdf.step(1 / 3), MixedCdf.step(2 / 3)) == pytest.approx(
            1 / 6, abs=1e-15)


#: Ramps from 0 to 1 on [1/2, 1/2 + w]: lines of slope 1/w.
STEEP_RAMPS = {w: MixedCdf.piecewise_linear([(0.0, 0.0), (0.5, 0.0), (0.5 + w, 1.0), (1.0, 1.0)])
               for w in (1e-12, 1e-6, 1e-3)}


def _arc_on(lo: float, hi: float) -> MixedCdf:
    """The cdf whose whole mass is one arc piece on [lo, hi)."""
    u_lo, u_hi = ((2.0 * t - 1.0) / math.hypot(t, 1.0 - t) for t in (lo, hi))
    scale = 1.0 / (u_hi - u_lo)
    return MixedCdf(((0.0, lo, 0.0, 0.0, 0.0), (lo, hi, -scale * u_lo, 0.0, scale),
                     (hi, 1.0, 1.0, 0.0, 0.0)))


#: Full-mass arcs on [lo, lo + w], whose scale is about 1 / w.  None starts
#: at 0: against eq the rest of [0, 1] pairs the cdf 1 with eq, where the
#: Gauss sum is itself 7e-16 off a 40-digit value, as on step(0) against eq.
NARROW_ARCS = {(lo, w): _arc_on(lo, lo + w) for lo in (0.5, 0.7) for w in (1e-5, 1e-7, 1e-9)}

#: The draws of acceptance criterion 8, with slopes up to 91.
_RNG_8088 = np.random.default_rng(8088)
DRAWS_8088 = [random_mixed_piecewise_linear(_RNG_8088) for _ in range(100)]

#: The arcs a line is paired with.
ARC_OPPONENTS = (equilibrium_unrestricted().dist, equilibrium_interval(0.3, 0.9).dist)


def _steepest(*dists) -> float:
    """The largest slope of a line piece of ``dists``."""
    return max(abs(c1) for d in dists for _, _, _, c1, _ in d.pieces)


@st.composite
def piece_tables(draw):
    """A cdf of lines, arcs and atoms: up to five pieces between sorted
    breakpoints, each a line, an arc or flat, and atoms at the breakpoints,
    with masses drawn and normalised to 1."""
    cuts = draw(st.lists(st.floats(0.001, 0.999), max_size=4, unique=True))
    edges = [0.0, *sorted(cuts), 1.0]
    if min(hi - lo for lo, hi in zip(edges, edges[1:])) <= 1e-6:
        edges = [0.0, 1.0]
    n = len(edges) - 1
    kinds = draw(st.lists(st.sampled_from(["line", "arc", "flat"]), min_size=n, max_size=n))
    masses = draw(st.lists(st.floats(0.0, 1.0), min_size=2 * n + 1, max_size=2 * n + 1))
    for i, kind in enumerate(kinds):
        if kind == "flat":
            masses[i] = 0.0
    if sum(masses) < 1e-3:
        masses[-1] += 1.0
    total = sum(masses)
    masses = [m / total for m in masses]
    pieces, atoms, v = [], [], 0.0
    for lo, hi, kind, mass, atom in zip(edges, edges[1:], kinds, masses, masses[n:]):
        if atom > 1e-9:
            atoms.append((lo, atom))
            v += atom
        if kind == "arc":
            u_lo, u_hi = ((2.0 * t - 1.0) / math.hypot(t, 1.0 - t) for t in (lo, hi))
            scale = mass / (u_hi - u_lo)
            pieces.append((lo, hi, v - scale * u_lo, 0.0, scale))
        else:
            slope = mass / (hi - lo)
            pieces.append((lo, hi, v - slope * lo, slope, 0.0))
        v += mass
    if 1.0 - v > 1e-9:
        atoms.append((1.0, 1.0 - v))
    return MixedCdf(tuple(pieces), tuple(atoms))


class TestPairErrorClosedForm:
    """The closed-form pair error against the Gauss sum of the same
    one-dimensional form, and its exact properties."""

    @pytest.mark.parametrize("lo, w", NARROW_ARCS)
    def test_a_narrow_arc_loses_nothing_to_cancellation(self, lo, w):
        # Its scale is about 1 / w: terms formed in powers of x would lose
        # about eps / w^2.
        d = NARROW_ARCS[lo, w]
        assert abs(_pair_error(d._table)[0] - gauss_pair_value(d)) <= 1e-15
        for other in [*ARC_OPPONENTS, *NARROW_ARCS.values()]:
            assert abs(_pair_value(d, other) - gauss_pair_value(d, other)) <= 1e-15
        for other in STEEP_RAMPS.values():
            tol = 1e-15 * (1.0 + _steepest(other))
            assert abs(_pair_value(d, other) - gauss_pair_value(d, other)) <= tol
        # A ramp over the arc's own piece, of slope 1 / w: the arc's terms
        # against a line's stay at rounding level too.
        ramp = MixedCdf.piecewise_linear([(0.0, 0.0), (lo, 0.0), (lo + w, 1.0), (1.0, 1.0)])
        assert abs(_pair_value(d, ramp) - gauss_pair_value(d, ramp)) <= 1e-15

    @pytest.mark.parametrize("w", STEEP_RAMPS)
    def test_a_steep_ramp_loses_nothing_to_cancellation(self, w):
        d = STEEP_RAMPS[w]
        assert abs(_pair_error(d._table)[0] - gauss_pair_value(d)) <= 1e-15
        for other in ARC_OPPONENTS:
            tol = 1e-15 * (1.0 + _steepest(d))
            assert abs(_pair_value(d, other) - gauss_pair_value(d, other)) <= tol

    def test_the_draws_of_criterion_8(self):
        for d in DRAWS_8088:
            assert abs(_pair_error(d._table)[0] - gauss_pair_value(d)) <= 1e-15
            for other in ARC_OPPONENTS:
                tol = 1e-15 * (1.0 + _steepest(d))
                assert abs(_pair_value(d, other) - gauss_pair_value(d, other)) <= tol

    @pytest.mark.parametrize("d_a", PAIR_CASES[:12])
    def test_symmetric(self, d_a):
        for d_b in [*PAIR_CASES[:12], *STEEP_RAMPS.values(), *ARC_OPPONENTS]:
            assert abs(_pair_value(d_a, d_b) - _pair_value(d_b, d_a)) <= 2**-52

    def test_point_masses_are_inversion_fixed(self):
        thetas = np.linspace(0.0, 1.0, 21).tolist()
        for s in thetas:
            for t in thetas:
                want = float(inversion_fixed(sorted((s, t))))
                assert _pair_value(MixedCdf.step(s), MixedCdf.step(t)) == pytest.approx(
                    want, abs=2**-53)

    def test_an_atom_drawn_iid_is_its_fixed_test(self):
        # inversion_iid values a single atom by the pair error alone.
        for s in [*np.linspace(0.0, 1.0, 101).tolist(), 1 / 3, 0.7]:
            assert inversion_iid(MixedCdf.step(s)).value == float(inversion_fixed([s, s]))

    @given(piece_tables(), piece_tables())
    @settings(max_examples=200, deadline=None)
    def test_random_tables_against_the_gauss_sum(self, d_a, d_b):
        assert abs(_pair_error(d_a._table)[0] - gauss_pair_value(d_a)) <= 1e-15 * (
            1.0 + _steepest(d_a))
        tol = 1e-15 * (1.0 + _steepest(d_a, d_b))
        assert abs(_pair_value(d_a, d_b) - gauss_pair_value(d_a, d_b)) <= tol


class TestInversionRule:
    @pytest.mark.parametrize("spec, n", [
        ("indep:step:0.5;eq", 2),
        ("indep:uniform:0.25,0.75;eq", 2),
        ("indep:eq;uniform:0.2,0.6;step:0.5", 3),
        ("indep:eq;uniform:0.2,0.6;step:0.5;eq:0.3,0.9;step:0.5", 5),
    ])
    def test_against_monte_carlo(self, spec, n):
        rule = parse_rule(spec)
        est = inversion_rule(rule)
        summary = simulate(rule, trials=1_000_000, seed=23)
        assert est.method == "closed_form" and summary.n_firms == n
        assert abs(est.value - summary.inversion_mean) < 3 * summary.inversion_std_error

    @pytest.mark.parametrize("spec, thresholds", [
        ("same:0.3", (0.3, 0.3)),
        ("fixed:0.7,0.2,0.5", (0.2, 0.5, 0.7)),
        ("indep:step:0.7;eq:0.2,0.4;step:0.1", (0.1, 0.4, 0.7)),
        ("iid:eq:0.3,0.6", (0.6, 0.6)),
    ])
    def test_fixed_tests_take_the_closed_form(self, spec, thresholds):
        est = inversion_rule(parse_rule(spec))
        assert est.method == "closed_form"
        assert est.value == float(inversion_fixed(thresholds))

    def test_an_iid_atom_is_the_same_fixed_test(self):
        # One atom drawn i.i.d. is one test taken by both firms, however the
        # rule spells it.
        estimates = {inversion_rule(parse_rule(spec))
                     for spec in ("iid:step:0.5", "indep:step:0.5;step:0.5", "same:0.5")}
        assert estimates == {InversionEstimate(value=0.25, method="closed_form")}

    def test_iid_is_inversion_iid(self):
        d = equilibrium_interval(0.0, 0.79).dist
        assert inversion_rule(IidRule(d)) == inversion_iid(d)

    @pytest.mark.parametrize("rule", ["iid:eq", None, MixedCdf.step(0.5), (0.3, 0.7)])
    def test_rejects_a_non_rule(self, rule):
        with pytest.raises(ValueError, match="not a test-assignment rule"):
            inversion_rule(rule)


class TestInversionFixed:
    def test_optimal_pair_exact(self):
        value = inversion_fixed((Fraction(1, 3), Fraction(2, 3)))
        assert value == Fraction(1, 6)

    def test_two_point_example(self):
        lo = 1 - math.sqrt(2) / 2
        hi = math.sqrt(2) / 2
        assert inversion_fixed((lo, hi)) == pytest.approx(3 - 2 * math.sqrt(2), rel=1e-14)

    def test_degenerate_pair_is_median_test(self):
        assert inversion_fixed((0.5, 0.5)) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.1, 0.4, 0.75])
    def test_equal_pair_matches_step_iid(self, theta):
        fixed = inversion_fixed((theta, theta))
        step = inversion_iid(MixedCdf.step(theta)).value
        assert fixed == pytest.approx(step, abs=1e-9)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            inversion_fixed((0.7, 0.3))

    def test_rejects_short_or_out_of_range(self):
        with pytest.raises(ValueError):
            inversion_fixed((0.5,))
        with pytest.raises(ValueError):
            inversion_fixed((0.2, 1.4))


class TestOptimalValueCorrelated:
    def test_two_firms(self):
        assert optimal_value_correlated(2) == Fraction(1, 6)

    def test_three_firms(self):
        assert optimal_value_correlated(3) == Fraction(11, 60)

    def test_limit_is_iid_optimum(self):
        assert float(optimal_value_correlated(10**9)) == pytest.approx(5 / 24, abs=1e-8)

    def test_rejects_single_firm(self):
        with pytest.raises(ValueError):
            optimal_value_correlated(1)


def _upsilon(z: float) -> float:
    """Running integral of the optimal cdf, piecewise closed form."""
    if z < 0.25:
        return 0.0
    if z <= 0.75:
        return (z - 0.25) ** 2
    return z - 0.5


def _hybrid_linear_oracle(d: MixedCdf) -> float:
    # The linear coefficient reduces to 1/8 minus the mean of
    # c(z) = 2*(z*Upsilon(1-z) + (1-z)*Upsilon(z)) under d.
    def c(z):
        return 2.0 * (z * _upsilon(1 - z) + (1 - z) * _upsilon(z))

    # Atoms sit only at piece junctions, which quad never samples, so the
    # density is defined wherever it looks.
    mean = sum(mass * c(loc) for loc, mass in d.atoms)
    for lo, hi, *_ in d.pieces:
        density = d.pdf(0.5 * (lo + hi))
        if density == 0.0:
            continue
        kinks = [p for p in (0.25, 0.75) if lo < p < hi]
        part, _ = quad(lambda t: c(t) * d.pdf(t), lo, hi,
                       points=kinks or None, limit=200)
        mean += part
    return 0.125 - mean


def _hybrid_quadratic_oracle(d: MixedCdf) -> float:
    # B reduces to the variance of H = G_opt - d under the uniform measure.
    g0 = MixedCdf.uniform(0.25, 0.75)
    pts = sorted(set(d.breakpoints) | {0.25, 0.75}) [1:-1]

    def h(t):
        return g0.cdf(float(t)) - d.cdf(float(t))

    m2, _ = quad(lambda t: h(t) ** 2, 0, 1, points=pts, limit=200)
    m1, _ = quad(h, 0, 1, points=pts, limit=200)
    return m2 - m1 * m1


class TestHybridDecompose:
    def test_optimum_has_zero_coefficients(self):
        coeffs = hybrid_decompose(MixedCdf.uniform(0.25, 0.75))
        assert abs(coeffs.a_coeff) < 1e-9
        assert abs(coeffs.b_coeff) < 1e-9

    def test_median_step_consistency(self):
        # A is exactly 0 here (the step sits inside [1/4, 3/4]); allow the
        # floating-point dust of the difference of two pair errors.
        coeffs = hybrid_decompose(MixedCdf.step(0.5))
        assert coeffs.a_coeff >= -1e-9
        assert coeffs.b_coeff >= 0.0
        assert coeffs.total == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_cdfs_identity_and_signs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        d = random_mixed_piecewise_linear(rng)
        coeffs = hybrid_decompose(d)
        assert coeffs.a_coeff >= -1e-9
        assert coeffs.b_coeff >= 0.0
        assert inversion_iid(d).value == pytest.approx(coeffs.total, abs=1e-6)

    @pytest.mark.parametrize("d", PAIR_CASES)
    def test_against_the_separable_gauss_sums(self, d):
        coeffs = hybrid_decompose(d)
        a, b = gauss_hybrid(d, MixedCdf.uniform(0.25, 0.75))
        assert abs(coeffs.a_coeff - a) <= 1e-15
        assert abs(coeffs.b_coeff - b) <= 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_against_one_dimensional_oracles(self, seed):
        # The double integrals collapse to closed 1-d reductions; both
        # computations must agree.
        rng = np.random.default_rng(2000 + seed)
        d = random_mixed_piecewise_linear(rng)
        coeffs = hybrid_decompose(d)
        assert coeffs.a_coeff == pytest.approx(_hybrid_linear_oracle(d), abs=1e-7)
        assert coeffs.b_coeff == pytest.approx(_hybrid_quadratic_oracle(d), abs=1e-7)


class TestSuboptimalityBound:
    @pytest.mark.parametrize("grid_size", [-1, -3, MAX_GRID_SIZE + 1, 10**12])
    def test_rejects_a_grid_outside_its_range_before_allocating(self, grid_size):
        d = equilibrium_unrestricted().dist
        suboptimality_bound(d, grid_size=1000)  # first-use allocations
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="grid_size must lie in"):
                suboptimality_bound(d, grid_size=grid_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_the_finest_grid_is_accepted(self):
        eps, _ = suboptimality_bound(MixedCdf.uniform(0.25, 0.75), grid_size=MAX_GRID_SIZE)
        assert eps == 0.0

    def test_an_empty_grid_scans_the_breakpoints(self):
        # The step's jump at 1/2 lies on a breakpoint: its left limit is 0
        # there, where the optimal cdf reads 1/2.
        assert suboptimality_bound(MixedCdf.step(0.5), grid_size=0).epsilon == 0.5
        assert suboptimality_bound(MixedCdf.uniform(0.25, 0.75), grid_size=0).epsilon == 0.0

    def test_optimum_itself(self):
        eps, bound = suboptimality_bound(MixedCdf.uniform(0.25, 0.75))
        assert eps == 0.0
        assert bound == pytest.approx(5 / 24, abs=1e-12)

    def test_unrestricted_equilibrium_deviation(self):
        # The sup-deviation is attained at 3/4 where the optimal cdf hits 1:
        # eps = 1 - T(3/4), well above the 1/24 floor for equilibria.
        eps, bound = suboptimality_bound(equilibrium_unrestricted().dist)
        t34 = 0.5 * (1 + 0.5 / math.sqrt(0.625))
        assert eps == pytest.approx(1 - t34, abs=1e-6)
        assert eps >= 1 / 24
        assert bound >= 5 / 24 + 1 / 82944
        assert inversion_iid(equilibrium_unrestricted().dist).value >= bound - 1e-6

    def test_step_at_zero(self):
        d = MixedCdf.step(0.0)
        eps, bound = suboptimality_bound(d)
        assert eps == pytest.approx(1.0, abs=1e-12)
        assert bound == pytest.approx(5 / 24 + 1 / 48, abs=1e-12)
        assert inversion_iid(d).value >= bound - 1e-6

    def test_the_bump_breaks_the_old_cubic_and_meets_the_proven_one(self):
        # Optimal but flat on [0.45, 0.5) with an atom 0.1 at 1/2: its error
        # is 5/24 + eps^3/6 - eps^4/16, below the old floor 5/24 + eps^3/6.
        d = MixedCdf.piecewise_linear([(0.0, 0.0), (0.25, 0.0), (0.45, 0.4), (0.5, 0.4),
                                       (0.5, 0.5), (0.75, 1.0), (1.0, 1.0)])
        eps, bound = suboptimality_bound(d)
        value = inversion_iid(d).value
        assert eps == pytest.approx(0.1, abs=1e-12)
        assert value == pytest.approx(5 / 24 + 0.1**3 / 6 - 0.1**4 / 16, abs=1e-12)
        assert value < 5 / 24 + eps**3 / 6
        assert bound == pytest.approx(5 / 24 + eps**3 / 48, abs=1e-15)
        assert value >= bound

    def test_random_cdfs_meet_the_bound(self):
        # No slack: the floor is proven, and (I - 5/24)/eps^3 stayed above
        # 0.107 on 3,000 such draws, against the floor's 1/48.
        rng = np.random.default_rng(2026)
        for _ in range(300):
            d = random_mixed_piecewise_linear(rng)
            eps, bound = suboptimality_bound(d)
            assert inversion_iid(d).value >= bound
