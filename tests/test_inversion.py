"""Tests for the error-probability functional and its decompositions."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from conftest import random_mixed_piecewise_linear
from oracles import triangle_integral
from thresholdgame.dists import MixedCdf
from thresholdgame.engine import IidRule, InversionEstimate, mc_inversion, parse_rule, simulate
from thresholdgame.equilibrium import equilibrium_interval, equilibrium_unrestricted
from thresholdgame.inversion import (
    _UNIT_NODES,
    _UNIT_WEIGHTS,
    _merged_edges,
    _pair_error,
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


def test_gauss_rule_is_leggauss_to_the_bit():
    # The stored half rule, mirrored and rescaled to [0, 1], is numpy's.
    x, w = np.polynomial.legendre.leggauss(30)
    for got, want in ((_UNIT_NODES, 0.5 * (x + 1.0)), (_UNIT_WEIGHTS, 0.5 * w)):
        assert list(map(float.hex, got.tolist())) == list(map(float.hex, want.tolist()))


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
        assert est.method == "quadrature"
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
    """The pair sum of firms drawing from ``d_a`` and ``d_b``, on the nodes
    that ``inversion_rule`` lays out for them."""
    edges = _merged_edges(d_a, d_b)
    return float(_pair_error(edges[:, :-1], edges[:, 1:], d_a._table, d_b._table)[0])


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
        # Two evaluations on the merged edges, the layout of an independent
        # rule, give the float of one on the cdf's own pieces, which is
        # inversion_iid's unless the cdf is one atom, valued in closed form.
        table = d._table
        own = float(_pair_error(table.lo, table.hi, table)[0])
        assert _pair_value(d, d) == own
        est = inversion_iid(d)
        if est.method == "quadrature":
            assert own == est.value
        else:
            assert own == pytest.approx(est.value, abs=1e-15)

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
        assert est.method == "quadrature" and summary.n_firms == n
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
        # quadrature's floating-point dust.
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
