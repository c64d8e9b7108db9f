"""Tests for the mixed-cdf representation."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from conftest import random_mixed_piecewise_linear
from oracles import quantile_reference, row_cdf_reference, row_integral_reference
from thresholdgame import dists, equilibrium
from thresholdgame.dists import (MixedCdf, _piece_table, _row_cdf, _row_integral,
                                 quantile_to_quality)
from thresholdgame.engine import parse_dist
from thresholdgame.equilibrium import equilibrium_interval, equilibrium_unrestricted


class TestCdfEval:
    def test_uniform_midpoint(self):
        d = MixedCdf.uniform(0.25, 0.75)
        assert d.cdf(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_below_support(self):
        d = MixedCdf.uniform(0.25, 0.75)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(0.2) == 0.0

    def test_uniform_formula_on_support(self):
        d = MixedCdf.uniform(0.25, 0.75)
        for x in np.linspace(0.25, 0.75, 11):
            assert d.cdf(x) == pytest.approx(2 * x - 0.5, abs=1e-15)

    def test_equilibrium_midpoint(self):
        d = equilibrium_unrestricted().dist
        assert d.cdf(0.5) == 0.5

    def test_domain_error(self):
        d = MixedCdf.uniform(0.25, 0.75)
        with pytest.raises(ValueError):
            d.cdf(1.5)
        with pytest.raises(ValueError):
            d.cdf(-0.2)

    @pytest.mark.parametrize("method", ["cdf", "left_limit", "cdf_integral"])
    @pytest.mark.parametrize("theta", [math.nan, [0.2, math.nan, 0.7]],
                             ids=["scalar", "array"])
    def test_rejects_nan(self, method, theta):
        d = MixedCdf.uniform(0.25, 0.75)
        with pytest.raises(ValueError):
            getattr(d, method)(theta)

    EVALUATIONS = {
        **{name: lambda d, t, name=name: getattr(d, name)(t)
           for name in ["cdf", "left_limit", "cdf_integral", "atom_mass", "pdf",
                        "support_mask", "support_contains", "inverse"]},
        "quantile_to_quality": lambda d, t: quantile_to_quality(t, lambda p: p),
        "win_probabilities": lambda d, t: equilibrium.win_probabilities(t, d),
        "selection_probability": lambda d, t: equilibrium.selection_probability(t, d),
        "selection_probabilities": lambda d, t: equilibrium.selection_probabilities(t, d),
    }

    @pytest.mark.parametrize("entry", EVALUATIONS)
    @pytest.mark.parametrize("theta", [True, np.False_, "0.5", b"0.5", [True, False], ["0.5"]],
                             ids=repr)
    def test_rejects_bools_and_strings(self, entry, theta):
        # As parameters do: True read as 1.0 and "0.5" as 0.5 before.
        with pytest.raises(ValueError, match="must be a number"):
            self.EVALUATIONS[entry](equilibrium_interval(0.0, 0.79).dist, theta)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        d = random_mixed_piecewise_linear(rng)
        grid = np.linspace(0, 1, 101)
        vec = d.cdf(grid)
        for t, v in zip(grid, vec):
            assert d.cdf(float(t)) == v


class TestLeftLimit:
    def test_continuous_equals_cdf(self):
        d = MixedCdf.uniform(0.25, 0.75)
        for t in (0.1, 0.25, 0.5, 0.75, 1.0):
            assert d.left_limit(t) == pytest.approx(d.cdf(t), abs=1e-15)

    def test_step_left_limit_zero(self):
        d = MixedCdf.step(0.6)
        assert d.left_limit(0.6) == 0.0
        assert d.cdf(0.6) == 1.0

    def test_interval_equilibrium_jump(self):
        # Independent oracle: evaluate the point-mass expression directly.
        a, b = 0.1, 0.9
        delta_b = (1 - a * (1 - b) - b * (1 - a)) / ((1 - a) * ((1 - b) ** 2 + b**2))
        d = equilibrium_interval(a, b).dist
        assert d.left_limit(b) == pytest.approx(1 - delta_b, abs=1e-12)
        assert d.cdf(b) == 1.0


class TestCdfIntegral:
    def test_uniform_total(self):
        d = MixedCdf.uniform(0.25, 0.75)
        assert d.cdf_integral(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_step_at_one(self):
        d = MixedCdf.step(1.0)
        assert d.cdf_integral(1.0) == 0.0

    def test_equilibrium_closed_form(self):
        # Gamma(t) = sqrt(t^2 + (1-t)^2)/2 - (1-t)/2 for the unrestricted
        # equilibrium; cross-checked by numerical integration of the cdf.
        d = equilibrium_unrestricted().dist
        for t in (0.2, 0.5, 0.9, 1.0):
            expected = 0.5 * math.sqrt(t * t + (1 - t) ** 2) - (1 - t) / 2
            assert d.cdf_integral(t) == pytest.approx(expected, abs=1e-12)
            numeric, err = quad(lambda s: d.cdf(s), 0.0, t, limit=200)
            assert d.cdf_integral(t) == pytest.approx(numeric, abs=max(1e-9, err))

    def test_random_cdf_matches_quadrature(self):
        rng = np.random.default_rng(17)
        d = random_mixed_piecewise_linear(rng)
        pts = [p for p in d.breakpoints if 0 < p < 0.8]
        numeric, err = quad(lambda s: d.cdf(s), 0.0, 0.8, points=pts, limit=200)
        assert d.cdf_integral(0.8) == pytest.approx(numeric, abs=max(1e-10, err))

    def test_antiderivative_property(self):
        # d/dt of the running integral recovers the cdf at continuity points.
        rng = np.random.default_rng(3)
        d = random_mixed_piecewise_linear(rng)
        h = 1e-6
        breaks = set(d.breakpoints)
        for t in np.linspace(0.05, 0.95, 19):
            if any(abs(t - b) < 10 * h for b in breaks):
                continue
            deriv = (d.cdf_integral(t + h) - d.cdf_integral(t - h)) / (2 * h)
            assert deriv == pytest.approx(d.cdf(float(t)), abs=1e-6)


class TestFailureProbability:
    def test_unrestricted_equilibrium(self):
        assert equilibrium_unrestricted().dist.failure_probability() == pytest.approx(
            0.5, abs=1e-12
        )

    def test_interval_equilibrium(self):
        d = equilibrium_interval(0.1, 0.9).dist
        assert d.failure_probability() == pytest.approx(1 / (2 * 0.9), abs=1e-12)

    def test_step(self):
        for b in (0.0, 0.3, 1.0):
            assert MixedCdf.step(b).failure_probability() == pytest.approx(b, abs=1e-12)


class TestSampling:
    def test_step_always_at_location(self):
        d = MixedCdf.step(0.3)
        rng = np.random.default_rng(0)
        samples = d.sample(rng, size=1000)
        assert np.all(samples == 0.3)

    def test_uniform_mean(self):
        d = MixedCdf.uniform(0.25, 0.75)
        rng = np.random.default_rng(1)
        n = 1_000_000
        samples = d.sample(rng, size=n)
        sigma = 0.5 / math.sqrt(12.0)
        assert abs(samples.mean() - 0.5) < 3 * sigma / math.sqrt(n)

    def test_equilibrium_mean_is_failure_probability(self):
        d = equilibrium_unrestricted().dist
        rng = np.random.default_rng(2)
        n = 1_000_000
        samples = d.sample(rng, size=n)
        se = samples.std() / math.sqrt(n)
        assert abs(samples.mean() - 0.5) < 3 * se

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_kolmogorov_smirnov(self, seed):
        # Empirical cdf of 1e5 samples within the 1% KS critical band.
        rng = np.random.default_rng(seed)
        d = random_mixed_piecewise_linear(rng)
        n = 100_000
        samples = np.sort(d.sample(rng, size=n))
        eval_pts = np.union1d(samples, d.breakpoints)
        emp_right = np.searchsorted(samples, eval_pts, side="right") / n
        emp_left = np.searchsorted(samples, eval_pts, side="left") / n
        stat = max(
            np.max(np.abs(emp_right - d.cdf(eval_pts))),
            np.max(np.abs(emp_left - d.left_limit(eval_pts))),
        )
        assert stat < 1.628 / math.sqrt(n)

    def test_scalar_sample(self):
        d = MixedCdf.uniform(0.25, 0.75)
        value = d.sample(np.random.default_rng(9))
        assert isinstance(value, float) and 0.25 <= value <= 0.75


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_on_grid(self, seed):
        rng = np.random.default_rng(seed)
        d = random_mixed_piecewise_linear(rng)
        grid = np.linspace(0.0, 1.0, 1001)
        values = d.cdf(grid)
        assert np.all(np.diff(values) >= -1e-12)
        assert values[-1] == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_atom_consistency(self, seed):
        rng = np.random.default_rng(seed + 100)
        d = random_mixed_piecewise_linear(rng)
        for t in d.breakpoints:
            jump = d.cdf(t) - d.left_limit(t)
            assert jump == pytest.approx(d.atom_mass(t), abs=1e-12)

    def test_atom_mass_sums_below_one(self):
        rng = np.random.default_rng(42)
        d = random_mixed_piecewise_linear(rng)
        assert sum(m for _, m in d.atoms) <= 1 + 1e-12

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            MixedCdf.piecewise_linear([(0.0, 0.0), (0.5, 0.8), (0.6, 0.4), (1.0, 1.0)])

    def test_rejects_undeclared_jump(self):
        with pytest.raises(ValueError):
            MixedCdf(pieces=((0.0, 0.5, 0.0, 0.0, 0.0), (0.5, 1.0, 1.0, 0.0, 0.0)), atoms=())


def _support_contains_scalar(d: MixedCdf, theta: float) -> bool:
    """Reference support rule, one threshold at a time: an atom at ``theta``,
    or a piece with ``lo <= theta <= hi`` whose density there is positive."""
    if d.atom_mass(theta) > 0.0:
        return True
    for lo, hi, _, c1, c2 in d.pieces:
        if not lo <= theta <= hi:
            continue
        # An arc (c2 != 0) rises where its scale is positive, a line where
        # its slope is.
        increasing = c2 > 0.0 if c2 else c1 > 1e-12
        if increasing:
            return True
    return False


SUPPORT_CASES = (
    [random_mixed_piecewise_linear(np.random.default_rng(300 + k)) for k in range(8)]
    + [equilibrium_unrestricted().dist, MixedCdf.uniform(0.25, 0.75),
       MixedCdf.step(0.0), MixedCdf.step(1.0)]
    + [equilibrium_interval(a, b).dist
       for a, b in ((0.0, 0.79), (0.3, 0.9), (0.2, 0.5), (0.4, 0.7))]
)


class TestSupportMask:
    @pytest.mark.parametrize("d", SUPPORT_CASES)
    def test_matches_scalar_rule(self, d):
        plateaus = [0.5 * (lo + hi) for lo, hi, _, c1, c2 in d.pieces
                    if c1 == 0.0 and c2 == 0.0]
        thetas = np.concatenate((np.linspace(0.0, 1.0, 1001), d.breakpoints,
                                 [loc for loc, _ in d.atoms], plateaus))
        expected = [_support_contains_scalar(d, float(t)) for t in thetas]
        assert d.support_mask(thetas).tolist() == expected
        assert [d.support_contains(float(t)) for t in thetas] == expected

    def test_step_regime_is_the_atom_alone(self):
        sol = equilibrium_interval(0.2, 0.5)
        assert sol.regime == "step_at_b"
        thetas = np.linspace(0.2, 0.5, 1000)
        np.testing.assert_array_equal(sol.dist.support_mask(thetas), thetas == 0.5)
        assert sol.dist.support_contains(0.5)

    def test_shape_and_domain(self):
        d = equilibrium_interval(0.0, 0.79).dist
        assert d.support_mask(np.full((2, 3), 0.5)).shape == (2, 3)
        with pytest.raises(ValueError):
            d.support_mask([0.5, math.nan])
        with pytest.raises(ValueError):
            d.support_contains(1.5)


class TestSerialization:
    @pytest.mark.parametrize(
        "d",
        [
            MixedCdf.uniform(0.25, 0.75),
            MixedCdf.step(0.5),
            equilibrium_unrestricted().dist,
            equilibrium_interval(0.0, 0.79).dist,
            MixedCdf.piecewise_linear(
                [(0.0, 0.0), (0.25, 0.125), (0.25, 0.5), (1.0, 1.0)]
            ),
        ],
        ids=["uniform", "step", "eq", "eq_interval", "pwl"],
    )
    def test_round_trip_bit_stable(self, d):
        text = d.to_json()
        rebuilt = MixedCdf.from_json(text)
        assert rebuilt.to_json() == text
        grid = np.linspace(0, 1, 257)
        np.testing.assert_array_equal(rebuilt.cdf(grid), d.cdf(grid))

    def test_lines_write_two_coefficients(self):
        # A one-coefficient poly is read as the line (level, 0); an arc keeps
        # its offset and scale.
        segments = [{"kind": "poly", "lo": 0.0, "hi": 0.25, "coeffs": [0.0]},
                    {"kind": "poly", "lo": 0.25, "hi": 0.5, "coeffs": [0.25]},
                    {"kind": "arc", "lo": 0.5, "hi": 1.0, "offset": 0.5, "scale": 0.25}]
        atoms = [[0.25, 0.25], [0.5, 0.25], [1.0, 0.25]]
        d = MixedCdf.from_dict({"segments": segments, "atoms": atoms})
        assert d.to_dict() == {"segments": [
            {"kind": "poly", "lo": 0.0, "hi": 0.25, "coeffs": [0.0, 0.0]},
            {"kind": "poly", "lo": 0.25, "hi": 0.5, "coeffs": [0.25, 0.0]},
            segments[2],
        ], "atoms": atoms}

    def test_tagged_structure(self):
        data = json.loads(MixedCdf.uniform(0.25, 0.75).to_json())
        assert data["segments"] == [{"kind": "uniform", "lo": 0.25, "hi": 0.75}]
        assert data["atoms"] == []
        data = json.loads(MixedCdf.step(0.5).to_json())
        assert data["segments"] == [{"kind": "step", "at": 0.5}]
        assert data["atoms"] == [[0.5, 1.0]]


class TestRecipe:
    FAMILIES = {
        "uniform:0.25,0.75": MixedCdf.uniform(0.25, 0.75),
        "step:0": MixedCdf.step(0.0),
        "step:0.5": MixedCdf.step(0.5),
        "step:1": MixedCdf.step(1.0),
        "eq": equilibrium_unrestricted().dist,
        "eq:0,0.79": equilibrium_interval(0.0, 0.79).dist,
        "eq:0.2,0.4": equilibrium_interval(0.2, 0.4).dist,
    }

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_every_route_rebuilds_the_same_cdf(self, spec):
        d = self.FAMILIES[spec]
        grid = np.union1d(np.linspace(0.0, 1.0, 257), d.breakpoints)
        for rebuilt in (MixedCdf.from_dict(d.to_dict()), MixedCdf.from_json(d.to_json()),
                        parse_dist(spec), MixedCdf.from_family(*d.family)):
            assert rebuilt.atoms == d.atoms
            assert rebuilt.family == d.family
            assert rebuilt.cdf(grid).tobytes() == d.cdf(grid).tobytes()
            assert rebuilt.inverse(grid).tobytes() == d.inverse(grid).tobytes()

    #: The whole error text for each rejected spec: ``bad <kind> spec
    #: '<spec>': <reason>``, the same shape for every family.
    REJECTIONS = {
        "bogus:1": "unknown distribution kind 'bogus'",
        "uniform:0.3": "bad uniform spec 'uniform:0.3': expected 2 values, got 1",
        "uniform:0.1,0.2,0.3":
            "bad uniform spec 'uniform:0.1,0.2,0.3': expected 2 values, got 3",
        "uniform:0.5,0.2": "bad uniform spec 'uniform:0.5,0.2': need 0 <= lo < hi <= 1",
        "step:": "bad step spec 'step:': expected 1 value, got 0",
        "step:0.5,0.6": "bad step spec 'step:0.5,0.6': expected 1 value, got 2",
        "step:2": "bad step spec 'step:2': step location outside [0, 1]",
        "eq:0.5": "bad equilibrium spec 'eq:0.5': expected 2 values, got 1",
        "eq:a,b": "bad equilibrium spec 'eq:a,b': could not convert string to float: 'a'",
        "eq:0.9,0.1": "bad equilibrium spec 'eq:0.9,0.1': need 0 <= a < b <= 1",
    }

    # Each row also names one part of its text, the spec or the reason, so
    # that neither half can go missing from the message.
    @pytest.mark.parametrize("spec, part", [
        ("bogus:1", "unknown distribution kind 'bogus'"),
        ("uniform:0.3", "bad uniform spec 'uniform:0.3'"),
        ("uniform:0.1,0.2,0.3", "bad uniform spec 'uniform:0.1,0.2,0.3'"),
        ("uniform:0.5,0.2", "need 0 <= lo < hi <= 1"),
        ("step:", "bad step spec 'step:'"),
        ("step:0.5,0.6", "bad step spec 'step:0.5,0.6'"),
        ("step:2", "bad step spec 'step:2'"),
        ("eq:0.5", "bad equilibrium spec 'eq:0.5'"),
        ("eq:a,b", "bad equilibrium spec 'eq:a,b'"),
        ("eq:0.9,0.1", "need 0 <= a < b <= 1"),
    ])
    def test_parse_dist_rejects(self, spec, part):
        with pytest.raises(ValueError) as excinfo:
            parse_dist(spec)
        assert str(excinfo.value) == self.REJECTIONS[spec]
        assert part in str(excinfo.value)

    def test_from_dict_rejects_unknown_and_mixed_segments(self):
        with pytest.raises(ValueError, match="^unknown segment kind 'bogus'$"):
            MixedCdf.from_dict({"segments": [{"kind": "bogus"}]})
        mixed = [{"kind": "poly", "lo": 0.0, "hi": 0.5, "coeffs": [0.0, 2.0]},
                 {"kind": "uniform", "lo": 0.5, "hi": 1.0}]
        with pytest.raises(ValueError, match="^family segments cannot be mixed"):
            MixedCdf.from_dict({"segments": mixed})
        with pytest.raises(ValueError, match=r"^missing keys \['hi'\] in a 'uniform' segment$"):
            MixedCdf.from_dict({"segments": [{"kind": "uniform", "lo": 0.25}]})

    @pytest.mark.parametrize("segment", [
        {"kind": "uniform", "lo": 0.25, "hi": 0.75, "bogus": 1},
        {"kind": "eq_unrestricted", "a": 0.0},
        {"kind": "step", "at": 0.5, "lo": 0.0},
        {"kind": "arc", "lo": 0.0, "hi": 1.0, "offset": 0.5, "scale": 0.5, "coeffs": [0.0]},
        {"kind": "poly", "lo": 0.0, "hi": 1.0, "coeffs": [1.0], "offset": 0.0},
    ])
    def test_from_dict_rejects_unknown_segment_keys(self, segment):
        with pytest.raises(ValueError, match="^unknown keys"):
            MixedCdf.from_dict({"segments": [segment]})

    @pytest.mark.parametrize("data, message", [
        ({"segments": [{"kind": "step", "at": 0.5}], "atom": [[0.5, 0.3]]},
         r"^unknown keys \['atom'\] in a cdf$"),
        ({"segments": [{"kind": "uniform", "lo": 0.25, "hi": 0.75}], "atoms": [], "kind": "x"},
         r"^unknown keys \['kind'\] in a cdf$"),
        # The equilibrium command's JSON is a solution, not a cdf: the cdf is
        # its segments and atoms alone.
        (equilibrium_interval(0.0, 0.79).to_dict(),
         r"^unknown keys \['atom_b', 'cut_point', 'failure_prob', 'interval', 'regime'\] in a cdf$"),
    ], ids=["misspelled-atoms", "kind", "equilibrium-solution"])
    def test_from_dict_rejects_unknown_top_level_keys(self, data, message):
        with pytest.raises(ValueError, match=message):
            MixedCdf.from_dict(data)

    @pytest.mark.parametrize("segment, atoms", [
        ({"kind": "uniform", "lo": 0.25, "hi": 0.75}, [[0.5, 0.3]]),
        ({"kind": "step", "at": 0.5}, []),
        ({"kind": "step", "at": 0.5}, [[0.5, 0.9]]),
        ({"kind": "eq_interval", "a": 0.0, "b": 0.79}, [[0.79, 0.5]]),
    ])
    def test_from_dict_rejects_atoms_the_family_lacks(self, segment, atoms):
        with pytest.raises(ValueError, match="^atoms .* differ from"):
            MixedCdf.from_dict({"segments": [segment], "atoms": atoms})

    @pytest.mark.parametrize("data", [
        {"segments": [{"kind": "poly", "lo": 0.0, "hi": 1.0, "coeffs": ["0", "1"]}]},
        {"segments": [{"kind": "poly", "lo": 0.0, "hi": 1.0, "coeffs": [False, True]}]},
        {"segments": [{"kind": "poly", "lo": 0.0, "hi": 0.5, "coeffs": [0.0]},
                      {"kind": "poly", "lo": 0.5, "hi": 1.0, "coeffs": [1.0]}],
         "atoms": [["0.5", "1"]]},
        {"segments": [{"kind": "uniform", "lo": "0.25", "hi": "0.75"}]},
        {"segments": [{"kind": "step", "at": "0.5"}]},
        {"segments": [{"kind": "eq_interval", "a": "0", "b": "0.79"}]},
        {"segments": [{"kind": "poly", "lo": "0", "hi": 1.0, "coeffs": [0.0, 1.0]}]},
    ], ids=["string coeffs", "bool coeffs", "string atom", "string uniform",
            "string step", "string eq_interval", "string lo"])
    def test_from_dict_rejects_non_numbers(self, data):
        with pytest.raises(ValueError, match="expected numbers"):
            MixedCdf.from_dict(data)

    def test_from_family_rejects_unknown_kind_and_wrong_count(self):
        with pytest.raises(ValueError, match="^unknown segment kind 'bogus'$"):
            MixedCdf.from_family("bogus", 0.5)
        for family in [("uniform", 0.25), ("step",), ("eq_unrestricted", 0.5),
                       ("eq_interval", 0.0, 0.5, 0.9)]:
            with pytest.raises(TypeError):
                MixedCdf.from_family(*family)


GOLDEN_EVALUATIONS = json.loads(
    (Path(__file__).parent / "golden" / "cdf_float_hex.json").read_text()
)


class TestRowFormulas:
    """The in-place row formulas round as the plain expressions do."""

    @pytest.mark.parametrize("seed", range(3))
    def test_bits_match_the_plain_expressions(self, seed):
        rng = np.random.default_rng(seed)
        # Rows of normal, tiny and zero coefficients.
        scale = np.array([1.0, 1e-300, 0.0])[rng.integers(0, 3, (3, 5, 4))]
        rows = rng.normal(size=(3, 5, 4)) * scale
        # Points at 0, 1/2, 1 and at random; and rows broadcast against
        # (ends, cells, pieces) points as the piece table builds them.
        theta = np.concatenate([[0.0, 0.5, 1.0, 5e-324], rng.random(16)]).reshape(1, 5, 4)
        for t in (theta, np.concatenate([theta, rng.random((1, 5, 4))])):
            assert _row_cdf(*rows, t).tobytes() == row_cdf_reference(*rows, t).tobytes()
            assert (_row_integral(*rows, t).tobytes()
                    == row_integral_reference(*rows, t).tobytes())


class TestEvaluationGoldens:
    """Float-hex values captured from an earlier commit, at 0, 1, every
    breakpoint and a grid; u covers a grid and the cdf's values at every
    breakpoint from both sides."""

    CASES = {
        "eq": lambda: equilibrium_unrestricted().dist,
        "eq[0,0.79]": lambda: equilibrium_interval(0.0, 0.79).dist,
        "eq[0.2,0.4]": lambda: equilibrium_interval(0.2, 0.4).dist,
        "random seed 3": lambda: random_mixed_piecewise_linear(np.random.default_rng(3)),
        "random seed 8": lambda: random_mixed_piecewise_linear(np.random.default_rng(8)),
        "uniform[0.25,0.75]": lambda: MixedCdf.uniform(0.25, 0.75),
        "step(0)": lambda: MixedCdf.step(0.0),
        "step(1)": lambda: MixedCdf.step(1.0),
        "eq[0.3,0.9]": lambda: equilibrium_interval(0.3, 0.9).dist,
    }

    @pytest.mark.parametrize("name", CASES)
    def test_bits_match(self, name):
        golden = GOLDEN_EVALUATIONS[name]
        d = self.CASES[name]()
        assert d.to_json() == golden["json"]
        theta = [float.fromhex(h) for h in golden["theta"]]
        for method in ("cdf", "left_limit", "cdf_integral"):
            evaluate = getattr(d, method)
            assert [v.hex() for v in evaluate(np.array(theta)).tolist()] == golden[method]
            assert [evaluate(t).hex() for t in theta] == golden[method]
        assert [None if (p := d.pdf(t)) is None else p.hex() for t in theta] == golden["pdf"]
        u = np.array([float.fromhex(h) for h in golden["u"]])
        assert [v.hex() for v in d.inverse(u).tolist()] == golden["inverse"]


class TestInverseAgainstOracle:
    """``inverse`` evaluates one record over all of u in place and patches
    the other records' stretches; the oracle loops over records with one
    ``searchsorted`` mask each.  They must agree bit for bit."""

    CASES = {
        **{name: lambda name=name: MixedCdf.from_json(golden["json"])
           for name, golden in GOLDEN_EVALUATIONS.items()},
        "eq[0.2,0.5]": lambda: equilibrium_interval(0.2, 0.5).dist,  # a lone atom
        "uniform[0,1]": lambda: MixedCdf.uniform(0.0, 1.0),
    }

    @staticmethod
    def _points(d):
        uppers = np.array(d._quantile[0])
        edges = np.concatenate([uppers, np.nextafter(uppers, 0.0), np.nextafter(uppers, 2.0)])
        band = [0.0, 1.0, -1e-12, 1e-12, 1.0 - 1e-12, 1.0 + 1e-12]
        draws = np.random.default_rng(12).random(100_000)
        return np.concatenate([np.clip(edges, 0.0, 1.0), band, draws])

    @pytest.mark.parametrize("name", CASES)
    def test_bits_match_the_oracle(self, name):
        d = self.CASES[name]()
        u = self._points(d)
        assert d.inverse(u).tobytes() == quantile_reference(d, u).tobytes()
        grid = u[-100_000:].reshape(-1, 4)
        assert d.inverse(grid).tobytes() == quantile_reference(d, grid).tobytes()
        assert d.inverse(grid).shape == grid.shape
        for x in u[:40]:
            got = d.inverse(x)
            assert np.ndim(got) == 0
            assert got.tobytes() == quantile_reference(d, x).tobytes()
        listed = u[:40].tolist()
        assert d.inverse(listed).tobytes() == quantile_reference(d, listed).tobytes()

    @pytest.mark.parametrize("d", [
        MixedCdf(((0.0, 1.0, 0.6, 0.0, 0.4),), ((0.0, 0.2),)),
        MixedCdf.piecewise_linear([(0.0, 0.0), (0.0, 0.2), (1.0, 1.0)]),
        MixedCdf.step(0.0),
    ], ids=["arc", "line", "atom"])
    def test_an_atom_at_zero_and_negative_zero(self, d):
        # An atom at 0 is patched in as +0.0 bits, an arc table is not
        # clipped, and -0.0 input falls in the first record's stretch.
        assert d._quantile[1][0][1:] == (0.0, 0.0, "atom")
        u = np.concatenate([[-0.0], self._points(d)])
        for scratch in (None, np.empty_like(u)):
            got = np.empty_like(u)
            d._inverse_into(u, got, scratch)
            assert got.tobytes() == quantile_reference(d, u).tobytes()
        assert d.inverse(u).tobytes() == quantile_reference(d, u).tobytes()

    def test_writes_in_place(self):
        # The engine inverts its uniforms where they lie, with its own scratch.
        d = equilibrium_interval(0.3, 0.9).dist
        u = np.random.default_rng(4).random((500, 3))
        want = quantile_reference(d, u)
        d._inverse_into(u, u, np.empty_like(u))
        assert u.tobytes() == want.tobytes()


class TestQuantileToQuality:
    def test_uniform_prior_identity(self):
        assert quantile_to_quality(0.3, lambda p: p) == pytest.approx(0.3)

    def test_square_prior(self):
        assert quantile_to_quality(0.25, math.sqrt) == pytest.approx(0.5)

    def test_exponential_prior(self):
        inv = lambda p: -math.log1p(-p) if p < 1 else math.inf
        assert quantile_to_quality(1 - math.exp(-1), inv) == pytest.approx(1.0)

    def test_rejects_flat_prior_inverse(self):
        with pytest.raises(ValueError):
            quantile_to_quality(0.5, lambda p: min(p, 0.5))

    @pytest.mark.parametrize("prior", [
        lambda p: math.nan,
        lambda p: math.nan if abs(p - 0.5) < 1e-9 else p,
        lambda p: math.nan if p == 0.375 else p,  # 0.375 is not one of the probes
    ], ids=["everywhere", "at_one_probe", "only_at_theta"])
    def test_rejects_a_nan_prior(self, prior):
        with pytest.raises(ValueError, match="prior inverse cdf"):
            quantile_to_quality(0.375, prior)

    def test_accepts_infinite_ends(self):
        assert quantile_to_quality(0.5, norm.ppf) == 0.0


class TestQuantileFunction:
    # One continuous stretch, one atom, one plateau: the awkward shapes.
    DIST = MixedCdf.piecewise_linear(
        [(0.0, 0.0), (0.3, 0.2), (0.3, 0.55), (0.7, 0.55), (1.0, 1.0)]
    )

    @given(st.floats(min_value=0.0, max_value=0.999999))
    @settings(max_examples=200, deadline=None)
    def test_galois_inequalities(self, u):
        # Generalized-inverse contract: cdf(inverse(u)) >= u and the left
        # limit at inverse(u) does not exceed u.
        t = float(self.DIST.inverse(np.array([u]))[0])
        assert 0.0 <= t <= 1.0
        assert self.DIST.cdf(t) >= u - 1e-12
        assert self.DIST.left_limit(t) <= u + 1e-12

    def test_inverse_monotone(self):
        u = np.linspace(0.0, 0.999999, 2001)
        t = self.DIST.inverse(u)
        assert np.all(np.diff(t) >= -1e-12)

    @pytest.mark.parametrize("u", [1.5, -0.2, math.nan])
    def test_rejects_scalar_outside_unit_interval(self, u):
        with pytest.raises(ValueError, match="probability u"):
            MixedCdf.uniform(0.25, 0.75).inverse(u)

    @pytest.mark.parametrize("bad", [1.5, -0.2, math.nan])
    def test_rejects_array_entry_outside_unit_interval(self, bad):
        # Clipping used to turn -0.2 into 0.15, outside the support [0.25, 0.75].
        with pytest.raises(ValueError, match="probability u"):
            MixedCdf.uniform(0.25, 0.75).inverse(np.array([0.1, bad, 0.9]))

    def test_accepts_closed_unit_interval(self):
        t = MixedCdf.uniform(0.25, 0.75).inverse(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(t, [0.25, 0.5, 0.75])


class TestPieces:
    # A single arc piece, read through MixedCdf: the unrestricted equilibrium.
    ARC = MixedCdf(((0.0, 1.0, 0.5, 0.0, 0.5),))

    def test_arc_inverse_round_trip(self):
        thetas = np.linspace(0.0, 1.0, 33)
        np.testing.assert_allclose(self.ARC.inverse(self.ARC.cdf(thetas)), thetas, atol=1e-12)

    def test_arc_integral_matches_quadrature(self):
        numeric, _ = quad(self.ARC.cdf, 0.1, 0.9)
        integral = self.ARC.cdf_integral(0.9) - self.ARC.cdf_integral(0.1)
        assert integral == pytest.approx(numeric, abs=1e-10)

    def test_rows(self):
        # A piece's fields are its row: a line (level, slope, 0) from knots,
        # or an arc (offset, 0, scale).
        d = MixedCdf.uniform(0.25, 0.75)
        assert d.pieces == ((0.0, 0.25, 0.0, 0.0, 0.0), (0.25, 0.75, -0.5, 2.0, 0.0),
                            (0.75, 1.0, 1.0, 0.0, 0.0))
        for d in (d, self.ARC):
            table = d._table
            np.testing.assert_array_equal(np.concatenate([table.c0, table.c1, table.c2]).T,
                                          [p[2:] for p in d.pieces])
        assert "pieces=((0.0, 1.0, 0.5, 0.0, 0.5),)" in repr(self.ARC)

    BUILDS = {
        "uniform": lambda: MixedCdf.uniform(0.25, 0.75),
        "step": lambda: MixedCdf.step(0.5),
        "piecewise_linear": lambda: MixedCdf.piecewise_linear([(0.0, 0.1), (0.5, 0.5),
                                                               (1.0, 1.0)]),
        "from_dict-arc": lambda: MixedCdf.from_dict({"segments": [
            {"kind": "arc", "lo": 0.0, "hi": 1.0, "offset": 0.5, "scale": 0.5}]}),
        "from_dict-poly": lambda: MixedCdf.from_dict({"segments": [
            {"kind": "poly", "lo": 0.0, "hi": 1.0, "coeffs": [0.0, 1.0]}]}),
        "equilibrium_unrestricted": lambda: equilibrium_unrestricted().dist,
        "equilibrium_interval-interior": lambda: equilibrium_interval(0.1, 0.8).dist,
        "equilibrium_interval-step": lambda: equilibrium_interval(0.2, 0.5).dist,
    }

    @pytest.mark.parametrize("build", BUILDS)
    def test_builds_one_table(self, monkeypatch, build):
        cells = []

        def counting(*columns):
            cells.append(len(columns[0]))
            return _piece_table(*columns)

        # The equilibrium module holds its own name for the table builder.
        monkeypatch.setattr(dists, "_piece_table", counting)
        monkeypatch.setattr(equilibrium, "_piece_table", counting)
        d = self.BUILDS[build]()
        assert cells == [1]
        assert d._table.lo.shape == (1, len(d.pieces))

    def test_the_same_rows_compare_and_hash_equal(self):
        uniform = MixedCdf.uniform(0.25, 0.75)
        stripped = MixedCdf(uniform.pieces, uniform.atoms)  # written as poly rows
        knots = MixedCdf.piecewise_linear([(0.0, 0.0), (0.25, 0.0), (0.75, 1.0), (1.0, 1.0)])
        decoded = MixedCdf.from_dict(stripped.to_dict())
        assert knots == decoded == stripped
        assert hash(knots) == hash(decoded) == hash(stripped)
        assert stripped != uniform  # the family is compared too

    def test_different_rows_with_equal_atoms_differ(self):
        # The same line, whole or split at 1/2: one cdf, but other rows.
        whole = MixedCdf.piecewise_linear([(0.0, 0.0), (1.0, 1.0)])
        split = MixedCdf.piecewise_linear([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
        assert whole.atoms == split.atoms == ()
        assert whole != split

    def test_json_ints_are_read_as_floats(self):
        d = MixedCdf.from_dict({"segments": [{"kind": "poly", "lo": 0, "hi": 1,
                                              "coeffs": [0, 1]}]})
        assert all(type(value) is float for row in d.pieces for value in row)
        assert d == MixedCdf.piecewise_linear([(0.0, 0.0), (1.0, 1.0)])
        assert d.to_json() == ('{"segments": [{"kind": "poly", "lo": 0.0, "hi": 1.0,'
                               ' "coeffs": [0.0, 1.0]}], "atoms": []}')


def _poly_segments(coeffs):
    return {"segments": [{"kind": "poly", "lo": 0.0, "hi": 1.0, "coeffs": coeffs}]}


class TestPieceValidation:
    @pytest.mark.parametrize("coeffs", [(), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0)],
                             ids=["empty", "quadratic", "cubic"])
    def test_poly_degree_at_most_one(self, coeffs):
        with pytest.raises(ValueError, match="degree"):
            MixedCdf.from_dict(_poly_segments(list(coeffs)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lo", "hi", "c0", "c1"])
    def test_poly_rejects_non_finite(self, field, bad):
        args = {"lo": 0.0, "hi": 1.0, "c0": 0.0, "c1": 1.0, field: bad}
        with pytest.raises(ValueError, match="finite"):
            MixedCdf(((args["lo"], args["hi"], args["c0"], args["c1"], 0.0),))
        segment = {"kind": "poly", "lo": args["lo"], "hi": args["hi"],
                   "coeffs": [args["c0"], args["c1"]]}
        with pytest.raises(ValueError, match="finite"):
            MixedCdf.from_dict({"segments": [segment]})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lo", "hi", "offset", "scale"])
    def test_arc_rejects_non_finite(self, field, bad):
        # An arc's offset and scale are the row's c0 and c2.
        args = {"lo": 0.0, "hi": 1.0, "offset": 0.5, "scale": 0.5, field: bad}
        with pytest.raises(ValueError, match="finite"):
            MixedCdf(((args["lo"], args["hi"], args["offset"], 0.0, args["scale"]),))
        with pytest.raises(ValueError, match="finite"):
            MixedCdf.from_dict({"segments": [{"kind": "arc", **args}]})

    @pytest.mark.parametrize("pieces, atoms", [
        (((0.0, 1.0, "0", 1.0, 0.0),), ()),
        (((0.0, True, 0.0, 1.0, 0.0),), ()),
        (((0.0, 1.0, None, 1.0, 0.0),), ()),
        (((0.0, 0.5, 0.0, 0.0, 0.0), (0.5, 1.0, 1.0, 0.0, 0.0)), (("0.5", 1.0),)),
    ], ids=["string", "bool", "none", "atom-string"])
    def test_rows_and_atoms_must_be_numbers(self, pieces, atoms):
        with pytest.raises(ValueError, match="must be a number"):
            MixedCdf(pieces, atoms)

    @pytest.mark.parametrize("pieces", [(), (0.0, 1.0, 0.0, 1.0, 0.0), ((0.0, 1.0, 0.5),)],
                             ids=["none", "flat", "short"])
    def test_pieces_are_rows_of_five(self, pieces):
        with pytest.raises(ValueError, match="at least one piece, a row"):
            MixedCdf(pieces)

    def test_rejects_line_and_arc_at_once(self):
        # Serialized input cannot say this: a poly has no c2 and an arc no c1.
        with pytest.raises(ValueError, match="line .* or an arc"):
            MixedCdf(((0.0, 1.0, 0.0, 0.5, 0.5),))

    @pytest.mark.parametrize("data, message", [
        ({"segments": [{"kind": "arc", "lo": 0.0, "hi": 1.0, "offset": 0.5}]},
         r"^missing keys \['scale'\] in a 'arc' segment$"),
        ({"segments": [{"kind": "uniform", "lo": 0.25}]},
         r"^missing keys \['hi'\] in a 'uniform' segment$"),
        ({}, r"^missing keys \['segments'\] in a cdf$"),
        ({"segments": [{"lo": 0.0, "hi": 1.0}]}, r"^missing keys \['kind'\] in a segment$"),
        ([], "^a cdf must be an object"),
        ({"segments": [5]}, "^a segment must be an object, got 5$"),
        ({"segments": [{"kind": ["poly"]}]}, "^unknown segment kind"),
        ({"segments": 5}, "^segments must be a list"),
        ({**_poly_segments([0.0, 1.0]), "atoms": 5}, "^atoms must be a list"),
        ({**_poly_segments([0.0, 1.0]), "atoms": [[0.5]]},
         r"^an atom must be a \[location, mass\] pair"),
        ({**_poly_segments([0.0, 1.0]), "atoms": [[0.5, 0.1, 0.2]]},
         r"^an atom must be a \[location, mass\] pair"),
    ], ids=["arc-no-scale", "uniform-no-hi", "empty", "segment-no-kind", "not-a-dict",
            "segment-5", "kind-a-list", "segments-5", "atoms-5", "atom-single", "atom-triple"])
    def test_from_dict_rejects_malformed_structure(self, data, message):
        with pytest.raises(ValueError, match=message):
            MixedCdf.from_dict(data)

    @pytest.mark.parametrize("knots", [
        [(0, 0), ("0.5", 0.5), (1, 1)],
        [(0, 0), (True, 1)],
        [(0.0, 0.0), (0.5, None), (1.0, 1.0)],
    ], ids=["string", "bool", "none"])
    def test_knots_must_be_numbers(self, knots):
        with pytest.raises(ValueError, match="^knot must be a number"):
            MixedCdf.piecewise_linear(knots)

    @pytest.mark.parametrize("knots", [[], [(1.0, 1.0)]], ids=["none", "one"])
    def test_needs_two_knots(self, knots):
        with pytest.raises(ValueError, match="at least two knots"):
            MixedCdf.piecewise_linear(knots)

    def test_knots_take_ints_and_fractions(self):
        want = MixedCdf.piecewise_linear([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)])
        assert MixedCdf.piecewise_linear([(0, 0), (Fraction(1, 2), Fraction(1, 4)),
                                          (1, np.float64(1.0))]) == want

    def test_from_dict_rejects_nan_coefficient(self):
        with pytest.raises(ValueError, match="finite"):
            MixedCdf.from_dict(_poly_segments([math.nan, 1.0]))

    def test_rejects_nan_atom_mass(self):
        data = {"segments": [{"kind": "poly", "lo": 0.0, "hi": 0.5, "coeffs": [0.0]},
                             {"kind": "poly", "lo": 0.5, "hi": 1.0, "coeffs": [1.0]}],
                "atoms": [[0.5, math.nan]]}
        with pytest.raises(ValueError, match="atom mass"):
            MixedCdf.from_dict(data)

    def test_rejects_piece_along_which_cdf_decreases(self):
        # Both junctions match the declared atoms, yet cdf(0) = 0.5 > cdf(0.9).
        data = {**_poly_segments([0.5, -0.5]), "atoms": [[0.0, 0.5], [1.0, 1.0]]}
        with pytest.raises(ValueError, match="decreases"):
            MixedCdf.from_dict(data)
        with pytest.raises(ValueError, match="decreases"):
            MixedCdf(((0.0, 1.0, 0.5, 0.0, -0.5),), ((0.0, 1.0), (1.0, 1.0)))

    def test_every_search_cell_builds(self):
        # The cells search_best_interval(resolution=0.01) may visit.
        grid = np.round(np.arange(0.0, 1.0 + 0.005, 0.01), 12)
        for a in grid:
            for b in grid[grid > a]:
                assert equilibrium_interval(float(a), float(b)).dist.cdf(1.0) == 1.0
