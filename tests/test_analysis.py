"""Tests for the five-regime report and the restriction-interval search."""

from dataclasses import asdict

import numpy as np
import pytest

from thresholdgame.analysis import (
    EQUILIBRIUM_FLOOR,
    _interval_inversion,
    poa_report,
    search_best_interval,
    symmetric_equilibrium_floor_check,
)
from thresholdgame.equilibrium import equilibrium_interval, equilibrium_unrestricted

EQ_INVERSION_REFERENCE = 0.23052615844150636


class TestPoaReport:
    def test_values_and_ratios(self):
        report = poa_report(n=2)
        assert report.same_test == 0.25
        assert report.correlated == pytest.approx(1 / 6, abs=1e-15)
        assert report.iid_opt == pytest.approx(5 / 24, abs=1e-15)
        assert report.eq_unrestricted == pytest.approx(EQ_INVERSION_REFERENCE, abs=1e-7)
        assert abs(report.poa_vs_iid - 1.10653) < 1e-3
        assert abs(report.poa_vs_correlated - 1.38336) < 1e-3

    def test_ordering_chain(self):
        report = poa_report(n=2)
        assert (report.correlated < report.iid_opt
                < report.eq_restricted_best.value
                < report.eq_unrestricted < report.same_test)

    def test_poa_vs_correlated_decreases_to_iid_ratio(self):
        ratios = [poa_report(n=n).poa_vs_correlated for n in (2, 3, 5, 10)]
        assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
        big = poa_report(n=10**6)
        assert big.poa_vs_correlated == pytest.approx(big.poa_vs_iid, abs=1e-5)

    def test_to_dict(self):
        # The CLI prints asdict(report): its keys, in this order, are the output's.
        data = asdict(poa_report(n=2))
        assert list(data) == [
            "n", "same_test", "correlated", "iid_opt", "eq_restricted_best",
            "eq_unrestricted", "poa_vs_iid", "poa_vs_correlated",
        ]
        assert list(data["eq_restricted_best"]) == ["a", "b", "value"]

    def test_rejects_single_firm(self):
        with pytest.raises(ValueError):
            poa_report(n=1)


class TestSearch:
    def test_coarse_search_finds_the_basin(self):
        result = search_best_interval(resolution=0.05, refine=True)
        assert result.b == pytest.approx(0.8, abs=0.02)
        assert 0.0 <= result.a <= 0.05
        assert result.value < 0.22975  # the true optimum beats the [0, 0.79] value
        assert result.value > float(EQUILIBRIUM_FLOOR)

    @pytest.mark.parametrize("resolution", [0.0, -0.1, 1.5, 2.0, float("nan"), float("inf")])
    def test_rejects_resolution_outside_unit_interval(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            search_best_interval(resolution=resolution)

    @pytest.mark.parametrize("resolution", [0.35, 0.6, 0.053])
    def test_grid_cells_are_intervals(self, resolution):
        # At 0.35 and 0.6 the b grid's last step lands at 1.05 and 1.2; at
        # 0.053 the a and b grids both hold 0.954, one of them 1e-16 above.
        result = search_best_interval(resolution=resolution)
        assert 0.0 <= result.a < result.b <= 1.0
        assert result.a == pytest.approx(0.014708, abs=1e-6)
        assert result.b == pytest.approx(0.79973, abs=1e-5)

    def test_objective_continuity_along_b(self):
        # Regime misclassification would show up as a jump between adjacent
        # cells; the observed increments must stay near the local slope scale.
        a = 0.0
        bs = np.round(np.arange(0.48, 1.0001, 0.01), 10)
        values = np.array([_interval_inversion(a, float(b)) for b in bs])
        diffs = np.abs(np.diff(values))
        lipschitz = np.median(diffs) / 0.01
        assert np.max(diffs) < 10 * 0.01 * max(lipschitz, 0.05)


class TestFloorCheck:
    def test_unrestricted(self):
        assert symmetric_equilibrium_floor_check(equilibrium_unrestricted())

    def test_best_interval(self):
        assert symmetric_equilibrium_floor_check(equilibrium_interval(0.0, 0.79))

    def test_step_regime_interval(self):
        # (0.2, 0.5) degenerates to the median step: error 1/4, above the floor.
        sol = equilibrium_interval(0.2, 0.5)
        assert sol.regime == "step_at_b"
        assert symmetric_equilibrium_floor_check(sol)
