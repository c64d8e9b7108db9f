"""Tests for the five-regime report and the restriction-interval search."""

import itertools
import math
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import count_forks, verifier_inputs
from oracles import verify_reference
from thresholdgame import _workers, analysis, equilibrium
from thresholdgame.analysis import (
    EQUILIBRIUM_FLOOR,
    poa_report,
    search_best_interval,
    symmetric_equilibrium_floor_check,
)
from thresholdgame.equilibrium import (
    _interval_cells,
    _interval_values,
    equilibrium_interval,
    equilibrium_unrestricted,
    verify_equilibrium,
)
from thresholdgame.inversion import inversion_iid

EQ_INVERSION_REFERENCE = 0.23052615844150636

#: Grid steps of the refined searches compared below: fine and coarse grids,
#: grids whose last b step overshoots 1 (0.35, 0.6) or that hold 0.954 twice
#: (0.053), and the one-cell grid (1.0).
RESOLUTIONS = (0.01, 0.013, 0.05, 0.053, 0.1, 0.2, 0.35, 0.5, 0.6, 1.0)


def record_batches(monkeypatch, name, original):
    """Record the cells (a, b) of each call of ``analysis.<name>``, a list
    a call."""
    batches = []

    def record(a, b):
        batches.append(list(zip(np.asarray(a).tolist(), np.asarray(b).tolist())))
        return original(a, b)

    monkeypatch.setattr(analysis, name, record)
    return batches


@pytest.fixture(scope="module")
def refined_searches():
    return {resolution: search_best_interval(resolution=resolution)
            for resolution in RESOLUTIONS}


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

    @pytest.mark.parametrize("run_search", [False, True])
    @pytest.mark.parametrize("resolution", [0.0, -0.1, 5, float("nan"), float("inf"), "0.1",
                                            1e-5, 0.000999])
    def test_rejects_resolution_outside_unit_interval(self, run_search, resolution):
        # Checked whether or not the search runs.
        with pytest.raises(ValueError, match="resolution"):
            poa_report(run_search=run_search, resolution=resolution)


class TestSearch:
    def test_coarse_search_finds_the_basin(self):
        result = search_best_interval(resolution=0.05, refine=True)
        assert result.b == pytest.approx(0.8, abs=0.02)
        assert 0.0 <= result.a <= 0.05
        assert result.value < 0.22975  # the true optimum beats the [0, 0.79] value
        assert result.value > float(EQUILIBRIUM_FLOOR)

    @pytest.mark.parametrize("resolution", [0.0, -0.1, 1.5, 2.0, float("nan"), float("inf"),
                                            1e-5, 1e-9, 0.000999])
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
        assert result.b == pytest.approx(0.799743, abs=1e-6)

    def test_every_resolution_ends_at_one_value(self, refined_searches):
        values = [result.value for result in refined_searches.values()]
        assert max(values) - min(values) <= 1e-15

    def test_the_value_is_nelder_meads(self, refined_searches):
        # An independent minimizer on the same verified objective.
        oracle = minimize(lambda x: _interval_cells([x[0]], [x[1]])[0][0], (0.01, 0.8),
                          method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-17})
        assert oracle.success
        for result in refined_searches.values():
            assert abs(result.value - oracle.fun) <= 1e-15
            # The objective is flat to ~1e-16 here, so the cell is good to ~1e-8.
            assert np.max(np.abs(np.array([result.a, result.b]) - oracle.x)) <= 1e-7

    @pytest.mark.parametrize("resolution, a, b, value", [
        (0.01, 0.014708151359, 0.799743030598, 0.22968347274434364),
        (0.05, 0.0147081535, 0.79974302132, 0.22968347274434367),
    ])
    def test_the_closed_form_moves_only_noise_digits(self, refined_searches, resolution,
                                                     a, b, value):
        # The optimum the search found when it valued its cells by Gauss
        # sums: the closed form moves a and b below 1e-7, where the
        # objective is flat, and the value below 1e-15.
        result = refined_searches[resolution]
        assert max(abs(result.a - a), abs(result.b - b)) <= 1e-7
        assert abs(result.value - value) <= 1e-15

    def test_refinement_takes_few_batches(self, monkeypatch):
        # One verified batch for the grid and one for the refinement, which
        # values its stencils in a few batches of its own.
        scored = record_batches(monkeypatch, "_interval_cells", _interval_cells)
        valued = record_batches(monkeypatch, "_interval_values", _interval_values)
        search_best_interval(resolution=0.01)
        assert [len(batch) for batch in scored] == [len(grid_cells(0.01)), 44]
        assert 1 <= len(valued) <= 30

    @pytest.mark.parametrize("resolution, steps", [(0.01, [8, 9, 9, 9, 9]),
                                                   (0.6, [8, 8, 9, 9, 9, 9, 9, 9, 9])])
    def test_each_newton_step_scores_one_stencil(self, monkeypatch, resolution, steps):
        # One batch a step: a stencil of 9 cells, or 8 where it holds the
        # best cell, and no one-cell batch for a separate Newton candidate.
        valued = record_batches(monkeypatch, "_interval_values", _interval_values)
        search_best_interval(resolution=resolution)
        assert [len(batch) for batch in valued] == steps

    @pytest.mark.parametrize("resolution, cells", [(0.01, 44), (0.6, 79)])
    def test_refinement_scores_no_cell_twice(self, monkeypatch, resolution, cells):
        # The best cell so far keeps its known error, whether it is the
        # stencil's centre or, in a stencil shifted inward at 0.6, an edge
        # cell; at 0.01 only the first stencil holds it, which leaves 44
        # cells of 45.
        scored = record_batches(monkeypatch, "_interval_cells", _interval_cells)
        valued = record_batches(monkeypatch, "_interval_values", _interval_values)
        search_best_interval(resolution=resolution)
        refined = [cell for batch in valued for cell in batch]
        assert len(refined) == cells
        assert len(set(refined)) == len(refined)
        assert not set(refined) & set(scored[0])

    @pytest.mark.parametrize("resolution", [0.01, 0.05, 0.6])
    def test_refinement_verifies_every_cell_it_valued_in_one_batch(self, monkeypatch,
                                                                   resolution):
        # After the grid, one verified batch: the stencils' cells, in the
        # order the steps valued them.
        scored = record_batches(monkeypatch, "_interval_cells", _interval_cells)
        valued = record_batches(monkeypatch, "_interval_values", _interval_values)
        search_best_interval(resolution=resolution)
        assert scored[1:] == [[cell for batch in valued for cell in batch]]

    def test_a_search_verifies_a_slab_at_a_time(self, monkeypatch):
        # The grid's slabs and one batch for the whole refinement: no
        # verification per Newton step.
        calls = []
        original = equilibrium._verify
        monkeypatch.setattr(equilibrium, "_verify",
                            lambda *args: calls.append(1) or original(*args))
        search_best_interval(resolution=0.01)
        assert len(calls) <= math.ceil(len(grid_cells(0.01)) / equilibrium._SLAB_CELLS) + 1

    def test_objective_continuity_along_b(self):
        # Regime misclassification would show up as a jump between adjacent
        # cells; the observed increments must stay near the local slope scale.
        a = 0.0
        bs = np.round(np.arange(0.48, 1.0001, 0.01), 10)
        values = _interval_cells(np.full(len(bs), a), bs)[0]
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

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -1e-9])
    def test_rejects_slack_outside_zero_to_infinity(self, slack):
        # NaN would fail every solution and inf pass every one.
        with pytest.raises(ValueError, match="slack"):
            symmetric_equilibrium_floor_check(equilibrium_unrestricted(), slack=slack)


def grid_cells(resolution):
    """The cells the grid phase of the search scans, in order, enumerated as
    the search did when it built one equilibrium per cell."""
    a_grid = np.arange(0.0, 1.0, resolution)
    b_grid = np.arange(resolution, 1.0 + resolution / 2.0, resolution)
    b_grid = b_grid[np.round(b_grid, 12) <= 1.0]
    cells = []
    for a in a_grid:
        above = [b for b in b_grid if round(float(b), 12) > round(float(a), 12)]
        interior = [b for b in above if (1.0 - a) * b > 0.5]
        boundary = [b for b in above if (1.0 - a) * b <= 0.5]
        cells += [(round(float(a), 12), round(float(b), 12)) for b in interior + boundary[-1:]]
    return cells


def patch_verify(monkeypatch, fail=()):
    """Record the cells ``_verify`` checks, each named by its ends (a, b),
    with the tolerance; report the cells in ``fail`` as failed.  Returns
    the record, which sees only this process's cells."""
    seen = []
    original = equilibrium._verify

    def verify(table, a, b, tol):
        assert tol == 1e-8
        dev, gain, passed = original(table, a, b, tol)
        cells = list(zip(a.tolist(), b.tolist()))
        seen.extend(cells)
        return dev, gain, passed & ~np.array([cell in fail for cell in cells])

    monkeypatch.setattr(equilibrium, "_verify", verify)
    return seen


class TestBatchedCells:
    """The batched cells agree with one equilibrium, verification and quadrature per cell."""

    CELLS = sorted(set(
        [(a, b) for a, b in ((round(a, 12), round(b, 12))
                             for a in np.arange(0.0, 1.0, 0.05)
                             for b in np.arange(0.05, 1.0 + 0.025, 0.05)) if a < b]
        + [(a, round(b, 12)) for a in (0.0, 0.01, 0.02)
           for b in np.arange(0.01, 1.005, 0.01) if round(b, 12) > a]
    ))

    def test_cells_cover_both_regimes_and_the_edges(self):
        a, b = np.array(self.CELLS).T
        step = (1.0 - a) * b <= 0.5
        assert step.any() and (~step).any()
        assert (0.0, 1.0) in self.CELLS
        assert np.sum(b == 1.0) == 20 + 3 - 1  # [0, 1] is in both grids

    def test_agrees_with_one_cell_at_a_time(self):
        a, b = np.array(self.CELLS).T
        value, support_dev, outside_gain = _interval_cells(a, b)
        for i, (lo, hi) in enumerate(self.CELLS):
            sol = equilibrium_interval(lo, hi)
            report = verify_equilibrium(sol, grid_size=1000, tol=1e-8)
            assert report.passed  # and _interval_cells did not raise: passed alike
            # The batch values by the closed form and inversion_iid by the
            # Gauss-Legendre sum, so the values may round apart.
            assert abs(value[i] - inversion_iid(sol.dist).value) <= 1e-15
            assert support_dev[i] == report.max_support_deviation
            assert outside_gain[i] == report.max_outside_gain

    def test_one_cell_and_batched_margins_bound_the_full_grids(self):
        # A cdf alone drops the empty pieces the batched table keeps; both
        # paths give the same exact margins, the grid's support deviations
        # and outside gains at least the grid's, by at most an ulp.
        cells = [(0.0, 1.0), (0.0, 0.79), (0.3, 0.9), (0.1, 1.0), (0.2, 0.5), (0.3, 0.5)]
        reports = [verify_equilibrium(equilibrium_interval(a, b), grid_size=1000, tol=1e-8)
                   for a, b in cells]
        _, support_dev, outside_gain = _interval_cells(*np.array(cells).T)
        table, form, a, b, peaks = verifier_inputs(cells)
        want_dev, want_gain, want_passed = verify_reference(table, form, a, b, peaks, 1000, 1e-8)
        for i, report in enumerate(reports):
            assert report.max_support_deviation == support_dev[i]
            assert report.max_outside_gain == outside_gain[i]
            assert report.passed == want_passed[i]
        assert support_dev.tobytes() == want_dev.tobytes()
        assert np.all((want_gain <= outside_gain) & (outside_gain <= want_gain + 2.0**-52))

    def test_one_cell_view(self):
        alone = _interval_cells([0.0], [0.79])[0][0]
        assert alone == _interval_cells([0.0, 0.3], [0.79, 0.9])[0][0]
        with pytest.raises(ValueError):
            _interval_cells([0.5], [0.5])

    @pytest.mark.parametrize("resolution", RESOLUTIONS + (0.0137, 0.007, 0.003, 0.33))
    def test_grid_phase_visits_the_same_cells(self, monkeypatch, resolution):
        seen = patch_verify(monkeypatch)
        search_best_interval(resolution=resolution, refine=False)
        assert seen == grid_cells(resolution)

    @pytest.mark.parametrize("resolution", [0.01, 0.013, 0.053])
    def test_grid_phase_returns_the_cell_it_scored(self, resolution):
        # At 0.013 the grid's best b is 0.8059999999999999, whose cell is 0.806.
        result = search_best_interval(resolution=resolution, refine=False)
        assert (result.a, result.b) in grid_cells(resolution)
        assert result.value == _interval_cells([result.a], [result.b])[0][0]

    @pytest.mark.parametrize("resolution", [0.01, 0.053, 0.35, 0.6, 1.0])
    def test_refinement_returns_a_cell_no_worse_than_the_grid(self, resolution):
        grid = search_best_interval(resolution=resolution, refine=False)
        refined = search_best_interval(resolution=resolution)
        assert refined.value <= grid.value
        assert refined.value == _interval_cells([refined.a], [refined.b])[0][0]

    def test_a_failing_grid_cell_raises(self, monkeypatch):
        cells = grid_cells(0.05)
        a, b = cell = cells[len(cells) // 2]
        patch_verify(monkeypatch, fail={cell})
        with pytest.raises(RuntimeError, match=re.escape(f"[{a}, {b}] failed verification")):
            search_best_interval(resolution=0.05)

    def test_a_failing_refinement_cell_raises(self, monkeypatch):
        seen = patch_verify(monkeypatch)
        search_best_interval(resolution=0.05)
        refined = [cell for cell in seen if cell not in set(grid_cells(0.05))]
        assert len(refined) >= 9  # a stencil at least
        a, b = cell = refined[-1]
        patch_verify(monkeypatch, fail={cell})
        with pytest.raises(RuntimeError, match=re.escape(f"[{a}, {b}] failed verification")):
            search_best_interval(resolution=0.05)

    def test_the_first_failing_refinement_cell_visited_raises(self, monkeypatch):
        # The refinement values on past failing cells and verifies them all
        # at the end; the error names the first one it visited.
        valued = record_batches(monkeypatch, "_interval_values", _interval_values)
        search_best_interval(resolution=0.05)
        refined = [cell for batch in valued for cell in batch]
        a, b = first = refined[3]
        patch_verify(monkeypatch, fail={refined[-2], first})
        with pytest.raises(RuntimeError, match="^" + re.escape(
                f"constructed equilibrium on [{a}, {b}] failed verification (")):
            search_best_interval(resolution=0.05)

    @pytest.mark.parametrize("resolution", [0.05, 0.01])
    def test_all_rows_at_once_equal_row_by_row(self, monkeypatch, resolution):
        cells = grid_cells(resolution)
        rows = [np.array(list(row)).T for _, row in itertools.groupby(cells, lambda c: c[0])]
        want = [np.concatenate(parts) for parts in zip(*(_interval_cells(*row) for row in rows))]
        # The default slab, slabs of 10 and 20 cells, which cross rows, and
        # slabs of one cell.
        for cells_a_slab in (equilibrium._SLAB_CELLS, 10, 20, 1):
            monkeypatch.setattr(equilibrium, "_SLAB_CELLS", cells_a_slab)
            got = _interval_cells(*np.array(cells).T)
            for name, g, w in zip(("value", "support_dev", "outside_gain"), got, want):
                assert list(map(float.hex, g.tolist())) == list(map(float.hex, w.tolist())), name
        # The grid phase keeps the first strict minimum, in row order.
        best = (math.inf, None)
        for cell, value in zip(cells, want[0]):
            if value < best[0]:
                best = (value, cell)
        result = search_best_interval(resolution=resolution, refine=False)
        assert (result.value, (result.a, result.b)) == best

    def test_grid_phase_builds_closed_forms_a_slab_at_a_time(self, monkeypatch):
        sizes = []
        original = equilibrium._interval_params
        monkeypatch.setattr(equilibrium, "_interval_params",
                            lambda a, b: sizes.append(len(a)) or original(a, b))
        search_best_interval(resolution=0.01, refine=False)
        assert sum(sizes) == len(grid_cells(0.01)) == 1684
        assert len(sizes) <= math.ceil(1684 / equilibrium._SLAB_CELLS)

    def test_the_first_failing_cell_in_order_raises(self, monkeypatch):
        # Cells fail in slabs 1, 2 and 6 of the 0.01 grid cut into eight
        # slabs of 220 cells, and slab 1's first failing cell is the one the
        # error names.
        cells = grid_cells(0.01)
        monkeypatch.setattr(equilibrium, "_SLAB_CELLS", 220)
        slab = equilibrium._SLAB_CELLS
        a, b = cells[slab + 100]
        patch_verify(monkeypatch, fail={cells[6 * slab + 3], cells[2 * slab + 5],
                                         cells[slab + 100], cells[slab + 200]})
        with pytest.raises(RuntimeError, match="^" + re.escape(
                f"constructed equilibrium on [{a}, {b}] failed verification (")):
            _interval_cells(*np.array(cells).T)

    @pytest.mark.parametrize("resolution, want", [
        (0.01, ("0x1.e1f4ea89b466dp-7", "0x1.9977eb23453bep-1", "0x1.d66449def305fp-3")),
        (0.005, ("0x1.e1f4ef18d616ep-7", "0x1.9977ead48263cp-1", "0x1.d66449def305cp-3")),
        (0.002, ("0x1.e1f4ef0b17a70p-7", "0x1.9977ead3c5460p-1", "0x1.d66449def3061p-3")),
        (0.001, ("0x1.e1f4ef505c936p-7", "0x1.9977ead498614p-1", "0x1.d66449def3060p-3"))])
    def test_a_search_forks_nothing(self, monkeypatch, resolution, want):
        # 1,684 cells at 0.01 and 154,909 at 0.001, the finest grid
        # accepted, all run in this process,
        # however many CPUs there are, and the result keeps its bits.
        monkeypatch.setattr(_workers, "cpu_count", lambda: 2)
        forks = count_forks(monkeypatch)
        result = search_best_interval(resolution=resolution)
        assert forks == []
        assert (result.a.hex(), result.b.hex(), result.value.hex()) == want

    def test_memory_is_set_by_the_slab_not_the_cell_count(self, monkeypatch):
        search_best_interval(resolution=0.5, refine=False)  # first-use allocations
        peaks = []
        for resolution in (0.01, 0.005):
            tracemalloc.start()
            try:
                search_best_interval(resolution=resolution, refine=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2 * 2**20
