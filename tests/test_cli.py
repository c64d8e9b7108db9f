"""Tests for the command-line frontend."""

import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import pytest

from conftest import run_probe
from thresholdgame.cli import main
from thresholdgame.dists import MixedCdf
from thresholdgame.engine import parse_rule
from thresholdgame.inversion import inversion_rule


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestOptimal:
    def test_correlated_two_firms(self, capsys):
        code, out = run_cli(capsys, "optimal", "correlated", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["thresholds"] == pytest.approx([1 / 3, 2 / 3], abs=1e-11)
        assert data["value"] == pytest.approx(1 / 6, abs=1e-11)
        assert data["thresholds_exact"] == ["1/3", "2/3"]
        assert data["value_exact"] == "1/6"

    def test_same(self, capsys):
        code, out = run_cli(capsys, "optimal", "same")
        data = json.loads(out)
        assert code == 0
        assert data["theta"] == 0.5
        assert data["value"] == 0.25
        assert data["value_exact"] == "1/4"

    def test_iid_round_trips(self, capsys):
        code, out = run_cli(capsys, "optimal", "iid")
        data = json.loads(out)
        assert code == 0
        dist = MixedCdf.from_dict(data["dist"])
        assert dist.cdf(0.5) == 0.5
        assert data["value_exact"] == "5/24"


class TestEquilibrium:
    def test_dump_cdf_three_rows(self, capsys):
        code, out = run_cli(capsys, "equilibrium", "--dump-cdf", "3")
        assert code == 0
        rows = json.loads(out)["cdf_dump"]["rows"]
        assert rows[0] == [0.0, 0.0, 0.5]
        assert rows[1][0] == 0.5 and rows[1][1] == 0.5
        assert rows[1][2] == pytest.approx(1.41421356237, abs=1e-9)
        assert rows[2] == [1.0, 1.0, 0.5]

    def test_dump_pdf_null_at_atom(self, capsys):
        code, out = run_cli(capsys, "equilibrium", "--a", "0", "--b", "0.4",
                            "--dump-cdf", "6")
        data = json.loads(out)
        assert code == 0
        assert data["regime"] == "step_at_b"
        row = data["cdf_dump"]["rows"][2]
        assert row[0] == 0.4 and row[1] == 1.0 and row[2] is None

    def test_interval_metadata(self, capsys):
        code, out = run_cli(capsys, "equilibrium", "--a", "0", "--b", "0.79")
        data = json.loads(out)
        assert code == 0
        assert data["regime"] == "interior"
        assert data["atom_b"] == pytest.approx(0.314277162526, abs=1e-9)
        assert data["failure_prob"] == 0.5

    def test_csv_dump(self, capsys):
        code, out = run_cli(capsys, "equilibrium", "--dump-cdf", "3",
                            "--format", "csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "theta,cdf,pdf"
        assert len(lines) == 4


class TestInversion:
    def test_same_closed_form(self, capsys):
        code, out = run_cli(capsys, "inversion", "--rule", "same:0.5")
        data = json.loads(out)
        assert code == 0
        assert data["value"] == 0.25
        assert data["method"] == "closed_form"

    def test_iid_pair_error_closed_form(self, capsys):
        code, out = run_cli(capsys, "inversion", "--rule", "iid:uniform:0.25,0.75")
        data = json.loads(out)
        assert data["method"] == "closed_form"
        assert data["value"] == pytest.approx(5 / 24, abs=1e-8)

    def test_iid_atom_closed_form(self, capsys):
        # An i.i.d. draw of one atom is the fixed test same:0.5.
        code, out = run_cli(capsys, "inversion", "--rule", "iid:step:0.5")
        assert code == 0
        assert json.loads(out) == {"rule": "iid:step:0.5", "value": 0.25,
                                   "method": "closed_form", "std_error": 0.0, "trials": 0}

    def test_indep_steps_closed_form(self, capsys):
        code, out = run_cli(capsys, "inversion", "--rule",
                            "indep:step:0.7;step:0.3")
        data = json.loads(out)
        assert code == 0
        assert data["method"] == "closed_form"
        assert data["value"] == pytest.approx(0.5 * (0.09 + 0.16 + 0.09), abs=1e-12)

    def test_indep_general_pair_error_closed_form(self, capsys):
        # The pair sum is linear in each cdf: the mean over the uniform's
        # thresholds a of inversion_fixed((a, 0.5)) is 61/300.
        code, out = run_cli(capsys, "inversion", "--rule",
                            "indep:uniform:0.1,0.9;step:0.5")
        data = json.loads(out)
        assert code == 0
        assert data["method"] == "closed_form"
        assert data["value"] == pytest.approx(61 / 300, abs=1e-12)

    def test_mc_estimate(self, capsys):
        code, out = run_cli(capsys, "inversion", "--rule", "same:0.5", "--mc",
                            "--trials", "50000", "--seed", "5")
        data = json.loads(out)
        assert code == 0
        assert data["method"] == "monte_carlo"
        assert data["trials"] == 50000
        assert abs(data["value"] - 0.25) < 4 * data["std_error"]

    @pytest.mark.parametrize("rule, n_firms", [("fixed:0.2,0.5", "3"), ("iid:eq", "1"),
                                               ("same:0.3", "0"), ("indep:eq;step:0.5", "3")])
    @pytest.mark.parametrize("mc", [(), ("--mc", "--trials", "1000")])
    def test_bad_firm_count_exits_2(self, capsys, rule, n_firms, mc):
        code, out = run_cli(capsys, "inversion", "--rule", rule, "--n-firms", n_firms, *mc)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("rule, n_firms", [("fixed:0.2,0.5", "2"), ("iid:eq", "3"),
                                               ("same:0.3", "5"), ("indep:eq;step:0.5", "2")])
    def test_valid_firm_count_keeps_stdout(self, capsys, rule, n_firms):
        # Every pair is decided by its own two firms, so the closed forms
        # hold for any firm count the rule admits.
        _, plain = run_cli(capsys, "inversion", "--rule", rule)
        code, out = run_cli(capsys, "inversion", "--rule", rule, "--n-firms", n_firms)
        assert code == 0 and out == plain

    def test_bad_rule_exits_2(self, capsys):
        code, _ = run_cli(capsys, "inversion", "--rule", "bogus:1")
        assert code == 2


class TestVerify:
    def test_equilibrium_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--rule", "iid:eq")
        data = json.loads(out)
        assert code == 0
        assert data["pass"] is True

    def test_interval_equilibrium_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--rule", "iid:eq:0.1,0.9")
        assert code == 0
        assert json.loads(out)["interval"] == [0.1, 0.9]

    def test_step_regime_equilibrium_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--rule", "iid:eq:0.2,0.4")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_optimal_iid_fails_verification(self, capsys):
        code, out = run_cli(capsys, "verify", "--rule", "iid:uniform:0.25,0.75")
        data = json.loads(out)
        assert code == 1
        assert data["pass"] is False

    def test_non_iid_rule_rejected(self, capsys):
        code, _ = run_cli(capsys, "verify", "--rule", "same:0.5")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_bad_tol_exits_2(self, capsys, tol):
        code, out = run_cli(capsys, "verify", "--rule", "iid:eq", f"--tol={tol}")
        assert code == 2
        assert out == ""


class TestPoaAndSearch:
    def test_poa_values(self, capsys):
        code, out = run_cli(capsys, "poa")
        data = json.loads(out)
        assert code == 0
        assert abs(data["poa_vs_iid"] - 1.10653) < 1e-3
        assert abs(data["poa_vs_correlated"] - 1.38336) < 1e-3

    def test_poa_text_format(self, capsys):
        code, out = run_cli(capsys, "poa", "--format", "text")
        assert code == 0
        assert "poa_vs_iid" in out and "unrestricted equilibrium" in out

    def test_search_coarse(self, capsys):
        code, out = run_cli(capsys, "search", "--resolution", "0.1", "--no-refine")
        data = json.loads(out)
        assert code == 0
        assert 0.7 <= data["b"] <= 0.9

    def test_poa_with_search(self, capsys):
        code, out = run_cli(capsys, "poa", "--search", "--resolution", "0.1")
        data = json.loads(out)
        assert code == 0
        assert data["eq_restricted_best"]["value"] <= data["eq_unrestricted"]

    @pytest.mark.parametrize("resolution", ["0.35", "0.6", "0.053"])
    @pytest.mark.parametrize("command", [("search",), ("poa", "--search")],
                             ids=["search", "poa"])
    def test_grid_cells_are_intervals(self, capsys, command, resolution):
        code, out = run_cli(capsys, *command, "--resolution", resolution)
        assert code == 0
        data = json.loads(out)
        best = data.get("eq_restricted_best", data)
        assert 0.0 <= best["a"] < best["b"] <= 1.0

    @pytest.mark.parametrize("resolution", ["0", "-0.1", "2", "5", "nan", "inf"])
    @pytest.mark.parametrize("command", [("search",), ("poa", "--search"), ("poa",)],
                             ids=["search", "poa", "poa_no_search"])
    def test_bad_resolution_exits_2(self, capsys, command, resolution):
        code, out = run_cli(capsys, *command, "--resolution", resolution)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("resolution", ["1e-5", "1e-9", "0.000999"])
    @pytest.mark.parametrize("command", [("search",), ("poa", "--search")],
                             ids=["search", "poa"])
    def test_too_fine_resolution_exits_2_before_allocating(self, command, resolution):
        # The grid holds O(1/resolution**2) values at once: 1e-5 asked for
        # 9.3 GiB and died with numpy's MemoryError.  It is rejected first.
        import thresholdgame.analysis  # noqa: F401  (its import is not traced)

        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([*command, "--resolution", resolution])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == "error: resolution must lie in [0.001, 1]\n"
        assert peak < 2**20


class TestSimulate:
    def test_summary_fields(self, capsys):
        code, out = run_cli(capsys, "simulate", "--rule", "iid:eq", "--trials",
                            "50000", "--seed", "3")
        data = json.loads(out)
        assert code == 0
        assert data["trials"] == 50000
        assert len(data["win_rates"]) == 2
        assert abs(sum(data["win_rates"]) - 1.0) < 1e-12

    def test_seed_beyond_64_bits_exits_2(self, capsys):
        code, out = run_cli(capsys, "simulate", "--rule", "iid:eq", "--trials",
                            "1000", "--seed", str(2**64))
        assert code == 2
        assert out == ""


class TestArgumentErrors:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_text_format_dump(self, capsys):
        code, out = run_cli(capsys, "equilibrium", "--dump-cdf", "3",
                            "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["theta", "cdf", "pdf"]
        assert "regime = interior" in out


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ("inversion", "--rule", "iid:eq", "--mc", "--trials", "30000",
             "--seed", "9"),
            ("simulate", "--rule", "fixed:0.3,0.7", "--trials", "30000",
             "--seed", "9"),
            ("equilibrium", "--a", "0.1", "--b", "0.9", "--dump-cdf", "11"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


def test_import_leaves_scipy_unloaded():
    # The runtime needs only numpy; scipy is a test-only oracle.  The
    # workers are forked with os.fork and share an mmap, so no process pool
    # is imported either.
    probe = ("import sys, thresholdgame.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('scipy', 'multiprocessing', 'concurrent')))")
    assert run_probe(probe) == "[]"


# Cold start: names resolve on first use, so a command loads only what it
# runs, and the exact-rational answers load no numpy.
def test_package_import_loads_no_submodule_and_no_numpy():
    probe = ("import sys, thresholdgame; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('thresholdgame.') or m.split('.')[0] == 'numpy'))")
    assert run_probe(probe) == "[]"


def test_cli_import_leaves_numpy_unloaded():
    probe = "import sys, thresholdgame.cli; print('numpy' in sys.modules)"
    assert run_probe(probe) == "False"


@pytest.mark.parametrize("argv", [["optimal", "same"], ["optimal", "correlated", "--n", "5"]],
                         ids=" ".join)
def test_exact_optima_load_neither_numpy_nor_dataclasses(argv):
    probe = ("import contextlib, io, sys, thresholdgame.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = thresholdgame.cli.main({argv!r})\n"
             "print(code, [m for m in ('numpy', 'dataclasses') if m in sys.modules])")
    assert run_probe(probe) == "0 []"


@pytest.mark.parametrize("argv", [["search", "--resolution", "0.05"], ["poa"]], ids=" ".join)
def test_search_and_poa_load_neither_engine_nor_inversion(argv):
    # They value every equilibrium by the pair error, which lives in dists.
    probe = ("import contextlib, io, sys, thresholdgame.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = thresholdgame.cli.main({argv!r})\n"
             "print(code, [m for m in ('thresholdgame.engine', 'thresholdgame.inversion')\n"
             "             if m in sys.modules])")
    assert run_probe(probe) == "0 []"


def test_every_name_resolves_after_a_bare_import():
    # dir() first, before anything is loaded; then every submodule, then every
    # public name, each through the package's __getattr__.
    probe = ("import pkgutil, sys, thresholdgame as tg\n"
             "subs = [m.name for m in pkgutil.iter_modules(tg.__path__)]\n"
             "unlisted = sorted(set(subs + tg.__all__) - set(dir(tg)))\n"
             "wrong = [s for s in subs if getattr(tg, s) is not sys.modules['thresholdgame.' + s]]\n"
             "missing = [n for n in tg.__all__ if not callable(getattr(tg, n, None))]\n"
             "print(len(subs), unlisted, wrong, missing, hasattr(tg, 'no_such_name'))")
    assert run_probe(probe) == "9 [] [] [] False"


def test_quadrature_leaves_numpy_polynomial_unloaded():
    # The error is a closed form: no quadrature rule is built, by leggauss
    # or otherwise.
    probe = ("import contextlib, io, sys, thresholdgame.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = thresholdgame.cli.main(['inversion', '--rule', 'iid:eq'])\n"
             "print(code, sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    assert run_probe(probe) == "0 []"


# Exact stdout captured from an earlier commit: the 11 benchmark CLI calls,
# plus verify on eq[0, 1], eq[0.2, 0.4] (step regime) and a step, the
# equilibrium on [0, 1], seeded `simulate` and `inversion --mc` runs, `poa` as
# text and csv, `search --no-refine`, and refined `search` at resolutions 0.05
# and 0.01, whose 9th-12th digits depend on the refinement's exact path.
GOLDEN_STDOUT = json.loads((Path(__file__).parent / "golden" / "cli_stdout.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_STDOUT, ids=lambda case: " ".join(case["argv"]))
def test_stdout_matches_golden_bytes(capsys, case):
    code, out = run_cli(capsys, *case["argv"])
    assert code == case["exit_code"]
    assert out == case["stdout"]


def _seeded_estimate(case):
    """The (rule, mean, standard error) a seeded Monte Carlo golden prints,
    as JSON or as ``key,value`` csv rows."""
    out = case["stdout"]
    if out.startswith("key,value"):
        data = dict(line.split(",", 1) for line in out.splitlines()[1:])
        return data["rule"].strip('"'), float(data["inversion_mean"]), \
            float(data["inversion_std_error"])
    data = json.loads(out)
    if "value" in data:
        return data["rule"], data["value"], data["std_error"]
    return data["rule"], data["inversion_mean"], data["inversion_std_error"]


@pytest.mark.parametrize("case", [case for case in GOLDEN_STDOUT if "--seed" in case["argv"]],
                         ids=lambda case: " ".join(case["argv"]))
def test_seeded_golden_is_near_the_deterministic_value(case):
    rule, mean, se = _seeded_estimate(case)
    assert abs(mean - inversion_rule(parse_rule(rule)).value) < 3 * se
