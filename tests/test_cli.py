"""Tests for the command-line frontend."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thresholdgame
from thresholdgame.cli import main
from thresholdgame.dists import MixedCdf


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

    def test_iid_quadrature(self, capsys):
        code, out = run_cli(capsys, "inversion", "--rule", "iid:uniform:0.25,0.75")
        data = json.loads(out)
        assert data["method"] == "quadrature"
        assert data["value"] == pytest.approx(5 / 24, abs=1e-8)

    def test_indep_steps_closed_form(self, capsys):
        code, out = run_cli(capsys, "inversion", "--rule",
                            "indep:step:0.7;step:0.3")
        data = json.loads(out)
        assert code == 0
        assert data["method"] == "closed_form"
        assert data["value"] == pytest.approx(0.5 * (0.09 + 0.16 + 0.09), abs=1e-12)

    def test_indep_general_needs_mc(self, capsys):
        code, _ = run_cli(capsys, "inversion", "--rule",
                          "indep:uniform:0.1,0.9;step:0.5")
        assert code == 2

    def test_mc_estimate(self, capsys):
        code, out = run_cli(capsys, "inversion", "--rule", "same:0.5", "--mc",
                            "--trials", "50000", "--seed", "5")
        data = json.loads(out)
        assert code == 0
        assert data["method"] == "monte_carlo"
        assert data["trials"] == 50000
        assert abs(data["value"] - 0.25) < 4 * data["std_error"]

    @pytest.mark.parametrize("rule, n_firms", [("fixed:0.2,0.5", "3"), ("iid:eq", "1"),
                                               ("same:0.3", "0")])
    @pytest.mark.parametrize("mc", [(), ("--mc", "--trials", "1000")])
    def test_bad_firm_count_exits_2(self, capsys, rule, n_firms, mc):
        code, out = run_cli(capsys, "inversion", "--rule", rule, "--n-firms", n_firms, *mc)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("rule, n_firms", [("fixed:0.2,0.5", "2"), ("iid:eq", "3"),
                                               ("same:0.3", "5")])
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

    @pytest.mark.parametrize("resolution", ["0", "-0.1", "2", "nan", "inf"])
    @pytest.mark.parametrize("command", [("search",), ("poa", "--search")],
                             ids=["search", "poa"])
    def test_bad_resolution_exits_2(self, capsys, command, resolution):
        code, out = run_cli(capsys, *command, "--resolution", resolution)
        assert code == 2
        assert out == ""


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
    # The runtime needs only numpy; scipy is a test-only oracle.
    src = str(Path(thresholdgame.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, thresholdgame.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# Exact stdout captured from an earlier commit: the 11 benchmark CLI calls,
# plus verify on eq[0, 1], eq[0.2, 0.4] (step regime) and a step, and the
# equilibrium on [0, 1].  `search` is left out: its ninth digit is noise.
GOLDEN_STDOUT = json.loads((Path(__file__).parent / "golden" / "cli_stdout.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_STDOUT, ids=lambda case: " ".join(case["argv"]))
def test_stdout_matches_golden_bytes(capsys, case):
    code, out = run_cli(capsys, *case["argv"])
    assert code == case["exit_code"]
    assert out == case["stdout"]
