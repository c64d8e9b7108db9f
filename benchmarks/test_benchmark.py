"""Tests of the benchmark's own checks, inputs and tracer.

Run from the root of a checkout: ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from thresholdgame import cli  # noqa: E402


def cli_output(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def cli_outputs():
    return {argv: cli_output(argv) for argv in run.CLI_CALLS}


def perturbed(stdout: str, path: tuple, delta: float) -> str:
    data = json.loads(stdout)
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] += delta
    return json.dumps(data)


def test_every_cli_call_passes_its_check(cli_outputs):
    for argv, (code, stdout) in cli_outputs.items():
        assert checks.check_cli(argv, code, stdout) is None, argv


@pytest.mark.parametrize("argv, path", [
    (("inversion", "--rule", "iid:eq"), ("value",)),
    (("inversion", "--rule", "iid:eq:0,0.79"), ("value",)),
    (("inversion", "--rule", "fixed:0.1,0.3,0.5,0.7,0.9"), ("value",)),
    (("poa",), ("eq_restricted_best", "value")),
    (("equilibrium", "--a", "0", "--b", "0.79", "--dump-cdf", "101"), ("atom_b",)),
    (("equilibrium", "--a", "0", "--b", "0.79", "--dump-cdf", "101"),
     ("cdf_dump", "rows", 40, 1)),
])
def test_perturbed_value_fails(cli_outputs, argv, path):
    code, stdout = cli_outputs[argv]
    assert checks.check_cli(argv, code, perturbed(stdout, path, 1e-6)) is not None


def test_exact_rational_mismatch_fails(cli_outputs):
    code, stdout = cli_outputs[("optimal", "iid")]
    assert checks.check_cli(("optimal", "iid"), code,
                            stdout.replace('"5/24"', '"5/23"')) is not None


def test_nonzero_exit_fails(cli_outputs):
    code, stdout = cli_outputs[("verify", "--rule", "iid:eq")]
    assert checks.check_cli(("verify", "--rule", "iid:eq"), 1, stdout) is not None
    assert checks.check_cli(("poa",), 2, "") is not None


def test_unknown_input_fails():
    assert checks.check_cli(("inversion", "--rule", "iid:uniform:0,1"), 0,
                            '{"value": 0.25}') is not None
    op = {"rule": "iid:uniform:0,1", "n": 2, "trials": 10, "seed": 0}
    assert checks.check_simulate(op, {}) is not None


def test_simulate_check_uses_standard_errors():
    op = {"rule": "iid:eq", "n": 3, "trials": 1000, "seed": 5}
    out = {"n_firms": 3, "trials": 1000, "seed": 5, "inversion_std_error": 1e-3,
           "inversion_mean": checks.IID_VALUES["eq"] + 3.9e-3, "win_rates": [0.5, 0.25, 0.25]}
    assert checks.check_simulate(op, out) is None
    assert checks.check_simulate(op, {**out, "inversion_mean": out["inversion_mean"] + 2e-4})
    assert checks.check_simulate(op, {**out, "inversion_std_error": 0.0})
    assert checks.check_simulate(op, {**out, "trials": 999})


def test_search_check():
    good = {"a": 0.014708052758311817, "b": 0.7997402998161459, "value": 0.2296834727452811}
    assert checks.check_search(run.SEARCH, good) is None
    assert checks.check_search(run.SEARCH, {**good, "b": 0.79}) is not None
    assert checks.check_search(run.SEARCH, {**good, "value": good["value"] + 1e-6}) is not None
    assert checks.check_search({**run.SEARCH, "resolution": 0.02}, good) is not None


def test_closed_forms():
    assert checks.rule_value("same:0.5") == checks.Fraction(1, 4)
    assert checks.rule_value("fixed:0.25,0.75") == checks.Fraction(3, 16)
    assert checks.rule_value("indep:step:0.75;step:0.25") == checks.Fraction(3, 16)
    assert checks.correlated_value(2) == checks.Fraction(1, 6)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert run.round_plan(workload, random.Random(7)) == run.round_plan(workload, random.Random(7))


def test_seed_changes_monte_carlo_inputs():
    assert (run.round_plan("mc_pair", random.Random(7))
            != run.round_plan("mc_pair", random.Random(8)))


@pytest.mark.parametrize("workload", ["mc_field", "mc_pair"])
def test_same_seed_same_monte_carlo_outputs(workload):
    plan = run.round_plan(workload, random.Random(11))
    ops = [{**op, "trials": 5000} for op in plan["ops"]]
    first = [call() for call in worker.build(workload, ops)]
    second = [call() for call in worker.build(workload, ops)]
    assert first == second
    for op, out in zip(ops, first):
        assert checks.check_simulate(op, out) is None


def _package_state():
    from thresholdgame.dists import MixedCdf

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "thresholdgame" or name.startswith("thresholdgame.")]
    state = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    state.update({("MixedCdf", k): v for k, v in vars(MixedCdf).items()})
    return state


def test_tracing_restores_the_package():
    import thresholdgame as tg
    from thresholdgame import analysis
    from thresholdgame.dists import MixedCdf

    before = _package_state()
    original_cdf = MixedCdf.cdf
    original_verify = analysis.verify_equilibrium
    expected = tg.inversion_iid(tg.optimal_iid()).value

    t = tracer.Tracer()
    t.install()
    try:
        assert MixedCdf.cdf is not original_cdf
        assert analysis.verify_equilibrium is not original_verify
        assert tg.inversion_iid(tg.optimal_iid()).value == expected
        tg.verify_equilibrium(tg.equilibrium_interval(0.0, 0.79), grid_size=1000)
    finally:
        t.uninstall()

    after = _package_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    summary = t.summary()
    assert summary["inversion.inversion_iid.uniform"]["calls"] == 1
    assert summary["equilibrium.verify_equilibrium"]["calls"] == 1
    assert summary["dists.support_contains"]["calls"] > 0
    roots = sum(end - start for end, start, parent in zip(t.end, t.start, t.parent)
                if parent < 0)
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(roots)
    assert all(s["self_s"] >= 0.0 for s in summary.values())
