"""The benchmark's tracer wraps package functions by name, and its worker
calls them with keyword arguments; the names must exist, and the worker's
calls must run."""

import ast
import importlib.util
import json
import inspect
import pkgutil
from pathlib import Path

import pytest

import thresholdgame
from thresholdgame.dists import MixedCdf

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    """``benchmarks/<name>.py`` as a module, without putting it on the path."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")
WORKER = _load("worker")


@pytest.mark.parametrize("method", TRACER.DIST_METHODS)
def test_dist_method_is_defined_on_mixed_cdf(method):
    # The tracer reads MixedCdf.__dict__, so an inherited name would not do.
    assert method in MixedCdf.__dict__


@pytest.mark.parametrize("module_name, func_name", TRACER.FUNCTIONS)
def test_function_resolves_in_its_module(module_name, func_name):
    module = importlib.import_module(f"thresholdgame.{module_name}")
    assert callable(getattr(module, func_name))


def _worker_keyword_calls() -> dict:
    """``{(module, function): keywords}`` of the worker's ``module.function(...)``
    calls into the package."""
    modules = {m.name for m in pkgutil.iter_modules(thresholdgame.__path__)}
    calls = {}
    for node in ast.walk(ast.parse((BENCHMARKS / "worker.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules and node.keywords):
            key = (node.func.value.id, node.func.attr)
            calls.setdefault(key, set()).update(k.arg for k in node.keywords)
    return calls


WORKER_CALLS = _worker_keyword_calls()


def test_worker_calls_are_found():
    assert WORKER_CALLS[("analysis", "search_best_interval")] == {"resolution", "refine"}
    assert WORKER_CALLS[("engine", "simulate")] == {"n_firms", "trials", "seed"}


@pytest.mark.parametrize("module_name, func_name", sorted(WORKER_CALLS))
def test_worker_keywords_are_parameters(module_name, func_name):
    module = importlib.import_module(f"thresholdgame.{module_name}")
    parameters = inspect.signature(getattr(module, func_name)).parameters
    assert WORKER_CALLS[module_name, func_name] <= set(parameters)


@pytest.mark.parametrize("workload, ops, keys", [
    ("search", [{"resolution": 0.5, "refine": False}], {"a", "b", "value"}),
    ("mc_pair", [{"rule": "iid:eq", "n": 2, "trials": 1000, "seed": 1}],
     {"n_firms", "trials", "seed", "inversion_mean", "inversion_std_error", "win_rates"}),
    ("mc_field", [{"rule": "iid:eq", "n": 3, "trials": 1000, "seed": 2},
                  {"rule": "fixed:0.1,0.5,0.9", "n": 3, "trials": 1000, "seed": 3}],
     {"n_firms", "trials", "seed", "inversion_mean", "inversion_std_error", "win_rates"}),
    ("cli_cold", [["poa"]], None),
])
def test_worker_runs_every_call_it_builds(workload, ops, keys):
    # A tiny plan per workload, run as `worker.py round PLAN` runs it.
    report = WORKER.run_plan("round", {"workload": workload, "ops": ops}, None)
    json.dumps(report)  # the worker prints it as JSON
    # A cli_cold round builds the parser and no calls: the CLI runs in its own process.
    results = report["ops"]
    assert len(results) == (0 if keys is None else len(ops))
    for result in results:
        assert result["error"] is None
        assert set(result["output"]) == keys
