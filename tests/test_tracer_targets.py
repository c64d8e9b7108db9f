"""The benchmark's tracer wraps package functions by name, and its worker
calls them with keyword arguments; the names must exist."""

import ast
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import thresholdgame
from thresholdgame.dists import MixedCdf

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
TRACER_PATH = BENCHMARKS / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


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
