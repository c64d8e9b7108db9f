"""The benchmark's tracer wraps package functions by name; they must exist."""

import importlib.util
from pathlib import Path

import pytest

from thresholdgame.dists import MixedCdf

TRACER_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


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
