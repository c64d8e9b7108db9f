"""Every name the package or one of its modules lists in ``__all__``
resolves, so that ``from thresholdgame.<module> import *`` cannot break on a
stale entry."""

import importlib
import pkgutil

import pytest

import thresholdgame

MODULES = ["thresholdgame",
           *(f"thresholdgame.{m.name}" for m in pkgutil.iter_modules(thresholdgame.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []
    exec(f"from {name} import *", {})


def test_package_names_follow_their_module(monkeypatch):
    # The package resolves each name in its module on every read, so a
    # function replaced there (as the benchmark's tracer does) is seen here.
    from thresholdgame import engine

    replacement = lambda *args, **kwargs: None  # noqa: E731
    monkeypatch.setattr(engine, "simulate", replacement)
    assert thresholdgame.simulate is replacement
    assert "simulate" not in vars(thresholdgame)
