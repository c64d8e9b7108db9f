"""Shared test helpers: seeded random mixed piecewise-linear cdfs, the
verifier's inputs for a batch of interval cells, checks on the forked
workers of a call, and probes run in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thresholdgame
from thresholdgame.dists import MixedCdf, _piece_table
from thresholdgame.equilibrium import _interval_params, _linear_form, _peaks


def run_probe(probe: str) -> str:
    """Stdout of ``python -c probe`` in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(thresholdgame.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def random_mixed_piecewise_linear(rng: np.random.Generator) -> MixedCdf:
    """Draw a random mixed piecewise-linear cdf on [0, 1].

    Interior breakpoints are uniform order statistics; exponential weights are
    split between linear pieces and atoms at the breakpoints, with some
    weights zeroed so plateaus and purely continuous draws both occur.
    """
    while True:
        k = int(rng.integers(2, 7))
        xs = np.sort(rng.uniform(0.0, 1.0, size=k))
        xs = np.concatenate(([0.0], xs, [1.0]))
        if np.min(np.diff(xs)) > 1e-3:
            break
    n_seg = len(xs) - 1
    seg_w = rng.exponential(1.0, size=n_seg) * (rng.random(n_seg) > 0.25)
    atom_w = rng.exponential(1.0, size=len(xs)) * (rng.random(len(xs)) > 0.5)
    if seg_w[-1] == 0.0 and atom_w[-1] == 0.0:
        atom_w[-1] = rng.exponential(1.0)
    total = seg_w.sum() + atom_w.sum()
    seg_w /= total
    atom_w /= total

    knots = [(0.0, atom_w[0])] if atom_w[0] > 0.0 else [(0.0, 0.0)]
    v = atom_w[0]
    for i in range(1, len(xs)):
        v += seg_w[i - 1]
        knots.append((float(xs[i]), float(v)))
        if atom_w[i] > 0.0:
            v += atom_w[i]
            knots.append((float(xs[i]), float(v)))
    knots[-1] = (1.0, 1.0)
    return MixedCdf.piecewise_linear(knots)


def verifier_inputs(cells):
    """``(table, form, a, b, peaks)`` of the interval cells ``cells``, (a, b)
    pairs, as the interval search passes them to ``equilibrium._verify``."""
    a, b = np.array(cells, dtype=float).reshape(-1, 2).T
    table = _piece_table(*_interval_params(a, b)[2])
    form = _linear_form(table)
    return table, form, a, b, _peaks(table, form, a, b)


def no_child_left() -> None:
    """Assert that this process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch) -> list:
    """Record every ``os.fork`` call; returns the record."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks
