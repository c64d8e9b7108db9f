"""Float-hex goldens of the payoff, verification and error-sum paths.

Captured from an earlier commit for the cdfs of ``cdf_float_hex.json`` plus
eq[0.2, 0.5] (step regime) and eq[0, 1], at the same theta: the error
``inversion_iid``, both ``hybrid_decompose`` coefficients, the selection
probability and support at every theta, and the ``verify_equilibrium``
margins at grids 1000 and 10,000 (of ``candidate_solution`` on [0, 1], and
of an equilibrium on its own interval).  The batched interval search's
values and margins are captured for every cell of the 0.05 grid.  The
uniform cdf on [0, 1], added later, has a support margin set by a critical
point of its line piece, 1/2 - sqrt(1/12), which its theta includes with
the other one: a verifier that missed those points would change its bits.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from thresholdgame.dists import MixedCdf
from thresholdgame.equilibrium import (
    _interval_cells,
    candidate_solution,
    equilibrium_interval,
    selection_probabilities,
    verify_equilibrium,
)
from thresholdgame.inversion import hybrid_decompose, inversion_iid

GOLDEN = json.loads((Path(__file__).parent / "golden" / "paths_float_hex.json").read_text())


def hexes(values):
    return [float(v).hex() for v in np.asarray(values, dtype=float).tolist()]


@pytest.mark.parametrize("name", GOLDEN["cdfs"])
def test_cdf_paths_keep_their_bits(name):
    golden = GOLDEN["cdfs"][name]
    d = MixedCdf.from_json(golden["json"])
    theta = np.array([float.fromhex(h) for h in golden["theta"]])
    assert inversion_iid(d).value.hex() == golden["inversion_iid"]
    h = hybrid_decompose(d)
    assert [h.a_coeff.hex(), h.b_coeff.hex()] == golden["hybrid"]
    assert hexes(selection_probabilities(theta, d)) == golden["selection"]
    assert d.support_mask(theta).tolist() == golden["support"]
    sols = {"candidate": candidate_solution(d)}
    if (d.family or ())[:1] == ("eq_interval",):
        sols["own"] = equilibrium_interval(*d.family[1:])
    assert {f"verify_{label}_{grid}" for label in sols for grid in (1000, 10_000)} == {
        key for key in golden if key.startswith("verify")}
    for label, sol in sols.items():
        for grid in (1000, 10_000):
            report = verify_equilibrium(sol, grid_size=grid, tol=1e-8)
            assert [report.max_support_deviation.hex(), report.max_outside_gain.hex(),
                    report.passed] == golden[f"verify_{label}_{grid}"]


def test_interval_cells_keep_their_bits():
    golden = GOLDEN["cells"]
    a, b = (np.array([float.fromhex(h) for h in golden[key]]) for key in ("a", "b"))
    assert len(a) == 210
    value, support_dev, outside_gain = _interval_cells(a, b)
    assert hexes(value) == golden["value"]
    assert hexes(support_dev) == golden["max_support_deviation"]
    assert hexes(outside_gain) == golden["max_outside_gain"]
