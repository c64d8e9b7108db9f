"""One rule for evaluation points: a ``theta`` where a quantity is read, or
``inverse``'s ``u``, may lie up to 1e-12 outside [0, 1] and then reads as
the nearest end; NaN and anything further out raise.

Every entry point applies the rule before anything else reads the point,
so the value just outside an end equals the value at that end bit for bit,
atoms and the half-tie at them included.
"""

import math

import pytest

from thresholdgame.dists import MixedCdf, quantile_to_quality
from thresholdgame.equilibrium import (
    equilibrium_interval,
    selection_probabilities,
    selection_probability,
    win_probabilities,
)

DISTS = {
    "step(0)": MixedCdf.step(0.0),
    "step(1)": MixedCdf.step(1.0),
    "uniform(0.25, 0.75)": MixedCdf.uniform(0.25, 0.75),
    "eq[0, 0.79]": equilibrium_interval(0.0, 0.79).dist,
}

#: name -> call on (dist, point); array results come back as lists.
ENTRY_POINTS = {
    "cdf": lambda d, x: d.cdf(x),
    "left_limit": lambda d, x: d.left_limit(x),
    "cdf_integral": lambda d, x: d.cdf_integral(x),
    "pdf": lambda d, x: d.pdf(x),
    "atom_mass": lambda d, x: d.atom_mass(x),
    "support_mask": lambda d, x: d.support_mask([x]).tolist(),
    "inverse": lambda d, x: d.inverse([x]).tolist(),
    "selection_probabilities": lambda d, x: selection_probabilities([x], d).tolist(),
    "selection_probability": lambda d, x: selection_probability(x, d),
    "win_probabilities": lambda d, x: win_probabilities(x, d),
    # cdf_integral(p) + p is strictly increasing, as a prior inverse must be.
    "quantile_to_quality": lambda d, x: quantile_to_quality(x, lambda p: d.cdf_integral(p) + p),
}


@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_rounding_slack_reads_as_the_nearest_end(entry, dist):
    call, d = ENTRY_POINTS[entry], DISTS[dist]
    assert call(d, 1.0 + 1e-13) == call(d, 1.0)
    assert call(d, -1e-13) == call(d, 0.0)


@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [1.0 + 1e-11, -1e-11, math.nan])
def test_rejects_points_beyond_the_slack(entry, dist, bad):
    with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
        ENTRY_POINTS[entry](DISTS[dist], bad)
