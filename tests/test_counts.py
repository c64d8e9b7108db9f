"""Every public count or seed parameter takes whole numbers only.

``int`` would turn 2.5 into another count (2 firms, seed 1 for 1.7) or fail
with TypeError or OverflowError, and a bool would pass as 1 or 0 (one trial
with seed 0 for ``simulate(rule, trials=True, seed=False)``); each entry
point raises ValueError instead.
"""

import math

import numpy as np
import pytest

from conftest import run_probe
from thresholdgame.analysis import poa_report
from thresholdgame.dists import MixedCdf
from thresholdgame.engine import IidRule, InversionEstimate, simulate
from thresholdgame.equilibrium import equilibrium_unrestricted, verify_equilibrium
from thresholdgame.inversion import optimal_value_correlated, suboptimality_bound
from thresholdgame.optimal import optimal_correlated

RULE = IidRule(MixedCdf.uniform(0.25, 0.75))
EQ = equilibrium_unrestricted()

#: name -> (call taking the count, a value the parameter accepts)
CALLS = {
    "optimal_value_correlated(n)": (optimal_value_correlated, 2),
    "optimal_correlated(n)": (optimal_correlated, 2),
    "poa_report(n)": (lambda v: poa_report(n=v), 2),
    "simulate(n_firms)": (lambda v: simulate(RULE, n_firms=v, trials=10), 2),
    "simulate(trials)": (lambda v: simulate(RULE, trials=v), 1000),
    "simulate(seed)": (lambda v: simulate(RULE, trials=10, seed=v), 1),
    "InversionEstimate(trials)": (lambda v: InversionEstimate(0.2, "monte_carlo", 1e-3, v), 100),
    "verify_equilibrium(grid_size)": (lambda v: verify_equilibrium(EQ, grid_size=v), 1000),
    "suboptimality_bound(grid_size)": (lambda v: suboptimality_bound(EQ.dist, grid_size=v),
                                       1000),
}


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("offset", [0.5, 0.7, math.nan, math.inf])
def test_rejects_a_value_that_is_not_a_whole_number(name, offset):
    call, good = CALLS[name]
    with pytest.raises(ValueError, match="must be a whole number"):
        call(good + offset)


@pytest.mark.parametrize("name", CALLS)
def test_rejects_a_string(name):
    call, good = CALLS[name]
    with pytest.raises(ValueError, match="must be a whole number"):
        call(str(good))


@pytest.mark.parametrize("name", CALLS)
def test_accepts_a_whole_float(name):
    call, good = CALLS[name]
    assert call(float(good)) == call(good)


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_rejects_a_bool(name, flag):
    call, _ = CALLS[name]
    with pytest.raises(ValueError, match="must be a whole number"):
        call(flag)


# The count check lives in a module without numpy, so it can tell a numpy
# bool only by finding numpy loaded; these pin its messages.
@pytest.mark.parametrize("call, flag, message", [
    (optimal_correlated, True, "n must be a whole number, got True"),
    (optimal_correlated, np.True_, "n must be a whole number, got np.True_"),
    (lambda v: simulate(RULE, trials=v), np.True_, "trials must be a whole number, got np.True_"),
])
def test_bool_messages(call, flag, message):
    with pytest.raises(ValueError) as excinfo:
        call(flag)
    assert str(excinfo.value) == message


def test_numpy_bool_is_rejected_when_numpy_loads_after_the_check():
    probe = ("import sys\n"
             "from thresholdgame.optimal import optimal_correlated\n"
             "before = 'numpy' in sys.modules\n"
             "import numpy as np\n"
             "try:\n"
             "    optimal_correlated(np.True_)\n"
             "except ValueError as exc:\n"
             "    print(before, exc)\n")
    assert run_probe(probe) == "False n must be a whole number, got np.True_"
