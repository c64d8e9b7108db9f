"""Every public parameter in [0, 1] takes numbers only, and every rule takes
distributions only.

A rule threshold, a quality, a step location, a bound of a uniform, of an
equilibrium's interval or of the interval of ``candidate_solution`` and
``best_response_value``, a threshold of ``inversion_fixed`` or the search's
resolution is checked before it is converted with ``float()``: a bool would
otherwise pass as 1.0 or 0.0 (``SameTest(True)`` simulated as a test of
difficulty 1), and a string such as "0.5" as a number.  A ``Fraction`` stays
accepted.  The search's two switches, ``refine`` and ``run_search``, take
bools only: the string "no" would otherwise switch the refinement on.  A
rule built on anything but a ``MixedCdf`` raises when it is made, not when
``simulate`` first draws from it.
"""

from fractions import Fraction

import numpy as np
import pytest

from thresholdgame.dists import MixedCdf
from thresholdgame.engine import (
    FixedThresholds,
    IidRule,
    IndependentRule,
    SameTest,
    kendall_tau_fraction,
    play_game,
)
from thresholdgame.analysis import poa_report, search_best_interval
from thresholdgame.equilibrium import (
    best_response_value,
    candidate_solution,
    equilibrium_interval,
    equilibrium_unrestricted,
)
from thresholdgame.inversion import inversion_fixed

EQ = equilibrium_unrestricted().dist

#: name -> call taking the parameter; every call accepts 0.5 and any other
#: real number in [0, 1] it is given below.
CALLS = {
    "SameTest(theta)": SameTest,
    "FixedThresholds(thresholds)": lambda v: FixedThresholds((v, 0.5)),
    "play_game(thresholds)": lambda v: play_game((v, 0.5), (0.3, 0.9),
                                                 np.random.default_rng(0)),
    "play_game(qualities)": lambda v: play_game((0.5, 0.5), (v, 0.2),
                                                np.random.default_rng(0)),
    "kendall_tau_fraction(qualities)": lambda v: kendall_tau_fraction((0, 1), (v, 0.2)),
    "inversion_fixed(thresholds)": lambda v: inversion_fixed((0.25, v)),
    "MixedCdf.step(at)": MixedCdf.step,
    "MixedCdf.uniform(lo)": lambda v: MixedCdf.uniform(v, 0.75),
    "MixedCdf.uniform(hi)": lambda v: MixedCdf.uniform(0.25, v),
    "equilibrium_interval(a)": lambda v: equilibrium_interval(v, 0.75),
    "equilibrium_interval(b)": lambda v: equilibrium_interval(0.25, v),
    "candidate_solution(interval a)": lambda v: candidate_solution(MixedCdf.uniform(0.5, 0.75),
                                                                   (v, 0.75)),
    "candidate_solution(interval b)": lambda v: candidate_solution(MixedCdf.uniform(0.25, 0.5),
                                                                   (0.25, v)),
    "best_response_value(interval lo)": lambda v: best_response_value(EQ, interval=(v, 0.75)),
    "best_response_value(interval hi)": lambda v: best_response_value(EQ, interval=(0.25, v)),
    "search_best_interval(resolution)": lambda v: search_best_interval(refine=False,
                                                                       resolution=v),
}


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_rejects_a_bool(name, flag):
    with pytest.raises(ValueError, match="must be a number"):
        CALLS[name](flag)


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("value", ["0.5", b"0.5", None, 0.5j, [0.5], np.str_("0.5")])
def test_rejects_what_is_not_a_real_number(name, value):
    with pytest.raises(ValueError, match="must be a number"):
        CALLS[name](value)


#: name -> call taking a switch; every call accepts False and True.
SWITCHES = {
    "search_best_interval(refine)": lambda v: search_best_interval(refine=v, resolution=1.0),
    "poa_report(run_search)": lambda v: poa_report(run_search=v, resolution=1.0),
}


@pytest.mark.parametrize("name", SWITCHES)
@pytest.mark.parametrize("value", ["no", "yes", "", 0, 1, 1.0, None])
def test_a_switch_rejects_what_is_not_a_bool(name, value):
    with pytest.raises(ValueError, match="must be a bool"):
        SWITCHES[name](value)


@pytest.mark.parametrize("name", SWITCHES)
def test_a_switch_accepts_a_bool(name):
    assert SWITCHES[name](np.False_) == SWITCHES[name](False)
    SWITCHES[name](True)


def test_interval_bounds_reject_bools():
    with pytest.raises(ValueError, match="must be a number"):
        MixedCdf.uniform(False, True)
    with pytest.raises(ValueError, match="must be a number"):
        equilibrium_interval(False, True)


@pytest.mark.parametrize("name", CALLS)
def test_accepts_a_fraction(name):
    call = CALLS[name]
    assert call(Fraction(1, 2)) == call(0.5)


def test_same_test_stores_a_float():
    for theta in (Fraction(1, 2), np.float64(0.5), 0.5):
        assert type(SameTest(theta).theta) is float
    assert SameTest(Fraction(1, 2)) == SameTest(0.5)


@pytest.mark.parametrize("make", [
    lambda: IidRule("eq"),
    lambda: IidRule(None),
    lambda: IndependentRule(("eq", EQ)),
    lambda: IndependentRule([EQ, 0.5]),
    lambda: IndependentRule("eq"),
])
def test_a_rule_rejects_what_is_not_a_distribution(make):
    with pytest.raises(ValueError, match="must be a MixedCdf"):
        make()


def test_independent_rule_stores_a_tuple():
    rule = IndependentRule([EQ, EQ])
    assert type(rule.dists) is tuple
    assert rule == IndependentRule((EQ, EQ))
    hash(rule)
