"""Principal-optimal test assignments.

Three regimes, by decreasing control: one test for everybody (the median
test), a deterministic list of distinct tests (one per firm), and a common
distribution that every firm samples independently (uniform on [1/4, 3/4]).
Deterministic optima are rational, so they are returned as exact fractions;
convert to float at the edges.  The module imports no numpy;
:func:`optimal_iid`, which builds a ``MixedCdf``, imports ``dists`` (and
with it numpy) when called.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from thresholdgame._checks import _as_count

if TYPE_CHECKING:
    from thresholdgame.dists import MixedCdf

__all__ = ["OPTIMAL_IID_VALUE", "CorrelatedOptimum", "SameTestOptimum", "optimal_correlated",
           "optimal_iid", "optimal_same_test", "optimal_value_correlated"]

#: Error probability of the optimal i.i.d. rule (uniform tests on [1/4, 3/4]).
OPTIMAL_IID_VALUE = Fraction(5, 24)


class SameTestOptimum(NamedTuple):
    theta: Fraction
    value: Fraction


class CorrelatedOptimum(NamedTuple):
    thresholds: tuple[Fraction, ...]
    value: Fraction


def optimal_same_test() -> SameTestOptimum:
    """The best single test for both firms: the median, erring 1/4 of the time."""
    return SameTestOptimum(theta=Fraction(1, 2), value=Fraction(1, 4))


def optimal_value_correlated(n: int) -> Fraction:
    """Best achievable fraction of inverted pairs with n correlated tests."""
    n = _as_count(n, "n")
    if n < 2:
        raise ValueError("need at least two firms")
    return Fraction(5 * n - 4, 12 * (2 * n - 1))


def optimal_correlated(n: int = 2) -> CorrelatedOptimum:
    """The best deterministic test list for ``n`` firms.

    Thresholds are evenly spaced, symmetric about 1/2, and spread over an
    interval that widens toward [1/4, 3/4] as ``n`` grows.
    """
    n = _as_count(n, "n")
    if n < 2:
        raise ValueError("need at least two firms")
    thresholds = tuple(Fraction(n + 2 * (i - 1), 4 * n - 2) for i in range(1, n + 1))
    return CorrelatedOptimum(thresholds=thresholds, value=optimal_value_correlated(n))


def optimal_iid() -> MixedCdf:
    """The best common sampling distribution: uniform tests on [1/4, 3/4]."""
    from thresholdgame.dists import MixedCdf

    return MixedCdf.uniform(0.25, 0.75)
