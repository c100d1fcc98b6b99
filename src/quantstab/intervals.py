"""Closed-interval arithmetic for set-valued output estimates.

Only the operations the estimator needs: exact products with an uncertain
coefficient interval and Minkowski sums. Widths are additive under the sum,
which is what makes the scaling recursion exact.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] on the real line."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        check_hull(self.lo, self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return hull_midpoint(self.lo, self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return hull_contains(self.lo, self.hi, x, slack)


# Float-level rules on the endpoints (lo, hi) of a set. The Interval methods
# and functions wrap them, and the closed loop calls them directly.


def check_hull(lo: float, hi: float) -> None:
    """Raise ValueError unless lo <= hi; a nan endpoint fails too."""
    if not (lo <= hi):
        raise ValueError(f"malformed interval: lo={lo} > hi={hi}")


def hull_midpoint(lo: float, hi: float) -> float:
    return 0.5 * (lo + hi)


def hull_contains(lo: float, hi: float, x: float, slack: float = 0.0) -> bool:
    return lo - slack <= x <= hi + slack


def hull_product(
    a_lo: float, a_hi: float, y_lo: float, y_hi: float
) -> tuple[float, float]:
    """Endpoints of the set product [a_lo, a_hi] * [y_lo, y_hi].

    The hull of the four endpoint products; exact because both sets are
    intervals. Works on plain floats so the closed loop can call it per step.
    """
    ps = (a_lo * y_lo, a_lo * y_hi, a_hi * y_lo, a_hi * y_hi)
    return min(ps), max(ps)


def interval_product(a: Interval, y: Interval) -> Interval:
    """Exact set product a*y = {u*v : u in a, v in y}."""
    return Interval(*hull_product(a.lo, a.hi, y.lo, y.hi))


def minkowski_sum(terms: list[Interval] | tuple[Interval, ...]) -> Interval:
    """Elementwise sum of a nonempty collection of intervals."""
    if not terms:
        raise ValueError("minkowski_sum of an empty collection")
    return Interval(*hull_sum([(t.lo, t.hi) for t in terms]))


def hull_sum(terms) -> tuple[float, float]:
    """Endpoints of the Minkowski sum of the (lo, hi) terms, summed from 0.0.

    Raises ValueError when the sum is malformed, as a nan from an overflowed
    product makes it.
    """
    lo = 0.0
    hi = 0.0
    for t_lo, t_hi in terms:
        lo += t_lo
        hi += t_hi
    check_hull(lo, hi)
    return lo, hi
