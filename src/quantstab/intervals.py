"""Closed-interval arithmetic for set-valued output estimates.

A set is the float pair (lo, hi) of its endpoints; no class wraps it. Only
the operations the estimator needs: exact products with an uncertain
coefficient interval and Minkowski sums. Widths are additive under the sum,
which is what makes the scaling recursion exact. The closed loop's step
evaluates the expressions of `interval_product` and `minkowski_sum` inline,
in their order; these functions are its reference route.
"""

from __future__ import annotations


def check_hull(lo: float, hi: float) -> None:
    """Raise ValueError unless lo <= hi; a nan endpoint fails too."""
    if not (lo <= hi):
        raise ValueError(f"malformed interval: lo={lo} > hi={hi}")


def hull_contains(lo: float, hi: float, x: float, slack: float = 0.0) -> bool:
    return lo - slack <= x <= hi + slack


def interval_product(
    a_lo: float, a_hi: float, y_lo: float, y_hi: float
) -> tuple[float, float]:
    """Exact set product [a_lo, a_hi] * [y_lo, y_hi] = {u*v : u in a, v in y}.

    The hull of the four endpoint products; exact because both sets are
    intervals. Raises ValueError when a nan product makes it malformed.
    """
    ps = (a_lo * y_lo, a_lo * y_hi, a_hi * y_lo, a_hi * y_hi)
    lo, hi = min(ps), max(ps)
    check_hull(lo, hi)
    return lo, hi


def minkowski_sum(terms) -> tuple[float, float]:
    """Elementwise sum of a nonempty sequence of (lo, hi) sets, from 0.0.

    Raises ValueError on an empty sequence, and when the sum is malformed,
    as a nan from an overflowed product makes it.
    """
    if not terms:
        raise ValueError("minkowski_sum of an empty collection")
    lo = 0.0
    hi = 0.0
    for t_lo, t_hi in terms:
        lo += t_lo
        hi += t_hi
    check_hull(lo, hi)
    return lo, hi
