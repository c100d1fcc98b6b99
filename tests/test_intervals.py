"""Interval arithmetic on (lo, hi) pairs: products, Minkowski sums, width additivity."""

import math

import pytest
from hypothesis import given, strategies as st

from quantstab.intervals import (
    check_hull,
    hull_contains,
    interval_product,
    minkowski_sum,
)


def test_check_hull_validates_order():
    check_hull(1.0, 1.0)
    with pytest.raises(ValueError, match="malformed interval"):
        check_hull(2.0, 1.0)
    with pytest.raises(ValueError, match="malformed interval"):
        check_hull(math.nan, 1.0)


def test_contains_and_slack():
    assert hull_contains(-1.0, 2.0, -1.0)
    assert hull_contains(-1.0, 2.0, 2.0) and hull_contains(-1.0, 2.0, 0.0)
    assert not hull_contains(-1.0, 2.0, 2.0000001)
    assert hull_contains(-1.0, 2.0, 2.0000001, slack=1e-6)


# products frozen by hand from the four endpoint candidates
def test_product_positive_interval():
    lo, hi = interval_product(1.5, 2.5, 0.2, 0.4)
    assert lo == pytest.approx(0.3, rel=1e-15)
    assert hi == 1.0
    assert math.isclose(hi - lo, 0.7, rel_tol=1e-15)


def test_product_mixed_sign_operand():
    assert interval_product(1.5, 2.5, -1.0, 2.0) == (-2.5, 5.0)


def test_product_mixed_sign_multiplier():
    lo, hi = interval_product(-0.2, 0.6, 1.0, 2.0)
    assert (lo, hi) == (-0.4, 1.2)
    assert math.isclose(hi - lo, 1.6, rel_tol=1e-15)


def test_product_nan_is_malformed():
    # 0 * inf is nan: the product is no set
    with pytest.raises(ValueError, match="malformed interval"):
        interval_product(0.0, 1.0, math.inf, math.inf)


def test_minkowski_sum_frozen():
    lo, hi = minkowski_sum([(0.3, 1.0), (-0.4, 1.2), (0.0, 0.0)])
    assert lo == pytest.approx(-0.1, rel=1e-15)
    assert hi == pytest.approx(2.2, rel=1e-15)


def test_minkowski_sum_empty_rejected():
    with pytest.raises(ValueError):
        minkowski_sum([])


def test_minkowski_sum_malformed_rejected():
    # -inf + inf is nan, as two overflowed products make it
    with pytest.raises(ValueError, match="malformed interval"):
        minkowski_sum([(-math.inf, -math.inf), (math.inf, math.inf)])


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return min(a, b), max(a, b)


@given(intervals(), intervals())
def test_product_encloses_pointwise(a, y):
    lo, hi = interval_product(*a, *y)
    for fa in (a[0], a[1], 0.5 * (a[0] + a[1])):
        for fy in (y[0], y[1], 0.5 * (y[0] + y[1])):
            assert hull_contains(lo, hi, fa * fy, slack=1e-9 * (1.0 + abs(fa * fy)))


@given(st.lists(intervals(), min_size=1, max_size=5))
def test_minkowski_width_additive(terms):
    lo, hi = minkowski_sum(terms)
    assert math.isclose(
        hi - lo, sum(t_hi - t_lo for t_lo, t_hi in terms), rel_tol=1e-12, abs_tol=1e-9
    )
