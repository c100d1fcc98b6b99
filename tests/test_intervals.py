"""Interval arithmetic: endpoint products, Minkowski sums, width additivity."""

import math
import sys

import pytest
from hypothesis import example, given, strategies as st

from quantstab.intervals import Interval, interval_product, minkowski_sum, width


def test_constructor_validates_order():
    Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_width_midpoint():
    iv = Interval(0.3, 1.0)
    assert math.isclose(iv.width, 0.7, rel_tol=1e-15)
    assert math.isclose(iv.midpoint, 0.65, rel_tol=1e-15)
    assert width(iv) == iv.width


def test_contains_and_slack():
    iv = Interval(-1.0, 2.0)
    assert iv.contains(-1.0) and iv.contains(2.0) and iv.contains(0.0)
    assert not iv.contains(2.0000001)
    assert iv.contains(2.0000001, slack=1e-6)
    assert Interval(-0.5, 0.5).contains_zero_strictly()
    assert not Interval(0.0, 0.5).contains_zero_strictly()


def test_scaled_shifted():
    iv = Interval(-0.25, 0.5)
    assert iv.scaled(2.0) == Interval(-0.5, 1.0)
    assert iv.scaled(-2.0) == Interval(-1.0, 0.5)
    assert iv.shifted(1.0) == Interval(0.75, 1.5)


# products frozen by hand from the four endpoint candidates
def test_product_positive_interval():
    got = interval_product(Interval(1.5, 2.5), Interval(0.2, 0.4))
    assert got.lo == pytest.approx(0.3, rel=1e-15)
    assert got.hi == 1.0
    assert math.isclose(got.width, 0.7, rel_tol=1e-15)


def test_product_mixed_sign_operand():
    got = interval_product(Interval(1.5, 2.5), Interval(-1.0, 2.0))
    assert got == Interval(-2.5, 5.0)
    assert math.isclose(got.width, 7.5, rel_tol=1e-15)


def test_product_mixed_sign_multiplier():
    got = interval_product(Interval(-0.2, 0.6), Interval(1.0, 2.0))
    assert got == Interval(-0.4, 1.2)
    assert math.isclose(got.width, 1.6, rel_tol=1e-15)


def test_minkowski_sum_frozen():
    terms = [Interval(0.3, 1.0), Interval(-0.4, 1.2), Interval(0.0, 0.0)]
    got = minkowski_sum(terms)
    assert got.lo == pytest.approx(-0.1, rel=1e-15)
    assert got.hi == pytest.approx(2.2, rel=1e-15)


def test_minkowski_sum_empty_rejected():
    with pytest.raises(ValueError):
        minkowski_sum([])


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b))


@given(intervals(), intervals())
def test_product_encloses_pointwise(a, y):
    prod = interval_product(a, y)
    for fa in (a.lo, a.hi, a.midpoint):
        for fy in (y.lo, y.hi, y.midpoint):
            assert prod.contains(fa * fy, slack=1e-9 * (1.0 + abs(fa * fy)))


@given(st.lists(intervals(), min_size=1, max_size=5))
def test_minkowski_width_additive(terms):
    total = minkowski_sum(terms)
    assert math.isclose(
        total.width, sum(t.width for t in terms), rel_tol=1e-12, abs_tol=1e-9
    )


@example(Interval(-999998.0, -999989.0), 9.025759241078049)
@given(intervals(), finite)
def test_scaled_width(iv, c):
    # c*lo and c*hi each round by half an ulp of their own magnitude S, so
    # the scaled width is off by up to 2uS however narrow the interval is;
    # the two width subtractions and |c|*width add at most 3u|c|w <= 6uS,
    # and each of the five roundings at most half the smallest subnormal
    u = sys.float_info.epsilon / 2
    S = max(abs(c * iv.lo), abs(c * iv.hi))
    tol = 9 * u * S + 3 * math.ulp(0.0)
    assert abs(iv.scaled(c).width - abs(c) * iv.width) <= tol
