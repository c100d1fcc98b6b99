"""Quantizer layouts, encode/decode, expansion rates, closed-form worst rate.

Frozen boundary and rate values come from an exact rational solve of the
rate-equalization linear system (all cell rates equal), independently of the
geometric closed form implemented by the package.
"""

import math

import pytest
from hypothesis import given, strategies as st

from quantstab.intervals import hull_contains
from quantstab.plant import UncertainPlant
from quantstab.quantizer import (
    QuantizerSpec,
    SaturationError,
    coefficient_expansion_rates,
    decode,
    encode,
    expansion_profile,
    optimal_boundaries,
    quantizer_for,
    uniform_boundaries,
    v_rate,
)

REL = 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        QuantizerSpec(1, (0.0, 0.5))
    with pytest.raises(ValueError):
        QuantizerSpec(4, (0.0, 0.5))  # wrong boundary count
    with pytest.raises(ValueError):
        QuantizerSpec(4, (0.1, 0.3, 0.5))  # h_0 != 0
    with pytest.raises(ValueError):
        QuantizerSpec(4, (0.0, 0.3, 0.4))  # h_K != 1/2
    with pytest.raises(ValueError):
        QuantizerSpec(4, (0.0, 0.3, 0.3, 0.5))  # wrong count again
    with pytest.raises(ValueError):
        QuantizerSpec(6, (0.0, 0.3, 0.2, 0.5))  # not increasing


def test_uniform_boundaries():
    assert uniform_boundaries(4).h == (0.0, 0.25, 0.5)
    assert uniform_boundaries(2).h == (0.0, 0.5)
    assert uniform_boundaries(5).h == (0.0, 0.1, 0.3, 0.5)
    assert uniform_boundaries(3).h == (0.0, 1 / 6, 0.5)


def test_cells_partition():
    q = uniform_boundaries(5)
    cs = [decode(q, s, 1.0) for s in range(1, 6)]
    assert cs[0] == (-0.5, -0.3)
    assert cs[2] == (-0.1, 0.1)  # center cell straddles 0
    assert cs[-1] == (0.3, 0.5)
    assert all(a[1] == b[0] for a, b in zip(cs, cs[1:]))
    assert q.edges == (-0.5, -0.3, -0.1, 0.1, 0.3, 0.5)


def test_encode_conventions():
    q = uniform_boundaries(4)
    assert encode(q, -0.5) == 1
    assert encode(q, -0.25) == 2  # boundary goes right
    assert encode(q, 0.0) == 3
    assert encode(q, 0.25) == 4
    assert encode(q, 0.5) == 4  # +1/2 folds into the top cell
    assert encode(q, 0.24999999) == 3


def test_encode_saturation_strict():
    q = uniform_boundaries(4)
    with pytest.raises(SaturationError):
        encode(q, 0.5000001)
    with pytest.raises(SaturationError):
        encode(q, -0.6)


def test_decode_frozen():
    q = uniform_boundaries(4)
    assert decode(q, 1, 2.0) == (-1.0, -0.5)
    assert decode(q, 4, 2.0) == (0.5, 1.0)
    with pytest.raises(ValueError):
        decode(q, 0, 1.0)
    with pytest.raises(ValueError):
        decode(q, 5, 1.0)
    with pytest.raises(ValueError):
        decode(q, 1, 0.0)
    # a nan scaling passes the sign check and makes a malformed hull
    with pytest.raises(ValueError, match="malformed interval"):
        decode(q, 1, math.nan)


def test_optimal_boundaries_frozen_even():
    # exact rational solution of the equal-rate system at lam=3, eps=1/2, N=8
    q = optimal_boundaries(3.0, 0.5, 8)
    expect = (0.0, 0.19313063063063063, 0.3310810810810811, 0.42961711711711714, 0.5)
    assert all(math.isclose(a, b, rel_tol=REL, abs_tol=1e-15) for a, b in zip(q.h, expect))


def test_optimal_boundaries_frozen_odd():
    # exact rational solution at lam=2, eps=1/5, N=5
    q = optimal_boundaries(2.0, 0.2, 5)
    expect = (0.0, 0.11612284069097889, 0.3272552783109405, 0.5)
    assert all(math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-15) for a, b in zip(q.h, expect))


def test_optimal_boundaries_zero_eps_is_uniform():
    for n_level in (2, 3, 4, 7, 8):
        assert optimal_boundaries(2.0, 0.0, n_level).h == uniform_boundaries(n_level).h


def test_optimal_boundaries_guard():
    with pytest.raises(ValueError):
        optimal_boundaries(1.2, 0.3, 4)  # box not strictly expanding
    with pytest.raises(ValueError):
        optimal_boundaries(2.0, -0.1, 4)


def test_v_rate_frozen():
    # 50-digit evaluations of the geometric series
    assert math.isclose(v_rate(3.0, 0.5, 8), 0.6759572072072072, rel_tol=REL)
    assert math.isclose(v_rate(3.0, 0.35, 2), 1.675, rel_tol=REL)
    assert math.isclose(v_rate(3.0, 0.35, 3), 1.2002673796791443, rel_tol=REL)
    assert math.isclose(v_rate(3.0, 0.35, 4), 0.9352083333333333, rel_tol=REL)
    assert math.isclose(v_rate(3.0, 0.35, 5), 0.7961326698078247, rel_tol=1e-10)
    assert math.isclose(v_rate(3.0, 0.35, 8), 0.5752466714625012, rel_tol=REL)
    assert math.isclose(v_rate(2.0, 0.2, 5), 0.5109404990403071, rel_tol=1e-10)
    assert v_rate(2.0, 0.0, 4) == 0.5  # known plant: lam/N


def test_v_rate_equals_worst_cell_rate():
    for lam, eps, n_level in [(3.0, 0.5, 8), (3.0, 0.35, 5), (2.0, 0.2, 4), (2.5, 0.35, 3)]:
        q = optimal_boundaries(lam, eps, n_level)
        w = coefficient_expansion_rates(q, lam, eps)
        assert math.isclose(max(w), v_rate(lam, eps, n_level), rel_tol=1e-10)
        # equalized: every cell attains the worst rate
        assert max(w) - min(w) <= 1e-10 * max(w)


def test_uniform_rates_frozen():
    # hand arithmetic: w_l = 3.5*h_{l+1} - 2.5*h_l on h = (0, .125, .25, .375, .5)
    q = uniform_boundaries(8)
    w = coefficient_expansion_rates(q, 3.0, 0.5)
    expect = (0.4375, 0.5625, 0.6875, 0.8125)
    assert all(math.isclose(a, b, rel_tol=REL) for a, b in zip(w, expect))


def test_odd_uniform_rates_frozen():
    # center cell 2*2.2*0.1; then 2.2*h_{l+1} - 1.8*h_l
    q = uniform_boundaries(5)
    w = coefficient_expansion_rates(q, 2.0, 0.2)
    expect = (0.44, 0.48, 0.56)
    assert all(math.isclose(a, b, rel_tol=REL) for a, b in zip(w, expect))


def test_zero_straddling_coefficient_box():
    # box [-0.05, 0.15] contains 0: noncenter rate is 2*eps*h_{l+1}
    q = uniform_boundaries(4)
    w = coefficient_expansion_rates(q, 0.05, 0.1)
    assert math.isclose(w[0], 0.2 * 0.25, rel_tol=REL)
    assert math.isclose(w[1], 0.2 * 0.5, rel_tol=REL)


def test_expansion_profile_rows_and_maxima():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    q = uniform_boundaries(4)
    rows = [coefficient_expansion_rates(q, abs(a), e) for a, e in zip(p.a_star, p.eps)]
    assert expansion_profile(q, p) == (max(rows[0]), max(rows[1]))
    # row 1: coefficient box [0.9, 1.1]: w = (1.1*.25, 1.1*.5 - .9*.25)
    assert math.isclose(rows[0][0], 0.275, rel_tol=REL)
    assert math.isclose(rows[0][1], 0.325, rel_tol=REL)


def test_quantizer_for_dispatch():
    p = UncertainPlant(1, (3.0,), (0.5,), (1.0,))
    assert quantizer_for("uniform", p, 4).h == uniform_boundaries(4).h
    assert quantizer_for("optimal", p, 8).h == optimal_boundaries(3.0, 0.5, 8).h
    with pytest.raises(ValueError):
        quantizer_for("fancy", p, 4)


@given(
    st.integers(min_value=2, max_value=9),
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
)
def test_roundtrip_containment(n_level, x):
    q = uniform_boundaries(n_level)
    s = encode(q, x)
    assert 1 <= s <= n_level
    assert hull_contains(*decode(q, s, 1.0), x)


@given(st.integers(min_value=2, max_value=9))
def test_decode_scales_linearly(n_level):
    q = optimal_boundaries(3.0, 0.35, n_level)
    for s in range(1, n_level + 1):
        base = decode(q, s, 1.0)
        scaled = decode(q, s, 3.0)
        for got, want in zip(scaled, base):
            assert math.isclose(got, 3.0 * want, rel_tol=REL, abs_tol=1e-15)
