"""Rate bounds, companion-matrix stability tests, schedules, relaxation.

Frozen numeric values were evaluated at 50 decimal digits with mpmath, or by
hand where the arithmetic is short (quadratics, log ratios of small ints).
"""

import ast
import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantstab import quantizer, rates
from quantstab.plant import UncertainPlant
from quantstab.quantizer import (
    QuantizerSpec,
    expansion_profile,
    optimal_boundaries,
    quantizer_for,
    uniform_boundaries,
    v_rate,
)
from quantstab.rates import (
    INFEASIBLE,
    Schedule,
    comparison_bounds,
    conservative_known_plant_rate,
    min_sufficient_N,
    necessary_rate,
    periodic_sufficient_test,
    r_ratio,
    relaxed_min_rate,
    schedule_quantizers,
    search_periodic_schedule,
    spectral_radius,
    sufficient_test,
)

REL = 1e-12


def scalar_plant(lam, eps):
    return UncertainPlant(1, (lam,), (eps,), (1.0,))


# ---------------------------------------------------------------------------
# closed-form bounds


def test_r_ratio():
    assert math.isclose(r_ratio(3.0, 0.35), 2.65 / 3.35, rel_tol=REL)
    assert math.isclose(r_ratio(3.0, 0.5), 5.0 / 7.0, rel_tol=REL)
    assert r_ratio(3.0, 0.0) == 1.0
    with pytest.raises(ValueError, match=r"^need lambda_abs - eps_n > 1, got 1\.3 - 0\.35$"):
        r_ratio(1.3, 0.35)
    with pytest.raises(ValueError, match=r"^need lambda_abs - eps_n > 1, got nan - 0\.1$"):
        r_ratio(math.nan, 0.1)
    # an infinite box meets the first condition: it fails on its own check
    with pytest.raises(ValueError, match=r"^lambda_abs \+ eps_n must be finite, got inf \+ 0\.1$"):
        r_ratio(math.inf, 0.1)


@pytest.mark.parametrize(
    "fn, args",
    [
        (r_ratio, (math.inf, 0.1)),
        (necessary_rate, (math.nan, 0.1)),
        (necessary_rate, (3.0, math.nan)),
        (necessary_rate, (math.inf, 0.1)),
        (conservative_known_plant_rate, (math.nan, 0.1)),
        (conservative_known_plant_rate, (math.inf, 0.1)),
        (v_rate, (math.nan, 0.1, 4)),
        (v_rate, (3.0, math.nan, 4)),
        (relaxed_min_rate, (math.nan, 0.1, 3)),
        (comparison_bounds, (math.nan, 0.1)),
        (comparison_bounds, (math.inf, 0.1)),
    ],
)
def test_closed_forms_reject_nan_and_infinite_boxes(fn, args):
    # r_ratio's checks fail for NaN, and lambda + eps must be finite, as a plant's box is
    with pytest.raises(ValueError):
        fn(*args)


def test_necessary_rate_frozen():
    assert necessary_rate(2.0, 0.0) == 1.0
    assert math.isclose(necessary_rate(3.0, 0.35), 1.8779841228086502, rel_tol=REL)
    assert math.isclose(necessary_rate(2.0, 0.1), 1.0741307612953883, rel_tol=REL)
    assert math.isclose(necessary_rate(2.0, 0.35), 1.2846794064173361, rel_tol=REL)


def test_necessary_rate_infeasible_and_errors():
    assert necessary_rate(3.0, 1.0) == INFEASIBLE
    assert necessary_rate(5.0, 2.5) == INFEASIBLE
    assert math.isinf(INFEASIBLE)
    with pytest.raises(ValueError):
        necessary_rate(1.2, 0.3)
    with pytest.raises(ValueError):
        necessary_rate(2.0, -0.1)


def test_necessary_rate_monotone_and_right_continuous():
    lams = [1.5 + 0.5 * i for i in range(8)]
    for eps in (0.0, 0.1, 0.35):
        vals = [necessary_rate(lam, eps) for lam in lams]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    for lam in (1.5, 2.0, 3.0):
        es = [0.0, 1e-6, 1e-3, 0.1, 0.3]
        vals = [necessary_rate(lam, e) for e in es]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert abs(necessary_rate(lam, 1e-9) - math.log2(lam)) < 1e-6


def test_conservative_known_plant_rate():
    assert conservative_known_plant_rate(2.0, 0.0) == 1.0
    assert math.isclose(
        conservative_known_plant_rate(3.0, 0.35), 1.74416109557041, rel_tol=REL
    )
    # the uncertainty-aware bound dominates wherever it exceeds one bit
    assert necessary_rate(3.0, 0.35) > conservative_known_plant_rate(3.0, 0.35)


# ---------------------------------------------------------------------------
# companion matrix and spectral radius


def test_spectral_radius_frozen():
    assert math.isclose(spectral_radius((0.676,)), 0.676, rel_tol=REL)
    # z^2 = 0.64 -> 0.8 (cyclic pattern, exercised via the polynomial route)
    assert math.isclose(spectral_radius((0.0, 0.64)), 0.8, rel_tol=1e-9)
    # z^2 = 0.5 z + 0.5 -> z = 1 by the quadratic formula
    assert math.isclose(spectral_radius((0.5, 0.5)), 1.0, rel_tol=1e-9)
    assert spectral_radius((0.0, 0.0, 0.0)) == 0.0


def test_spectral_radius_matches_eigvals():
    # the Newton root against an independent reference: the positive root
    # r of sum_i w_i r^-i = 1, which decreases in r, found by bisection
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        w = rng.uniform(0.0, 2.0, n)
        w[rng.uniform(size=n) < 0.3] = 0.0
        if not w.any():
            w[0] = 0.5
        w = tuple(map(float, w))
        lo, hi = 0.0, 1.0 + sum(w)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if sum(wi * mid ** -i for i, wi in enumerate(w, 1)) > 1.0:
                lo = mid
            else:
                hi = mid
        assert math.isclose(spectral_radius(w), hi, rel_tol=1e-9, abs_tol=1e-12)


def test_spectral_radius_within_1e_13_of_numpy_eigvals():
    # orders 1..24 with zero rates, w_n = 0 on some and magnitudes 1e-3 to 5
    rng = random.Random(37)
    worst = 0.0
    for k in range(3000):
        n = rng.randint(1, 24)
        w = [10.0 ** rng.uniform(-3.0, math.log10(5.0)) if rng.random() > 0.3 else 0.0 for _ in range(n)]
        if k % 4 == 0:
            w[-1] = 0.0
        if not any(w):
            w[rng.randrange(n)] = 0.5
        want = eig_radius(companion(w))
        worst = max(worst, abs(spectral_radius(tuple(w)) - want) / want)
    assert worst <= 1e-13


def test_spectral_radius_of_zero_and_invalid_rates():
    for n in (1, 2, 24):
        assert spectral_radius((0.0,) * n) == 0.0
    # a lone subnormal rate, whose inverse overflows, is its own radius
    assert spectral_radius((5e-324, 0.0)) == 5e-324
    for bad in ((0.5, -1e-300), (math.nan, 0.5), (0.5, math.inf), (-1.0,)):
        with pytest.raises(ValueError, match="nonnegative"):
            spectral_radius(bad)


def test_spectral_radius_below_one_iff_sum_below_one():
    for w in [(0.3, 0.699), (0.1, 0.2, 0.3), (0.99,)]:
        assert spectral_radius(w) < 1.0
    for w in [(0.3, 0.7), (0.5, 0.5), (1.0,), (0.2, 0.9)]:
        assert spectral_radius(w) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# sufficiency tests


def test_sufficient_test_frozen():
    # for n = 1 the radius is the one worst rate
    p = scalar_plant(3.0, 0.5)
    q = optimal_boundaries(3.0, 0.5, 8)
    assert math.isclose(expansion_profile(q, p)[0], 0.6759572072072072, rel_tol=REL)
    assert sufficient_test(p, q).stable
    q_u = uniform_boundaries(8)
    assert math.isclose(expansion_profile(q_u, p)[0], 0.8125, rel_tol=REL)
    assert sufficient_test(p, q_u).stable
    p2, q2 = scalar_plant(3.0, 0.35), optimal_boundaries(3.0, 0.35, 2)
    assert math.isclose(expansion_profile(q2, p2)[0], 1.675, rel_tol=REL)
    assert not sufficient_test(p2, q2).stable


def test_sufficient_test_margin():
    p = scalar_plant(3.0, 0.5)
    q = optimal_boundaries(3.0, 0.5, 8)
    assert sufficient_test(p, q, margin=0.3).stable  # 0.676 < 0.7
    assert not sufficient_test(p, q, margin=0.33).stable
    # v_rate is 0.727 at N = 7 and 0.676 at N = 8; at margin 0 it is N = 5
    assert min_sufficient_N(p, "optimal", margin=0.3) == 8


def test_min_sufficient_N_frozen():
    assert min_sufficient_N(scalar_plant(2.0, 0.0), "uniform") == 3
    assert min_sufficient_N(scalar_plant(3.0, 0.35), "optimal") == 4
    assert min_sufficient_N(scalar_plant(3.0, 0.35), "optimal", N_max=3) is None


@pytest.mark.parametrize("family", ["optimal", "uniform"])
def test_min_sufficient_N_is_first_size_sufficient_test_certifies(family):
    # min_sufficient_N decides each size without calling sufficient_test;
    # both must reach the same verdict
    rng = np.random.default_rng(9)
    n_max = 32
    for n in range(1, 7):
        for k in range(5):
            lam = float(rng.uniform(1.4, 3.2))
            eps_n = float(rng.uniform(0.0, min(0.6, lam - 1.1)))
            if k == 4:  # optimal layouts stop building from N = 28 on
                lam, eps_n = 20.0, 18.0
            a = tuple(rng.uniform(-0.8, 0.8, n - 1)) + (-lam if k % 2 else lam,)
            eps = tuple(rng.uniform(0.0, 0.1, n - 1)) + (eps_n,)
            p = UncertainPlant(n, a, eps, (1.0,) * n)
            for margin in (0.0, 0.02, 0.3):
                want = None
                for N in range(2, n_max + 1):
                    try:
                        q = quantizer_for(family, p, N)
                    except ValueError:
                        continue
                    if sufficient_test(p, q, margin).stable:
                        want = N
                        break
                assert min_sufficient_N(p, family, n_max, margin) == want, (n, k, margin)


def test_min_sufficient_N_optimal_never_worse():
    for lam in (1.5, 2.0, 3.0, 4.0):
        p = scalar_plant(lam, 0.35)
        n_opt = min_sufficient_N(p, "optimal")
        n_uni = min_sufficient_N(p, "uniform")
        assert n_opt is not None and n_uni is not None
        assert n_opt <= n_uni


def _table_plants() -> list:
    """(plant, N_max): random plants n = 1..6 and the edge cases of the rate table."""
    rng = np.random.default_rng(17)
    plants = []
    for n in range(1, 7):
        for k in range(4):
            lam = float(rng.uniform(1.2, 4.0))
            eps_n = float(rng.uniform(0.0, min(0.6, lam - 1.05)))
            a = tuple(rng.uniform(-0.8, 0.8, n - 1)) + (-lam if k % 2 else lam,)
            # k = 3: lower boxes wide enough to straddle 0 mostly
            eps = tuple(rng.uniform(0.0, 0.1 if k < 3 else 1.0, n - 1)) + (eps_n,)
            plants.append((UncertainPlant(n, a, eps, (1.0,) * n), 96))
    edges = [
        ((3.0,), (0.0,), 64),  # eps = 0: uniform layouts
        ((3.0,), (1e-16,), 64),  # r rounds to 1: even sizes uniform, odd ones den = 0
        ((0.05, -2.0), (0.1, 1e-16), 64),  # the same under a straddling coefficient
        ((20.0,), (18.0,), 1024),  # eps >= 0.5: boundaries stop increasing from N = 28
        ((1.3,), (0.2,), 1024),  # 1 - r^l rounds to 1 before l = K for large N
        ((0.0, -0.1, 2.5), (0.3, 0.2, 0.9), 1024),
        ((1.1,), (0.3,), 16),  # not expanding: no optimal layout at all
        # at margin 1 - 2^-53, z^21 nears underflow and every rescaled rate
        # passes 2^1023: those sizes never contract, and the table drops them
        ((0.1,) * 20 + (3.0,), (0.01,) * 20 + (0.2,), 16),
    ]
    for a, eps, n_max in edges:
        plants.append((UncertainPlant(len(a), a, eps, (1.0,) * len(a)), n_max))
    return plants


TABLE_PLANTS = _table_plants()


@pytest.mark.parametrize("family", ["optimal", "uniform"])
def test_rate_table_matches_the_quantizer_route_bit_for_bit(family, monkeypatch):
    # the one-pass table builds no QuantizerSpec, yet every row it yields is
    # the object route's, and it skips exactly the sizes quantizer_for rejects
    # and those whose rescaled rates stay exact rationals past 2^1023
    built = {}
    real = quantizer.Layouts.half

    def counting_half(layouts, n_level):
        built[n_level] = built.get(n_level, 0) + 1
        return real(layouts, n_level)

    monkeypatch.setattr(quantizer.Layouts, "half", counting_half)
    skipped_any = set()
    dropped_any = False
    for p, n_max in TABLE_PLANTS:
        ws = {}
        for N in range(2, n_max + 1):
            try:
                ws[N] = expansion_profile(quantizer_for(family, p, N), p)
            except ValueError:
                pass
        skipped_any |= set(range(2, n_max + 1)) - set(ws)
        for margin in (0.0, 0.02, 1.0 - 2.0**-53):
            rows = [(N, math.log2(N), rates._rescaled(w, margin)) for N, w in ws.items()]
            want = [row for row in rows if isinstance(row[2][0], float)]
            dropped_any |= len(want) < len(rows)
            # a prefix, as min_sufficient_N reads it, and the full table; repr
            # tells -0.0 from 0.0 and every float bit
            prefix = list(rates._rate_table(p, family, n_max // 3, margin))
            assert repr(prefix) == repr([row for row in want if row[0] <= n_max // 3])
            assert repr(list(rates._rate_table(p, family, n_max, margin))) == repr(want)
            # the dropped rows never contract: the same answer as over every row
            first = next((N for N, _, w in rows if rates._contracts(w)), None)
            assert min_sufficient_N(p, family, n_max, margin) == first
            # one table read by min_sufficient_N, then by the search, as a
            # CLI row reads it: each size built once, the answers of fresh reads
            built.clear()
            table = rates._Table(p, family, n_max, margin)
            assert min_sufficient_N(p, family, n_max, margin, table=table) == first
            got = search_periodic_schedule(p, 3, n_max, family, margin, table=table)
            assert set(built.values()) <= {1} and (built or not want), (p, margin)
            assert repr(got) == repr(search_periodic_schedule(p, 3, n_max, family, margin))
    assert dropped_any
    if family == "optimal":
        assert {3, 5, 1023} <= skipped_any  # den = 0 and stalled boundaries seen
    else:
        assert not skipped_any


def test_rate_table_reads_a_signed_zero_twin_afresh():
    # the two plants compare and hash equal, yet the twin read after the
    # first plant gets its own rows, where eps_1 = -0.0 gives a rate of -0.0
    p = UncertainPlant(2, (0.0, 2.0), (0.0, 0.3), (1.0, 1.0))
    twin = UncertainPlant(2, (0.0, 2.0), (-0.0, 0.3), (1.0, 1.0))
    assert p == twin and hash(p) == hash(twin)
    list(rates._rate_table(p, "optimal", 8, 0.0))
    got = repr(list(rates._rate_table(twin, "optimal", 8, 0.0)))
    fresh = [(N, math.log2(N), expansion_profile(quantizer_for("optimal", twin, N), twin))
             for N in range(2, 9)]
    assert got == repr(fresh) and "(-0.0, " in got
    # so do two tables, one per twin, as two rows of one sweep would build them
    mine, theirs = (repr(list(rates._Table(q, "optimal", 8, 0.0))) for q in (p, twin))
    assert theirs == got and "(-0.0, " in theirs
    assert mine == repr(list(rates._rate_table(p, "optimal", 8, 0.0))) and "-0.0" not in mine


# ---------------------------------------------------------------------------
# periodic schedules


def test_schedule_validation_and_rate():
    with pytest.raises(ValueError):
        Schedule(())
    with pytest.raises(ValueError):  # the sizes are read before the check
        Schedule(iter([]))
    assert Schedule(iter([2, 8])).sizes == (2, 8)
    with pytest.raises(ValueError):
        Schedule((2, 1))
    s = Schedule((2, 8))
    assert s.m == 2
    assert math.isclose(s.average_rate, 2.0, rel_tol=REL)  # (1 + 3)/2 bits


def test_schedule_sizes_must_be_integers():
    # numpy integers are sizes too; a float is refused, never truncated
    s = Schedule((np.int64(2), 3))
    assert s.sizes == (2, 3) and type(s.sizes[0]) is int
    for sizes in [(2.7, 3), (2, 3.0)]:
        with pytest.raises(TypeError):
            Schedule(sizes)


def test_schedule_quantizers_custom_list_checked():
    p = scalar_plant(3.0, 0.35)
    sched = Schedule((2, 8))
    qs = [optimal_boundaries(3.0, 0.35, 2), optimal_boundaries(3.0, 0.35, 8)]
    assert [q.N for q in schedule_quantizers(p, sched, qs)] == [2, 8]
    with pytest.raises(ValueError):
        schedule_quantizers(p, sched, qs[:1])
    with pytest.raises(ValueError):
        schedule_quantizers(p, Schedule((8, 2)), qs)


def test_periodic_reduces_to_static_at_m1():
    # the radius is 0.938: stable below a margin of 0.062, unstable above
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    verdicts = []
    for margin in (0.0, 0.05, 0.1):
        stat = sufficient_test(p, uniform_boundaries(8), margin)
        per = periodic_sufficient_test(p, Schedule((8,)), "uniform", margin)
        assert per.stable == stat.stable
        verdicts.append(stat.stable)
    assert verdicts == [True, True, False]


def test_periodic_two_eight_frozen():
    # scalar product of the two worst rates: 1.675 * 0.575246671... (mpmath)
    p = scalar_plant(3.0, 0.35)
    qs = schedule_quantizers(p, Schedule((2, 8)), "optimal")
    product = math.prod(expansion_profile(q, p)[0] for q in qs)
    assert math.isclose(product, 0.9635381746996894, rel_tol=1e-10)
    assert periodic_sufficient_test(p, Schedule((2, 8)), "optimal").stable
    assert math.isclose(Schedule((2, 8)).average_rate, 2.0, rel_tol=REL)


def test_periodic_all_expanding_slots_unstable():
    p = scalar_plant(3.0, 0.35)
    qs = schedule_quantizers(p, Schedule((2, 2, 3)), "optimal")
    assert all(expansion_profile(q, p)[0] >= 1.0 for q in qs)
    assert not periodic_sufficient_test(p, Schedule((2, 2, 3)), "optimal").stable


def test_periodic_power_consistency():
    # one slot passes iff rho < 1 - margin, three iff rho^3 < (1 - margin)^3
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    q = quantizer_for("optimal", p, 6)
    tie = 1.0 - spectral_radius(expansion_profile(q, p))  # about 0.046
    verdicts = []
    for margin in (0.0, tie - 1e-3, tie - 1e-6, tie + 1e-6, tie + 1e-3, 0.2):
        one = sufficient_test(p, q, margin).stable
        assert periodic_sufficient_test(p, Schedule((6, 6, 6)), "optimal", margin).stable == one
        assert one == (margin < tie), margin
        verdicts.append(one)
    assert any(verdicts) and not all(verdicts)


# ---------------------------------------------------------------------------
# exact verdicts: rho(P) < 1 for P the exact product of float companions


def companion(w):
    """Companion matrix of w = (w_1, ..., w_n): identity superdiagonal, bottom row (w_n, ..., w_1)."""
    n = len(w)
    m = np.eye(n, k=1)
    m[n - 1, :] = w[::-1]
    return m


def float_product(rate_list):
    """Period product H_m ... H_1 of the companions of rate_list, oldest first."""
    n = len(rate_list[0])
    prod = np.eye(n)
    for w in rate_list:
        prod = companion(w) @ prod
    return prod


def eig_radius(m):
    """Spectral radius of a square matrix by numpy's eigvals."""
    return float(max(abs(np.linalg.eigvals(np.asarray(m, dtype=float)))))


def exact_product(rate_list):
    """rates' exact integer form of the same product, which _radius_below reads."""
    return rates._exact_product(len(rate_list[0]), rate_list)


def exact_radius_below(rate_list):
    """Reference verdict: rho(P) < 1 for P = H_m ... H_1, in Fraction arithmetic on the rates."""
    n = len(rate_list[0])
    prod = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for w in rate_list:
        # the companion shifts rows up; its bottom row (w_n, ..., w_1) mixes them
        bottom = [Fraction(v) for v in reversed(w)]
        prod = prod[1:] + [[sum(b * row[k] for b, row in zip(bottom, prod)) for k in range(n)]]
    return fraction_radius_below(prod)


def fraction_radius_below(prod):
    """rho(P) < 1 for a nonnegative matrix P of Fractions.

    For nonnegative P, I - P is a nonsingular M-matrix exactly when
    rho(P) < 1, and a Z-matrix is one exactly when its leading principal
    minors are positive (Berman & Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, ch. 6, Thm 2.3). Elimination without pivoting
    has the ratios of consecutive leading minors as its pivots.
    """
    n = len(prod)
    a = [[int(i == j) - prod[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return True


def test_verdict_near_tie_n1_pins_exact_answer():
    # the float product rounds up to 1.0 or more; the exact product is below 1
    w = (1.4099536636507697, 1.5942448414759975, 0.4448771903290061)
    product = w[0] * w[1] * w[2]
    assert not product < 1.0
    assert Fraction(w[0]) * Fraction(w[1]) * Fraction(w[2]) < 1
    rate_list = [(v,) for v in w]
    assert rates._radius_below(exact_product(rate_list))
    # and the other way: the float product is below 1, the exact one is not
    w = (0.719692610599019, 1.5782532091426846, 0.880392380670389)
    product = w[0] * w[1] * w[2]
    assert product < 1.0
    assert not Fraction(w[0]) * Fraction(w[1]) * Fraction(w[2]) < 1
    rate_list = [(v,) for v in w]
    assert not rates._radius_below(exact_product(rate_list))


def test_verdict_near_tie_n2_pins_exact_answer():
    # rho < 1 iff w_1 + w_2 < 1; the float sum and eigvals both say 1.0,
    # but Fraction(0.7) + Fraction(0.3) is 1 - 2^-54
    w = (0.7, 0.3)
    assert Fraction(0.7) + Fraction(0.3) < 1
    assert not eig_radius(companion(w)) < 1.0
    assert not w[0] + w[1] < 1.0
    assert rates._radius_below(exact_product([w]))
    assert rates._radius_below(exact_product([w, w]))
    # a period product rescaled to a near tie: its float radius from eigvals
    # is 1, the exact radius of the rescaled float rates lies below it. The
    # largest root of x^2 - tr x + det lies below 1 iff 1 is right of the
    # vertex and the polynomial is positive there
    rate_list = [rates._rescaled(w, 0.09096392832975031) for w in [(0.536, 0.324), (0.555, 0.337)]]
    (a1, a2), (b1, b2) = [[Fraction(v) for v in w] for w in rate_list]
    tr, det = a2 + b2 + b1 * a1, a2 * b2  # of [[a2, a1], [b1 a2, b2 + b1 a1]]
    assert not eig_radius(float_product(rate_list)) < 1.0
    assert 2 > tr and 1 - tr + det > 0
    assert rates._radius_below(exact_product(rate_list))
    # 0.1 + 0.9 exceeds 1 exactly
    w = (0.1, 0.9)
    assert not rates._radius_below(exact_product([w]))
    assert not rates._radius_below(exact_product([w, w, w]))


def test_contracts_decides_its_band_exactly():
    # both sums round to 1.0 in floats; the exact sums lie on either side of 1
    assert 0.3 + 0.7 == 1.0 and 0.1 + 0.9 == 1.0
    assert rates._contracts((0.7, 0.3))
    assert rates._contracts((0.3, 0.7))
    assert not rates._contracts((0.1, 0.9))
    # 0.5 / 0.5 + 0.125 / 0.25 is 1.5 exactly, far outside the band; at
    # margin 0.5 + 2^-53 the single slot alone is the tie
    assert rates._rescaled((0.5, 0.125), 0.5) == (1.0, 0.5)
    assert not rates._contracts(rates._rescaled((0.5, 0.125), 0.5))
    z = 0.5 - 2.0**-53
    assert not rates._contracts(rates._rescaled((z,), 1.0 - z))
    assert rates._contracts(rates._rescaled((math.nextafter(z, 0.0),), 1.0 - z))
    # z^21 underflows at z = 2^-53: the rescale divides exactly instead of
    # 0.0 / 0.0, and 2^-1070 / 2^-1113 is 2^43
    zeros = rates._rescaled((0.0,) * 21, 1.0 - 2.0**-53)
    tiny = rates._rescaled((0.0,) * 20 + (2.0**-1070,), 1.0 - 2.0**-53)
    assert zeros == (0.0,) * 21 and tiny == (0.0,) * 20 + (2.0**43,)
    assert rates._contracts(zeros)
    assert not rates._contracts(tiny)
    # a rescaled rate past the float range stays exact, and the sum rule
    # reads it exactly
    huge = rates._rescaled((0.0,) * 20 + (0.5,), 1.0 - 2.0**-53)
    assert huge[-1] == 2**1112 and all(isinstance(v, Fraction) for v in huge)
    assert not rates._contracts(huge)
    # floats whose sum overflows: the max guard decides before fsum could raise
    big = (1.9 * 2.0**1022,) * 3
    with pytest.raises(OverflowError):
        math.fsum((*big, -1.0))
    assert not rates._contracts(big)


def random_rate_lists(rng, count):
    for t in range(count):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        rate_list = []
        for _ in range(m):
            w = rng.uniform(0.0, 0.7, n)
            if t % 3 == 1 and n > 1:  # near-cyclic
                w[:-1] *= rng.uniform(0.0, 0.02, n - 1)
            if t % 3 == 2:  # zero rates
                w[rng.uniform(size=n) < 0.4] = 0.0
                w[-1] = max(w[-1], 0.1)
            rate_list.append(tuple(float(v) for v in w))
        yield rate_list


def test_radius_below_agrees_with_exact_path():
    rng = np.random.default_rng(17)
    cases = list(random_rate_lists(rng, 120))
    # nearly reducible: the product is about [[1.176, 0.003], [0.003, 0.85]]
    cases.append([(0.003, 1.176), (0.003 / 1.176, 0.85 - 0.003 * 0.003 / 1.176)])
    checked = 0
    for rate_list in cases:
        rho = eig_radius(float_product(rate_list))
        if rho == 0.0:
            continue
        for f in (1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-6, 1.0 + 1e-6, 0.9, 1.1, 1.0):
            # rescaled per step by z, so rho(P) < z^m becomes rho(P') < 1
            z = (rho * f) ** (1.0 / len(rate_list))
            scaled = [rates._rescaled(w, 1.0 - z) for w in rate_list]
            want = exact_radius_below(scaled)
            assert rates._radius_below(exact_product(scaled)) == want, (rate_list, f)
            if f != 1.0:
                assert want == (f > 1.0), (rate_list, f)
            checked += 1
    assert checked > 700


def test_exact_path_matches_sum_rule_on_one_companion():
    rng = np.random.default_rng(5)
    for rate_list in random_rate_lists(rng, 60):
        w = rate_list[0]
        for margin in (0.0, 0.02, 0.3):
            scaled = rates._rescaled(w, margin)
            want = exact_radius_below([scaled])
            assert rates._radius_below(exact_product([scaled])) == want
            assert rates._contracts(scaled) == want


def generated_and_loop_agree(n, rate_list):
    """The product and verdict of the verdict code of order n, after checking
    them against the loop reference: the product after every slot, bit for bit."""
    extend, radius_below = rates._verdict_code(n)
    prod = ref = rates._exact_product(n, ())  # the identity
    for w in rate_list:
        slot = rates._slot(w)
        prod, ref = extend(prod, slot), rates._extend_loop(ref, slot)
        assert prod == ref, (n, rate_list)
    verdict = radius_below(prod)
    assert verdict == rates._radius_below_loop(prod) == rates._radius_below(prod), (n, rate_list)
    return prod, verdict


def fraction_matrix(prod):
    """P = diag(d)^-1 M of prod = (d, M) as Fractions."""
    d, M = prod
    return [[Fraction(x, di) for x in row] for di, row in zip(d, M)]


def test_generated_verdict_code_matches_the_loops_and_fractions():
    # every generated order, every period the n >= 2 search reaches
    rng = np.random.default_rng(29)
    verdicts = []
    for n in range(1, rates.MAX_ORDER + 1):
        for m in range(1, 7):
            rate_list = []
            for _ in range(m):
                w = rng.dirichlet(np.ones(n))
                w[rng.uniform(size=n) < 0.2] = 0.0
                w *= rng.uniform(0.85, 1.15) / max(w.sum(), 1e-300)  # sums near 1
                rate_list.append(tuple(map(float, w)))
            prod, verdict = generated_and_loop_agree(n, rate_list)
            assert verdict == fraction_radius_below(fraction_matrix(prod)), (n, rate_list)
            verdicts.append(verdict)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_generated_verdict_code_edge_cases():
    for n in range(1, rates.MAX_ORDER + 1):
        # (1/2, 1/4, ..., 2^-(n-1), 2^-(n-1)) sums to exactly 1: rho = 1 for
        # every power of its primitive companion, whose leading minors of I - P
        # are positive up to order n - 1 and whose last one, the last pivot, is 0
        w = tuple(2.0 ** -min(i, n - 1) for i in range(1, n + 1))
        for m in (1, 2, 3):
            prod, verdict = generated_and_loop_agree(n, [w] * m)
            P = fraction_matrix(prod)
            assert not verdict and not fraction_radius_below(P), (n, m)
            assert n == 1 or fraction_radius_below([row[: n - 1] for row in P[: n - 1]]), (n, m)
        # all-zero rates: rho = 0
        assert generated_and_loop_agree(n, [(0.0,) * n] * 2)[1]
    # at a margin next to 1, z = 3 * 2^-53: past order 19 the rescaled rates
    # w_i 2^(53 i) / 3^i pass 2^1023 and stay exact rationals over powers of 3
    rng = np.random.default_rng(31)
    margin = 1.0 - 3 * 2.0**-53
    for n in range(20, rates.MAX_ORDER + 1):
        rate_list = [rates._rescaled(tuple(map(float, rng.uniform(0.01, 0.2, n))), margin)
                     for _ in range(2)]
        assert all(isinstance(v, Fraction) for w in rate_list for v in w)
        assert any(v.denominator & (v.denominator - 1) for w in rate_list for v in w)
        prod, verdict = generated_and_loop_agree(n, rate_list)
        assert verdict == fraction_radius_below(fraction_matrix(prod)) == exact_radius_below(rate_list)
    # above MAX_ORDER the loops are the route
    assert rates._verdict_code(rates.MAX_ORDER + 1) == (rates._extend_loop, rates._radius_below_loop)


@pytest.mark.parametrize("sizes", [(2,), (64,), (2, 64), (64, 64, 2)])
def test_periodic_test_at_a_margin_next_to_one_is_exact(sizes):
    margin = 1.0 - 2.0**-53
    # n = 21: z^21 underflows and the rescaled rates stay exact rationals;
    # n = 2: the rescaled rates are floats of about 2^105
    p21 = UncertainPlant(21, (0.1,) * 20 + (2.0,), (0.01,) * 20 + (0.3,), (1.0,) * 21)
    p2 = UncertainPlant(2, (0.5, 2.0), (0.05, 0.3), (1.0, 1.0))
    for p, kind in ((p21, Fraction), (p2, float)):
        scaled = [
            rates._rescaled(expansion_profile(q, p), margin)
            for q in rates.schedule_quantizers(p, Schedule(sizes), "optimal")
        ]
        assert all(isinstance(v, kind) for w in scaled for v in w)
        got = periodic_sufficient_test(p, Schedule(sizes), "optimal", margin)
        assert got.stable == exact_radius_below(scaled), (p.n, sizes)


def envelope_period_map(rate_list):
    """The loop's envelope recursion over one period, as a Fraction matrix.

    run_closed_loop bounds the scaling by env_{k+1} = sum_i w_i(q_{k+1-i})
    env_{k+1-i}: each coefficient takes its rate from the quantizer that
    produced the estimate it multiplies, q_t the quantizer of slot t mod m.
    On the state (env_k, ..., env_{k-n+1}), step k has those rates in its
    first row and shifts the rest down; steps 0..m-1 make one period.
    """
    n, m = len(rate_list[0]), len(rate_list)
    phi = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(m):
        first = [Fraction(rate_list[(k - i) % m][i]) for i in range(n)]
        phi = [[sum(map(operator.mul, first, col)) for col in zip(*phi)]] + phi[:-1]
    return phi


def random_explicit_layouts(seed, count):
    """(plant, schedule, quantizers) with n = 2, 3, m = 3, 4 and random boundary halves."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = int(rng.integers(2, 4)), int(rng.integers(3, 5))
        a = tuple(rng.uniform(-1.0, 1.0, n - 1)) + (float(rng.uniform(1.5, 3.0)),)
        p = UncertainPlant(n, a, tuple(rng.uniform(0.0, 0.3, n)), (1.0,) * n)
        sizes = tuple(int(v) for v in rng.integers(4, 13, m))
        qs = [
            QuantizerSpec(N, (0.0, *np.sort(rng.uniform(0.0, 0.5, (N - 1) // 2)), 0.5))
            for N in sizes
        ]
        yield p, Schedule(sizes), qs


def test_periodic_test_certifies_the_loop_envelope_recursion():
    # explicit layouts on which the loop's envelope expands, while the
    # forward product H_2 H_1 H_0 has rho 0.99968 and would certify
    p = UncertainPlant(2, (0.5326, 2.538), (0.191311, 0.2895), (1.0, 1.0))
    qs = [
        QuantizerSpec(6, (0.0, 0.1858, 0.2676, 0.5)),
        QuantizerSpec(7, (0.0, 0.0442, 0.3609, 0.4694, 0.5)),
        QuantizerSpec(12, (0.0, 0.1344, 0.147, 0.1477, 0.3108, 0.3798, 0.5)),
    ]
    ws = [expansion_profile(q, p) for q in qs]
    got = periodic_sufficient_test(p, Schedule((6, 7, 12)), qs)
    assert not got.stable
    # the test's product H_0 H_1 H_2, slot 0 leftmost
    assert math.isclose(eig_radius(float_product(ws[::-1])), 1.00698504995, rel_tol=1e-9)
    assert not fraction_radius_below(envelope_period_map(ws))
    assert rates._radius_below(exact_product(ws))
    verdicts = []
    for p, sched, qs in random_explicit_layouts(41, 300):
        ws = [expansion_profile(q, p) for q in qs]
        phi = envelope_period_map(ws)
        got = periodic_sufficient_test(p, sched, qs)
        assert got.stable == fraction_radius_below(phi), (p, sched)
        rho = eig_radius(float_product(ws[::-1]))
        assert math.isclose(eig_radius(phi), rho, rel_tol=1e-9), (p, sched)
        verdicts.append(got.stable)
    assert 50 < sum(verdicts) < 250


def random_builtin_plants(seed, count):
    """n = 2..4 plants with |a_i*| <= 1.5 below an expanding last box, eps_i <= 0.4."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 5))
        lam = float(rng.uniform(1.1, 3.0))
        eps_n = float(rng.uniform(0.0, min(0.4, lam - 1.001)))
        a = tuple(rng.uniform(-1.5, 1.5, n - 1)) + (-lam if k % 2 else lam,)
        eps = tuple(rng.uniform(0.0, 0.4, n - 1)) + (eps_n,)
        yield UncertainPlant(n, a, eps, (1.0,) * n)


@pytest.mark.parametrize("family", ["optimal", "uniform"])
def test_builtin_rates_lie_on_one_line_per_coefficient(family):
    # over every size N, (w_n(N), w_i(N)) lies on one line for each i: the
    # companions of a family form one pencil, on which the forward product
    # and the loop's reversed one give the same verdicts (next test)
    worst = 0.0
    for p in random_builtin_plants(43, 150):
        ws = [w for _, _, w in rates._rate_table(p, family, 24, 0.0)]
        lo = min(ws, key=lambda w: w[-1])
        hi = max(ws, key=lambda w: w[-1])
        for i in range(p.n - 1):
            slope = (hi[i] - lo[i]) / (hi[-1] - lo[-1])
            scale = max(w[i] for w in ws)
            for w in ws:
                worst = max(worst, abs(lo[i] + slope * (w[-1] - lo[-1]) - w[i]) / scale)
    assert worst < 1e-11


def test_forward_and_reversed_products_agree_on_builtin_schedules():
    # why the higher-order search may extend its product forward, H_{m-1} ... H_0,
    # while periodic_sufficient_test certifies the loop's H_0 ... H_{m-1}
    rng = np.random.default_rng(47)
    verdicts = []
    for p in random_builtin_plants(53, 150):
        for family in ("optimal", "uniform"):
            table = {N: w for N, _, w in rates._rate_table(p, family, 24, 0.0)}
            static = min_sufficient_N(p, family, 24) or 24
            near = [N for N in table if static - 3 <= N <= static + 2]
            for _ in range(3):
                ws = [table[N] for N in rng.choice(near, int(rng.integers(2, 6)))]
                forward = rates._radius_below(exact_product(ws))
                assert rates._radius_below(exact_product(ws[::-1])) == forward, (p, family)
                verdicts.append(forward)
    assert 300 < sum(verdicts) < 600


def test_eigvals_reaches_no_verdict(monkeypatch):
    p1 = scalar_plant(2.5, 0.3)
    p2 = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    grid = [(p, f, mg) for p in (p1, p2) for f in ("optimal", "uniform") for mg in (0.0, 0.02)]
    want_n = [min_sufficient_N(p, f, 64, mg) for p, f, mg in grid]
    want_s = search_periodic_schedule(p1, 8, 16, "optimal", 0.02)
    want_h = [search_periodic_schedule(p2, m, 12, f, mg) for m in (1, 4) for f in ("optimal", "uniform")
              for mg in (0.0, 0.02)]
    static = min_sufficient_N(p2, "optimal", 12)
    real_radius = rates.spectral_radius
    calls = []

    def counting_radius(w):
        calls.append(len(w))
        return real_radius(w)

    # the n >= 2 search reaches spectral_radius once per candidate size, for its screen
    monkeypatch.setattr(rates, "spectral_radius", counting_radius)
    assert search_periodic_schedule(p2, 4, 12, "optimal") is not None
    assert len(calls) == static + 3
    # and not at all when no single size certifies: it returns None first
    calls.clear()
    assert min_sufficient_N(p2, "optimal", 5) is None
    assert search_periodic_schedule(p2, 4, 5, "optimal") is None
    assert calls == []

    def no_eigvals(a):
        raise AssertionError("np.linalg.eigvals reached the answer path")

    # no verdict, and no part of the n >= 2 search, calls eigvals
    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    assert [min_sufficient_N(p, f, 64, mg) for p, f, mg in grid] == want_n
    assert search_periodic_schedule(p1, 8, 16, "optimal", 0.02) == want_s
    assert [search_periodic_schedule(p2, m, 12, f, mg) for m in (1, 4) for f in ("optimal", "uniform")
            for mg in (0.0, 0.02)] == want_h


# ---------------------------------------------------------------------------
# schedule search


def brute_force_best(lam, eps, m_max, n_max, margin=0.0):
    """Test-local exhaustive multiset search over v-rate products.

    The margin is a contraction per step: a period of m slots is feasible
    when the exact product of its rates is below (1 - margin)^m.
    """
    best = None
    z = Fraction(1.0 - margin)
    for m in range(1, m_max + 1):
        for sizes in itertools.combinations_with_replacement(range(2, n_max + 1), m):
            prod = Fraction(1)
            for n_level in sizes:
                prod *= Fraction(v_rate(lam, eps, n_level))
            if prod < z**m:
                avg = sum(math.log2(v) for v in sizes) / m
                key = (avg, m, sizes)
                if best is None or key < best:
                    best = key
    return best


@pytest.mark.parametrize(
    "lam,eps,margin,n_max",
    [
        pytest.param(2.0, 0.35, 0.0, 8, id="2.0-0.35"),
        pytest.param(3.0, 0.5, 0.0, 8, id="3.0-0.5"),
        pytest.param(1.75, 0.35, 0.0, 8, id="1.75-0.35"),
        # the margin moves the optimum away from (4, 4, 4, 5)
        pytest.param(3.0, 0.5, 0.1, 8, id="3.0-0.5-margin0.1"),
        # a per-step margin of 0.5 keeps every slot above 3 levels:
        # (4, 5, 6, 6), where a per-period one would allow (2, 2, 2, 4)
        pytest.param(1.5, 0.35, 0.5, 8, id="1.5-0.35-margin0.5"),
        # (4,) ties (4, 4), (4, 4, 4), ...: the fewest slots must win
        pytest.param(3.995, 0.0, 0.0, 8, id="3.995-0.0"),
        # small eps and 16 sizes give 7 hull slopes for the bound's climb,
        # where 8 sizes give at most 6
        pytest.param(2.6, 0.02, 0.0, 16, id="2.6-0.02-n16"),
        pytest.param(3.5, 0.1, 0.0, 16, id="3.5-0.1-n16"),
    ],
)
def test_search_matches_brute_force(lam, eps, margin, n_max):
    p = scalar_plant(lam, eps)
    want = brute_force_best(lam, eps, 4, n_max, margin)
    got = search_periodic_schedule(p, 4, n_max, "optimal", margin)
    assert want is not None and got is not None
    assert got.exact
    assert math.isclose(got.avg_rate, want[0], rel_tol=1e-9)
    assert got.schedule.m == want[1]
    assert tuple(sorted(got.schedule.sizes)) == want[2]


def exact_brute_force_winners(lam, m_max, n_max):
    """Best key (avg, m, sizes) of the known plant at each m_max in 1..m_max.

    Exhaustive over multisets of sizes. A multiset is feasible when the exact
    product of its float rates is below 1: the float log sum decides outside
    +-1e-6, far wider than the search's rounding band, and a Fraction product
    decides inside it. avg adds log2 N over the sorted sizes one by one, as
    the search does, so ties break in the search's order.
    """
    p = scalar_plant(lam, 0.0)
    rate = {n: expansion_profile(quantizer_for("optimal", p, n), p)[0] for n in range(2, n_max + 1)}
    log_rate = {n: math.log(w) for n, w in rate.items()}
    best, winners = None, []
    for m in range(1, m_max + 1):
        for sizes in itertools.combinations_with_replacement(range(2, n_max + 1), m):
            cost = 0.0
            for n_level in sizes:
                cost += math.log2(n_level)
            key = (cost / m, m, sizes)
            if best is not None and key >= best:
                continue
            g = sum(log_rate[n] for n in sizes)
            if g < -1e-6 or (g <= 1e-6 and math.prod(Fraction(rate[n]) for n in sizes) < 1):
                best = key
        winners.append(best)
    return winners


@pytest.mark.parametrize("lam", [4.0, 6.0, 8.0, 10.0, 12.0])
def test_known_plant_search_matches_exact_brute_force(lam):
    # integer poles at eps = 0 give rate products exactly 1, where the float
    # log sum of an infeasible schedule can fall below 0
    p = scalar_plant(lam, 0.0)
    for m_max, want in enumerate(exact_brute_force_winners(lam, 6, 16), 1):
        got = search_periodic_schedule(p, m_max, 16)
        assert got is not None and got.exact, m_max
        assert (got.avg_rate, got.schedule.m, got.schedule.sizes) == want, m_max


@pytest.mark.parametrize(
    "lam,m_max", [(4.0, 6), (6.0, 6), (8.0, 4), (8.0, 6), (10.0, 6), (12.0, 4), (12.0, 6)]
)
def test_known_plant_exact_ties_certified_at_full_cap(lam, m_max):
    p = scalar_plant(lam, 0.0)
    res = search_periodic_schedule(p, m_max, 64)
    assert res is not None and res.exact
    assert periodic_sufficient_test(p, res.schedule).stable


def test_search_m1_known_plant():
    res = search_periodic_schedule(scalar_plant(2.0, 0.0), 1, 16, "uniform")
    assert res is not None and res.exact
    assert res.schedule.sizes == (3,)
    assert math.isclose(res.avg_rate, math.log2(3.0), rel_tol=REL)


def test_search_sandwich_and_monotone_in_m_max():
    p = scalar_plant(3.0, 0.5)
    r_nec = necessary_rate(3.0, 0.5)
    static = math.log2(min_sufficient_N(p, "optimal"))
    prev = None
    for m_max in (1, 2, 4, 8):
        res = search_periodic_schedule(p, m_max, 16, "optimal")
        assert res is not None
        assert r_nec < res.avg_rate <= static + 1e-12
        if prev is not None:
            assert res.avg_rate <= prev + 1e-12
        prev = res.avg_rate
    assert math.isclose(
        search_periodic_schedule(p, 1, 16, "optimal").avg_rate, static, rel_tol=REL
    )


def test_search_long_periods_certified_and_no_worse():
    p = scalar_plant(2.5, 0.3)
    short = search_periodic_schedule(p, 32, 64)
    long = search_periodic_schedule(p, 128, 64)
    assert short is not None and long is not None and long.exact
    assert long.avg_rate <= short.avg_rate
    assert periodic_sufficient_test(p, long.schedule).stable


def test_search_deeper_than_recursion_limit():
    # known plant, lambda = 2: N = 2 has rate exactly 1, so the optimum is
    # m - 1 slots of 2 closed by one 3, at the longest allowed period
    m_max = 1500
    res = search_periodic_schedule(scalar_plant(2.0, 0.0), m_max, 3)
    assert res is not None and res.exact
    assert res.schedule.sizes == (2,) * (m_max - 1) + (3,)


def fake_rate_table(p, family, N_max, margin):
    """Rates whose float log sum and exact product disagree on (2, 2, 2, 3).

    1.29**3 * 0.4658336629106498 is at least 1 exactly, but the sum of the
    four float logarithms is -1.1e-16, inside the search's rounding band.
    """
    return iter([(2, 1.0, (1.29,)), (3, math.log2(3.0), (0.4658336629106498,))])


def test_search_decides_in_band_leaf_exactly(monkeypatch):
    w2, w3 = 1.29, 0.4658336629106498
    assert 3 * math.log(w2) + math.log(w3) < 0.0  # the float sum accepts it
    assert Fraction(w2) ** 3 * Fraction(w3) >= 1  # the exact product does not
    monkeypatch.setattr(rates, "_rate_table", fake_rate_table)
    # so the cheaper (2, 2, 2, 3) is rejected and (2, 2, 3) wins at m_max 4 too
    for m_max in (3, 4):
        res = search_periodic_schedule(scalar_plant(2.0, 0.35), m_max, 3)
        assert res is not None and res.schedule.sizes == (2, 2, 3), m_max


def fake_rate_table_in_band_feasible(p, family, N_max, margin):
    """Rates whose float log sum and exact product disagree on (2, 2, 2, 3) the
    other way round from fake_rate_table.

    1.15**3 * 0.6575162324319883 is below 1 exactly, by about 7e-18, but the
    search's float log sum of (2, 2, 2, 3) is +5.6e-17, inside its rounding
    band. Found by stepping w3 with math.nextafter around 1 / w2**3 for
    w2 = 1.10, 1.11, ..., 1.99.
    """
    return iter([(2, 1.0, (1.15,)), (3, math.log2(3.0), (0.6575162324319883,))])


def test_search_accepts_in_band_feasible_leaf_exactly(monkeypatch):
    w2, w3 = 1.15, 0.6575162324319883
    g2, g3 = math.log(w2), math.log(w3)
    assert g2 + g2 + g2 + g3 >= 0.0  # the search's float sum rejects it
    assert Fraction(w2) ** 3 * Fraction(w3) < 1  # the exact product does not
    monkeypatch.setattr(rates, "_rate_table", fake_rate_table_in_band_feasible)
    # so the cheaper (2, 2, 2, 3) wins at m_max 4, over (2, 2, 3)
    for m_max, want in ((3, (2, 2, 3)), (4, (2, 2, 2, 3))):
        res = search_periodic_schedule(scalar_plant(2.0, 0.35), m_max, 3)
        assert res is not None and res.schedule.sizes == want, m_max
        assert res.avg_rate == sum(math.log2(n) for n in want) / len(want)


class _Forbidden:
    """Stands in for a name the scalar search must not reach."""

    def __call__(self, *args, **kwargs):
        raise AssertionError("the scalar search reached a matrix or Fraction verdict")

    def __getattr__(self, name):
        self()


def test_scalar_search_builds_no_matrix_and_no_fraction(monkeypatch):
    # that it loads no numpy either is checked in a fresh interpreter, in
    # tests/test_cold_path.py
    for name in ("_radius_below", "_exact_product", "_extend_loop", "_slot", "_verdict_code"):
        monkeypatch.setattr(rates, name, _Forbidden())
    # _rescaled imports Fraction where it reads it: that import now fails
    monkeypatch.setitem(sys.modules, "fractions", None)
    grid = [(1.40 + 0.05 * j, 0.35, 32) for j in range(53)]
    # at eps = 0, integer sizes whose product ties lambda^m fall inside the band
    ties = [(lam, 0.0, 6) for lam in (4.0, 6.0, 8.0)]
    for lam, eps, m_max in grid + ties:
        res = search_periodic_schedule(scalar_plant(lam, eps), m_max, 64)
        assert res is not None and res.exact, lam


def test_search_not_found_within_caps():
    assert search_periodic_schedule(scalar_plant(3.0, 0.35), 2, 3, "optimal") is None


def test_search_zero_rate_plant_takes_the_smallest_size():
    # a* = eps = 0: every uniform rate is 0, which has no log, yet every size
    # contracts, so one 2-level slot wins as the static search finds
    zero = UncertainPlant(1, (0.0,), (0.0,), (1.0,))
    res = search_periodic_schedule(zero, 4, 8, "uniform")
    assert res is not None and res.exact
    assert res.schedule.sizes == (2,) and res.avg_rate == 1.0
    assert min_sufficient_N(zero, "uniform") == 2
    assert periodic_sufficient_test(zero, res.schedule, "uniform").stable


def fake_rate_table_with_zero(p, family, N_max, margin):
    """A zero rate at a size dearer than two positive ones."""
    return iter([(2, 1.0, (1.5,)), (3, math.log2(3.0), (0.5,)), (4, 2.0, (0.0,))])


@pytest.mark.parametrize("m_max", [1, 2, 3, 4, 5])
def test_search_with_a_zero_rate_matches_brute_force(monkeypatch, m_max):
    # a zero rate seeds the incumbent and mixes without it still compete:
    # (3,) wins at m_max 1, (2, 3) at 2 and 3, (2, 2, 2, 4) at 4, (2, 2, 2, 2, 4) at 5
    table = list(fake_rate_table_with_zero(None, None, None, None))
    monkeypatch.setattr(rates, "_rate_table", fake_rate_table_with_zero)
    want = None
    for m in range(1, m_max + 1):
        for pick in itertools.combinations_with_replacement(table, m):
            if math.prod(Fraction(w) for _, _, (w,) in pick) < 1:
                key = (sum(c for _, c, _ in pick) / m, m, tuple(N for N, _, _ in pick))
                want = key if want is None or key < want else want
    # a plant whose rate floor is 0, as a zero rate needs; the table stands in for its rates
    res = search_periodic_schedule(scalar_plant(2.0, 0.0), m_max, 4)
    assert res is not None and res.exact
    assert (res.avg_rate, res.schedule.m, res.schedule.sizes) == want


@pytest.mark.parametrize(
    "a_star,eps",
    [
        (2.0, 0.35),
        (-1.4, 0.35),
        (3.0, 1e-15),
        (3.0, 1e-16),  # r rounds to 1.0 and the floor to 0
        (0.2, 0.5),  # 0 inside the coefficient box
        (-0.5, 0.5),
        (0.0, 0.3),
        (3e-300, 1e-300),
        (1e-300, 2e-300),
        (1e300, 3e299),
        (-2e300, 1e300),
    ],
)
def test_rate_floor_bounds_every_worst_rate(a_star, eps):
    # the exact search caps its table on this floor: every size's worst rate
    # in either family, and every rescaling of it, is at least rate_floor
    p = scalar_plant(a_star, eps)
    floor = quantizer.rate_floor(abs(a_star), eps)
    margins = (0.0, 0.3, 0.999, 1.0 - 2.0**-53)
    for family in ("optimal", "uniform"):
        try:
            layouts = quantizer.layouts_for(family, p)
        except ValueError:
            continue  # the optimal family needs an expanding box
        for n_level in range(2, 1025):
            try:
                h = layouts.half(n_level)
                quantizer.check_half(n_level, h)
            except ValueError:
                continue
            w = quantizer.worst_rates(h, n_level, p)
            for margin in margins:
                assert rates._rescaled(w, margin)[0] >= floor, (family, n_level, margin)


def search_case(rng):
    """Random scalar search inputs: plant, caps, family and margin.

    Small eps keeps its caps small: those rows cap little and search long.
    """
    eps = rng.choice([0.0, 1e-9, 1e-6, 1e-4, 0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9])
    family = rng.choice(["optimal", "uniform"])
    if family == "uniform" and rng.random() < 0.2:
        lam = rng.uniform(0.0, 2.0)  # 0 may lie inside the box
    else:
        lam = eps + 1.0 + rng.uniform(0.01, 4.0)
    lam = rng.choice([1, -1]) * round(lam, rng.choice([2, 4, 17]))
    small = eps < 0.01
    m_max = rng.randint(1, 4 if small else 32)
    n_max = rng.randint(2, 32 if small else 64)
    margin = rng.choice([0.0, 0.0, round(rng.uniform(0.0, 0.3), 3)])
    return scalar_plant(lam, eps), m_max, n_max, family, margin


def test_capped_table_search_matches_the_full_table(monkeypatch):
    # with the floor forced to 0 the search reads every size, as without a cap
    rng = random.Random(20261019)
    cases = [search_case(rng) for _ in range(600)]
    def scalar_rows(p, m_max, n_max, family, margin):
        return rates._scalar_rows(rates._Table(p, family, n_max, margin), m_max)[0]

    capped = [(scalar_rows(*c), search_periodic_schedule(*c)) for c in cases]
    monkeypatch.setattr(rates, "rate_floor", lambda a_abs, eps: 0.0)
    shorter = 0
    for case, (rows, res) in zip(cases, capped):
        full = scalar_rows(*case)
        assert rows == full[: len(rows)], case
        shorter += len(rows) < len(full)
        want = search_periodic_schedule(*case)
        if want is None:
            assert res is None, case
        else:
            assert res is not None, case
            assert (res.schedule.sizes, repr(res.avg_rate), res.exact) == (
                want.schedule.sizes, repr(want.avg_rate), want.exact), case
    assert shorter >= len(cases) // 3  # the cap reads less on a good share


def reference_mix(ga, ca, gb, cb, m_max, target):
    """The cheapest mix of k slots of a and m - k of b by the per-period loop that seeded
    the search before: at each period m the least count k of the closed form
    k ga + (m - k) gb < target, kept only where its float log sum passes. inf without one."""
    ub = math.inf
    for m in range(2, m_max + 1):
        k = max(1, math.floor((m * gb - target) / (gb - ga)) + 1)
        if k < m and k * ga + (m - k) * gb < target:
            ub = min(ub, (k * ca + (m - k) * cb) / m)
    return ub


def sum_in_band(ga, gb, m_max, target):
    """Whether a float log sum k ga + (m - k) gb of 0 < k < m <= m_max lies within its
    rounding of target; at each m only the counts next to the real crossing can."""
    for m in range(2, m_max + 1):
        x = math.floor((m * gb - target) / (gb - ga))
        for k in range(max(1, x - 1), min(m - 1, x + 2) + 1):
            err = 16 * rates._U * (k * abs(ga) + (m - k) * abs(gb) + abs(target))
            if abs(k * ga + (m - k) * gb - target) <= err:
                return True
    return False


def test_seeds_match_the_per_period_mix_loop():
    # straddling pairs as the table cap mixes them: a contracts and is the dearer,
    # and b lies above 0, inside the band [target, 0], or where a count's float log
    # sum lands next to the target
    rng = random.Random(20261021)
    clear = 0
    for _ in range(2400):
        m_max = rng.choice([1, 2, 3, 32, 256])
        target = -max(rates._band(m_max, [rng.choice([3.0, 700.0])]), 1e-9)
        nb, na = sorted(rng.sample(range(2, 1025), 2))
        cb, ca = math.log2(nb), math.log2(na)
        ga = -rng.choice([rng.uniform(1e-3, 3.0), rng.uniform(1e-3, 0.05)])
        kind = rng.choice(["above", "band", "tie"])
        if kind == "above":
            gb = rng.uniform(0.0, 1.5)
        elif kind == "band":
            gb = rng.choice([0.0, target, rng.uniform(target, 0.0)])
        else:  # k slots of a and j of b sum to the target, up to a few ulps of ga
            gb = rng.uniform(1e-3, 1.5)
            k = rng.randint(1, max(1, m_max - 1))
            ga = (target - rng.randint(1, max(1, m_max - k)) * gb) / k
            for _ in range(rng.randint(0, 3)):
                ga = math.nextafter(ga, rng.choice([-math.inf, 0.0]))
        avg, k, m = rates._seeds(ga, ca, gb, cb, m_max, target)
        want = reference_mix(ga, ca, gb, cb, m_max, target)
        case = (ga, ca, gb, cb, m_max, target)
        if avg < math.inf:  # a schedule whose float log sum certifies it
            assert 0 < k < m <= m_max and k * ga + (m - k) * gb < target, case
            assert avg == (k * ca + (m - k) * cb) / m, case
        assert avg <= want, case
        if not sum_in_band(ga, gb, m_max, target):
            assert avg == want, case
            clear += 1
    assert 1500 <= clear <= 2200  # both kinds are well covered


# the n = 1 schedule rows of the scalar_schedule benchmark (bench/workloads.py:
# the criterion-9 points 1.40 ... 2.15, each moved by -0.006 ... 0.006), then
# the 53 criterion-9 rows; all at eps 0.35, m_max 32, n_max 64
CAP_ROWS = [round(round(1.40 + 0.05 * j, 2) + 0.002 * d, 4) for j in range(16) for d in range(-3, 4)]
CAP_ROWS += [1.40 + 0.05 * j for j in range(53)]
# sizes each row read when the cap was set once, at the first contracting size
CAP_READS_BEFORE = [1] * 38 + [
    31, 30, 28, 27, 20, 20, 21, 20, 20, 20, 21, 20, 21, 20, 21, 20, 20, 21, 20, 22, 21, 20, 22, 21,
    20, 21, 20, 20, 22, 21, 21, 23, 20, 20, 21, 20, 21, 21, 20, 20, 20, 20, 20, 21, 20, 20, 20, 20,
    20, 20, 21, 20, 20, 20, 21, 20, 21, 21, 20, 20, 23, 22, 21, 20, 23, 22, 21, 20, 20, 20, 20, 20,
    20, 20,
] + [1] * 5 + [
    31, 20, 21, 20, 22, 20, 20, 20, 21, 20, 20, 20, 20, 20, 20, 11, 11, 10, 12, 11, 11, 11, 11, 11,
    11, 11, 11, 13, 12, 12, 12, 23, 14, 21, 21, 21, 21, 22, 21, 22, 21, 22, 23, 22, 22, 22, 23, 22,
]


def test_table_cap_on_the_benchmark_and_criterion_9_rows(monkeypatch):
    # the cap, refreshed as rows arrive, keeps each row's answer, reads no row
    # further than the cap set once did, and reads well under half as many sizes
    def run(lam):
        p = scalar_plant(lam, 0.35)
        table = rates._Table(p, "optimal", 64, 0.0)
        rows, _ = rates._scalar_rows(table, 32)
        return len(rows), scalar_outcome(search_periodic_schedule(p, 32, 64, table=table))

    capped = [run(lam) for lam in CAP_ROWS]
    monkeypatch.setattr(rates, "rate_floor", lambda a_abs, eps: 0.0)  # the whole table
    assert [out for _, out in capped] == [run(lam)[1] for lam in CAP_ROWS]
    reads = [n for n, _ in capped]
    assert all(n <= before for n, before in zip(reads, CAP_READS_BEFORE, strict=True))
    assert (sum(reads[:112]), sum(reads[112:])) == (609, 588)  # 1 593 and 864 before
    assert sum(reads[:112]) <= 800


def reference_scalar_search(table, m_max):
    """The n = 1 search with one node per path of sizes, each slot its own node.

    A depth-first branch and bound over nondecreasing size indices, larger
    indices first, from the same seeds and with the same Lagrangian bound,
    climbed at every node with e_min's floor as is: rates._search_scalar_exact
    must give its (sizes, repr(avg_rate), exact), and its None.
    """
    rated, seeded = rates._scalar_rows(table, m_max)
    if not rated:
        return None
    zero = next((v for v in rated if v[2] == 0.0), None)
    if zero is rated[0]:
        return rates.ScheduleSearchResult(Schedule((zero[0],)), zero[1], True)
    best = None
    if zero is not None:
        N0, c0, _ = rated[0]
        best = (sum([c0] * (m_max - 1) + [zero[1]]) / m_max, m_max,
                (N0,) * (m_max - 1) + (zero[0],))
    vals = [v for v in rated if v[2] > 0.0]
    cvec = [c for _, c, _ in vals]
    gvec = [math.log(w) for _, _, w in vals]
    nums, dens = zip(*(w.as_integer_ratio() for _, _, w in vals))
    shifts = [den.bit_length() - 1 for den in dens]
    gmin = list(itertools.accumulate(reversed(gvec), min))[::-1]
    if gmin[0] >= 0.0 and best is None:
        return None
    band, betas = rates._band(m_max, gvec), rates._slopes(gvec, cvec)
    ub = min(seeded, cvec[-1] + 1.0 if best is None else best[0])
    rows = [None] * len(betas)
    tol, h = 1e-9, len(betas) - 1
    # nodes: (slots, c_sum, g_sum, last index, sizes, feasible, num, shift)
    stack = [(0, 0.0, 0.0, 0, (), False, 1, 0)]
    while stack:
        j, c_sum, g_sum, last, sizes, feas, num, shift = stack.pop()
        if feas and (best is None or (c_sum / j, j, sizes) < best):
            best = (c_sum / j, j, sizes)
            ub = min(ub, best[0])
        if j == m_max:
            continue
        j2 = j + 1
        e_max, c0 = m_max - j2, c_sum - ub * j2
        children = []
        for i in range(last, len(vals)):
            g2 = g_sum + gvec[i]
            d = -g2
            feas2 = d > band or d > -band and num * nums[i] < 1 << (shift + shifts[i])
            e_min = 0
            if not feas2:
                if gmin[i] >= 0.0:
                    continue
                e_min = math.floor((d + band) / gmin[i] - 1e-9) + 1
                if e_min > e_max:
                    continue
            start, k, step, lb = h, h, 1, -math.inf
            while True:
                if 0 <= k < len(betas):
                    if rows[k] is None:
                        pr = [c - betas[k] * g for c, g in zip(cvec, gvec)]
                        rows[k] = (pr, list(itertools.accumulate(reversed(pr), min))[::-1])
                    pr, fl = rows[k]
                    bb = c0 - betas[k] * g_sum
                    slack = fl[i] - ub
                    if slack >= 0.0 and bb + fl[i] > tol:
                        lb = math.inf  # floors grow with i: every later i fails too
                        break
                    val = bb + pr[i] + (e_min if slack >= 0.0 else e_max) * slack
                    if val > lb:
                        h, lb = k, val
                        if lb > tol:
                            break
                        k += step
                        continue
                if step == 1 and h == start:
                    step, k = -1, h - 1
                    continue
                break
            if lb == math.inf:
                break
            if lb <= tol:
                children.append((j2, c_sum + cvec[i], g2, i, sizes + (vals[i][0],), feas2,
                                 num * nums[i], shift + shifts[i]))
        stack.extend(children)
    if best is None:
        return None
    return rates.ScheduleSearchResult(Schedule(best[2]), best[0], True)


def scalar_outcome(res):
    return None if res is None else (res.schedule.sizes, repr(res.avg_rate), res.exact)


def fake_rate_table_cheapest_contracts(p, family, N_max, margin):
    """A cheapest size that contracts alone, and whose log2 is not dyadic: its
    slots' float averages differ in the last bits, as (3,) * 22 shows."""
    return iter([(3, math.log2(3.0), (0.5,)), (4, 2.0, (0.25,))])


def fake_rate_table_unit(p, family, N_max, margin):
    """A cheapest size of rate exactly 1, whose slots neither help nor hurt."""
    return iter([(2, 1.0, (1.0,)), (3, math.log2(3.0), (0.75,)), (5, math.log2(5.0), (0.3,))])


def test_grouped_search_matches_the_per_path_reference(monkeypatch):
    # random plants at every eps of search_case, both families, margins, then
    # the criterion-9 rows at two period caps; then tables with in-band
    # leaves, a zero rate, a contracting cheapest size and a rate of 1
    rng = random.Random(20261020)
    cases = [search_case(rng) for _ in range(2000)]
    cases += [(scalar_plant(1.40 + 0.05 * j, 0.35), m_max, 64, "optimal", 0.0)
              for j in range(53) for m_max in (8, 32)]
    for p, m_max, n_max, family, margin in cases:
        table = rates._Table(p, family, n_max, margin)
        want = scalar_outcome(reference_scalar_search(table, m_max))
        got = scalar_outcome(rates._search_scalar_exact(table, m_max))
        assert got == want, (p, m_max, n_max, family, margin)
    fakes = (fake_rate_table, fake_rate_table_in_band_feasible, fake_rate_table_with_zero,
             fake_rate_table_cheapest_contracts, fake_rate_table_unit)
    for fake in fakes:
        monkeypatch.setattr(rates, "_rate_table", fake)
        for m_max in range(1, 33):
            table = rates._Table(scalar_plant(2.0, 0.0), "optimal", 8, 0.0)  # floor 0: all rows
            want = scalar_outcome(reference_scalar_search(table, m_max))
            assert scalar_outcome(rates._search_scalar_exact(table, m_max)) == want, (fake, m_max)
    monkeypatch.setattr(rates, "_rate_table", fake_rate_table_cheapest_contracts)
    for m_max, count in ((12, 1), (13, 13), (22, 22), (32, 28)):
        res = rates._search_scalar_exact(rates._Table(scalar_plant(2.0, 0.0), "optimal", 8, 0.0), m_max)
        assert res.schedule.sizes == (3,) * count, m_max


def test_cheapest_size_that_contracts_alone_needs_no_search(monkeypatch):
    # the lowest criterion-9 points, as the benchmark moves them: size 2
    # contracts alone, and its slots' averages are all exactly 1
    for name in ("_prices", "_most_copies", "_within"):
        monkeypatch.setattr(rates, name, _Forbidden())
    for lam in (1.394, 1.40, 1.45, 1.50, 1.55, 1.60, 1.606):
        res = search_periodic_schedule(scalar_plant(lam, 0.35), 32, 64)
        assert res is not None and res.exact, lam
        assert (res.schedule.sizes, res.avg_rate) == ((2,), 1.0), lam


def test_cap_keeps_a_dear_size_that_closes_the_winner(monkeypatch):
    # a winner can hold a size whose price is above the incumbent, such as the
    # closing 5 of (2, 2, 2, 2, 3, 3, 5) at lambda = 2.05, m_max 8; the cap's
    # (m_max - 1) F term keeps it. Make the floor tight there: the criterion-9
    # table ends at the winner's largest size, and the plant's floor is that
    # size's rate, within an ulp, so the floor bounds the size's price exactly
    table = rates._rate_table
    for j in range(53):
        lam = 1.40 + 0.05 * j
        for m_max in (8, 16):
            want = search_periodic_schedule(scalar_plant(lam, 0.35), m_max, 64).schedule.sizes
            rows = list(table(scalar_plant(lam, 0.35), "optimal", max(want), 0.0))
            (w,) = rows[-1][2]
            eps = w
            while quantizer.rate_floor(lam, eps) > w:  # the floor may round above eps
                eps = math.nextafter(eps, 0.0)
            monkeypatch.setattr(rates, "_rate_table", lambda *args: iter(rows))
            got = search_periodic_schedule(scalar_plant(lam, eps), m_max, max(want))
            monkeypatch.setattr(rates, "_rate_table", table)
            assert got is not None and got.schedule.sizes == want, (lam, m_max)


def test_criterion_9_searches_build_few_layouts(monkeypatch):
    # the cap stops each row's table early: the 53 criterion-9 searches build
    # under 1 000 boundary halves, where reading sizes 2..64 built 3 339;
    # a known plant has a zero floor, so its search still reads every size
    built = [0]
    real = quantizer.Layouts.half

    def counting_half(layouts, n_level):
        built[0] += 1
        return real(layouts, n_level)

    monkeypatch.setattr(quantizer.Layouts, "half", counting_half)
    for j in range(53):
        assert search_periodic_schedule(scalar_plant(1.40 + 0.05 * j, 0.35), 32, 64) is not None
    assert built[0] <= 1000
    built[0] = 0
    assert search_periodic_schedule(scalar_plant(2.75, 0.0), 2, 64) is not None
    assert built[0] == 63


SEARCH_FUNCTIONS = ("_slopes", "_seeds", "_scalar_rows", "_within", "_most_copies",
                    "_search_scalar_exact", "_search_heuristic")
"""The search layer of rates: each statement of these runs on some row of SEARCH_CASES."""

# (a_star, eps, m_max, N_max, family, margin, the sizes the search returns or
# None): real plants, families, margins and caps, each kept for a statement of
# the search layer that no other row runs
SEARCH_CASES = [
    # a long exact search: every climb, cut and walk of the branch and bound
    ((16.06088692943063,), (0.01,), 16, 96, "uniform", 0.0,
     (14, 15, 15, 16, 16, 16, 16, 16, 16, 16, 16, 17, 17, 18, 18, 18)),
    # sizes 2 and 3 both have rate 1.0 exactly, 4 has 1 - 2^-53: the items' hull
    # ends in a vertical segment, and the prefix up to 4 holds no seed to cap with
    ((1.0 + 2.0**-52,), (1.0 - 2.0**-53,), 4, 8, "uniform", 0.0, (2, 2, 2, 4)),
    # a failing price floor whose line is flat in the count (_within at b = 0)
    ((1.000000000000007,), (0.9999999999999972,), 11, 33, "uniform", 0.0, (3, 4, 4, 4)),
    # a cut line that does not fall with the count: no count below passes
    ((-1.0000000000000142,), (0.9999999999999991,), 8, 21, "uniform", 0.0,
     (13, 16, 16, 16, 16, 16, 16, 21)),
    # every rate 0: the smallest size alone
    ((0.0,), (0.0,), 4, 8, "uniform", 0.0, (2,)),
    # a box that is not expanding has no optimal layout: an empty table
    ((1.2,), (0.3,), 4, 8, "optimal", 0.0, None),
    # the cheapest size contracts alone, and the table ends inside the cap
    ((-1.5219248898251512,), (1e-06,), 7, 15, "uniform", 0.0, (2,)),
    # the heuristic search of order 2
    ((1.0, 3.0), (0.1, 0.35), 4, 12, "optimal", 0.0, (4, 4, 7, 8)),
    # static = 94; size 98 = static + 4 has no layout, 99 has: the read stops at 99
    ((0.0, 1.8063283757672062), (0.27042823728344506, 0.6556422074307737), 2, 128, "optimal",
     0.0438564901736082, (94,)),
    # no size certifies within the cap: the heuristic finds nothing
    ((-0.202, 0.787, 1.206), (0.134, 0.216, 0.069), 6, 2, "optimal", 0.011, None),
]


def search_statements():
    """(function, line, first source line) of each statement of SEARCH_FUNCTIONS,
    with the lines that show it ran: a compound statement's header, any line of
    another. A docstring and a nonlocal run nothing and are left out."""
    with open(rates.__file__, encoding="utf-8") as f:
        source = f.read()
    text = source.splitlines()
    out = {}
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in SEARCH_FUNCTIONS):
            continue
        stack = fn.body[1:] if ast.get_docstring(fn) else list(fn.body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, ast.Nonlocal):
                continue
            if isinstance(stmt, ast.FunctionDef):
                end = stmt.lineno
            else:
                header = getattr(stmt, "test", None) or getattr(stmt, "iter", None)
                end = (header or stmt).end_lineno
            key = (fn.name, stmt.lineno, text[stmt.lineno - 1].strip())
            out[key] = set(range(stmt.lineno, end + 1))
            for field in ("body", "orelse"):
                stack.extend(getattr(stmt, field, []))
    return out


def lines_run(path, calls):
    """The lines of the file at path that run while calls() runs, by sys.settrace."""
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename == path else None

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        calls()
    finally:
        sys.settrace(before)
    return ran


def test_search_cases_run_every_search_statement():
    # a branch that no input reaches costs code and shows nothing: each statement
    # of the search layer runs on a row of SEARCH_CASES, but for those named here
    # with the reason they stay
    unreached = (
        ("_search_scalar_exact", "N0, c0, _ = rated[0]",
         "the zero-rate mix: no plant has a zero rate past its first size, but "
         "test_grouped_search_matches_the_per_path_reference searches such a table"),
        ("_search_scalar_exact", "best = (sum([c0] * (m_max - 1) + [zero[1]]) / m_max, m_max,",
         "the zero-rate mix, as above"),
        ("_search_scalar_exact", "c += 1",
         "a rounding guard: without it a quotient that rounds down would cut counts that may "
         "pass; the 1e-9 taken off y0 keeps the quotient off an integer but by coincidence"),
    )
    outcomes = []

    def search():
        for a_star, eps, m_max, n_max, family, margin, _ in SEARCH_CASES:
            p = UncertainPlant(len(a_star), a_star, eps, (1.0,) * len(a_star))
            res = search_periodic_schedule(p, m_max, n_max, family, margin)
            outcomes.append(None if res is None else (res.schedule.sizes, res.exact))

    ran = lines_run(rates.__file__, search)
    assert outcomes == [None if case[-1] is None else (case[-1], len(case[0]) == 1) for case in SEARCH_CASES]
    missed = sorted(key for key, lines in search_statements().items() if not lines & ran)
    named = [(fn, text) for fn, text, _reason in unreached]
    unnamed = "\n".join(f"{fn}:{line}: {text}" for fn, line, text in missed if (fn, text) not in named)
    assert not unnamed, f"no row of SEARCH_CASES runs:\n{unnamed}"
    assert sorted((fn, text) for fn, _, text in missed) == sorted(named)


def test_search_heuristic_n2_is_feasible_and_flagged():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    res = search_periodic_schedule(p, 4, 12, "optimal")
    assert res is not None and not res.exact
    assert periodic_sufficient_test(p, res.schedule, "optimal").stable
    static = math.log2(min_sufficient_N(p, "optimal"))
    assert res.avg_rate <= static + 1e-12


def reference_heuristic(p, m_max, n_max, margin):
    """Test-local copy of the higher-order DFS that runs periodic_sufficient_test
    on every node instead of extending a carried period product.

    Static size, screen and threshold are taken at the margin: the screen
    reads the radii of the companions rescaled by z = 1 - margin per step,
    rho(H) / z, against 1.
    """
    static = min_sufficient_N(p, "optimal", n_max, margin)
    cap_m = min(m_max, 6)
    cap_n = n_max if static is None else min(n_max, static + 4)
    cands = []
    for n_level in range(2, cap_n + 1):
        try:
            q = quantizer_for("optimal", p, n_level)
        except ValueError:
            continue
        w = rates._rescaled(expansion_profile(q, p), margin)
        cands.append((n_level, spectral_radius(w)))
    rho_min = min(r for _, r in cands)
    best = None

    def dfs(start, sizes, rho_prod):
        nonlocal best
        if sizes and periodic_sufficient_test(p, Schedule(sizes), "optimal", margin).stable:
            key = (sum(math.log2(v) for v in sizes) / len(sizes), len(sizes), sizes)
            best = key if best is None else min(best, key)
        if len(sizes) == cap_m:
            return
        for idx in range(start, len(cands)):
            n_level, rho = cands[idx]
            if rho_prod * rho * rho_min ** (cap_m - len(sizes) - 1) >= 1.0:
                continue
            dfs(idx, sizes + (n_level,), rho_prod * rho)

    dfs(0, (), 1.0)
    return best


def random_heuristic_cases(seed, count, orders, periods):
    """(case index, plant, margin, m_max); a third near-cyclic, margin 0.02 on some."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(*orders))
        lam = float(rng.uniform(1.4, 3.2))
        eps_n = float(rng.uniform(0.05, 0.35))
        if k % 3 == 0:  # near-cyclic: zero lower coefficients, tiny eps_1
            a = (0.0,) * (n - 1) + (lam,)
            eps = (float(rng.uniform(1e-3, 1e-2)),) + (0.0,) * (n - 2) + (eps_n,)
        else:
            a = tuple(rng.uniform(-0.8, 0.8, n - 1)) + (-lam if k % 2 else lam,)
            eps = tuple(rng.uniform(0.0, 0.1, n - 1)) + (eps_n,)
        p = UncertainPlant(n, a, eps, (1.0,) * n)
        margin = 0.02 if k % 4 == 1 else 0.0
        m_max = int(rng.integers(*periods))
        yield k, p, margin, m_max


def test_search_heuristic_matches_per_node_reference():
    # n = 2..4 with m_max 2..4, then n = 4..6 with m_max 5..6, where the cost
    # bound and the seeded incumbent skip the most nodes
    cases = itertools.chain(
        random_heuristic_cases(3, 30, (2, 5), (2, 5)),
        random_heuristic_cases(5, 6, (4, 7), (5, 7)),
    )
    for k, p, margin, m_max in cases:
        want = reference_heuristic(p, m_max, 12, margin)
        got = search_periodic_schedule(p, m_max, 12, "optimal", margin)
        if want is None:
            assert got is None, k
        else:
            assert got is not None and not got.exact, k
            assert (got.avg_rate, got.schedule.m, got.schedule.sizes) == want, k


def ho_design_plants(seed, count):
    """(plant, margin, m_max) like the benchmark's ho_design rows: n = 2..6,
    lambda - eps_n in [1.2, 2.4], every fourth near-cyclic, margin 0.02 on some."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(2, 6)
        eps_n = round(rng.uniform(0.05, 0.4), 6)
        lam = round(eps_n + rng.uniform(1.2, 2.4), 4)
        if k % 4 == 0:
            a = (0.0,) * (n - 1) + (lam,)
            eps = (round(rng.uniform(1e-3, 1e-2), 6),) + (0.0,) * (n - 2) + (eps_n,)
        else:
            a = tuple(round(rng.uniform(-0.8, 0.8), 4) for _ in range(n - 1)) + (rng.choice((-lam, lam)),)
            eps = tuple(round(rng.uniform(0.0, 0.1), 6) for _ in range(n - 1)) + (eps_n,)
        yield UncertainPlant(n, a, eps, (1.0,) * n), (0.02 if k % 5 == 1 else 0.0), rng.randint(4, 6)


def test_search_results_equal_with_the_eigvals_screen(monkeypatch):
    # the screen reads the Newton root; with the eigvals radius in its place,
    # kept here as the reference, 400 seeded searches return the same results
    cases = list(ho_design_plants(41, 400))
    got = [search_periodic_schedule(p, m_max, 64, "optimal", margin) for p, margin, m_max in cases]
    monkeypatch.setattr(rates, "spectral_radius", lambda w: eig_radius(companion(w)))
    for k, (p, margin, m_max) in enumerate(cases):
        assert search_periodic_schedule(p, m_max, 64, "optimal", margin) == got[k], k
    assert sum(res is not None and res.schedule.m > 1 for res in got) > 300


def random_plants(seed, count):
    """Seeded n = 1..4 plants, a third of them near-cyclic."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 5))
        lam = float(rng.uniform(1.4, 3.2))
        eps_n = float(rng.uniform(0.0, 0.4))
        a = tuple(rng.uniform(-0.8, 0.8, n - 1)) + (-lam if k % 2 else lam,)
        eps = tuple(rng.uniform(0.0, 0.1, n - 1)) + (eps_n,)
        if k % 3 == 0 and n > 1:
            a = (0.0,) * (n - 1) + (lam,)
            eps = (float(rng.uniform(1e-3, 1e-2)),) + (0.0,) * (n - 2) + (eps_n,)
        yield UncertainPlant(n, a, eps, (1.0,) * n)


MARGINS = (0.0, 0.02, 0.1, 0.3)


def test_one_slot_search_is_the_static_size_at_every_margin():
    # the margin is a contraction per step for the search as for N_suf
    for k, p in enumerate(random_plants(23, 150)):
        for margin in MARGINS:
            static = min_sufficient_N(p, "optimal", 24, margin)
            res = search_periodic_schedule(p, 1, 24, "optimal", margin)
            got = None if res is None else res.schedule.sizes
            assert got == (None if static is None else (static,)), (k, margin)


def test_repeated_size_is_feasible_exactly_when_the_size_is():
    checked = 0
    for k, p in enumerate(random_plants(29, 60)):
        for margin in MARGINS:
            static = min_sufficient_N(p, "optimal", 24, margin) or 24
            for N in range(max(2, static - 2), static + 2):
                want = sufficient_test(p, quantizer_for("optimal", p, N), margin).stable
                for reps in (2, 3):
                    got = periodic_sufficient_test(p, Schedule((N,) * reps), "optimal", margin)
                    assert got.stable == want, (k, margin, N, reps)
                    checked += 1
    assert checked > 1500


def test_rescale_is_a_similarity_per_step():
    # H(w) / z = D H(w') D^-1 with D = diag(1, z, ..., z^(n-1)), so the
    # product of m rescaled companions has radius rho(P) / z^m
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        margin = float(rng.uniform(0.0, 0.5))
        rate_list = [tuple(float(v) for v in rng.uniform(0.05, 0.8, n)) for _ in range(m)]
        scaled = [rates._rescaled(w, margin) for w in rate_list]
        want = eig_radius(float_product(rate_list)) / (1.0 - margin) ** m
        assert math.isclose(eig_radius(float_product(scaled)), want, rel_tol=1e-12)


def test_search_validates_caps():
    with pytest.raises(ValueError):
        search_periodic_schedule(scalar_plant(2.0, 0.1), 0, 8)
    with pytest.raises(ValueError):
        search_periodic_schedule(scalar_plant(2.0, 0.1), 2, 1)


@pytest.mark.parametrize("margin", [-0.5, 1.0, 1.5, math.nan])
def test_margin_outside_unit_interval_rejected(margin):
    p = scalar_plant(3.0, 0.5)
    with pytest.raises(ValueError, match="margin"):
        sufficient_test(p, optimal_boundaries(3.0, 0.5, 8), margin=margin)
    with pytest.raises(ValueError, match="margin"):
        search_periodic_schedule(p, 4, 8, "optimal", margin)
    with pytest.raises(ValueError, match="margin"):
        periodic_sufficient_test(scalar_plant(3.0, 0.35), Schedule((3,)), margin=margin)
    with pytest.raises(ValueError, match="margin"):
        min_sufficient_N(p, "optimal", 1, margin)  # raises with no size to test


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: min_sufficient_N(p, "optimall"),
        lambda p: search_periodic_schedule(p, 4, 16, "optimall"),
    ],
    ids=["min_sufficient_N", "search_periodic_schedule"],
)
def test_unknown_family_raises(call, n):
    # n = 1 runs the exact search, n = 2 the heuristic one; a misspelt family
    # must not come back as "not found"
    p = scalar_plant(3.0, 0.35) if n == 1 else UncertainPlant(2, (0.3, 2.2), (0.02, 0.2), (1.0, 1.0))
    with pytest.raises(ValueError, match="unknown quantizer family 'optimall'"):
        call(p)


# ---------------------------------------------------------------------------
# relaxation


def test_relaxed_min_rate_frozen():
    sol = relaxed_min_rate(3.0, 0.35, 3)
    want = 2.0 ** necessary_rate(3.0, 0.35)  # 3.675611082746715 at 50 digits
    assert len(sol.components) == 3
    for c in sol.components:
        assert math.isclose(c, want, rel_tol=REL)
    assert math.isclose(sol.phi, want, rel_tol=REL)
    assert abs(sol.psi) < 1e-12
    assert sol.multiplier > 0.0


def test_relaxed_min_rate_m1():
    sol = relaxed_min_rate(3.0, 0.35, 1)
    assert len(sol.components) == 1
    assert math.isclose(sol.components[0], 2.0 ** necessary_rate(3.0, 0.35), rel_tol=REL)


def test_relaxed_min_rate_errors():
    with pytest.raises(ValueError):
        relaxed_min_rate(3.0, 0.0, 2)
    with pytest.raises(ValueError):
        relaxed_min_rate(3.0, 1.0, 2)
    with pytest.raises(ValueError):
        relaxed_min_rate(1.2, 0.3, 2)
    with pytest.raises(ValueError):
        relaxed_min_rate(3.0, 0.35, 0)


# ---------------------------------------------------------------------------
# comparison bounds


def test_comparison_bounds_frozen():
    cb = comparison_bounds(2.0, 0.1)
    assert math.isclose(cb.r_suf, 1.8988532765431003, rel_tol=REL)
    assert math.isclose(cb.r_suf_prime, 1.15200309344505, rel_tol=REL)


def test_comparison_bounds_collapse_and_undefined():
    cb0 = comparison_bounds(2.0, 0.0)
    assert math.isclose(cb0.r_suf, 1.0, rel_tol=REL)
    assert math.isclose(cb0.r_suf_prime, 1.0, rel_tol=REL)
    assert comparison_bounds(3.0, 0.35).r_suf is None  # denominator negative
    with pytest.raises(ValueError):
        comparison_bounds(1.05, 0.2)
    # an expanding box, but eps_1 past the comparison bounds' domain
    with pytest.raises(ValueError, match=r"eps_1 must be in \[0, 1\)"):
        comparison_bounds(3.5, 1.5)


@settings(max_examples=60)
@given(
    st.floats(min_value=1.5, max_value=4.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=0.12, allow_nan=False),
)
def test_ordering_necessary_below_comparisons(lam, eps):
    cb = comparison_bounds(lam, eps)
    r_nec = necessary_rate(lam, eps)
    assert r_nec < cb.r_suf_prime
    if cb.r_suf is not None:
        assert cb.r_suf_prime < cb.r_suf
