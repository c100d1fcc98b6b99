"""Rate bounds, companion-matrix stability tests, schedules, relaxation.

Frozen numeric values were evaluated at 50 decimal digits with mpmath, or by
hand where the arithmetic is short (quadratics, log ratios of small ints).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantstab import rates
from quantstab.plant import UncertainPlant
from quantstab.quantizer import optimal_boundaries, quantizer_for, uniform_boundaries, v_rate
from quantstab.rates import (
    INFEASIBLE,
    CertificateError,
    HMatrix,
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
    with pytest.raises(ValueError):
        r_ratio(1.3, 0.35)


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


def test_hmatrix_layout():
    m = HMatrix(3, (0.1, 0.2, 0.3)).matrix()
    expect = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.3, 0.2, 0.1]])
    assert np.array_equal(m, expect)
    assert np.array_equal(HMatrix(1, (0.7,)).matrix(), np.array([[0.7]]))


def test_hmatrix_validation():
    with pytest.raises(ValueError):
        HMatrix(2, (0.5,))
    with pytest.raises(ValueError):
        HMatrix(1, (-0.1,))


def test_spectral_radius_frozen():
    assert math.isclose(spectral_radius(HMatrix(1, (0.676,))), 0.676, rel_tol=REL)
    # z^2 = 0.64 -> 0.8 (cyclic pattern, exercised via the polynomial route)
    assert math.isclose(spectral_radius(HMatrix(2, (0.0, 0.64))), 0.8, rel_tol=1e-9)
    # z^2 = 0.5 z + 0.5 -> z = 1 by the quadratic formula
    assert math.isclose(spectral_radius(HMatrix(2, (0.5, 0.5))), 1.0, rel_tol=1e-9)
    assert spectral_radius(HMatrix(3, (0.0, 0.0, 0.0))) == 0.0


def test_spectral_radius_matches_eigvals():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        w = rng.uniform(0.0, 2.0, n)
        w[rng.uniform(size=n) < 0.3] = 0.0
        if not w.any():
            w[0] = 0.5
        h = HMatrix(n, tuple(w))
        want = float(max(abs(np.linalg.eigvals(h.matrix()))))
        assert math.isclose(spectral_radius(h), want, rel_tol=1e-9, abs_tol=1e-12)


def test_spectral_radius_below_one_iff_sum_below_one():
    for w in [(0.3, 0.699), (0.1, 0.2, 0.3), (0.99,)]:
        assert spectral_radius(HMatrix(len(w), w)) < 1.0
    for w in [(0.3, 0.7), (0.5, 0.5), (1.0,), (0.2, 0.9)]:
        assert spectral_radius(HMatrix(len(w), w)) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# sufficiency tests


def test_sufficient_test_frozen():
    p = scalar_plant(3.0, 0.5)
    res = sufficient_test(p, optimal_boundaries(3.0, 0.5, 8))
    assert math.isclose(res.rho, 0.6759572072072072, rel_tol=REL)
    assert res.stable
    res_u = sufficient_test(p, uniform_boundaries(8))
    assert math.isclose(res_u.rho, 0.8125, rel_tol=REL)
    assert res_u.stable
    res2 = sufficient_test(scalar_plant(3.0, 0.35), optimal_boundaries(3.0, 0.35, 2))
    assert math.isclose(res2.rho, 1.675, rel_tol=REL)
    assert not res2.stable


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


# ---------------------------------------------------------------------------
# periodic schedules


def test_schedule_validation_and_rate():
    with pytest.raises(ValueError):
        Schedule(())
    with pytest.raises(ValueError):
        Schedule((2, 1))
    s = Schedule((2, 8))
    assert s.m == 2
    assert math.isclose(s.average_rate, 2.0, rel_tol=REL)  # (1 + 3)/2 bits


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
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    stat = sufficient_test(p, uniform_boundaries(8))
    per = periodic_sufficient_test(p, Schedule((8,)), "uniform")
    assert math.isclose(per.rho, stat.rho, rel_tol=1e-9)
    assert per.stable == stat.stable


def test_periodic_two_eight_frozen():
    # scalar product of the two worst rates: 1.675 * 0.575246671... (mpmath)
    p = scalar_plant(3.0, 0.35)
    res = periodic_sufficient_test(p, Schedule((2, 8)), "optimal")
    assert math.isclose(res.rho, 0.9635381746996894, rel_tol=1e-10)
    assert res.stable
    assert math.isclose(Schedule((2, 8)).average_rate, 2.0, rel_tol=REL)


def test_periodic_all_expanding_slots_unstable():
    p = scalar_plant(3.0, 0.35)
    res = periodic_sufficient_test(p, Schedule((2, 2, 3)), "optimal")
    assert res.rho >= 1.0 and not res.stable


def test_periodic_power_consistency():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    one = sufficient_test(p, uniform_boundaries(6)).rho
    three = periodic_sufficient_test(p, Schedule((6, 6, 6)), "uniform").rho
    assert math.isclose(three, one**3, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# schedule search


def brute_force_best(lam, eps, m_max, n_max, margin=0.0):
    """Test-local exhaustive multiset search over v-rate products."""
    best = None
    for m in range(1, m_max + 1):
        for sizes in itertools.combinations_with_replacement(range(2, n_max + 1), m):
            prod = 1.0
            for n_level in sizes:
                prod *= v_rate(lam, eps, n_level)
            if prod < 1.0 - margin:
                avg = sum(math.log2(v) for v in sizes) / m
                key = (avg, m, sizes)
                if best is None or key < best:
                    best = key
    return best


@pytest.mark.parametrize(
    "lam,eps,margin",
    [
        pytest.param(2.0, 0.35, 0.0, id="2.0-0.35"),
        pytest.param(3.0, 0.5, 0.0, id="3.0-0.5"),
        pytest.param(1.75, 0.35, 0.0, id="1.75-0.35"),
        # the margin moves the optimum away from (4, 4, 4, 5)
        pytest.param(3.0, 0.5, 0.1, id="3.0-0.5-margin0.1"),
        # (4,) ties (4, 4), (4, 4, 4), ...: the fewest slots must win
        pytest.param(3.995, 0.0, 0.0, id="3.995-0.0"),
    ],
)
def test_search_matches_brute_force(lam, eps, margin):
    p = scalar_plant(lam, eps)
    want = brute_force_best(lam, eps, 4, 8, margin)
    got = search_periodic_schedule(p, 4, 8, "optimal", margin)
    assert want is not None and got is not None
    assert got.exact
    assert math.isclose(got.avg_rate, want[0], rel_tol=1e-9)
    assert got.schedule.m == want[1]
    assert tuple(sorted(got.schedule.sizes)) == want[2]


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


def fake_step_rates(p, family, N_max):
    """Rates whose float log sum and exact product disagree on (2, 2, 2, 3).

    1.29**3 * 0.4658336629106498 is at least 1 exactly, but the sum of the
    four float logarithms is -1.1e-16, so the log-space search accepts it.
    """
    return [(2, 1.0, 1.29), (3, math.log2(3.0), 0.4658336629106498)]


def test_search_certificate_disagreement_raises(monkeypatch):
    monkeypatch.setattr(rates, "_scalar_step_rates", fake_step_rates)
    with pytest.raises(CertificateError, match=r"\[2, 2, 2, 3\]"):
        search_periodic_schedule(scalar_plant(2.0, 0.35), 4, 3)
    # one slot fewer, the winner (2, 2, 3) is certified
    res = search_periodic_schedule(scalar_plant(2.0, 0.35), 3, 3)
    assert res is not None and res.schedule.sizes == (2, 2, 3)


def test_search_not_found_within_caps():
    assert search_periodic_schedule(scalar_plant(3.0, 0.35), 2, 3, "optimal") is None


def test_search_heuristic_n2_is_feasible_and_flagged():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    res = search_periodic_schedule(p, 4, 12, "optimal")
    assert res is not None and not res.exact
    assert periodic_sufficient_test(p, res.schedule, "optimal").stable
    static = math.log2(min_sufficient_N(p, "optimal"))
    assert res.avg_rate <= static + 1e-12


def reference_heuristic(p, m_max, n_max, margin):
    """Test-local copy of the higher-order DFS that runs periodic_sufficient_test
    on every node instead of extending a carried period product."""
    static = min_sufficient_N(p, "optimal", n_max)
    cap_m = min(m_max, 6)
    cap_n = n_max if static is None else min(n_max, static + 4)
    cands = []
    for n_level in range(2, cap_n + 1):
        try:
            q = quantizer_for("optimal", p, n_level)
        except ValueError:
            continue
        cands.append((n_level, sufficient_test(p, q).rho))
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
            if rho_prod * rho * rho_min ** (cap_m - len(sizes) - 1) >= 1.0 - margin:
                continue
            dfs(idx, sizes + (n_level,), rho_prod * rho)

    dfs(0, (), 1.0)
    return best


def test_search_heuristic_matches_per_node_reference():
    rng = np.random.default_rng(3)
    for k in range(30):
        n = int(rng.integers(2, 5))
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
        m_max = int(rng.integers(2, 5))
        want = reference_heuristic(p, m_max, 12, margin)
        got = search_periodic_schedule(p, m_max, 12, "optimal", margin)
        if want is None:
            assert got is None, k
        else:
            assert got is not None and not got.exact, k
            assert (got.avg_rate, got.schedule.m, got.schedule.sizes) == want, k


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
