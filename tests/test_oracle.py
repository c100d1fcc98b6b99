"""Brute-force oracles against the closed forms they are meant to certify."""

import math
import types

import pytest

from quantstab import oracle
from quantstab.oracle import (
    exhaustive_encode_decode,
    grid_optimal_boundaries,
    verify_equalization,
    verify_relaxation_kkt,
)
from quantstab.plant import UncertainPlant
from quantstab.quantizer import (
    QuantizerSpec,
    coefficient_expansion_rates,
    optimal_boundaries,
    uniform_boundaries,
    v_rate,
)
from quantstab.rates import relaxed_min_rate


def scalar_plant(lam, eps):
    return UncertainPlant(1, (lam,), (eps,), (1.0,))


# ---------------------------------------------------------------------------
# grid search


def test_grid_agrees_with_closed_form_even():
    res = grid_optimal_boundaries(3.0, 0.5, 4, 1e-3)
    ref = optimal_boundaries(3.0, 0.5, 4)
    assert abs(res.value - v_rate(3.0, 0.5, 4)) < 1e-6
    assert max(abs(a - b) for a, b in zip(res.h, ref.h)) < 2e-3


def test_grid_agrees_with_closed_form_odd_coupled():
    # two free boundaries move together; the hard case for local refinement
    res = grid_optimal_boundaries(2.0, 0.2, 5, 1e-3)
    ref = optimal_boundaries(2.0, 0.2, 5)
    assert abs(res.value - v_rate(2.0, 0.2, 5)) < 1e-4
    assert max(abs(a - b) for a, b in zip(res.h, ref.h)) < 2e-3


def test_grid_recovers_uniform_at_zero_eps():
    res = grid_optimal_boundaries(2.0, 0.0, 4, 1e-3)
    assert abs(res.h[1] - 0.25) < 1e-3
    assert abs(res.value - 0.5) < 1e-6


def test_grid_two_level_degenerate():
    res = grid_optimal_boundaries(3.0, 0.35, 2, 1e-3)
    assert res.h == (0.0, 0.5)
    assert math.isclose(res.value, 1.675, rel_tol=1e-12)


def test_nonoptimal_layout_strictly_worse():
    opt = v_rate(3.0, 0.5, 8)
    uni = max(coefficient_expansion_rates(uniform_boundaries(8), 3.0, 0.5))
    assert uni > opt + 0.1  # 0.8125 vs 0.676
    res = grid_optimal_boundaries(3.0, 0.5, 6, 1e-3)
    uni6 = max(coefficient_expansion_rates(uniform_boundaries(6), 3.0, 0.5))
    assert res.value < uni6


def test_grid_validations():
    with pytest.raises(ValueError):
        grid_optimal_boundaries(3.0, 0.5, 4, 0.02)
    with pytest.raises(ValueError):
        grid_optimal_boundaries(3.0, 0.5, 7, 1e-3)
    with pytest.raises(ValueError):
        grid_optimal_boundaries(1.2, 0.3, 4, 1e-3)
    # the expanding-box check is r_ratio's, which nan and inf fail too
    for lam, eps in ((math.nan, 0.1), (math.inf, 0.1), (3.0, math.nan), (3.0, math.inf)):
        with pytest.raises(ValueError):
            grid_optimal_boundaries(lam, eps, 4, 1e-2)


# ---------------------------------------------------------------------------
# equalization


def test_equalization_true_for_optimal_layouts():
    for lam, eps in [(3.0, 0.5), (2.0, 0.2), (2.5, 0.35)]:
        p = scalar_plant(lam, eps)
        for n_level in (3, 4, 5, 8):
            assert verify_equalization(optimal_boundaries(lam, eps, n_level), p)


def test_equalization_false_for_uniform_with_uncertainty():
    p = scalar_plant(3.0, 0.5)
    for n_level in (3, 4, 8):
        assert not verify_equalization(uniform_boundaries(n_level), p)


def test_equalization_two_level_always_true():
    # N=2 has one cell rate per side; uniform and optimal coincide
    p = scalar_plant(3.0, 0.5)
    assert verify_equalization(uniform_boundaries(2), p)
    assert uniform_boundaries(2).h == optimal_boundaries(3.0, 0.5, 2).h


def test_equalization_uniform_known_plant():
    # equal cell widths with no uncertainty: every rate is lam * width
    p = scalar_plant(2.0, 0.0)
    assert verify_equalization(uniform_boundaries(6), p)


def test_equalization_rejects_perturbed_optimum():
    q = optimal_boundaries(3.0, 0.5, 8)
    h = list(q.h)
    h[1] += 1e-6
    assert not verify_equalization(QuantizerSpec(8, tuple(h)), scalar_plant(3.0, 0.5))


# ---------------------------------------------------------------------------
# relaxation probing


def test_kkt_probe_passes_at_optimum():
    for m in (2, 3):
        assert verify_relaxation_kkt(3.0, 0.35, m, trials=2000, seed=0)


def test_kkt_probe_m1_trivial():
    assert verify_relaxation_kkt(3.0, 0.35, 1, trials=100, seed=0)


def test_kkt_probe_deterministic_in_seed():
    a = verify_relaxation_kkt(3.0, 0.35, 3, trials=500, seed=42)
    b = verify_relaxation_kkt(3.0, 0.35, 3, trials=500, seed=42)
    assert a == b is True


def replaced(record, **changes):
    """record with the fields named in changes replaced, as dataclasses.replace gave it."""
    return type(record)(**{**{f: getattr(record, f) for f in record.__match_args__}, **changes})


def test_kkt_probe_fails_off_the_surface(monkeypatch):
    # a claimed optimum whose rate product is not one fails before any probe
    real = oracle.relaxed_min_rate
    monkeypatch.setattr(oracle, "relaxed_min_rate", lambda *a: replaced(real(*a), psi=1e-6))
    assert not verify_relaxation_kkt(3.0, 0.35, 2, trials=100, seed=0)


def test_kkt_probe_fails_when_a_probe_beats_the_optimum(monkeypatch):
    # a claimed geometric mean 0.1 above the true one: probes near the optimum beat it
    real = oracle.relaxed_min_rate
    monkeypatch.setattr(
        oracle, "relaxed_min_rate", lambda *a: replaced(real(*a), phi=real(*a).phi + 0.1)
    )
    assert not verify_relaxation_kkt(3.0, 0.35, 2, trials=100, seed=0)


def test_wrong_candidate_has_larger_objective():
    # push both head components off the optimum, restore feasibility via the
    # last one, and compare geometric means: convexity says strictly worse
    lam, eps, m = 3.0, 0.35, 3
    sol = relaxed_min_rate(lam, eps, m)
    r = (lam - eps) / (lam + eps)
    for delta in (0.5, -0.5):
        head = [sol.components[0] + delta] * (m - 1)
        prod = 1.0
        for c in head:
            prod *= eps / (1.0 - r ** (c / 2.0))
        tail = 2.0 * math.log(1.0 - eps * prod) / math.log(r)
        assert tail > 0.0
        phi = (math.prod(head) * tail) ** (1.0 / m)
        assert phi > sol.phi + 1e-3


# ---------------------------------------------------------------------------
# encode/decode exhaustion


def test_exhaustive_roundtrip_large_sample():
    q = optimal_boundaries(3.0, 0.5, 8)
    assert exhaustive_encode_decode(q, 100_000)


def test_exhaustive_roundtrip_odd_uniform():
    assert exhaustive_encode_decode(uniform_boundaries(3), 1000)
    assert exhaustive_encode_decode(uniform_boundaries(5), 1000)


def test_exhaustive_requires_enough_samples():
    with pytest.raises(ValueError):
        exhaustive_encode_decode(uniform_boundaries(8), 7)


def stub_quantizer(edges):
    """What exhaustive_encode_decode reads of a quantizer, N and edges, with no
    check of its own: QuantizerSpec would refuse these edges."""
    return types.SimpleNamespace(N=len(edges) - 1, edges=tuple(edges))


def test_exhaustive_rejects_a_gap_in_the_edges():
    # the cells stop at 0.4: (0.4, 1/2] is in none
    assert exhaustive_encode_decode(stub_quantizer((-0.5, 0.0, 0.5)), 100)
    assert not exhaustive_encode_decode(stub_quantizer((-0.5, 0.0, 0.4)), 100)


def test_exhaustive_rejects_a_reversed_pair_of_edges():
    assert not exhaustive_encode_decode(stub_quantizer((-0.5, 0.1, -0.1, 0.5)), 100)


def test_exhaustive_rejects_an_out_of_range_symbol(monkeypatch):
    monkeypatch.setattr(oracle, "encode", lambda q, x: q.N + 1)
    assert not exhaustive_encode_decode(uniform_boundaries(4), 100)


def test_exhaustive_rejects_the_wrong_cell(monkeypatch):
    # the symbol of the next cell up, the top cell's wrapping to 1
    real = oracle.encode
    monkeypatch.setattr(oracle, "encode", lambda q, x: real(q, x) % q.N + 1)
    assert not exhaustive_encode_decode(uniform_boundaries(4), 100)


def test_exhaustive_rejects_a_hull_that_misses_the_point(monkeypatch):
    real = oracle.decode
    monkeypatch.setattr(oracle, "decode", lambda q, s, sigma: tuple(v + 1.0 for v in real(q, s, sigma)))
    assert not exhaustive_encode_decode(uniform_boundaries(4), 100)
