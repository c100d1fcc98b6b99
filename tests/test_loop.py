"""Closed-loop simulator: prediction, control, invariants, envelopes, verdicts."""

import ast
import difflib
import functools
import hashlib
import math
import random
import re

import numpy as np
import pytest

from quantstab.cli import _TRAJECTORY_ROW, MAX_ORDER
from quantstab.intervals import check_hull, hull_contains, interval_product
from quantstab.loop import (
    CONVERGENCE_RATIO,
    DIVERGENCE_RATIO,
    INIT_MODES,
    REL_GUARD,
    InvariantViolation,
    Trajectory,
    _Setup,
    _kernel,
    _kernel_source,
    control_input,
    predict,
    run_closed_loop,
)
from quantstab.oracle import sigma_envelope
from quantstab.plant import SAMPLING_MODES, UncertainPlant, sample_instance, seed_states, step
from quantstab.quantizer import (
    SaturationError,
    coefficient_expansion_rates,
    decode,
    encode,
    expansion_profile,
    optimal_boundaries,
    v_rate,
)
from quantstab.rates import Schedule, schedule_quantizers

REL = 1e-12
GUARD = 1e-9


def scalar_plant(lam=3.0, eps=0.5, bound=1.0):
    return UncertainPlant(1, (lam,), (eps,), (bound,))


# ---------------------------------------------------------------------------
# prediction and control


def test_predict_scalar_frozen():
    p = UncertainPlant(1, (2.0,), (0.5,), (1.0,))  # box [1.5, 2.5]
    lo, hi = predict(p.parameter_intervals(), [(0.2, 0.4)])
    assert lo == pytest.approx(0.3, rel=1e-15)
    assert hi == 1.0
    assert math.isclose(hi - lo, 0.7, rel_tol=REL)


def test_predict_known_second_order():
    p = UncertainPlant(2, (1.0, 2.0), (0.0, 0.0), (1.0, 1.0))
    assert predict(p.parameter_intervals(), [(0.0, 1.0), (0.0, 1.0)]) == (0.0, 3.0)


def test_predict_width_additivity():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    box = p.parameter_intervals()
    sets = [(-0.2, 0.5), (0.1, 0.3)]
    lo, hi = predict(box, sets)
    parts = [interval_product(*box[i - 1], *sets[i - 1]) for i in (1, 2)]
    assert math.isclose(hi - lo, sum(p_hi - p_lo for p_lo, p_hi in parts), rel_tol=REL)


def test_control_examples():
    assert math.isclose(control_input(0.3, 1.0), -0.65, rel_tol=REL)
    assert control_input(-1.0, 1.0) == 0.0
    assert control_input(2.0, 2.0) == -2.0


# ---------------------------------------------------------------------------
# envelope iteration


def test_sigma_envelope_frozen_geometric():
    env = sigma_envelope((0.5,), [2.0], 3)
    assert env == [1.0, 0.5, 0.25]


def test_sigma_envelope_second_order():
    # by hand: next = w2*oldest + w1*newest
    env = sigma_envelope((0.5, 0.25), [2.0, 1.0], 3)
    assert math.isclose(env[0], 0.25 * 2.0 + 0.5 * 1.0, rel_tol=REL)
    assert math.isclose(env[1], 0.25 * 1.0 + 0.5 * env[0], rel_tol=REL)
    assert math.isclose(env[2], 0.25 * env[0] + 0.5 * env[1], rel_tol=REL)


def test_sigma_envelope_validation():
    with pytest.raises(ValueError):
        sigma_envelope((0.5, 0.25), [1.0], 3)
    with pytest.raises(ValueError):
        sigma_envelope((0.5,), [1.0], -1)
    assert sigma_envelope((0.5,), [1.0], 0) == []


# ---------------------------------------------------------------------------
# closed-loop runs


def test_scalar_sigma_recursion_exact():
    # sigma_{k+1} equals the width of the coefficient box times the estimate
    p = scalar_plant(3.0, 0.5)
    traj = run_closed_loop(
        p, (3.2,), Schedule((8,)), "optimal", 200, "endpoints"
    )
    box = p.parameter_intervals()[0]
    for prev, cur in zip(traj.samples, traj.samples[1:]):
        lo, hi = interval_product(*box, prev[3], prev[4])
        assert math.isclose(cur[2], hi - lo, rel_tol=REL)


def test_scalar_geometric_decay_bound():
    p = scalar_plant(3.0, 0.5)
    wbar = v_rate(3.0, 0.5, 8)
    traj = run_closed_loop(
        p, (3.2,), Schedule((8,)), "optimal", 200, "endpoints"
    )
    assert traj.verdict == "stabilized"
    sigma0 = traj.sigma0
    for k, sigma in enumerate(traj.sigmas()):
        assert sigma <= sigma0 * wbar**k * (1.0 + GUARD)


def test_critical_rate_flat_sigma():
    # worst rate exactly 1: the scaling must neither grow nor decay
    p = scalar_plant(2.0, 0.0)
    traj = run_closed_loop(
        p, (2.0,), Schedule((2,)), "uniform", 500, "uniform", 11
    )
    assert traj.verdict == "horizon_exhausted"
    assert len(traj.samples) == 501
    assert all(sigma == traj.sigma0 for sigma in traj.sigmas())


def test_divergence_verdict():
    # two levels cannot hold a worst rate of 1.675
    p = scalar_plant(3.0, 0.35)
    traj = run_closed_loop(
        p, (3.0,), Schedule((2,)), "optimal", 500, "uniform", 5
    )
    assert traj.verdict == "diverged"
    assert traj.sigmas()[-1] > 1e12 * traj.sigma0


def test_zero_width_prediction_ends_stabilized():
    # every coefficient 0 and known: the first prediction is the point {0}
    p = UncertainPlant(2, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    traj = run_closed_loop(
        p, (0.0, 0.0), Schedule((4,)), "uniform", 50, "uniform", 3
    )
    assert traj.verdict == "stabilized"
    assert traj.steps == 0
    y, s, sigma, e_lo, e_hi, p_lo, p_hi, u = traj.samples[0]
    assert (p_lo, p_hi) == (0.0, 0.0)
    assert sigma == traj.sigma0 == 2.0


def test_envelope_dominates_run():
    p = scalar_plant(3.0, 0.5)
    wbar = v_rate(3.0, 0.5, 8)
    traj = run_closed_loop(
        p, (2.6,), Schedule((8,)), "optimal", 100, "uniform", 3
    )
    sig = traj.sigmas()
    env = sigma_envelope((wbar,), [traj.sigma0], len(sig))
    for k in range(1, len(sig)):
        assert sig[k] <= env[k - 1] * (1.0 + GUARD)


def test_containment_and_half_sigma_bound():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    inst = sample_instance(p, "uniform", seed=14)
    traj = run_closed_loop(p, inst, Schedule((6,)), "optimal", 300, "uniform", 15)
    for y, s, sigma, e_lo, e_hi, *_ in traj.samples:
        assert hull_contains(e_lo, e_hi, y, GUARD * sigma)
        assert abs(y) <= 0.5 * sigma * (1.0 + GUARD)
        assert e_hi - e_lo <= sigma * (1.0 + GUARD)


def test_run_takes_a_seed_state_as_its_init_seed():
    # a batch hands each run the SeedState of [seed, i, 1]: the same draws
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (0.7, 1.3))
    inst = sample_instance(p, "uniform", seed=4)
    entropies = [[4, i, 1] for i in range(3)]
    for entropy, state in zip(entropies, seed_states(entropies)):
        want = run_closed_loop(p, inst, Schedule((6,)), "optimal", 50, "uniform", entropy)
        got = run_closed_loop(p, inst, Schedule((6,)), "optimal", 50, "uniform", state)
        assert got == want


def test_second_order_invariants_over_seeds():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    for seed in range(20):
        inst = sample_instance(p, "uniform", seed=seed)
        traj = run_closed_loop(p, inst, Schedule((6,)), "optimal", 200, "uniform", seed)
        assert traj.verdict in ("stabilized", "horizon_exhausted")
        assert traj.min_sigma_ratio() < 1.0


def test_periodic_schedule_contracts_per_period():
    p = scalar_plant(3.0, 0.35)
    rho = v_rate(3.0, 0.35, 2) * v_rate(3.0, 0.35, 8)
    traj = run_closed_loop(
        p, (3.1,), Schedule((2, 8)), "optimal", 400, "uniform", 23
    )
    sig = traj.sigmas()
    for k in range(0, len(sig) - 2, 2):
        assert sig[k + 2] <= rho * sig[k] * (1.0 + GUARD)
    assert traj.min_sigma_ratio() < 1e-3


def test_custom_quantizer_list_family():
    p = scalar_plant(3.0, 0.35)
    qs = [optimal_boundaries(3.0, 0.35, 2), optimal_boundaries(3.0, 0.35, 8)]
    a = run_closed_loop(p, (3.1,), Schedule((2, 8)), qs, 100, "zero")
    b = run_closed_loop(p, (3.1,), Schedule((2, 8)), "optimal", 100, "zero")
    assert a.samples == b.samples


def test_determinism():
    # the kernel of each order is built once and shared by every run: each
    # call keeps its ring and history in its own locals, and none of its
    # arguments is written to
    cases = [
        ((3.0,), (0.35,), (8,)),
        ((1.0, 3.0), (0.1, 0.35), (6,)),
        ((0.1, -0.2, 0.3, 2.0), (0.01, 0.01, 0.01, 0.1), (8,)),
        ((1.0, 3.0), (0.1, 0.35), (4, 8, 16)),
    ]
    for a_star, eps, sizes in cases:
        n = len(a_star)
        p = UncertainPlant(n, a_star, eps, (1.0,) * n)
        sched = Schedule(sizes)
        qs = schedule_quantizers(p, sched, "optimal")
        specs = list(qs)
        inst = sample_instance(p, "uniform", seed=3)
        runs = []
        for a in (list(inst), tuple(inst)):
            for _ in range(2):
                traj = run_closed_loop(p, a, sched, qs, 120, "uniform", 5)
                runs.append((traj.samples, traj.verdict))
            assert a == type(a)(inst)
        assert len(runs[0][0]) > 50
        assert all(run == runs[0] for run in runs[1:])
        assert len(qs) == len(specs) and all(q is spec for q, spec in zip(qs, specs))
        assert qs == schedule_quantizers(p, sched, "optimal")
        assert p == UncertainPlant(n, a_star, eps, (1.0,) * n)


def test_saturation_on_inadmissible_instance():
    # true growth far outside the box: the encoder input must leave [-1/2, 1/2]
    p = scalar_plant(3.0, 0.5)
    with pytest.raises(SaturationError):
        run_closed_loop(
            p, (5.0,), Schedule((8,)), "optimal", 50, "endpoints"
        )


@pytest.mark.parametrize(
    "a_star, eps, bounds",
    [
        # a* = 1e300: the products overflow on the first step
        ((1e300,), (0.0,), (1e10,)),
        # n = 2: the two prediction terms overflow to -inf and +inf, and their
        # sum is nan on the step the run diverges
        (
            (-4.0101475628117486e195, 1.6837717645009267e282),
            (1.2030442688435245e195, 5.05131529350278e281),
            (33184678.935814675, 9.50428202460076e51),
        ),
    ],
)
def test_overflow_to_nan_raises_malformed_interval(a_star, eps, bounds):
    # a nan bound is a malformed set, as intervals.check_hull says; the run
    # must raise it rather than return a trajectory holding the nan
    p = UncertainPlant(len(a_star), a_star, eps, bounds)
    with pytest.raises(ValueError, match="malformed interval"):
        run_closed_loop(
            p, a_star, Schedule((3,)), "uniform", 60, "endpoints", 0
        )


def test_run_validations():
    p = scalar_plant()
    with pytest.raises(ValueError):
        run_closed_loop(p, (3.0,), Schedule((8,)), "optimal", 0)
    with pytest.raises(ValueError):
        run_closed_loop(p, (3.0, 1.0), Schedule((8,)), "optimal", 10)
    with pytest.raises(ValueError):
        run_closed_loop(
            p, (3.0,), Schedule((8,)), "optimal", 10, "sideways"
        )


@pytest.mark.parametrize("horizon", [3.5, 3.0, math.inf])
def test_horizon_must_be_an_integer(horizon):
    # the loop stops on k == horizon, which a non-integer never meets; this
    # plant diverges within 60 steps, so a run that is not refused still ends
    with pytest.raises(TypeError):
        run_closed_loop(scalar_plant(), (3.0,), Schedule((2,)), "optimal", horizon, record=False)


def test_trajectory_shape_and_first_row():
    p = scalar_plant(3.0, 0.5, bound=0.7)
    traj = run_closed_loop(
        p, (3.0,), Schedule((8,)), "optimal", 40, "zero"
    )
    assert traj.sigma0 == 1.4  # twice the newest initial bound
    q = optimal_boundaries(3.0, 0.5, 8)
    assert traj.samples[0][:3] == (0.0, encode(q, 0.0), traj.sigma0)
    assert traj.steps == len(traj.samples) - 1
    assert all(len(t) == 8 for t in traj.samples)


def test_invariant_violation_type_is_runtime_error():
    assert issubclass(InvariantViolation, RuntimeError)


# ---------------------------------------------------------------------------
# bitwise replay against the reference route


def cell_rate_index(q, s):
    """Distance-from-origin index l of cell s, matching the rate families."""
    if q.N % 2 == 0:
        half = q.N // 2
        return s - half - 1 if s > half else half - s
    center = (q.N + 1) // 2
    return abs(s - center)


def init_mode_value(mode, bound, rng):
    """Initial output of one init mode, uniform ones drawn from numpy's rng."""
    if mode == "endpoints":
        return bound
    if mode == "zero":
        return 0.0
    if mode == "uniform":
        return float(rng.uniform(-bound, bound))
    raise ValueError(f"unknown init mode {mode!r}")


def reference_run(p, inst, sched, family="optimal", horizon=500, init_mode="uniform", init_seed=None):
    """The closed loop with every step written against the public functions.

    predict, control_input, interval_product, hull_contains, encode, decode
    and plant.step each do their own part of a step; run_closed_loop must
    give these samples bit for bit and raise these errors at the same step.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if len(inst) != p.n:
        raise ValueError("instance order does not match the plant")
    qs = schedule_quantizers(p, sched, family)
    m = len(qs)
    box = p.parameter_intervals()
    box_n_lo, box_n_hi = box[-1]
    box_factors = tuple(abs(a) + e for a, e in zip(p.a_star, p.eps))
    slots = []
    for q in qs:
        rates_n = coefficient_expansion_rates(q, abs(p.a_star[-1]), p.eps[-1])
        rate_of = tuple(rates_n[cell_rate_index(q, s)] for s in range(1, q.N + 1))
        slots.append((q, expansion_profile(q, p), rate_of))

    rng = np.random.default_rng(init_seed)
    y_hist = [init_mode_value(init_mode, b, rng) for b in p.init_bounds]  # oldest first
    # oldest first: (lo, hi, sigma, env, factors, rate_n) of each estimate
    ring = [(-b, b, 2.0 * b, 2.0 * b, box_factors, box_factors[-1]) for b in p.init_bounds[:-1]]

    def transmit(k, y, sigma):
        q, factors, rate_of = slots[k % m]
        x = y / sigma
        if abs(x) > 0.5:
            if abs(x) <= 0.5 * (1.0 + REL_GUARD):
                x = math.copysign(0.5, x)
            elif math.isinf(y):
                raise ValueError(f"step {k}: the output overflowed to {y}")
            else:
                raise SaturationError(f"step {k}: |y|/sigma = {abs(x)} exceeds 1/2 beyond roundoff")
        s = encode(q, x)
        return (s, *decode(q, s, sigma), factors, rate_of[s - 1])

    sigma0 = 2.0 * p.init_bounds[-1]
    y_k = y_hist[-1]
    s_k, e_lo, e_hi, factors, rate_n = transmit(0, y_k, sigma0)
    ring.append((e_lo, e_hi, sigma0, sigma0, factors, rate_n))

    samples = []
    verdict = "horizon_exhausted"
    history = list(reversed(y_hist))
    k = 0
    while True:
        lo, hi = predict(box, reversed(ring))
        sigma_next = hi - lo
        u = control_input(lo, hi)
        newest = ring[-1]
        sigma_k = newest[2]
        samples.append((y_k, s_k, sigma_k, newest[0], newest[1], lo, hi, u))
        if sigma_k < CONVERGENCE_RATIO * sigma0:
            verdict = "stabilized"
            break
        if sigma_k > DIVERGENCE_RATIO * sigma0:
            verdict = "diverged"
            break
        if k == horizon:
            break
        if sigma_next == 0.0:
            verdict = "stabilized"
            break

        y_next = step(inst, history, u)
        s_next, e_lo, e_hi, factors, rate_n = transmit(k + 1, y_next, sigma_next)
        o_lo, o_hi, o_sigma, _, _, o_rate_n = ring[0]
        l_lo, l_hi = interval_product(box_n_lo, box_n_hi, o_lo, o_hi)
        lower = l_hi - l_lo
        guard = REL_GUARD * (sigma_next + abs(u))
        if not hull_contains(lo + u, hi + u, y_next, guard):
            check_hull(lo + u, hi + u)
            raise InvariantViolation(f"step {k + 1}: output escaped the predicted set")
        if not hull_contains(e_lo, e_hi, y_next, REL_GUARD * sigma_next):
            raise ValueError(f"step {k + 1}: the output overflowed to {y_next}")
        if sigma_next < lower - REL_GUARD * sigma_next:
            raise InvariantViolation(f"step {k + 1}: scaling under its lower-bound recursion")
        if abs(lower - o_rate_n * o_sigma) > REL_GUARD * (lower + sigma_next):
            raise InvariantViolation(f"step {k + 1}: scaling lower bound mismatches its rate form")
        env_next = 0.0
        for i, donor in enumerate(reversed(ring)):
            env_next += donor[4][i] * donor[3]
        if sigma_next > env_next * (1.0 + REL_GUARD):
            raise InvariantViolation(f"step {k + 1}: scaling escaped the worst-case envelope")

        ring.append((e_lo, e_hi, sigma_next, env_next, factors, rate_n))
        ring.pop(0)
        history.insert(0, y_next)
        history.pop()
        y_k, s_k = y_next, s_next
        k += 1

    return Trajectory(samples, verdict, sigma0, len(samples) - 1, min(t[2] for t in samples))


def bits(traj):
    """Every sample field and sigma0 by its exact bits: -0.0 and 0.0 differ."""
    def exact(v):
        return v.hex() if isinstance(v, float) else repr(v)

    return [tuple(map(exact, t)) for t in traj.samples], exact(traj.sigma0), traj.verdict


def outcome(run, *args):
    """bits of the run's trajectory, or the type and message it raised."""
    try:
        return bits(run(*args))
    except (ValueError, InvariantViolation, SaturationError) as exc:
        return type(exc), str(exc)


def failing_horizon(run, args, top):
    """Smallest horizon in 1..top at which the run raises: the step it raises at."""
    def raises(h):
        return not isinstance(outcome(run, *args[:4], h, *args[5:])[0], list)

    lo, hi = 1, top
    while lo < hi:
        mid = (lo + hi) // 2
        if raises(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def random_case(rng, n=None):
    """(plant, instance, schedule, family, horizon, init_mode, init_seed) drawn
    by rng, at plant order n if given, else at an order drawn from 1..4."""
    if n is None:
        n = rng.randint(1, 4)
    lead = rng.choice((-1.0, 1.0)) * rng.uniform(1.3, 4.0)
    eps_n = rng.choice((0.0, rng.uniform(0.0, 0.25)))
    a_star = tuple(rng.uniform(-0.6, 0.6) for _ in range(n - 1)) + (lead,)
    eps = tuple(rng.choice((0.0, rng.uniform(0.0, 0.1))) for _ in range(n - 1)) + (eps_n,)
    bounds = tuple(rng.choice((1.0, 0.5, 3.0, rng.uniform(0.01, 10.0))) for _ in range(n))
    p = UncertainPlant(n, a_star, eps, bounds)
    mode = rng.choice(SAMPLING_MODES)
    inst = sample_instance(
        p,
        mode,
        index=rng.randrange(2**n) if mode == "vertex" else None,
        seed=rng.randrange(1000) if mode == "uniform" else None,
    )
    if rng.random() < 0.1:  # past the box: saturates or escapes the predicted set
        inst = inst[:-1] + (inst[-1] * 1.6,)
    sched = Schedule(tuple(rng.randint(2, 12) for _ in range(rng.randint(1, 3))))
    family = rng.choice(("optimal", "uniform"))
    return p, inst, sched, family, rng.randint(1, 150), rng.choice(INIT_MODES), rng.randrange(100)


def test_replay_random_plants_bit_for_bit():
    rng = random.Random(20)
    seen = set()
    drawn = set()
    for _ in range(160):
        args = random_case(rng)
        p, inst, sched, family, horizon, init_mode, _ = args
        drawn |= {("n", p.n), ("m", sched.m), family, init_mode}
        got = outcome(run_closed_loop, *args)
        assert got == outcome(reference_run, *args), args
        if isinstance(got[0], list):
            seen.add(got[-1])
        else:
            seen.add(got[0])
            assert failing_horizon(run_closed_loop, args, horizon) == failing_horizon(
                reference_run, args, horizon
            )
    assert drawn >= {("n", 1), ("n", 2), ("n", 3), ("n", 4), ("m", 1), ("m", 2), ("m", 3)}
    assert drawn >= {"optimal", "uniform", *INIT_MODES}
    assert seen >= {"stabilized", "diverged", "horizon_exhausted", SaturationError}, seen


def high_order_cases(n):
    """Replay cases of order n, one per verdict and error type, each as
    (a_star, eps, init_bounds, instance or None for a_star, sizes, family,
    init_mode); only coefficient n is nonzero but in one case."""
    z = (0.0,) * (n - 1)
    lower = tuple(0.05 * (-1) ** i for i in range(n - 1))
    return [
        (z + (3.0,), z + (0.35,), (1.0,) * n, z + (3.1,), (8,), "optimal", "uniform"),
        (lower + (3.0,), (0.01,) * (n - 1) + (0.35,), (1.0,) * n, None, (8, 16), "optimal", "uniform"),
        (z + (3.0,), z + (0.35,), (1.0,) * n, None, (2,), "optimal", "uniform"),
        (z + (3.0,), z + (0.5,), (1.0,) * n, z + (5.0,), (8,), "optimal", "endpoints"),
        # subnormal scalings: an invariant breaks hundreds of steps in
        (z + (3.0,), z + (0.5,), (1e-307,) * n, None, (8,), "optimal", "uniform"),
        (z + (1e300,), z + (0.0,), (1e10,) * n, None, (3,), "uniform", "endpoints"),
    ]


@pytest.mark.parametrize("n", [5, 8, MAX_ORDER])
def test_replay_orders_past_the_random_draw_bit_for_bit(n):
    # random_case draws orders 1..4; each order runs its own generated
    # kernel, so these orders, with two-digit local names at MAX_ORDER, are
    # replayed here: 40 random plants and the cases above
    rng = random.Random(30 + n)
    cases = [random_case(rng, n) for _ in range(40)]
    for a_star, eps, bounds, a, sizes, family, init_mode in high_order_cases(n):
        p = UncertainPlant(n, a_star, eps, bounds)
        cases.append((p, a or a_star, Schedule(sizes), family, 60 * n, init_mode, 0))
    seen = set()
    for args in cases:
        got = outcome(run_closed_loop, *args)
        assert got == outcome(reference_run, *args), args
        if isinstance(got[0], list):
            seen.add(got[-1])
        else:
            seen.add(got[0])
            assert failing_horizon(run_closed_loop, args, args[4]) == failing_horizon(
                reference_run, args, args[4]
            )
    assert seen >= {
        "stabilized",
        "diverged",
        "horizon_exhausted",
        SaturationError,
        InvariantViolation,
        ValueError,
    }, seen


# Instances just outside the box [-1, 1] on each sign, from the endpoint
# y_0 = b: the scaling stays flat and |y|/sigma grows as (1 + delta)^k / 2,
# so every step from 1 on lands past 1/2. At delta = 1e-11 it stays within
# 1/2 (1 + REL_GUARD) for all 80 steps, is clamped and the run goes on; at
# 2e-11 it leaves that band at step 51, a SaturationError. A negative
# instance flips the output's sign each step, so both signs are clamped.
OUTSIDE_THE_BOX = [
    ((0.0,), (1.0,), (1.0,), (a,), (sizes,), "uniform", "endpoints", expected)
    for a, sizes, expected in (
        (1.0 + 1e-11, 4, "horizon_exhausted"),
        (-1.0 - 1e-11, 3, "horizon_exhausted"),
        (1.0 + 2e-11, 4, SaturationError),
        (-1.0 - 2e-11, 3, SaturationError),
    )
]


# (a_star, eps, init_bounds, instance, sizes, family, init_mode, expected),
# run for 80 steps from init seed 0; expected is the verdict, the type of the
# error raised, or the error's type and message
EDGE_CASES = [
    # a zero prediction: the input is -0.0, which == would not tell from 0.0
    ((0.0,), (0.0,), (1.0,), (0.0,), (4,), "uniform", "uniform", "stabilized"),
    # far outside the box
    ((3.0,), (0.5,), (1.0,), (5.0,), (8,), "optimal", "endpoints", SaturationError),
    # nan from overflowed products: a malformed set
    ((1e300,), (0.0,), (1e10,), (1e300,), (3,), "uniform", "endpoints", ValueError),
    (
        (-4.0101475628117486e195, 1.6837717645009267e282),
        (1.2030442688435245e195, 5.05131529350278e281),
        (33184678.935814675, 9.50428202460076e51),
        (-4.0101475628117486e195, 1.6837717645009267e282),
        (3,),
        "uniform",
        "endpoints",
        ValueError,
    ),
    # subnormal scalings: the lower bound loses its relative precision
    ((3.0,), (0.5,), (1e-307,), (3.0,), (8,), "optimal", "uniform", InvariantViolation),
    (
        (1.0, 3.0),
        (0.1, 0.35),
        (1e-307, 1e-307),
        (1.0, 3.0),
        (6,),
        "optimal",
        "uniform",
        "horizon_exhausted",
    ),
    # a bound of half the largest float: the output itself overflows
    ((3.0,), (0.5,), (8.988465674311579e307,), (3.0,), (8,), "uniform", "zero", ValueError),
    *OUTSIDE_THE_BOX,
    # an infinite output at an infinite scaling: y/sigma is nan, which the
    # saturation test lets through, and its top cell is (inf, inf)
    (
        (0.0,),
        (1e300,),
        (1e8,),
        (1e301,),
        (3,),
        "uniform",
        "endpoints",
        (ValueError, "step 1: the output overflowed to inf"),
    ),
    # opposite overflows make the output nan inside a finite predicted set
    (
        (0.0, 0.0),
        (1.0, 1.0),
        (2.0, 2.0),
        (1e308, -1e308),
        (4,),
        "uniform",
        "endpoints",
        (InvariantViolation, "step 1: output escaped the predicted set"),
    ),
    # a zero box endpoint times an infinite estimate: a nan product term
    (
        (1e300,),
        (1e300,),
        (1.5e8,),
        (1e300,),
        (3,),
        "uniform",
        "zero",
        (ValueError, "malformed interval: lo=nan > hi=nan"),
    ),
    # a zero-width first term at 2^-73: the prediction's two sums round
    # off more than the last term's width of 0.8 ulp
    (
        (2.0**1000, 0.0),
        (0.0, 0.4 * 2.0**-125),
        (1.0, 2.0**-1073),
        (2.0**1000, 0.0),
        (16,),
        "uniform",
        "endpoints",
        (InvariantViolation, "step 1: scaling under its lower-bound recursion"),
    ),
    # subnormal scalings: a cell rounded outward widens the next scaling
    # past the envelope, while the last term still matches its rate form
    (
        (0.0, 3.0),
        (0.1, 0.1),
        (5e-323, 7.4e-323),
        (0.0, 3.0),
        (2,),
        "uniform",
        "zero",
        (InvariantViolation, "step 1: scaling escaped the worst-case envelope"),
    ),
    # a box above 0 and one below 0 times an estimate whose products
    # overflow: the term is infinite, never nan, as no box endpoint is 0
    ((1e300,), (1e299,), (1.5e8,), (1e300,), (3,), "uniform", "zero", "diverged"),
    ((-1e300,), (1e299,), (1.5e8,), (-1e300,), (3,), "uniform", "zero", "diverged"),
    # the same signs times an infinite estimate: past a bound of 9e295 the
    # divergence threshold is inf, the scaling grows to inf and the center
    # cell decodes to (-inf, inf); so is the term, and the input it gives is
    # nan, which makes the next predicted set malformed
    *[
        ((a,), (0.5,), (1e300,), (a,), (3,), "uniform", "zero", (ValueError, "malformed interval: lo=nan > hi=nan"))
        for a in (4.0, -4.0)
    ],
]


@pytest.mark.parametrize("a_star, eps, bounds, a, sizes, family, init_mode, expected", EDGE_CASES)
def test_replay_edge_cases_bit_for_bit(a_star, eps, bounds, a, sizes, family, init_mode, expected):
    p = UncertainPlant(len(a_star), a_star, eps, bounds)
    args = (p, a, Schedule(sizes), family, 80, init_mode, 0)
    got = outcome(run_closed_loop, *args)
    assert got == outcome(reference_run, *args)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got[-1] == expected if isinstance(got[0], list) else got[0] is expected
    if expected == "stabilized":
        assert got[0][0][-1] == (-0.0).hex()
    if not isinstance(got[0], list):
        assert failing_horizon(run_closed_loop, args, 80) == failing_horizon(reference_run, args, 80)


def instrumented_kernel(n, hit):
    """The kernel of order n, calling hit(site) before each raise and
    check_hull statement, site being that statement's source, numbered from
    its second copy on, and the set of its sites."""
    tree = ast.parse(_kernel_source("0" * n))
    sites = set()
    for node in ast.walk(tree):
        for field in ("body", "orelse"):
            body = getattr(node, field, None)
            if not isinstance(body, list):
                continue
            counted = []
            for stmt in body:
                if isinstance(stmt, ast.Raise) or ast.unparse(stmt).startswith("check_hull("):
                    site = ast.unparse(stmt)
                    copy = 2
                    while site in sites:
                        site = f"{ast.unparse(stmt)} (copy {copy})"
                        copy += 1
                    sites.add(site)
                    counted.append(ast.Expr(ast.Call(ast.Name("hit", ast.Load()), [ast.Constant(site)], [])))
                counted.append(stmt)
            setattr(node, field, counted)
    namespace = dict(_kernel("0" * n).__globals__, hit=hit)
    exec(compile(ast.fix_missing_locations(tree), f"<instrumented kernel n={n}>", "exec"), namespace)
    return namespace["run"], sites


def test_every_kernel_check_fires_on_an_edge_case():
    # a check that no input reaches costs every step and shows nothing: each
    # raise and check_hull of the kernels of orders 1 and 2 must run on some
    # edge case above, but for the sites named here with the reason they stay
    unreached = ()
    fired = set()
    kernels, sites = {}, set()
    for n in (1, 2):
        kernels[n], of_n = instrumented_kernel(n, fired.add)
        sites |= of_n
    for a_star, eps, bounds, a, sizes, family, init_mode, _ in EDGE_CASES:
        p = UncertainPlant(len(a_star), a_star, eps, bounds)
        args = (p, a, Schedule(sizes), family, 80, init_mode, 0)
        setup = _Setup(p, Schedule(sizes), family)
        setup.kernel = kernels[p.n]
        got = outcome(functools.partial(run_closed_loop, setup=setup), *args)
        assert got == outcome(run_closed_loop, *args), args
    assert sites - fired == {site for site, _reason in unreached}, sorted(sites - fired)
    assert len(sites) == 10


@pytest.mark.parametrize("a_star, eps, bounds, a, sizes, family, init_mode, expected", OUTSIDE_THE_BOX)
def test_outside_instances_land_where_their_rows_say(a_star, eps, bounds, a, sizes, family, init_mode, expected):
    # each of steps 1..80 is clamped, or the run saturates at step 51 just
    # past the clamping band, in both routes alike (the replay above)
    p = UncertainPlant(1, a_star, eps, bounds)
    args = (p, a, Schedule(sizes), family, 80, init_mode, 0)
    band = 0.5 * (1.0 + REL_GUARD)
    if expected is SaturationError:
        with pytest.raises(SaturationError, match="^step 51: ") as err:
            run_closed_loop(*args)
        assert band < float(str(err.value).split()[4]) < 0.5 * (1.0 + 1.1 * REL_GUARD)
        return
    ratios = [abs(y / sigma) for y, _, sigma, *_ in run_closed_loop(*args).samples]
    assert ratios[0] == 0.5 and all(0.5 < r <= band for r in ratios[1:])
    signs = {math.copysign(1.0, y) for y, *_ in reference_run(*args).samples}
    assert signs == ({1.0} if a[0] > 0 else {1.0, -1.0})


def kernel_step_nodes(n, rows=False):
    """The AST nodes of the while body of the kernel of order n, or of its
    row variant, outside raise statements."""
    tree = ast.parse(_kernel_source("0" * n, rows))
    (loop,) = [node for node in ast.walk(tree) if isinstance(node, ast.While)]

    def below(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.Raise):
                yield child
                yield from below(child)

    return list(below(loop))


def test_kernel_step_calls_no_abs_and_pushes_no_tuple():
    # the step's shape, which CI cannot time: two compares stand for abs, and
    # the ring and the outputs move by plain assignments; the one abs left is
    # in the SaturationError message; alike in the row variant
    for n in range(1, MAX_ORDER + 1):
        for rows in (False, True):
            nodes = kernel_step_nodes(n, rows)
            calls = [node.func.id for node in nodes if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
            assert "abs" not in calls and "bisect_right" in calls, (n, rows)
            tuples = [node for node in nodes if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)]
            assert tuples == [], (n, rows, [ast.unparse(node) for node in tuples])
            assert sum(isinstance(node, ast.Assign) for node in nodes) > 5 * n, (n, rows)
            everywhere = ast.walk(ast.parse(_kernel_source("0" * n, rows)))
            assert sum(isinstance(node, ast.Name) and node.id == "abs" for node in everywhere) == 1, (n, rows)


# sha256 of the default kernel sources of orders 1..MAX_ORDER, joined by
# newlines: the kernel that batches, the replay and the library run
DEFAULT_KERNELS_SHA256 = "602c7f7a289a285ee0d86bc464868cb7579277dc550f44deb374adb0ca45e7df"


def test_kernel_sources_are_pinned_and_the_row_variant_differs_in_its_record_alone():
    default = [_kernel_source("0" * n) for n in range(1, MAX_ORDER + 1)]
    assert hashlib.sha256("\n".join(default).encode()).hexdigest() == DEFAULT_KERNELS_SHA256
    for n, source in enumerate(default, 1):
        assert _kernel_source("0" * n, False) == source
        changed = [
            line
            for line in difflib.ndiff(source.splitlines(), _kernel_source("0" * n, True).splitlines())
            if line[:1] in "+-"
        ]
        assert changed == [
            "-             samples.append((y0, s, sigma, e_lo, e_hi, lo, hi, u))",
            "+             samples.append(record % (k, y0, s, sigma, e_lo, e_hi, u))",
        ], n


SIGN_PATTERNS = ("+", "-", "0", "+-0", "0-+", "-+-+", "+0+0+", "-" * 8, "+-0" * 8)


def product_spans(lines, signs):
    """The (start, stop) line range of the products of each prediction term
    in a kernel source of the box signs, up to the term's share of the sum:
    a generic term starts with its first product, a signed one with its
    first test."""
    spans = []
    for i, sign in enumerate(signs):
        head = f"        if est_lo{i} >= 0.0:" if sign in "+-" else f"        t_lo = t_hi = a_lo{i} * est_lo{i}"
        start = lines.index(head)
        spans.append((start, next(j for j in range(start, len(lines)) if lines[j].startswith("        lo "))))
    return spans


def check_signed_products(lines, i):
    """Assert that each of the three paths through the products of signed
    term i sets t_lo and then t_hi to one product of an endpoint of box i and
    one of estimate i, and that the term compares nothing but an endpoint of
    estimate i with 0.0."""
    tests = []

    def paths(body):
        if len(body) == 1 and isinstance(body[0], ast.If):
            tests.append(ast.unparse(body[0].test))
            return paths(body[0].body) + paths(body[0].orelse)
        return [body]

    found = paths(ast.parse("\n".join(line[8:] for line in lines)).body)
    assert tests == [f"est_lo{i} >= 0.0", f"est_hi{i} <= 0.0"]
    assert len(found) == 3
    for body in found:
        statements = [ast.unparse(stmt) for stmt in body]
        assert [text[:4] for text in statements] == ["t_lo", "t_hi"], statements
        for text in statements:
            assert re.fullmatch(rf"t_(lo|hi) = a_(lo|hi){i} \* est_(lo|hi){i}", text), text


def test_signed_kernel_differs_in_its_signed_products_alone():
    # a sign pattern changes nothing but the products of each signed
    # coefficient's prediction term, in the default and the row variant
    # alike; on each path through them, two multiplications and no
    # comparison but the estimate's with 0.0
    for signs in SIGN_PATTERNS:
        n = len(signs)
        for rows in (False, True):
            plain = _kernel_source("0" * n, rows).splitlines()
            signed = _kernel_source(signs, rows).splitlines()
            rebuilt = list(signed)
            spans = zip(signs, product_spans(signed, signs), product_spans(plain, "0" * n))
            for i, (sign, (start, stop), (p_start, p_stop)) in reversed(list(enumerate(spans))):
                if sign != "0":
                    check_signed_products(signed[start:stop], i)
                    rebuilt[start:stop] = plain[p_start:p_stop]
            assert rebuilt == plain, (signs, rows)
            assert (signed == plain) == (signs == "0" * n)


def signed_box_case(rng, n):
    """(plant, instance, schedule, family, horizon, init_mode, init_seed) of
    order n whose coefficient boxes each lie above 0, below 0, straddle 0,
    touch 0 (a* = +-eps) or are the zero box, with initial bounds from 1e-307
    to 1e250, and the classes drawn. One plant in five scales one box by
    1e300 or 1e-300, so that products overflow or underflow."""
    classes = [rng.choice(("above", "below", "straddling", "touching", "zero")) for _ in range(n)]
    scaled = rng.randrange(n) if rng.random() < 0.2 else None
    a_star, eps = [], []
    for i, cls in enumerate(classes):
        size = rng.uniform(1.3, 4.0) if i == n - 1 else rng.uniform(0.0, 1.2 / n)
        if i == scaled:
            size *= rng.choice((1e300 / 4.0, 1e-300))
        sign = rng.choice((-1.0, 1.0))
        if cls in ("above", "below"):
            a_star.append(size if cls == "above" else -size)
            eps.append(size * rng.choice((0.0, rng.uniform(0.0, 0.2 if i == n - 1 else 0.9))))
        elif cls == "straddling":
            a_star.append(sign * size * rng.uniform(0.0, 0.9))
            eps.append(size)
        elif cls == "touching":
            a_star.append(sign * size)
            eps.append(size)
        else:
            a_star.append(0.0)
            eps.append(0.0)
    bounds = tuple(10.0 ** rng.uniform(-307.0, 250.0) for _ in range(n))
    p = UncertainPlant(n, tuple(a_star), tuple(eps), bounds)
    mode = rng.choice(SAMPLING_MODES)
    inst = sample_instance(
        p,
        mode,
        index=rng.randrange(2**n) if mode == "vertex" else None,
        seed=rng.randrange(1000) if mode == "uniform" else None,
    )
    if rng.random() < 0.1:  # past the box
        inst = inst[:-1] + (inst[-1] * 1.6,)
    sched = Schedule(tuple(rng.randint(2, 12) for _ in range(rng.randint(1, 3))))
    lead_lo, lead_hi = p.parameter_intervals()[-1]
    family = rng.choice(("optimal", "uniform")) if lead_lo > 1.0 or lead_hi < -1.0 else "uniform"
    case = (p, inst, sched, family, rng.randint(1, 150), rng.choice(INIT_MODES), rng.randrange(100))
    return case, classes


@pytest.mark.parametrize("orders", [(1, 2, 3, 4), (5, 8, MAX_ORDER)], ids=["n1-4", "n5-8-24"])
def test_signed_kernel_runs_as_the_generic_one(orders):
    # each run on the kernel of its box-sign pattern against the same run on
    # the all-generic kernel of its order: the samples by their bits, the
    # verdict, the steps and the smallest scaling, or the error's type and
    # message and the step it is raised at
    rng = random.Random(45 + orders[0])
    seen, drawn = set(), set()
    for n in orders:
        for _ in range(600 // len(orders)):
            args, classes = signed_box_case(rng, n)
            p, _, sched, family = args[:4]
            drawn |= set(classes)
            setup = _Setup(p, sched, family)
            drawn |= set(setup.signs)
            generic = _Setup(p, sched, family)
            generic.kernel = _kernel("0" * n)
            for record in (True, False):
                got = every_field(functools.partial(run_closed_loop, record=record, setup=setup), *args)
                want = every_field(functools.partial(run_closed_loop, record=record, setup=generic), *args)
                assert got == want, (args, record)
            if isinstance(got[0], type):
                seen.add(got[0])
                signed_run = functools.partial(run_closed_loop, setup=setup)
                generic_run = functools.partial(run_closed_loop, setup=generic)
                horizon = args[4]
                assert failing_horizon(signed_run, args, horizon) == failing_horizon(generic_run, args, horizon)
            else:
                seen.add(got[0][-1])
    assert drawn >= {"above", "below", "straddling", "touching", "zero", "+", "-", "0"}
    assert seen >= {"stabilized", "diverged", "horizon_exhausted", SaturationError, ValueError}, seen


# ---------------------------------------------------------------------------
# one set-up shared by a batch's runs, against a set-up built per run


def shared_setup_batches():
    """(plant, family, instances) of batches at orders 1, 2 and 5, both
    families, unit and subnormal initial bounds; instance 4 of each lies past
    the box, and most runs at subnormal bounds break an invariant."""
    lower = (0.05, -0.05, 0.05, -0.05)
    for bound in (1.0, 1e-307):
        for a_star, eps in (((3.0,), (0.35,)), ((1.0, 3.0), (0.1, 0.35)), (lower + (3.0,), (0.01,) * 4 + (0.35,))):
            n = len(a_star)
            p = UncertainPlant(n, a_star, eps, (bound,) * n)
            instances = [sample_instance(p, "uniform", seed=[5, i, 0]) for i in range(9)]
            instances[4] = instances[4][:-1] + (instances[4][-1] * 1.6,)
            for family in ("optimal", "uniform"):
                yield p, family, instances
    # the first products overflow to a malformed set
    yield UncertainPlant(1, (1e300,), (0.0,), (1e10,)), "uniform", [(1e300,), (2.0,), (1e300,)]


def every_field(run, *args):
    """bits of the run's trajectory with its steps and smallest scaling, or
    the type and message it raised."""
    try:
        traj = run(*args)
    except (ValueError, InvariantViolation, SaturationError) as exc:
        return type(exc), str(exc)
    return bits(traj), traj.steps, traj.min_sigma.hex()


def test_shared_setup_runs_as_a_fresh_one():
    # every instance of a batch runs on the batch's one _Setup: each run, and
    # each error with the step it is raised at, must be that of a run that
    # builds its own set-up, also for the runs after an instance that raised
    sched = Schedule((8, 4, 16))
    seen = set()
    for p, family, instances in shared_setup_batches():
        shared = functools.partial(run_closed_loop, setup=_Setup(p, sched, family))
        for i, a in enumerate(instances):
            args = (p, a, sched, family, 200, INIT_MODES[i % 3], [5, i, 1])
            for record in (True, False, _TRAJECTORY_ROW):
                got = every_field(functools.partial(shared, record=record), *args)
                assert got == every_field(functools.partial(run_closed_loop, record=record), *args), args
            if isinstance(got[0], type):
                seen.add(got[0])
                assert failing_horizon(shared, args, 200) == failing_horizon(run_closed_loop, args, 200)
            else:
                seen.add(got[0][-1])
    assert seen >= {"stabilized", "horizon_exhausted", SaturationError, InvariantViolation, ValueError}, seen


def test_setup_of_another_plant_schedule_or_family_is_refused():
    p = UncertainPlant(2, (1.0, 3.0), (0.1, 0.35), (1.0, 1.0))
    sched = Schedule((4, 8, 6))
    setup = _Setup(p, sched, "optimal")
    other = UncertainPlant(2, (1.0, 3.0), (0.1, 0.3), (1.0, 1.0))
    for q, sizes, family in ((other, (4, 8, 6), "optimal"), (p, (4, 8), "optimal"), (p, (4, 8, 6), "uniform")):
        with pytest.raises(ValueError, match="another plant, schedule or family"):
            run_closed_loop(q, (1.0, 3.0), Schedule(sizes), family, 40, setup=setup)
    # an equal plant and schedule, built anew, may share it
    twin = UncertainPlant(2, (1.0, 3.0), (0.1, 0.35), (1.0, 1.0))
    got = run_closed_loop(twin, (1.0, 3.0), Schedule((4, 8, 6)), "optimal", 40, "uniform", 3, setup=setup)
    assert got == run_closed_loop(p, (1.0, 3.0), sched, "optimal", 40, "uniform", 3)


# ---------------------------------------------------------------------------
# an unrecorded run, as each Monte-Carlo batch instance is, against a recorded one


def summary(args, record):
    """(verdict, steps, min_sigma_ratio bits) of the run, or what it raised."""
    try:
        traj = run_closed_loop(*args, record=record)
    except (ValueError, InvariantViolation, SaturationError) as exc:
        return type(exc), str(exc)
    if record:
        assert traj.steps == len(traj.samples) - 1
        assert traj.min_sigma == min(traj.sigmas())
    else:
        assert traj.samples == []
    return traj.verdict, traj.steps, traj.min_sigma_ratio().hex()


# the edge cases' failing runs: a malformed set and a broken invariant
FAILING = [
    ((1e300,), (0.0,), (1e10,), (1e300,), (3,), "uniform", "endpoints"),
    ((3.0,), (0.5,), (1e-307,), (3.0,), (8,), "optimal", "uniform"),
]


def test_unrecorded_run_summarizes_as_the_recorded_one():
    rng = random.Random(29)
    cases = []
    while len(cases) < 150:
        p, inst, sched, family, horizon, init_mode, init_seed = random_case(rng)
        if p.n <= 3:
            cases.append((p, inst, sched, family, horizon, init_mode, [init_seed, len(cases), 1]))
    for a_star, eps, bounds, a, sizes, family, init_mode in FAILING:
        p = UncertainPlant(len(a_star), a_star, eps, bounds)
        cases.append((p, a, Schedule(sizes), family, 80, init_mode, 0))
    seen = set()
    drawn = set()
    for args in cases:
        p, _, _, family, _, init_mode, _ = args
        drawn |= {("n", p.n), family, init_mode}
        got = summary(args, False)
        assert got == summary(args, True), args
        seen.add(got[0])
    assert drawn >= {("n", 1), ("n", 2), ("n", 3), "optimal", "uniform", *INIT_MODES}
    assert seen >= {
        "stabilized",
        "diverged",
        "horizon_exhausted",
        SaturationError,
        ValueError,
        InvariantViolation,
    }, seen


# ---------------------------------------------------------------------------
# a run that formats its rows, as a one-instance simulate does, against a
# recorded one


def rows_or_error(args, record):
    """(rows, verdict, steps, min_sigma bits, sigma0 bits) of the run, a
    recorded run's samples formatted by _TRAJECTORY_ROW here, or the type and
    message it raised."""
    try:
        traj = run_closed_loop(*args, record=record)
    except (ValueError, InvariantViolation, SaturationError) as exc:
        return type(exc), str(exc)
    rows = traj.samples
    if record is True:
        rows = [
            _TRAJECTORY_ROW % (k, y, s, sigma, e_lo, e_hi, u)
            for k, (y, s, sigma, e_lo, e_hi, _, _, u) in enumerate(rows)
        ]
    return rows, traj.verdict, traj.steps, traj.min_sigma.hex(), traj.sigma0.hex()


def test_row_route_equals_the_tuple_route():
    # the replay's random plants of orders 1..4 and those of orders 5, 8 and
    # MAX_ORDER with their verdict and error cases: the rows of each run are
    # its recorded samples formatted, and a run that raises raises the same
    # error at the same step on both routes
    rng = random.Random(42)
    cases = [random_case(rng) for _ in range(160)]
    for n in (5, 8, MAX_ORDER):
        cases += [random_case(rng, n) for _ in range(20)]
        for a_star, eps, bounds, a, sizes, family, init_mode in high_order_cases(n):
            p = UncertainPlant(n, a_star, eps, bounds)
            cases.append((p, a or a_star, Schedule(sizes), family, 60 * n, init_mode, 0))
    row_run = functools.partial(run_closed_loop, record=_TRAJECTORY_ROW)
    seen, drawn = set(), set()
    for args in cases:
        p, _, sched, family, horizon, init_mode, _ = args
        drawn |= {("n", p.n), ("m", sched.m), family, init_mode}
        got = rows_or_error(args, _TRAJECTORY_ROW)
        assert got == rows_or_error(args, True), args
        if isinstance(got[0], list):
            seen.add(got[1])
        else:
            seen.add(got[0])
            assert failing_horizon(row_run, args, horizon) == failing_horizon(run_closed_loop, args, horizon)
    assert drawn >= {("n", n) for n in (1, 2, 3, 4, 5, 8, MAX_ORDER)} | {("m", 1), ("m", 2), ("m", 3)}
    assert drawn >= {"optimal", "uniform", *INIT_MODES}
    assert seen >= {
        "stabilized",
        "diverged",
        "horizon_exhausted",
        SaturationError,
        InvariantViolation,
        ValueError,
    }, seen


def test_row_mode_trajectory_refuses_sigmas():
    # a row is a string: t[2] would be its third character, not a scaling
    args = (scalar_plant(), (3.0,), Schedule((8,)), "optimal", 40, "uniform", 0)
    traj = run_closed_loop(*args, record=_TRAJECTORY_ROW)
    assert traj.samples[0].startswith("0,")
    with pytest.raises(TypeError, match="formatted rows"):
        traj.sigmas()
    assert run_closed_loop(*args).sigmas()[0] == traj.sigma0
