"""Closed-loop simulator: prediction, control, invariants, envelopes, verdicts."""

import math
import random

import numpy as np
import pytest

from quantstab.intervals import check_hull, hull_contains, interval_product
from quantstab.loop import (
    CONVERGENCE_RATIO,
    DIVERGENCE_RATIO,
    INIT_MODES,
    REL_GUARD,
    InvariantViolation,
    Trajectory,
    control_input,
    predict,
    run_closed_loop,
)
from quantstab.oracle import sigma_envelope
from quantstab.plant import SAMPLING_MODES, UncertainPlant, sample_instance, step
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
    # the loop updates its estimate ring and output history in place: each
    # call builds its own, and none of its arguments is written to
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
    if not hull_contains(e_lo, e_hi, y_k, REL_GUARD * sigma0):
        raise InvariantViolation("initial output escaped its decoded cell")

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
        if abs(y_next) > 0.5 * sigma_next * (1.0 + REL_GUARD):
            raise InvariantViolation(f"step {k + 1}: output exceeds half the scaling")
        if not hull_contains(e_lo, e_hi, y_next, REL_GUARD * sigma_next):
            raise InvariantViolation(f"step {k + 1}: output escaped its decoded cell")
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


def random_case(rng):
    """(plant, instance, schedule, family, horizon, init_mode, init_seed) drawn by rng."""
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


@pytest.mark.parametrize(
    "a_star, eps, bounds, a, sizes, family, init_mode, expected",
    [
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
    ],
)
def test_replay_edge_cases_bit_for_bit(a_star, eps, bounds, a, sizes, family, init_mode, expected):
    p = UncertainPlant(len(a_star), a_star, eps, bounds)
    args = (p, a, Schedule(sizes), family, 80, init_mode, 0)
    got = outcome(run_closed_loop, *args)
    assert got == outcome(reference_run, *args)
    assert got[-1] == expected if isinstance(got[0], list) else got[0] is expected
    if expected == "stabilized":
        assert got[0][0][-1] == (-0.0).hex()
    if not isinstance(got[0], list):
        assert failing_horizon(run_closed_loop, args, 80) == failing_horizon(reference_run, args, 80)


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
