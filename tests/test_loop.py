"""Closed-loop simulator: prediction, control, invariants, envelopes, verdicts."""

import math

import pytest

from quantstab.intervals import Interval, interval_product
from quantstab.loop import (
    InvariantViolation,
    control,
    predict,
    run_closed_loop,
    sigma_envelope,
)
from quantstab.plant import PlantInstance, UncertainPlant, sample_instance
from quantstab.quantizer import SaturationError, optimal_boundaries, v_rate
from quantstab.rates import HMatrix, Schedule

REL = 1e-12
GUARD = 1e-9


def scalar_plant(lam=3.0, eps=0.5, bound=1.0):
    return UncertainPlant(1, (lam,), (eps,), (bound,))


# ---------------------------------------------------------------------------
# prediction and control


def test_predict_scalar_frozen():
    p = UncertainPlant(1, (2.0,), (0.5,), (1.0,))  # box [1.5, 2.5]
    pred, sig = predict(p, [Interval(0.2, 0.4)])
    assert pred.lo == pytest.approx(0.3, rel=1e-15)
    assert pred.hi == 1.0
    assert math.isclose(sig, 0.7, rel_tol=REL)


def test_predict_known_second_order():
    p = UncertainPlant(2, (1.0, 2.0), (0.0, 0.0), (1.0, 1.0))
    pred, sig = predict(p, [Interval(0.0, 1.0), Interval(0.0, 1.0)])
    assert pred == Interval(0.0, 3.0)
    assert sig == 3.0


def test_predict_width_additivity():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    sets = [Interval(-0.2, 0.5), Interval(0.1, 0.3)]
    pred, sig = predict(p, sets)
    parts = [
        interval_product(p.parameter_interval(i), sets[i - 1]).width
        for i in (1, 2)
    ]
    assert math.isclose(sig, sum(parts), rel_tol=REL)
    assert math.isclose(pred.width, sig, rel_tol=REL)


def test_control_examples():
    assert math.isclose(control(Interval(0.3, 1.0)), -0.65, rel_tol=REL)
    assert control(Interval(-1.0, 1.0)) == 0.0
    assert control(Interval(2.0, 2.0)) == -2.0


# ---------------------------------------------------------------------------
# envelope iteration


def test_sigma_envelope_frozen_geometric():
    env = sigma_envelope(HMatrix(1, (0.5,)), [2.0], 3)
    assert env == [1.0, 0.5, 0.25]


def test_sigma_envelope_second_order():
    # by hand: next = w2*oldest + w1*newest
    env = sigma_envelope(HMatrix(2, (0.5, 0.25)), [2.0, 1.0], 3)
    assert math.isclose(env[0], 0.25 * 2.0 + 0.5 * 1.0, rel_tol=REL)
    assert math.isclose(env[1], 0.25 * 1.0 + 0.5 * env[0], rel_tol=REL)
    assert math.isclose(env[2], 0.25 * env[0] + 0.5 * env[1], rel_tol=REL)


def test_sigma_envelope_validation():
    with pytest.raises(ValueError):
        sigma_envelope(HMatrix(2, (0.5, 0.25)), [1.0], 3)
    with pytest.raises(ValueError):
        sigma_envelope(HMatrix(1, (0.5,)), [1.0], -1)
    assert sigma_envelope(HMatrix(1, (0.5,)), [1.0], 0) == []


# ---------------------------------------------------------------------------
# closed-loop runs


def test_scalar_sigma_recursion_exact():
    # sigma_{k+1} equals the width of the coefficient box times the estimate
    p = scalar_plant(3.0, 0.5)
    traj = run_closed_loop(
        p, PlantInstance((3.2,)), Schedule((8,)), "optimal", 200, "endpoints"
    )
    box = p.parameter_interval(1)
    for prev, cur in zip(traj.rows, traj.rows[1:]):
        want = interval_product(box, prev.est).width
        assert math.isclose(cur.sigma, want, rel_tol=REL)


def test_scalar_geometric_decay_bound():
    p = scalar_plant(3.0, 0.5)
    wbar = v_rate(3.0, 0.5, 8)
    traj = run_closed_loop(
        p, PlantInstance((3.2,)), Schedule((8,)), "optimal", 200, "endpoints"
    )
    assert traj.verdict == "stabilized"
    sigma0 = traj.sigma0
    for row in traj.rows:
        assert row.sigma <= sigma0 * wbar**row.k * (1.0 + GUARD)


def test_critical_rate_flat_sigma():
    # worst rate exactly 1: the scaling must neither grow nor decay
    p = scalar_plant(2.0, 0.0)
    traj = run_closed_loop(
        p, PlantInstance((2.0,)), Schedule((2,)), "uniform", 500, "uniform", 11
    )
    assert traj.verdict == "horizon_exhausted"
    assert len(traj.rows) == 501
    assert all(r.sigma == traj.sigma0 for r in traj.rows)


def test_divergence_verdict():
    # two levels cannot hold a worst rate of 1.675
    p = scalar_plant(3.0, 0.35)
    traj = run_closed_loop(
        p, PlantInstance((3.0,)), Schedule((2,)), "optimal", 500, "uniform", 5
    )
    assert traj.verdict == "diverged"
    assert traj.rows[-1].sigma > 1e12 * traj.sigma0


def test_envelope_dominates_run():
    p = scalar_plant(3.0, 0.5)
    wbar = v_rate(3.0, 0.5, 8)
    traj = run_closed_loop(
        p, PlantInstance((2.6,)), Schedule((8,)), "optimal", 100, "uniform", 3
    )
    env = sigma_envelope(HMatrix(1, (wbar,)), [traj.sigma0], len(traj.rows))
    for row in traj.rows[1:]:
        assert row.sigma <= env[row.k - 1] * (1.0 + GUARD)


def test_containment_and_half_sigma_bound():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    inst = sample_instance(p, "uniform", seed=14)
    traj = run_closed_loop(p, inst, Schedule((6,)), "optimal", 300, "uniform", 15)
    for row in traj.rows:
        assert row.est.contains(row.y, GUARD * row.sigma)
        assert abs(row.y) <= 0.5 * row.sigma * (1.0 + GUARD)
        assert row.est.width <= row.sigma * (1.0 + GUARD)


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
        p, PlantInstance((3.1,)), Schedule((2, 8)), "optimal", 400, "uniform", 23
    )
    sig = traj.sigmas()
    for k in range(0, len(sig) - 2, 2):
        assert sig[k + 2] <= rho * sig[k] * (1.0 + GUARD)
    assert traj.min_sigma_ratio() < 1e-3


def test_custom_quantizer_list_family():
    p = scalar_plant(3.0, 0.35)
    qs = [optimal_boundaries(3.0, 0.35, 2), optimal_boundaries(3.0, 0.35, 8)]
    a = run_closed_loop(p, PlantInstance((3.1,)), Schedule((2, 8)), qs, 100, "zero")
    b = run_closed_loop(p, PlantInstance((3.1,)), Schedule((2, 8)), "optimal", 100, "zero")
    assert a.rows == b.rows


def test_determinism():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    inst = sample_instance(p, "uniform", seed=2)
    a = run_closed_loop(p, inst, Schedule((6,)), "optimal", 150, "uniform", 9)
    b = run_closed_loop(p, inst, Schedule((6,)), "optimal", 150, "uniform", 9)
    assert a.rows == b.rows and a.verdict == b.verdict


def test_saturation_on_inadmissible_instance():
    # true growth far outside the box: the encoder input must leave [-1/2, 1/2]
    p = scalar_plant(3.0, 0.5)
    with pytest.raises(SaturationError):
        run_closed_loop(
            p, PlantInstance((5.0,)), Schedule((8,)), "optimal", 50, "endpoints"
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
    # a nan bound is a malformed set, as the Interval constructor says; the
    # run must raise it rather than return a trajectory holding the nan
    p = UncertainPlant(len(a_star), a_star, eps, bounds)
    with pytest.raises(ValueError, match="malformed interval"):
        run_closed_loop(
            p, PlantInstance(a_star), Schedule((3,)), "uniform", 60, "endpoints", 0
        )


def test_run_validations():
    p = scalar_plant()
    with pytest.raises(ValueError):
        run_closed_loop(p, PlantInstance((3.0,)), Schedule((8,)), "optimal", 0)
    with pytest.raises(ValueError):
        run_closed_loop(p, PlantInstance((3.0, 1.0)), Schedule((8,)), "optimal", 10)
    with pytest.raises(ValueError):
        run_closed_loop(
            p, PlantInstance((3.0,)), Schedule((8,)), "optimal", 10, "sideways"
        )


def test_trajectory_shape_and_first_row():
    p = scalar_plant(3.0, 0.5, bound=0.7)
    traj = run_closed_loop(
        p, PlantInstance((3.0,)), Schedule((8,)), "optimal", 40, "zero"
    )
    assert traj.rows[0].k == 0
    assert traj.sigma0 == 1.4  # twice the newest initial bound
    assert traj.rows[0].sigma == traj.sigma0
    ks = [r.k for r in traj.rows]
    assert ks == list(range(len(traj.rows)))


def test_invariant_violation_type_is_runtime_error():
    assert issubclass(InvariantViolation, RuntimeError)
