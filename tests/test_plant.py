"""Uncertain plant model: parameter boxes, stepping, instance sampling."""

import math

import pytest
from hypothesis import given, strategies as st

from quantstab.intervals import hull_contains
from quantstab.plant import (
    PlantInstance,
    UncertainPlant,
    sample_instance,
    step,
)


def scalar_plant(lam=3.0, eps=0.35):
    return UncertainPlant(1, (lam,), (eps,), (1.0,))


def is_admissible(p, inst):
    """Instance of the plant's order with every coefficient inside its box."""
    return len(inst.a) == p.n and all(
        hull_contains(*box, a) for box, a in zip(p.parameter_intervals(), inst.a)
    )


def test_constructor_validation():
    with pytest.raises(ValueError):
        UncertainPlant(2, (1.0,), (0.1, 0.2), (1.0, 1.0))
    with pytest.raises(ValueError):
        UncertainPlant(1, (2.0,), (-0.1,), (1.0,))
    with pytest.raises(ValueError):
        UncertainPlant(1, (2.0,), (0.1,), (0.0,))


def test_parameter_intervals_one_indexed():
    # the box of a_i sits at index i - 1
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    assert p.parameter_intervals() == ((0.9, 1.1), (2.65, 3.35))


def test_step_frozen():
    # y+ = 1.1*0.5 + 3.2*(-0.25) + 0.1 = 0.55 - 0.8 + 0.1 = -0.15, by hand
    inst = PlantInstance((1.1, 3.2))
    assert math.isclose(step(inst, [0.5, -0.25], 0.1), -0.15, rel_tol=1e-15)


def test_step_scalar():
    inst = PlantInstance((2.0,))
    assert step(inst, [0.3], -0.1) == 0.5


def test_step_history_length_checked():
    with pytest.raises(ValueError):
        step(PlantInstance((1.0, 2.0)), [0.5], 0.0)


def test_sample_nominal():
    p = scalar_plant()
    assert sample_instance(p).a == (3.0,)


def test_sample_vertex():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    assert sample_instance(p, "vertex", index=0).a == (0.9, 2.65)
    assert sample_instance(p, "vertex", index=1).a == (1.1, 2.65)
    assert sample_instance(p, "vertex", index=2).a == (0.9, 3.35)
    assert sample_instance(p, "vertex", index=3).a == (1.1, 3.35)
    with pytest.raises(ValueError):
        sample_instance(p, "vertex", index=4)


def test_sample_uniform_seeded_and_admissible():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    a = sample_instance(p, "uniform", seed=7)
    b = sample_instance(p, "uniform", seed=7)
    c = sample_instance(p, "uniform", seed=8)
    assert a.a == b.a
    assert a.a != c.a
    assert is_admissible(p, a) and is_admissible(p, c)


def test_admissibility_rejects_outside_box():
    p = scalar_plant(3.0, 0.35)
    assert is_admissible(p, PlantInstance((3.35,)))
    assert not is_admissible(p, PlantInstance((3.36,)))
    assert not is_admissible(p, PlantInstance((1.0, 3.0)))


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10**6))
def test_vertex_and_uniform_always_admissible(idx, seed):
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    assert is_admissible(p, sample_instance(p, "vertex", index=idx))
    assert is_admissible(p, sample_instance(p, "uniform", seed=seed))
