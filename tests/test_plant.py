"""Uncertain plant model: parameter boxes, stepping, instance sampling."""

import math
import random
import secrets

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantstab.intervals import hull_contains
from quantstab.plant import (
    UncertainPlant,
    _uniform_draws,
    sample_instance,
    step,
)


def scalar_plant(lam=3.0, eps=0.35):
    return UncertainPlant(1, (lam,), (eps,), (1.0,))


def is_admissible(p, inst):
    """Instance of the plant's order with every coefficient inside its box."""
    return len(inst) == p.n and all(
        hull_contains(*box, a) for box, a in zip(p.parameter_intervals(), inst)
    )


def test_constructor_validation():
    with pytest.raises(ValueError):
        UncertainPlant(2, (1.0,), (0.1, 0.2), (1.0, 1.0))
    with pytest.raises(ValueError):
        UncertainPlant(1, (2.0,), (-0.1,), (1.0,))
    with pytest.raises(ValueError):
        UncertainPlant(1, (2.0,), (0.1,), (0.0,))


@pytest.mark.parametrize("a_star,eps", [((1e308,), (1e308,)), ((-1.7e308,), (2e307,))])
def test_box_past_the_float_range_rejected(a_star, eps):
    # |a*| + eps overflows, so the expansion rates of the box would be inf
    with pytest.raises(ValueError, match="float range"):
        UncertainPlant(1, a_star, eps, (1.0,))
    UncertainPlant(1, (1.5e308,), (1e307,), (1.0,))  # still finite


def test_parameter_intervals_one_indexed():
    # the box of a_i sits at index i - 1
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    assert p.parameter_intervals() == ((0.9, 1.1), (2.65, 3.35))


def test_step_frozen():
    # y+ = 1.1*0.5 + 3.2*(-0.25) + 0.1 = 0.55 - 0.8 + 0.1 = -0.15, by hand
    inst = (1.1, 3.2)
    assert math.isclose(step(inst, [0.5, -0.25], 0.1), -0.15, rel_tol=1e-15)


def test_step_scalar():
    inst = (2.0,)
    assert step(inst, [0.3], -0.1) == 0.5


def test_step_history_length_checked():
    with pytest.raises(ValueError):
        step((1.0, 2.0), [0.5], 0.0)


def test_sample_nominal():
    p = scalar_plant()
    assert sample_instance(p) == (3.0,)
    assert sample_instance(p) is p.a_star
    assert sample_instance(p) is p.a_star  # nominal draws no copy


def test_sample_vertex():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    assert sample_instance(p, "vertex", index=0) == (0.9, 2.65)
    assert sample_instance(p, "vertex", index=1) == (1.1, 2.65)
    assert sample_instance(p, "vertex", index=2) == (0.9, 3.35)
    assert sample_instance(p, "vertex", index=3) == (1.1, 3.35)
    with pytest.raises(ValueError):
        sample_instance(p, "vertex", index=4)


def test_sample_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown sampling mode 'bogus'"):
        sample_instance(scalar_plant(), "bogus")


def test_sample_uniform_seeded_and_admissible():
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    a = sample_instance(p, "uniform", seed=7)
    b = sample_instance(p, "uniform", seed=7)
    c = sample_instance(p, "uniform", seed=8)
    assert a == b
    assert a != c
    assert is_admissible(p, a) and is_admissible(p, c)


def test_admissibility_rejects_outside_box():
    p = scalar_plant(3.0, 0.35)
    assert is_admissible(p, (3.35,))
    assert not is_admissible(p, (3.36,))
    assert not is_admissible(p, (1.0, 3.0))


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10**6))
def test_vertex_and_uniform_always_admissible(idx, seed):
    p = UncertainPlant(2, (1.0, 3.0), (0.10, 0.35), (1.0, 1.0))
    assert is_admissible(p, sample_instance(p, "vertex", index=idx))
    assert is_admissible(p, sample_instance(p, "uniform", seed=seed))


# ---------------------------------------------------------------------------
# the pure-Python draws against numpy's default_rng


def numpy_draws(entropy, boxes):
    rng = np.random.default_rng(entropy)
    return [float(rng.uniform(lo, hi)) for lo, hi in boxes]


def random_entropy(rng):
    """A plain int, a [seed, i, k] list, or a list with zero words and words
    at and past 2**32 and 2**64."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice((0, rng.randrange(2**32), rng.getrandbits(200)))
    if kind == 1:
        return [rng.randrange(10**6), rng.randrange(5000), rng.randrange(2)]
    word = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5)
    return [rng.choice(word) if rng.random() < 0.5 else rng.getrandbits(70) for _ in range(rng.randint(1, 7))]


def test_uniform_draws_equal_default_rng_bit_for_bit():
    rng = random.Random(15)
    for _ in range(2000):
        entropy = random_entropy(rng)
        boxes = [(rng.uniform(-1e3, 0.0), rng.uniform(0.0, 1e3)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:  # lo == hi
            boxes[rng.randrange(len(boxes))] = (2.5, 2.5)
        want = [v.hex() for v in numpy_draws(entropy, boxes)]
        assert [v.hex() for v in _uniform_draws(entropy, boxes)] == want, entropy


def test_sample_instance_uniform_equals_default_rng():
    p = UncertainPlant(3, (0.2, -0.4, 3.0), (0.05, 0.0, 0.35), (1.0, 1.0, 1.0))
    for seed in (0, 7, [3, 11, 0], 2**64 + 1, np.int64(5), np.array([3, 11, 0])):
        boxes = p.parameter_intervals()
        assert sample_instance(p, "uniform", seed=seed) == tuple(numpy_draws(seed, boxes))


@pytest.mark.parametrize("entropy", [-1, [3, -2, 0]])
def test_uniform_draws_reject_a_negative_entry(entropy):
    with pytest.raises(ValueError):
        np.random.default_rng(entropy)
    with pytest.raises(ValueError):
        _uniform_draws(entropy, [(0.0, 1.0)])


def test_uniform_draws_without_entropy_take_128_random_bits(monkeypatch):
    fixed = 0x1234_5678_9ABC_DEF0_0FED_CBA9_8765_4321
    monkeypatch.setattr(secrets, "randbits", lambda k: fixed if k == 128 else None)
    boxes = [(-1.0, 1.0), (2.0, 5.0)]
    assert _uniform_draws(None, boxes) == numpy_draws(fixed, boxes)
