"""Uncertain autoregressive plant models and concrete instances.

The plant is y_{k+1} = sum_i a_i y_{k-i+1} + u_k with each coefficient a_i
known only to lie in a box [a_i* - eps_i, a_i* + eps_i]. A PlantInstance is
one admissible coefficient draw; the simulator steps instances while the
estimator only ever sees the boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .intervals import Interval


@dataclass(frozen=True)
class UncertainPlant:
    """Coefficient boxes plus known bounds on the initial outputs.

    a_star and eps are ordered a_1..a_n. init_bounds[i] bounds |y_j| at time
    j = -n+1+i, so the last entry bounds y_0.
    """

    n: int
    a_star: tuple[float, ...]
    eps: tuple[float, ...]
    init_bounds: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("plant order must be at least 1")
        for name in ("a_star", "eps", "init_bounds"):
            vec = getattr(self, name)
            if len(vec) != self.n:
                raise ValueError(f"{name} must have length n={self.n}, got {len(vec)}")
            object.__setattr__(self, name, tuple(float(v) for v in vec))
        if any(e < 0 for e in self.eps):
            raise ValueError("uncertainty radii must be nonnegative")
        if any(b <= 0 for b in self.init_bounds):
            raise ValueError("initial output bounds must be positive")

    def parameter_interval(self, i: int) -> Interval:
        """Box for coefficient a_i, i in 1..n."""
        a, e = self.a_star[i - 1], self.eps[i - 1]
        return Interval(a - e, a + e)

    def parameter_intervals(self) -> tuple[Interval, ...]:
        return tuple(self.parameter_interval(i) for i in range(1, self.n + 1))

    def satisfies_growth_condition(self) -> bool:
        """Whole coefficient box on a_n strictly expanding: |a_n*| - eps_n > 1."""
        return abs(self.a_star[-1]) - self.eps[-1] > 1.0


@dataclass(frozen=True)
class PlantInstance:
    """One admissible coefficient vector."""

    a: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))


def pole_product_magnitude(p: UncertainPlant) -> float:
    """|a_n*|, the magnitude of the product of the nominal plant poles."""
    return abs(p.a_star[-1])


def step(inst: PlantInstance, history: Sequence[float], u: float) -> float:
    """Advance one step: history is most-recent-first (y_k, y_{k-1}, ...)."""
    if len(history) != len(inst.a):
        raise ValueError(
            f"history length {len(history)} does not match plant order {len(inst.a)}"
        )
    acc = u
    for ai, yi in zip(inst.a, history):
        acc += ai * yi
    return acc


SAMPLING_MODES = ("nominal", "vertex", "uniform")
"""Instance sampling modes that sample_instance accepts."""


def sample_instance(
    p: UncertainPlant,
    mode: str = "nominal",
    *,
    index: int | None = None,
    seed: int | None = None,
) -> PlantInstance:
    """Draw an admissible instance.

    mode "nominal": a = a_star. mode "vertex": bit i-1 of index picks
    a_i* + eps_i (set) or a_i* - eps_i (clear). mode "uniform": seeded uniform
    draw inside the box.
    """
    if mode == "nominal":
        return PlantInstance(p.a_star)
    if mode == "vertex":
        if index is None or not (0 <= index < 2**p.n):
            raise ValueError(f"vertex index must be in [0, {2**p.n}), got {index}")
        a = tuple(
            ai + ei if (index >> i) & 1 else ai - ei
            for i, (ai, ei) in enumerate(zip(p.a_star, p.eps))
        )
        return PlantInstance(a)
    if mode == "uniform":
        rng = np.random.default_rng(seed)
        a = tuple(
            float(rng.uniform(ai - ei, ai + ei)) for ai, ei in zip(p.a_star, p.eps)
        )
        return PlantInstance(a)
    raise ValueError(f"unknown sampling mode {mode!r}")


def is_admissible(p: UncertainPlant, inst: PlantInstance) -> bool:
    return len(inst.a) == p.n and all(
        p.parameter_interval(i).contains(inst.a[i - 1]) for i in range(1, p.n + 1)
    )
