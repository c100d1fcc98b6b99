"""Uncertain autoregressive plant models and concrete instances.

The plant is y_{k+1} = sum_i a_i y_{k-i+1} + u_k with each coefficient a_i
known only to lie in a box [a_i* - eps_i, a_i* + eps_i]. A PlantInstance is
one admissible coefficient draw; the simulator steps instances while the
estimator only ever sees the boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


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
            vec = tuple(float(v) for v in vec)
            if not all(map(math.isfinite, vec)):
                raise ValueError(f"{name} entries must be finite, got {vec}")
            object.__setattr__(self, name, vec)
        if any(e < 0 for e in self.eps):
            raise ValueError("uncertainty radii must be nonnegative")
        if not all(math.isfinite(abs(a) + e) for a, e in zip(self.a_star, self.eps)):
            raise ValueError("coefficient boxes must lie in the float range: |a_i*| + eps_i overflows")
        if any(b <= 0 for b in self.init_bounds):
            raise ValueError("initial output bounds must be positive")

    def parameter_intervals(self) -> tuple[tuple[float, float], ...]:
        """Boxes (a_i* - eps_i, a_i* + eps_i) of a_1..a_n, in that order."""
        return tuple((a - e, a + e) for a, e in zip(self.a_star, self.eps))


@dataclass(frozen=True)
class PlantInstance:
    """One admissible coefficient vector."""

    a: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))


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
        import numpy as np

        rng = np.random.default_rng(seed)
        a = tuple(
            float(rng.uniform(ai - ei, ai + ei)) for ai, ei in zip(p.a_star, p.eps)
        )
        return PlantInstance(a)
    raise ValueError(f"unknown sampling mode {mode!r}")
