"""Verified closed-loop simulation of the quantized stabilization scheme.

One loop iteration: the estimator holds the last n set-valued output
estimates and scalings; it predicts the next output set, the controller
cancels that set's midpoint, the true plant instance steps, and the encoder
sends the cell index of the new output against the new scaling. The decoded
cell becomes the newest estimate.

Every step asserts the analytical invariants with small relative guards for
floating-point roundoff: the true output stays inside its estimate, the
quantizer never saturates, the scaling obeys its exact lower-bound
recursion, and a worst-case envelope dominates the scaling sequence. The
envelope uses the per-coefficient worst rates of whichever quantizer
produced each contributing estimate; estimates from the pre-transmission
prior boxes contribute their exact box expansion factor instead, since a
symmetric box stretches more than any cell of a valid quantizer.

`run_closed_loop` steps on plain floats. What depends only on the plant and
the schedule is computed once before the first step: the coefficient-box
endpoints and, per schedule slot, the quantizer's envelope factors and the
coefficient-n expansion of each symbol's cell. The per-step state is a ring
of the last n estimates, each a tuple (lo, hi, sigma, env, factors, rate_n),
and the last n outputs. Each time index leaves one tuple in
`Trajectory.samples`; `Trajectory.rows` turns them into StepRecords only
when read. The step calls the float-level rules that the Interval API wraps
(`predicted_hull` under `predict`, `control_input` under `control`,
`quantizer.cell_hull` under `decode`, `intervals.hull_contains` under
`Interval.contains`) together with `quantizer.encode` and `plant.step`, so
its floats and its errors are those of the Interval API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .intervals import (
    Interval,
    check_hull,
    hull_contains,
    hull_midpoint,
    hull_product,
    hull_sum,
)
from .plant import PlantInstance, UncertainPlant, step
from .quantizer import (
    QuantizerSpec,
    SaturationError,
    cell_hull,
    coefficient_expansion_rates,
    encode,
    expansion_profile,
)
from .rates import HMatrix, Schedule, schedule_quantizers

REL_GUARD = 1e-9
"""Relative slack for float roundoff in invariant checks and saturation."""

CONVERGENCE_RATIO = 1e-12
DIVERGENCE_RATIO = 1e12


class InvariantViolation(RuntimeError):
    """An analytical per-step invariant failed beyond the float guard."""


@dataclass(frozen=True)
class StepRecord:
    """One simulated time index.

    s is the transmitted symbol (1..N). pred is the predicted set for the
    next output, u the input cancelling its midpoint; both are recorded on
    the row of the time they were computed at.
    """

    k: int
    y: float
    s: int
    sigma: float
    est: Interval
    pred: Interval
    u: float


@dataclass
class Trajectory:
    """Verdict, initial scaling and the state of every simulated time index.

    samples[k] is the plain tuple (y, s, sigma, est_lo, est_hi, pred_lo,
    pred_hi, u) of time k; `rows` builds the StepRecords from it on first
    access, so a run that only needs the summary never builds them.
    """

    samples: list[tuple]
    verdict: str
    sigma0: float

    @cached_property
    def rows(self) -> list[StepRecord]:
        return [
            StepRecord(k, y, s, sigma, Interval(e_lo, e_hi), Interval(p_lo, p_hi), u)
            for k, (y, s, sigma, e_lo, e_hi, p_lo, p_hi, u) in enumerate(self.samples)
        ]

    @property
    def steps(self) -> int:
        """Loop steps taken after time 0."""
        return len(self.samples) - 1

    def sigmas(self) -> list[float]:
        return [t[2] for t in self.samples]

    def min_sigma_ratio(self) -> float:
        return min(t[2] for t in self.samples) / self.sigma0


def predicted_hull(box, ests) -> tuple[float, float]:
    """Endpoints of the next-output set from the last n estimates.

    The Minkowski sum of the products box_i * est_i, i = 1..n: box holds the
    coefficient boxes (lo, hi) of a_1..a_n, ests the estimates newest first,
    each with lo at [0] and hi at [1]. Raises ValueError when an overflowed
    product makes the set malformed.
    """
    return hull_sum(
        [
            hull_product(a_lo, a_hi, est[0], est[1])
            for (a_lo, a_hi), est in zip(box, ests)
        ]
    )


def predict(
    p: UncertainPlant, recent_sets: Sequence[Interval]
) -> tuple[Interval, float]:
    """Next-output set from the last n estimates, newest first.

    The sum of coefficient-box times estimate products; its width is the
    next scaling.
    """
    box = [(iv.lo, iv.hi) for iv in p.parameter_intervals()]
    ests = [(recent_sets[i].lo, recent_sets[i].hi) for i in range(p.n)]
    pred = Interval(*predicted_hull(box, ests))
    return pred, pred.width


def control_input(lo: float, hi: float) -> float:
    """Input cancelling the midpoint of the predicted set [lo, hi]."""
    return -hull_midpoint(lo, hi)


def control(pred: Interval) -> float:
    """Input cancelling the predicted set's midpoint."""
    return control_input(pred.lo, pred.hi)


def sigma_envelope(
    H: HMatrix, init_sigmas: Sequence[float], K: int
) -> list[float]:
    """Worst-case scaling bounds for the next K steps under a static rate matrix.

    Iterates the companion recursion from the given n most recent scalings
    (oldest first) and returns the newest component per step.
    """
    if len(init_sigmas) != H.n:
        raise ValueError(f"need {H.n} initial scalings, got {len(init_sigmas)}")
    if K < 0:
        raise ValueError("K must be nonnegative")
    ring = list(init_sigmas)
    w = H.w_bar
    out = []
    for _ in range(K):
        nxt = 0.0
        for i in range(1, H.n + 1):
            nxt += w[i - 1] * ring[-i]
        out.append(nxt)
        ring.append(nxt)
        ring.pop(0)
    return out


def _cell_rate_index(q: QuantizerSpec, s: int) -> int:
    """Distance-from-origin index l of cell s, matching the rate families."""
    if q.N % 2 == 0:
        half = q.N // 2
        return s - half - 1 if s > half else half - s
    center = (q.N + 1) // 2
    return abs(s - center)


INIT_MODES = ("endpoints", "zero", "uniform")
"""Initial-output modes that run_closed_loop accepts."""


def _init_mode_value(mode: str, bound: float, rng) -> float:
    if mode == "endpoints":
        return bound
    if mode == "zero":
        return 0.0
    if mode == "uniform":
        return float(rng.uniform(-bound, bound))
    raise ValueError(f"unknown init mode {mode!r}")


def run_closed_loop(
    p: UncertainPlant,
    inst: PlantInstance,
    sched: Schedule,
    family: str | Sequence[QuantizerSpec] = "optimal",
    horizon: int = 500,
    init_mode: str = "uniform",
    init_seed: int | None = None,
) -> Trajectory:
    """Simulate the loop from seeded initial outputs until verdict or horizon.

    The channel transmits from time 0 on; estimates for earlier times are
    the prior boxes. Verdict "stabilized" once the scaling falls below
    CONVERGENCE_RATIO times its initial value, "diverged" past
    DIVERGENCE_RATIO times it, else "horizon_exhausted".
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if len(inst.a) != p.n:
        raise ValueError("instance order does not match the plant")
    qs = schedule_quantizers(p, sched, family)
    m = len(qs)
    box = [(iv.lo, iv.hi) for iv in p.parameter_intervals()]
    box_n_lo, box_n_hi = box[-1]
    box_factors = tuple(abs(a) + e for a, e in zip(p.a_star, p.eps))
    # per schedule slot: quantizer, envelope factors, and the exact
    # coefficient-n expansion of each symbol's cell (index s - 1)
    slots = []
    for q in qs:
        rates_n = coefficient_expansion_rates(q, abs(p.a_star[-1]), p.eps[-1])
        rate_of = tuple(rates_n[_cell_rate_index(q, s)] for s in range(1, q.N + 1))
        slots.append((q, expansion_profile(q, p).w_bar, rate_of))

    rng = np.random.default_rng(init_seed)
    # oldest first: times -n+1 .. 0
    y_hist = [_init_mode_value(init_mode, b, rng) for b in p.init_bounds]

    # ring of the last n estimates, oldest first; each entry is
    # (lo, hi, sigma, env, factors, rate_n): the estimate, its scaling, its
    # envelope value, its per-coefficient envelope factors and the exact
    # expansion of coefficient n over it. Prior boxes for times -n+1 .. -1:
    ring = [
        (-b, b, 2.0 * b, 2.0 * b, box_factors, box_factors[-1])
        for b in p.init_bounds[:-1]
    ]

    def transmit(k: int, y: float, sigma: float):
        """Symbol, decoded cell hull, factors and rate_n of y at time k."""
        q, factors, rate_of = slots[k % m]
        x = y / sigma
        if abs(x) > 0.5:
            if abs(x) <= 0.5 * (1.0 + REL_GUARD):
                x = math.copysign(0.5, x)
            else:
                raise SaturationError(
                    f"step {k}: |y|/sigma = {abs(x)} exceeds 1/2 beyond roundoff"
                )
        s = encode(q, x)
        return (s, *cell_hull(q, s, sigma), factors, rate_of[s - 1])

    sigma0 = 2.0 * p.init_bounds[-1]
    stabilized_below = CONVERGENCE_RATIO * sigma0
    diverged_above = DIVERGENCE_RATIO * sigma0
    y_k = y_hist[-1]
    s_k, e_lo, e_hi, factors, rate_n = transmit(0, y_k, sigma0)
    ring.append((e_lo, e_hi, sigma0, sigma0, factors, rate_n))
    if not hull_contains(e_lo, e_hi, y_k, REL_GUARD * sigma0):
        raise InvariantViolation("initial output escaped its decoded cell")

    samples: list[tuple] = []
    verdict = "horizon_exhausted"
    history = list(reversed(y_hist))  # most recent first
    k = 0
    while True:
        lo, hi = predicted_hull(box, reversed(ring))
        sigma_next = hi - lo
        u = control_input(lo, hi)
        newest = ring[-1]
        sigma_k = newest[2]
        samples.append((y_k, s_k, sigma_k, newest[0], newest[1], lo, hi, u))
        if sigma_k < stabilized_below:
            verdict = "stabilized"
            break
        if sigma_k > diverged_above:
            verdict = "diverged"
            break
        if k == horizon:
            break

        y_next = step(inst, history, u)
        s_next, e_lo, e_hi, factors, rate_n = transmit(k + 1, y_next, sigma_next)

        o_lo, o_hi, o_sigma, _, _, o_rate_n = ring[0]  # oldest
        l_lo, l_hi = hull_product(box_n_lo, box_n_hi, o_lo, o_hi)
        lower = l_hi - l_lo
        guard = REL_GUARD * (sigma_next + abs(u))
        if not hull_contains(lo + u, hi + u, y_next, guard):
            check_hull(lo + u, hi + u)  # a nan bound is a malformed set
            raise InvariantViolation(
                f"step {k + 1}: output escaped the predicted set"
            )
        if abs(y_next) > 0.5 * sigma_next * (1.0 + REL_GUARD):
            raise InvariantViolation(
                f"step {k + 1}: output exceeds half the scaling"
            )
        if not hull_contains(e_lo, e_hi, y_next, REL_GUARD * sigma_next):
            raise InvariantViolation(
                f"step {k + 1}: output escaped its decoded cell"
            )
        if sigma_next < lower - REL_GUARD * sigma_next:
            raise InvariantViolation(
                f"step {k + 1}: scaling under its lower-bound recursion"
            )
        if abs(lower - o_rate_n * o_sigma) > REL_GUARD * (lower + sigma_next):
            raise InvariantViolation(
                f"step {k + 1}: scaling lower bound mismatches its rate form"
            )
        env_next = 0.0
        for i, donor in enumerate(reversed(ring)):
            env_next += donor[4][i] * donor[3]
        if sigma_next > env_next * (1.0 + REL_GUARD):
            raise InvariantViolation(
                f"step {k + 1}: scaling escaped the worst-case envelope"
            )

        ring.append((e_lo, e_hi, sigma_next, env_next, factors, rate_n))
        ring.pop(0)
        history.insert(0, y_next)
        history.pop()
        y_k, s_k = y_next, s_next
        k += 1

    return Trajectory(samples, verdict, sigma0)
