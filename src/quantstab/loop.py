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

Sets are float pairs (lo, hi), as in `intervals`. `run_closed_loop`
computes what depends only on the plant and the schedule once before the
first step: the coefficient-box endpoints and, per schedule slot, the
cell edges, the quantizer's envelope factors and the coefficient-n
expansion of each symbol's cell. The per-step state is a ring of the last
n estimates, newest first, each a tuple (lo, hi, sigma, env, factors,
rate_n), and the last n outputs. Each time index leaves one tuple in
`Trajectory.samples`.

The step is one loop body in `run_closed_loop` that computes each
quantity once: the lower bound on the next scaling is the last term of the
prediction. `predict`, `control_input`, `intervals.interval_product`,
`intervals.minkowski_sum`, `quantizer.encode`, `quantizer.decode` and
`plant.step` stay its reference route, which `tests/test_loop.py` replays:
a step written against them gives the same samples bit for bit, and the
same errors at the same step. The independent envelope route that the
tests check the loop against is `oracle.sigma_envelope`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .intervals import check_hull, interval_product, minkowski_sum
from .plant import PlantInstance, UncertainPlant
from .quantizer import (
    QuantizerSpec,
    SaturationError,
    coefficient_expansion_rates,
    expansion_profile,
)
from .rates import Schedule, schedule_quantizers

REL_GUARD = 1e-9
"""Relative slack for float roundoff in invariant checks and saturation."""

CONVERGENCE_RATIO = 1e-12
DIVERGENCE_RATIO = 1e12


class InvariantViolation(RuntimeError):
    """An analytical per-step invariant failed beyond the float guard."""


@dataclass
class Trajectory:
    """Verdict, initial scaling and the state of every simulated time index.

    samples[k] is the plain tuple (y, s, sigma, est_lo, est_hi, pred_lo,
    pred_hi, u) of time k: the output, the transmitted symbol (1..N), the
    scaling, the decoded estimate, the predicted set for the next output
    and the input cancelling its midpoint, the last two recorded on the row
    of the time they were computed at.
    """

    samples: list[tuple]
    verdict: str
    sigma0: float

    @property
    def steps(self) -> int:
        """Loop steps taken after time 0."""
        return len(self.samples) - 1

    def sigmas(self) -> list[float]:
        return [t[2] for t in self.samples]

    def min_sigma_ratio(self) -> float:
        return min(t[2] for t in self.samples) / self.sigma0


def predict(box, ests) -> tuple[float, float]:
    """Next-output set (lo, hi) from the last n estimates.

    The Minkowski sum of the products box_i * est_i, i = 1..n: box holds the
    coefficient boxes (lo, hi) of a_1..a_n, ests the estimates newest first,
    each with lo at [0] and hi at [1]. Its width is the next scaling. Raises
    ValueError when an overflowed product makes the set malformed.
    """
    return minkowski_sum(
        [
            interval_product(a_lo, a_hi, est[0], est[1])
            for (a_lo, a_hi), est in zip(box, ests)
        ]
    )


def control_input(lo: float, hi: float) -> float:
    """Input cancelling the midpoint of the predicted set [lo, hi]."""
    return -(0.5 * (lo + hi))


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

    Step k is one loop body over local floats: it encodes y_k against the
    scaling sigma_k and decodes its cell, checks the invariants, predicts
    the next output set, records sample k, and steps the plant with the
    input that cancels the predicted midpoint. Each expression is the one
    of encode, decode, interval_product, minkowski_sum, predict,
    control_input and plant.step, evaluated in the same order, so the
    samples are bit for bit those of a step that calls them. A malformed
    set raises through check_hull, as in those functions. An output that
    overflowed to an infinity raises ValueError; a finite one past the
    quantizer's range raises SaturationError.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if len(inst.a) != p.n:
        raise ValueError("instance order does not match the plant")
    qs = schedule_quantizers(p, sched, family)
    m = len(qs)
    box = p.parameter_intervals()
    box_factors = tuple(abs(a) + e for a, e in zip(p.a_star, p.eps))
    # per schedule slot: cell edges, size, envelope factors, and the exact
    # coefficient-n expansion of each symbol's cell (index s - 1); the rates
    # run outward from the origin, an odd N's center cell first
    slots = []
    for q in qs:
        rates_n = coefficient_expansion_rates(q, abs(p.a_star[-1]), p.eps[-1])
        rate_of = rates_n[:0:-1] + rates_n if q.N % 2 else rates_n[::-1] + rates_n
        slots.append((q.edges, q.N, expansion_profile(q, p), rate_of))

    import numpy as np

    rng = np.random.default_rng(init_seed)
    # y_{-n+1} .. y_0, drawn oldest first; the history is newest first
    history = [_init_mode_value(init_mode, b, rng) for b in p.init_bounds][::-1]
    a = inst.a

    # ring of the last n estimates, newest first; each entry is
    # (lo, hi, sigma, env, factors, rate_n): the estimate, its scaling, its
    # envelope value, its per-coefficient envelope factors and the exact
    # expansion of coefficient n over it. Prior boxes for times -1 .. -n+1:
    ring = [
        (-b, b, 2.0 * b, 2.0 * b, box_factors, box_factors[-1])
        for b in reversed(p.init_bounds[:-1])
    ]

    up = 1.0 + REL_GUARD
    clamp_below = 0.5 * up
    sigma0 = 2.0 * p.init_bounds[-1]
    stabilized_below = CONVERGENCE_RATIO * sigma0
    diverged_above = DIVERGENCE_RATIO * sigma0
    samples: list[tuple] = []
    verdict = "horizon_exhausted"
    y = history[0]
    sigma = sigma0
    # step k - 1's predicted set and input, and the exact lower bound on
    # sigma_k: its last prediction term, box_n times the oldest estimate
    lo = hi = u = lower = 0.0
    k = 0
    while True:
        # transmit y_k: the symbol and its decoded cell (e_lo, e_hi)
        edges, N, factors, rate_of = slots[k % m]
        x = y / sigma
        if abs(x) > 0.5:
            if abs(x) <= clamp_below:
                x = math.copysign(0.5, x)
            elif math.isinf(y):
                raise ValueError(f"step {k}: the output overflowed to {y}")
            else:
                raise SaturationError(
                    f"step {k}: |y|/sigma = {abs(x)} exceeds 1/2 beyond roundoff"
                )
        s = bisect_right(edges, x)  # x in [edges[s-1], edges[s])
        if s > N:
            s = N  # x == +1/2 folds into the top cell
        e_lo = sigma * edges[s - 1]
        e_hi = sigma * edges[s]
        if not e_lo <= e_hi:
            check_hull(e_lo, e_hi)

        slack = REL_GUARD * sigma
        if k == 0:
            ring.insert(0, (e_lo, e_hi, sigma, sigma, factors, rate_of[s - 1]))
            if not e_lo - slack <= y <= e_hi + slack:
                raise InvariantViolation("initial output escaped its decoded cell")
        else:
            _, _, o_sigma, _, _, o_rate_n = ring[-1]
            guard = REL_GUARD * (sigma + abs(u))
            if not lo + u - guard <= y <= hi + u + guard:
                check_hull(lo + u, hi + u)  # a nan bound is a malformed set
                raise InvariantViolation(f"step {k}: output escaped the predicted set")
            if abs(y) > 0.5 * sigma * up:
                raise InvariantViolation(f"step {k}: output exceeds half the scaling")
            if not e_lo - slack <= y <= e_hi + slack:
                raise InvariantViolation(f"step {k}: output escaped its decoded cell")
            if sigma < lower - slack:
                raise InvariantViolation(
                    f"step {k}: scaling under its lower-bound recursion"
                )
            if abs(lower - o_rate_n * o_sigma) > REL_GUARD * (lower + sigma):
                raise InvariantViolation(
                    f"step {k}: scaling lower bound mismatches its rate form"
                )
            env = 0.0
            for i, donor in enumerate(ring):
                env += donor[4][i] * donor[3]
            if sigma > env * up:
                raise InvariantViolation(
                    f"step {k}: scaling escaped the worst-case envelope"
                )
            ring = [(e_lo, e_hi, sigma, env, factors, rate_of[s - 1]), *ring[:-1]]

        # predict: the Minkowski sum from 0.0 of box_i * estimate, newest first
        lo = hi = 0.0
        for (a_lo, a_hi), est in zip(box, ring):
            y_lo = est[0]
            y_hi = est[1]
            t_lo = t_hi = a_lo * y_lo  # as in interval_product
            for v in (a_lo * y_hi, a_hi * y_lo, a_hi * y_hi):
                if v < t_lo:
                    t_lo = v
                if v > t_hi:
                    t_hi = v
            if not t_lo <= t_hi:
                check_hull(t_lo, t_hi)
            lo += t_lo
            hi += t_hi
        if not lo <= hi:
            check_hull(lo, hi)
        lower = t_hi - t_lo
        sigma_next = hi - lo
        u = -(0.5 * (lo + hi))
        samples.append((y, s, sigma, e_lo, e_hi, lo, hi, u))
        if sigma < stabilized_below:
            verdict = "stabilized"
            break
        if sigma > diverged_above:
            verdict = "diverged"
            break
        if k == horizon:
            break
        if sigma_next == 0.0:
            # the next output is known exactly: nothing is left to transmit,
            # and a zero scaling is below stabilized_below
            verdict = "stabilized"
            break

        # plant.step: y_{k+1} = u + sum_i a_i y_{k-i+1}
        y = u
        for ai, yi in zip(a, history):
            y += ai * yi
        history = [y, *history[:-1]]
        sigma = sigma_next
        k += 1

    return Trajectory(samples, verdict, sigma0)
