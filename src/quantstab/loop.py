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
rate_n), and a history of the last n outputs. Both are deques of length n
that a step updates in place, so a step allocates only its sample tuple
and its ring entry, besides floats. A recorded run leaves one tuple per
time index in `Trajectory.samples`; a run with record=False, as each
instance of a Monte-Carlo batch is, keeps no sample and tracks only the
step count and the smallest scaling, which are all a summary row reads.

The uniform initial outputs are the draws of
`np.random.default_rng(init_seed).uniform(-b, b)`, oldest output first,
which `plant._uniform_draws` reproduces bit for bit without numpy, so a
run loads no numpy; the `zero` and `endpoints` modes draw nothing.

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
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .intervals import check_hull, interval_product, minkowski_sum
from .plant import UncertainPlant, _uniform_draws
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
    """Verdict, initial scaling, loop steps taken after time 0, the smallest
    scaling, and the state of every simulated time index if recorded.

    samples[k] is the plain tuple (y, s, sigma, est_lo, est_hi, pred_lo,
    pred_hi, u) of time k: the output, the transmitted symbol (1..N), the
    scaling, the decoded estimate, the predicted set for the next output
    and the input cancelling its midpoint, the last two recorded on the row
    of the time they were computed at. A run with record=False leaves
    samples empty.
    """

    samples: list[tuple]
    verdict: str
    sigma0: float
    steps: int
    min_sigma: float

    def sigmas(self) -> list[float]:
        return [t[2] for t in self.samples]

    def min_sigma_ratio(self) -> float:
        return self.min_sigma / self.sigma0


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


def run_closed_loop(
    p: UncertainPlant,
    a: Sequence[float],
    sched: Schedule,
    family: str | Sequence[QuantizerSpec] = "optimal",
    horizon: int = 500,
    init_mode: str = "uniform",
    init_seed: int | None = None,
    record: bool = True,
) -> Trajectory:
    """Simulate the loop from seeded initial outputs until verdict or horizon.

    The plant steps the instance a = (a_1, ..., a_n). The channel transmits
    from time 0 on; estimates for earlier times are the prior boxes.
    Verdict "stabilized" once the scaling falls below CONVERGENCE_RATIO
    times its initial value, "diverged" past DIVERGENCE_RATIO times it,
    else "horizon_exhausted".

    The initial outputs y_{-n+1} .. y_0 are the init_bounds b themselves
    ("endpoints"), zero, or ("uniform") the draws of
    np.random.default_rng(init_seed).uniform(-b, b), oldest first, bit for
    bit, made without numpy. With record=False the run keeps no samples;
    its verdict, steps and min_sigma_ratio() are those of the recorded run.

    Step k is one loop body over local floats: it encodes y_k against the
    scaling sigma_k and decodes its cell, checks the invariants, predicts
    the next output set, keeps the smallest scaling so far and records
    sample k (unless record=False), and steps the plant with the
    input that cancels the predicted midpoint. It pushes its estimate onto
    the ring and its output onto the history in place, each dropping its
    oldest entry; each call builds both afresh and writes to no argument.
    Each expression is the one of encode, decode, interval_product,
    minkowski_sum, predict, control_input and plant.step, evaluated in the
    same order, so the samples are bit for bit those of a step that calls
    them; the interval product's min and max are the same comparisons,
    written out. A malformed set raises through check_hull, as in those
    functions. An output that overflowed to an infinity raises ValueError;
    a finite one past the quantizer's range raises SaturationError.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if len(a) != p.n:
        raise ValueError("instance order does not match the plant")
    qs = schedule_quantizers(p, sched, family)
    m = len(qs)
    box = p.parameter_intervals()
    box_factors = tuple(abs(ai) + e for ai, e in zip(p.a_star, p.eps))
    # per schedule slot: cell edges, size, envelope factors, and the exact
    # coefficient-n expansion of each symbol's cell (index s - 1); the rates
    # run outward from the origin, an odd N's center cell first
    slots = []
    for q in qs:
        rates_n = coefficient_expansion_rates(q, abs(p.a_star[-1]), p.eps[-1])
        rate_of = rates_n[:0:-1] + rates_n if q.N % 2 else rates_n[::-1] + rates_n
        slots.append((q.edges, q.N, expansion_profile(q, p), rate_of))

    if init_mode == "uniform":
        init = _uniform_draws(init_seed, [(-b, b) for b in p.init_bounds])
    elif init_mode == "endpoints":
        init = p.init_bounds
    elif init_mode == "zero":
        init = (0.0,) * p.n
    else:
        raise ValueError(f"unknown init mode {init_mode!r}")
    # y_{-n+1} .. y_0, oldest first, into the history, newest first
    history = deque(reversed(init), maxlen=p.n)

    # ring of the last n estimates, newest first; each entry is
    # (lo, hi, sigma, env, factors, rate_n): the estimate, its scaling, its
    # envelope value, its per-coefficient envelope factors and the exact
    # expansion of coefficient n over it. Prior boxes for times -n+1 .. -1:
    ring = deque(maxlen=p.n)
    for b in p.init_bounds[:-1]:
        ring.appendleft((-b, b, 2.0 * b, 2.0 * b, box_factors, box_factors[-1]))

    up = 1.0 + REL_GUARD
    clamp_below = 0.5 * up
    sigma0 = 2.0 * p.init_bounds[-1]
    stabilized_below = CONVERGENCE_RATIO * sigma0
    diverged_above = DIVERGENCE_RATIO * sigma0
    samples: list[tuple] = []
    verdict = "horizon_exhausted"
    y = history[0]
    sigma = min_sigma = sigma0
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
            ring.appendleft((e_lo, e_hi, sigma, sigma, factors, rate_of[s - 1]))
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
            ring.appendleft((e_lo, e_hi, sigma, env, factors, rate_of[s - 1]))

        # predict: the Minkowski sum from 0.0 of box_i * estimate, newest first
        lo = hi = 0.0
        for (a_lo, a_hi), est in zip(box, ring):
            y_lo = est[0]
            y_hi = est[1]
            # interval_product's min and max, the same comparisons in order
            t_lo = t_hi = a_lo * y_lo
            v = a_lo * y_hi
            if v < t_lo:
                t_lo = v
            if v > t_hi:
                t_hi = v
            v = a_hi * y_lo
            if v < t_lo:
                t_lo = v
            if v > t_hi:
                t_hi = v
            v = a_hi * y_hi
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
        if sigma < min_sigma:
            min_sigma = sigma
        if record:
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
        history.appendleft(y)
        sigma = sigma_next
        k += 1

    return Trajectory(samples, verdict, sigma0, k, min_sigma)
