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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .intervals import Interval, interval_product, minkowski_sum
from .plant import PlantInstance, UncertainPlant, step
from .quantizer import (
    QuantizerSpec,
    SaturationError,
    coefficient_expansion_rates,
    decode,
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
    rows: list[StepRecord]
    verdict: str
    sigma0: float

    def sigmas(self) -> list[float]:
        return [r.sigma for r in self.rows]

    def min_sigma_ratio(self) -> float:
        return min(r.sigma for r in self.rows) / self.sigma0


def predict(
    p: UncertainPlant, recent_sets: Sequence[Interval]
) -> tuple[Interval, float]:
    """Next-output set from the last n estimates, newest first.

    The sum of coefficient-box times estimate products; its width is the
    next scaling.
    """
    terms = [
        interval_product(p.parameter_interval(i), recent_sets[i - 1])
        for i in range(1, p.n + 1)
    ]
    pred = minkowski_sum(terms)
    return pred, pred.width


def control(pred: Interval) -> float:
    """Input cancelling the predicted set's midpoint."""
    return -pred.midpoint


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


@dataclass
class _Slot:
    """Per-time bookkeeping for one estimate in the ring."""

    est: Interval
    sigma: float
    env: float
    factors: tuple[float, ...]  # per-coefficient envelope factor
    rate_n: float  # exact expansion of coefficient n over this estimate


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
    profiles = [expansion_profile(q, p).w_bar for q in qs]
    rate_rows = [
        coefficient_expansion_rates(q, abs(p.a_star[-1]), p.eps[-1]) for q in qs
    ]
    box_factors = tuple(abs(a) + e for a, e in zip(p.a_star, p.eps))

    rng = np.random.default_rng(init_seed)
    # oldest first: times -n+1 .. 0
    y_hist = [_init_mode_value(init_mode, b, rng) for b in p.init_bounds]

    ring: list[_Slot] = []
    for b in p.init_bounds[:-1]:  # prior boxes, times -n+1 .. -1
        sigma = 2.0 * b
        ring.append(
            _Slot(
                est=Interval(-b, b),
                sigma=sigma,
                env=sigma,
                factors=box_factors,
                rate_n=box_factors[-1],
            )
        )

    def transmit(k: int, y: float, sigma: float) -> tuple[int, _Slot]:
        q = qs[k % m]
        x = y / sigma
        if abs(x) > 0.5:
            if abs(x) <= 0.5 * (1.0 + REL_GUARD):
                x = math.copysign(0.5, x)
            else:
                raise SaturationError(
                    f"step {k}: |y|/sigma = {abs(x)} exceeds 1/2 beyond roundoff"
                )
        s = encode(q, x)
        est = decode(q, s, sigma)
        slot = _Slot(
            est=est,
            sigma=sigma,
            env=sigma,  # placeholder; caller sets the envelope value
            factors=profiles[k % m],
            rate_n=rate_rows[k % m][_cell_rate_index(q, s)],
        )
        return s, slot

    sigma0 = 2.0 * p.init_bounds[-1]
    s0, slot0 = transmit(0, y_hist[-1], sigma0)
    slot0.env = sigma0
    ring.append(slot0)
    if not slot0.est.contains(y_hist[-1], REL_GUARD * sigma0):
        raise InvariantViolation("initial output escaped its decoded cell")

    rows: list[StepRecord] = []
    verdict = "horizon_exhausted"
    history = list(reversed(y_hist))  # most recent first
    y_k, s_k = y_hist[-1], s0
    k = 0
    while True:
        recent = [ring[-1 - i].est for i in range(p.n)]
        pred, sigma_next = predict(p, recent)
        u = control(pred)
        rows.append(
            StepRecord(
                k=k,
                y=y_k,
                s=s_k,
                sigma=ring[-1].sigma,
                est=ring[-1].est,
                pred=pred,
                u=u,
            )
        )
        sigma_k = ring[-1].sigma
        if sigma_k < CONVERGENCE_RATIO * sigma0:
            verdict = "stabilized"
            break
        if sigma_k > DIVERGENCE_RATIO * sigma0:
            verdict = "diverged"
            break
        if k == horizon:
            break

        y_next = step(inst, history, u)
        s_next, slot = transmit(k + 1, y_next, sigma_next)

        oldest = ring[-p.n]
        lower = interval_product(p.parameter_interval(p.n), oldest.est).width
        guard = REL_GUARD * (sigma_next + abs(u))
        if not pred.shifted(u).contains(y_next, guard):
            raise InvariantViolation(
                f"step {k + 1}: output escaped the predicted set"
            )
        if abs(y_next) > 0.5 * sigma_next * (1.0 + REL_GUARD):
            raise InvariantViolation(
                f"step {k + 1}: output exceeds half the scaling"
            )
        if not slot.est.contains(y_next, REL_GUARD * sigma_next):
            raise InvariantViolation(
                f"step {k + 1}: output escaped its decoded cell"
            )
        if sigma_next < lower - REL_GUARD * sigma_next:
            raise InvariantViolation(
                f"step {k + 1}: scaling under its lower-bound recursion"
            )
        if abs(lower - oldest.rate_n * oldest.sigma) > REL_GUARD * (
            lower + sigma_next
        ):
            raise InvariantViolation(
                f"step {k + 1}: scaling lower bound mismatches its rate form"
            )
        env_next = 0.0
        for i in range(1, p.n + 1):
            donor = ring[-i]
            env_next += donor.factors[i - 1] * donor.env
        if sigma_next > env_next * (1.0 + REL_GUARD):
            raise InvariantViolation(
                f"step {k + 1}: scaling escaped the worst-case envelope"
            )
        slot.env = env_next

        ring.append(slot)
        if len(ring) > p.n:
            ring.pop(0)
        history.insert(0, y_next)
        if len(history) > p.n:
            history.pop()
        y_k, s_k = y_next, s_next
        k += 1

    return Trajectory(rows=rows, verdict=verdict, sigma0=sigma0)
