"""Verified closed-loop simulation of the quantized stabilization scheme.

One loop iteration: the estimator holds the last n set-valued output
estimates and scalings; it predicts the next output set, the controller
cancels that set's midpoint, the true plant instance steps, and the encoder
sends the cell index of the new output against the new scaling. The decoded
cell becomes the newest estimate.

Every step from 1 on checks the analytical invariants with a relative
guard, REL_GUARD, for float roundoff: the output stays inside the predicted
set, the scaling obeys its exact lower-bound recursion and that bound's rate
form, and a worst-case envelope dominates it. The saturation test alone
holds |y| <= sigma/2, so it has no check of its own. A finite output at a
finite scaling always lies in its decoded cell, and so does step 0's: the
decoded-cell test catches only an output that overflowed to an infinity at
an infinite scaling, where y/sigma is nan and passes the saturation test,
and raises the saturation test's ValueError for it. The envelope uses the
per-coefficient worst rates of whichever quantizer produced each
contributing estimate; estimates from the pre-transmission
prior boxes contribute their exact box expansion factor instead, since a
symmetric box stretches more than any cell of a valid quantizer.

Sets are float pairs (lo, hi), as in `intervals`. What depends only on
the plant, the schedule and the family is a `_Setup`, built before the
first step: the resolved quantizers, the coefficient-box endpoints, per
schedule slot the cell edges, the quantizer's envelope factors and the
coefficient-n expansion of each symbol's cell, the prior ring entries,
the initial scaling, the sign of each coefficient box and, from the first
run on, the kernel of the plant order and box signs that run needs. A run
builds its own unless one is passed in; a Monte-Carlo batch builds one per
request and passes it to every instance, so an instance pays for its draws
and its steps, not for work that grows with the schedule's slots and sizes.
The per-step state is a ring of the last n estimates, newest first, and
a history of the last n outputs. A recorded run leaves one tuple per
time index in `Trajectory.samples`; a run with record=False, as each
instance of a Monte-Carlo batch is, keeps no sample and tracks only the
step count and the smallest scaling, which are all a summary row reads.
A run whose record is a %-format string, as a one-instance `simulate` is,
keeps that string's row of each time index instead, formatted in the step
from (k, y, s, sigma, est_lo, est_hi, u): its CSV text is written as it
stands, and no tuple is built to be formatted later.

The uniform initial outputs are the draws of
`np.random.default_rng(init_seed).uniform(-b, b)`, oldest output first,
which `plant._uniform_draws` reproduces bit for bit without numpy, so a
run loads no numpy; init_seed may also be the `plant.SeedState` hashed
from it, as a Monte-Carlo batch hands each run. The `zero` and
`endpoints` modes draw nothing.

The steps run in a kernel generated per plant order n and box-sign
pattern: one template, `_KERNEL`, whose per-coefficient parts (the
instance, the boxes, the ring and history, the envelope sum, the n terms
of the prediction and the plant step) are written out for i = 0..n-1.
A box's sign is fixed for the whole run, so the term of a coefficient
whose box is strictly positive or strictly negative tests the estimate's
sign and forms only the two products that bound it (the sign-case
interval product); a box that holds 0 keeps the four products and their
comparisons, since there a product may be 0 times an infinity, a nan.
The ring entries and the outputs are its local variables, moved back one
place per step by plain assignments, oldest first, so a step builds no
ring entry, tuple, deque or iterator, and keeps no object but its sample:
a tuple, or in the row variant of the kernel a formatted row, the one
statement in which the two variants differ. A one-slot schedule's slot
is read once per run, and a step tests |x| > c as x > c or x < -c,
calling no abs. Each variant of an order and sign pattern is compiled on
the first run that needs it, under a filename that names n, the variant
and the pattern, and `_kernel` keeps the last 64 built; importing the
module builds none. The kernel computes each quantity once: the lower
bound on the next scaling is the last term of the prediction.
`predict`, `control_input`, `intervals.interval_product`,
`intervals.minkowski_sum`, `quantizer.encode`, `quantizer.decode` and
`plant.step` stay its reference route, which `tests/test_loop.py` replays
for orders 1 to 4 and for 5, 8 and 24: a step written against them gives
the same samples bit for bit, and the same errors at the same step. The
independent envelope route that the tests check the loop against is
`oracle.sigma_envelope`.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_right
from typing import Callable, Sequence

from .intervals import check_hull, interval_product, minkowski_sum
from .plant import CONVERGENCE_RATIO, DIVERGENCE_RATIO, Record, UncertainPlant, _uniform_draws
from .quantizer import (
    QuantizerSpec,
    SaturationError,
    coefficient_expansion_rates,
    expansion_profile,
)
from .rates import Schedule, _tuple, schedule_quantizers

REL_GUARD = 1e-9
"""Relative slack for float roundoff in invariant checks and saturation."""


class InvariantViolation(RuntimeError):
    """An analytical per-step invariant failed beyond the float guard."""


class Trajectory(Record):
    """Verdict, initial scaling, loop steps taken after time 0, the smallest
    scaling, and the state of every simulated time index if recorded.

    samples[k] is the plain tuple (y, s, sigma, est_lo, est_hi, pred_lo,
    pred_hi, u) of time k: the output, the transmitted symbol (1..N), the
    scaling, the decoded estimate, the predicted set for the next output
    and the input cancelling its midpoint, the last two recorded on the row
    of the time they were computed at. A run with record=False leaves
    samples empty, and one with a row format record holds the row strings
    record % (k, y, s, sigma, est_lo, est_hi, u) instead, of which sigmas()
    refuses to read a scaling. Unlike the frozen records, its fields may be
    assigned, and it is unhashable.
    """

    __slots__ = __match_args__ = ("samples", "verdict", "sigma0", "steps", "min_sigma")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    samples: list[tuple]
    verdict: str
    sigma0: float
    steps: int
    min_sigma: float

    def __init__(
        self, samples: list[tuple], verdict: str, sigma0: float, steps: int, min_sigma: float
    ) -> None:
        self.samples = samples
        self.verdict = verdict
        self.sigma0 = sigma0
        self.steps = steps
        self.min_sigma = min_sigma

    def sigmas(self) -> list[float]:
        if self.samples and isinstance(self.samples[0], str):
            raise TypeError("the samples are formatted rows; a record=True run keeps the scalings")
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


class _Setup:
    """What run_closed_loop needs of the plant, the schedule and the family
    alone, built once for any number of runs.

    It resolves the family (schedule_quantizers) and holds the coefficient
    boxes, per schedule slot the cell edges, the size, the quantizer's
    envelope factors and the coefficient-n expansion of each symbol's cell,
    the prior ring entries and sigma0, and the sign pattern of the boxes,
    signs, one character per coefficient: "+" for a box above 0, "-" for
    one below 0 and "0" for one that holds 0. It looks up the kernel of the
    plant order and signs, or its row variant, on the first run that needs
    it. A Monte-Carlo batch builds one per request and passes it to every run.
    """

    def __init__(
        self, p: UncertainPlant, sched: Schedule, family: str | Sequence[QuantizerSpec]
    ) -> None:
        qs = schedule_quantizers(p, sched, family)
        self.p, self.sched, self.family = p, sched, family
        self.box = p.parameter_intervals()
        self.signs = "".join("+" if lo > 0.0 else "-" if hi < 0.0 else "0" for lo, hi in self.box)
        box_factors = tuple(abs(ai) + e for ai, e in zip(p.a_star, p.eps))
        # per schedule slot: cell edges, size, envelope factors, and the exact
        # coefficient-n expansion of each symbol's cell (index s - 1); the rates
        # run outward from the origin, an odd N's center cell first
        self.slots = []
        for q in qs:
            rates_n = coefficient_expansion_rates(q, abs(p.a_star[-1]), p.eps[-1])
            rate_of = rates_n[:0:-1] + rates_n if q.N % 2 else rates_n[::-1] + rates_n
            self.slots.append((q.edges, q.N, expansion_profile(q, p), rate_of))
        # the prior boxes of times -1 .. -n+1, newest first, as ring entries
        # (lo, hi, env, factors, rate_n * sigma) with sigma = env = 2 b
        self.prior = [
            (-b, b, 2.0 * b, box_factors, box_factors[-1] * (2.0 * b))
            for b in reversed(p.init_bounds[:-1])
        ]
        self.sigma0 = 2.0 * p.init_bounds[-1]

    @functools.cached_property
    def kernel(self) -> Callable:
        return _kernel(self.signs)

    @functools.cached_property
    def row_kernel(self) -> Callable:
        return _kernel(self.signs, True)


def run_closed_loop(
    p: UncertainPlant,
    a: Sequence[float],
    sched: Schedule,
    family: str | Sequence[QuantizerSpec] = "optimal",
    horizon: int = 500,
    init_mode: str = "uniform",
    init_seed=None,
    record: bool | str = True,
    *,
    setup: _Setup | None = None,
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
    bit, made without numpy; init_seed is an entropy or the SeedState that
    plant.seed_states hashed from one. With record=False the run keeps no samples;
    its verdict, steps and min_sigma_ratio() are those of the recorded run.
    A nonempty %-format string record makes sample k the string
    record % (k, y, s, sigma, est_lo, est_hi, u) of the recorded run's
    fields, formatted in the step by the row variant of the kernel.

    setup is the _Setup of (p, sched, family), which many runs may share;
    without it the run builds its own, and one built for another plant,
    schedule or family raises ValueError. Either way the run is the same,
    bit for bit.

    Step k, in the kernel of order n and box signs that the first run of
    that order and signs builds: it encodes y_k against the scaling sigma_k
    and decodes its cell, checks the invariants, predicts the next output
    set, keeps the smallest scaling so far, records sample k (unless
    record=False), and steps the plant with the input that cancels the
    predicted midpoint.
    The ring of estimates and the history of outputs are the kernel's
    local variables; a call writes to no argument. Each expression is the
    one of encode, decode, interval_product, minkowski_sum, predict,
    control_input and plant.step, evaluated in the same order, sums from
    0.0 over i = 0..n-1, so the samples are bit for bit those of a step
    that calls them. A box that holds 0 finds the interval product's min
    and max by the same comparisons, written out; a box above or below 0
    forms only the two products that the signs of the box and the estimate
    name as min and max. No product of such a box is nan (the estimate is
    checked, and no endpoint of the box is 0), so these are the values the
    comparisons find but for the sign of a zero, which the sums from 0.0
    drop and the lower bound's comparisons do not see.

    The errors a step raises, the same as those functions would:
    - SaturationError: a finite output past 1/2 (1 + REL_GUARD) of its
      scaling; one within it is clamped onto the quantizer's range;
    - ValueError: an output that overflowed to an infinity, at a finite
      scaling or, from step 1 on, an infinite one, or a set that a nan makes
      malformed (check_hull);
    - InvariantViolation, from step 1 on: an output outside the predicted
      set, a scaling under its lower-bound recursion, a lower bound unequal
      to its rate form, or a scaling past the envelope.
    """
    horizon = operator.index(horizon)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if len(a) != p.n:
        raise ValueError("instance order does not match the plant")
    if setup is None:
        setup = _Setup(p, sched, family)
    elif (setup.p, setup.sched, setup.family) != (p, sched, family):
        raise ValueError("setup was built for another plant, schedule or family")

    if init_mode == "uniform":
        init = _uniform_draws(init_seed, [(-b, b) for b in p.init_bounds])
    elif init_mode == "endpoints":
        init = p.init_bounds
    elif init_mode == "zero":
        init = (0.0,) * p.n
    else:
        raise ValueError(f"unknown init mode {init_mode!r}")

    sigma0 = setup.sigma0
    kernel = setup.row_kernel if isinstance(record, str) else setup.kernel
    samples, verdict, steps, min_sigma = kernel(
        a, setup.box, setup.slots, init, setup.prior, sigma0, horizon, record
    )
    return Trajectory(samples, verdict, sigma0, steps, min_sigma)


# The steps of run_closed_loop for plant order n: this template with each
# $name replaced by its part written out for i = 0..n-1 (_kernel_source),
# $predict_terms by the term of each coefficient's box sign (_PREDICT_TERM),
# and $sample by the record statement of the variant (_SAMPLE).
# A local name ending in i is the instance coefficient a<i> = a_{i+1}, its
# box (a_lo<i>, a_hi<i>), the output y<i> = y_{k-i}, or a field of ring
# entry i, newest first: its estimate (est_lo<i>, est_hi<i>), its envelope
# value env<i>, its quantizer's envelope factors fac<i>, and low<i>, the
# exact coefficient-n expansion of its cell times its scaling. The ring
# and the outputs shift by one plain assignment per field and place, oldest
# first, which drops the oldest entry. Each sum starts in one expression
# from its first term (0.0 + t, or u + a_1 y_k for the plant step) and adds
# one term per statement: written as one expression, its n nested additions
# stop compiling near n = 3000. A step calls no abs: the two compares
# x > c or x < -c give abs(x) > c, false for a nan alike.
_KERNEL = """\
def run(a, box, slots, init, prior, sigma0, horizon, record):
    $instance = a
    $boxes = box
    $outputs_oldest_first = init
    $prior = prior
    m = len(slots)
    edges, N, factors, rate_of = slots[0]  # the only slot when m == 1
    up = 1.0 + REL_GUARD
    clamp_below = 0.5 * up
    stabilized_below = CONVERGENCE_RATIO * sigma0
    diverged_above = DIVERGENCE_RATIO * sigma0
    samples = []
    verdict = "horizon_exhausted"
    sigma = min_sigma = sigma0
    # step k - 1's predicted set and input, and the exact lower bound on
    # sigma_k: its last prediction term, box_n times the oldest estimate
    lo = hi = u = lower = 0.0
    k = 0
    while True:
        # transmit y_k: the symbol and its decoded cell (e_lo, e_hi)
        if m > 1:
            edges, N, factors, rate_of = slots[k % m]
        x = y0 / sigma
        if x > 0.5 or x < -0.5:  # abs(x) > 0.5, and false for a nan
            if -clamp_below <= x <= clamp_below:
                x = copysign(0.5, x)
            elif isinf(y0):
                raise ValueError(f"step {k}: the output overflowed to {y0}")
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

        if k == 0:
            env = sigma
        else:
            guard = REL_GUARD * (sigma + u if u >= 0.0 else sigma - u)
            if not lo + u - guard <= y0 <= hi + u + guard:
                check_hull(lo + u, hi + u)  # a nan bound is a malformed set
                raise InvariantViolation(f"step {k}: output escaped the predicted set")
            slack = REL_GUARD * sigma
            if not e_lo - slack <= y0 <= e_hi + slack:  # only y = +-inf at sigma = inf
                raise ValueError(f"step {k}: the output overflowed to {y0}")
            if sigma < lower - slack:
                raise InvariantViolation(
                    f"step {k}: scaling under its lower-bound recursion"
                )
            gap = lower - $low_oldest
            tol = REL_GUARD * (lower + sigma)
            if gap > tol or gap < -tol:
                raise InvariantViolation(
                    f"step {k}: scaling lower bound mismatches its rate form"
                )
$env_terms
            if sigma > env * up:
                raise InvariantViolation(
                    f"step {k}: scaling escaped the worst-case envelope"
                )
$push

        # predict: the Minkowski sum from 0.0 of box_i * estimate, newest first
$predict_terms
        if not lo <= hi:
            check_hull(lo, hi)
        lower = t_hi - t_lo
        sigma_next = hi - lo
        u = -(0.5 * (lo + hi))
        if sigma < min_sigma:
            min_sigma = sigma
        if record:
$sample
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

        # plant.step: y_{k+1} = u + sum_i a_i y_{k-i}
$plant_terms
$step
        sigma = sigma_next
        k += 1

    return samples, verdict, k, min_sigma
"""

# term i of the prediction for each sign of the box of a_{i+1} (_Setup.signs),
# then its share of the sum. "0", a box that holds 0: interval_product's min
# and max, the same comparisons in order. "+" and "-": the two products that
# the estimate's sign (at or above 0, at or below 0, or across it) names as
# the min and max. The term has no check of its own: it is malformed only
# when a "0" term's first product is nan, which leaves t_lo and t_hi nan, so
# the sum's check raises interval_product's error.
_PREDICT_TERM = {
    "0": """\
        t_lo = t_hi = a_lo$i * est_lo$i
        v = a_lo$i * est_hi$i
        if v < t_lo:
            t_lo = v
        if v > t_hi:
            t_hi = v
        v = a_hi$i * est_lo$i
        if v < t_lo:
            t_lo = v
        if v > t_hi:
            t_hi = v
        v = a_hi$i * est_hi$i
        if v < t_lo:
            t_lo = v
        if v > t_hi:
            t_hi = v
        lo $add t_lo
        hi $add t_hi
""",
    "+": """\
        if est_lo$i >= 0.0:
            t_lo = a_lo$i * est_lo$i
            t_hi = a_hi$i * est_hi$i
        elif est_hi$i <= 0.0:
            t_lo = a_hi$i * est_lo$i
            t_hi = a_lo$i * est_hi$i
        else:
            t_lo = a_hi$i * est_lo$i
            t_hi = a_hi$i * est_hi$i
        lo $add t_lo
        hi $add t_hi
""",
    "-": """\
        if est_lo$i >= 0.0:
            t_lo = a_lo$i * est_hi$i
            t_hi = a_hi$i * est_lo$i
        elif est_hi$i <= 0.0:
            t_lo = a_hi$i * est_hi$i
            t_hi = a_lo$i * est_lo$i
        else:
            t_lo = a_lo$i * est_hi$i
            t_hi = a_lo$i * est_lo$i
        lo $add t_lo
        hi $add t_hi
""",
}


_RING_FIELDS = ("est_lo", "est_hi", "env", "fac", "low")

# the record statement of each kernel variant: the default keeps the sample
# tuple, the row variant formats a CSV row with record, its %-format string
_SAMPLE = {
    False: "samples.append((y0, s, sigma, e_lo, e_hi, lo, hi, u))",
    True: "samples.append(record % (k, y0, s, sigma, e_lo, e_hi, u))",
}


def _kernel_source(signs: str, rows: bool = False) -> str:
    """The source of the closed-loop kernel of the box signs (_Setup.signs),
    one per coefficient of a plant of order n = len(signs), the row variant
    if rows."""
    from string import Template  # imported here: importing builds no kernel

    n = len(signs)
    older = range(n - 1)  # the entries and outputs that move back one place

    def names(*stems: str, at=range(n)) -> str:
        """'(stem<i>, ...)' of each stem in turn over the indices at."""
        return _tuple(f"{stem}{i}" for stem in stems for i in at)

    def shift(stems, new) -> str:
        """Lines moving each stem<i> to stem<i+1>, oldest first, then new into stem0."""
        moves = [f"{stem}{i + 1} = {stem}{i}" for i in reversed(older) for stem in stems]
        moves += [f"{stem}0 = {v}" for stem, v in zip(stems, new)]
        return "\n".join(" " * 8 + line for line in moves)

    def first(i: int) -> str:
        """The operator adding term i to a sum from 0.0."""
        return "+=" if i else "= 0.0 +"

    return Template(_KERNEL).substitute(
        instance=names("a"),
        boxes=_tuple(f"(a_lo{i}, a_hi{i})" for i in range(n)),
        outputs_oldest_first=names("y", at=range(n - 1, -1, -1)),
        prior=_tuple(names(*_RING_FIELDS, at=(i,)) for i in older),
        low_oldest=f"low{n - 1}",
        env_terms="\n".join(
            f"            env {first(i)} fac{i}[{i}] * env{i}" for i in range(n)
        ),
        # y_k's ring entry pushed in front of entries 0..n-2
        push=shift(_RING_FIELDS, ("e_lo", "e_hi", "env", "factors", "rate_of[s - 1] * sigma")),
        predict_terms="".join(
            Template(_PREDICT_TERM[sign]).substitute(i=i, add=first(i))
            for i, sign in enumerate(signs)
        ),
        plant_terms="\n".join(f"        y {'+=' if i else '= u +'} a{i} * y{i}" for i in range(n)),
        step=shift(("y",), ("y",)),
        sample=" " * 12 + _SAMPLE[rows],
    )


@functools.lru_cache(maxsize=64)
def _kernel(signs: str, rows: bool = False) -> Callable:
    """The closed-loop kernel of the box signs, the row variant if rows
    (_kernel_source), compiled on its first use under a filename that names
    the order, the variant and the signs. The cache is bounded: a plant of
    order n has up to 3^n sign patterns."""
    namespace = {
        "REL_GUARD": REL_GUARD,
        "CONVERGENCE_RATIO": CONVERGENCE_RATIO,
        "DIVERGENCE_RATIO": DIVERGENCE_RATIO,
        "InvariantViolation": InvariantViolation,
        "SaturationError": SaturationError,
        "bisect_right": bisect_right,
        "check_hull": check_hull,
        "copysign": math.copysign,
        "isinf": math.isinf,
    }
    name = f"<quantstab.loop {'row ' if rows else ''}kernel n={len(signs)} signs={signs}>"
    exec(compile(_kernel_source(signs, rows), name, "exec"), namespace)
    return namespace["run"]
