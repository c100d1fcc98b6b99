"""Data-rate bounds and stability tests for quantized feedback loops.

Three layers:

* closed-form scalar bounds: the necessary rate below which no coder or
  controller can stabilize the uncertain plant, the conservative bound that
  treats the worst admissible plant as known, and two earlier sufficient
  bounds used for comparison;
* the stability test itself: the nonnegative companion matrix built from
  worst-case expansion rates, whose spectral radius strictly below one
  certifies the scaling recursion contracts. A margin asks rho(P) < z^m
  over m steps, z = 1 - margin; _rescaled makes that rho < 1 on rates
  w_i z^-i, and every verdict is exact for those float rates: the sum rule
  sum_i w_i < 1 for one companion (_contracts, by one correctly rounded
  sum), and for a period product _radius_below, the signs of the leading
  principal minors of I - P from a fraction-free elimination of the
  product carried exactly in integers. Radii from numpy's eigvals are
  diagnostics (spectral_radius, StabilityTest.rho) and a search screen,
  and the only use of numpy here, so numpy loads on the first of them;
* time-varying alphabets: periodic schedules of quantizer sizes, their
  average rate, the minimum-average-rate search, and the convex relaxation
  whose optimum reproduces the necessary rate. Every size loop reads a
  rate table of one plant and family (_rate_table), built in one pass
  over the sizes, as far as its reader goes, from powers r^l that all
  sizes share; no QuantizerSpec is built. The readers of one CLI row share
  one _Table, which lives in the row's call. For scalar plants the search
  is exact: a knapsack with exactly m items, solved by depth-first branch
  and bound with the Lagrangian bound of the lower convex hull of the (log
  rate, log2 size) points, one node per multiset of the sizes above the
  smallest, whose count is carried as a range. It reads the table only as
  far as a size can still be in a schedule that ties an incumbent: no
  layout's worst rate is below the floor of its last cell
  (quantizer.rate_floor), so the hull's LP value and that floor bound the
  price of every unread size. At a zero
  floor (eps = 0) no such bound exists and the whole table is read. Each
  node is decided exactly, by the float log sum outside its rounding band and
  inside it by the rate product, carried as an integer over a power of
  two. Higher-order plants get a flagged heuristic: a depth-first search
  over short nondecreasing schedules that extends the period product from
  parent to child, stops a node's children at the first one whose average
  rate exceeds the incumbent, and starts from the cheapest certified
  single size; without one it returns None.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .plant import UncertainPlant
from .quantizer import (
    FAMILIES,
    QuantizerSpec,
    check_half,
    expansion_profile,
    layouts_for,
    quantizer_for,
    r_ratio,
    rate_floor,
    worst_rates,
)

INFEASIBLE = math.inf
"""Distinguished necessary-rate value: uncertainty too large for any rate."""


def necessary_rate(lambda_abs: float, eps_n: float) -> float:
    """Rate below which stabilization is impossible for the whole box.

    log2(lambda) when the plant pole product is known exactly, or so nearly
    that r rounds to 1.0 (the eps -> 0 limit); otherwise
    log2 of log((1-eps)^2)/log(r), which blows up as eps -> 1 and is
    INFEASIBLE (= +inf) for eps >= 1: past that no bit rate suffices. The
    ratio of logs is base-free.
    """
    r = r_ratio(lambda_abs, eps_n)
    if eps_n >= 1.0:
        return INFEASIBLE
    if eps_n == 0.0 or r == 1.0:
        return math.log2(lambda_abs)
    return math.log2(math.log((1.0 - eps_n) ** 2) / math.log(r))


def conservative_known_plant_rate(lambda_abs: float, eps_n: float) -> float:
    """Worst known-plant rate over the box: log2(lambda + eps).

    What one would budget by designing for the most expansive admissible
    plant as if it were known; the necessary rate exceeds it whenever it
    exceeds one bit, which is the cost of not knowing the plant.
    """
    r_ratio(lambda_abs, eps_n)  # rejects a box that is not expanding
    return math.log2(lambda_abs + eps_n)


# ---------------------------------------------------------------------------
# companion-matrix stability test


def _companion(w_bar: Sequence[float]):
    """Nonnegative companion matrix of worst-case expansion rates w_bar = (w_1, ..., w_n).

    An identity superdiagonal and bottom row (w_n, ..., w_1), so iterating
    it drives the envelope of the scaling sequence.
    """
    import numpy as np

    n = len(w_bar)
    m = np.eye(n, k=1)
    m[n - 1, :] = w_bar[::-1]
    return m


def _radius(m) -> float:
    """Spectral radius of a companion matrix or a period product of them."""
    import numpy as np

    return float(max(abs(np.linalg.eigvals(m))))


def spectral_radius(w_bar: Sequence[float]) -> float:
    """Spectral radius of the companion matrix of w_bar by eigvals, 0 when every rate is 0."""
    return _radius(_companion(w_bar))


_U = 2.0**-53
"""Unit roundoff of float64: a correctly rounded operation errs by at most this, relatively."""


def _rescaled(w_bar: tuple[float, ...], margin: float) -> tuple:
    """Rates w_i z^-i, z = 1 - margin, whose companions' product P' has rho < 1 iff rho(P) < z^m.

    H(w)/z = D H(w') D^-1, D = diag(1, z, ..., z^(n-1)). Verdicts are exact
    for these floats, w_i / z^i or, where z^n nears underflow, the exact
    quotient rounded once; a rate past 2^1023 stays an exact rational, which
    the verdicts read exactly and _rate_table leaves out. At margin 0, w_bar
    itself.
    """
    if margin == 0.0:
        return w_bar
    z = 1.0 - margin
    if z ** len(w_bar) > 2.0**-1000:
        out = tuple(wi / z**i for i, wi in enumerate(w_bar, 1))
        if max(out) < 2.0**1023:
            return out
    from fractions import Fraction  # imported only here: few rows reach this branch

    exact = tuple(Fraction(wi) / Fraction(z) ** i for i, wi in enumerate(w_bar, 1))
    return exact if max(exact) >= 2**1023 else tuple(map(float, exact))


def _contracts(w_bar: Sequence[float]) -> bool:
    """Sum rule: the companion's radius is below 1 iff sum_i w_i < 1.

    The radius is the positive root r of sum_i w_i r^-i = 1, which decreases
    in r. fsum rounds sum_i w_i - 1 once, correctly, so it has the sign of
    the exact difference. The max guard keeps fsum from overflowing and
    settles the exact rationals _rescaled keeps, all past 2^1023.
    """
    return max(w_bar) < 1.0 and math.fsum((*w_bar, -1.0)) < 0.0


def _product(rates: Sequence[Sequence[float]]):
    """Float period product H_m ... H_1 of the rates' companions, for the rho diagnostic."""
    import numpy as np

    prod = np.eye(len(rates[0]))
    for w in rates:
        prod = _companion(w) @ prod
    return prod


def _slot(w_bar: Sequence[float]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Numerators and denominators of the companion's bottom row (w_n, ..., w_1).

    A float is an integer over a power of two, so both are exact, as they
    are for the exact rationals _rescaled keeps.
    """
    return tuple(zip(*(v.as_integer_ratio() for v in reversed(w_bar))))


def _extend(prod: tuple, slot: tuple) -> tuple:
    """The exact product H(w) P for slot = _slot(w).

    prod = (d, M) is P = diag(d)^-1 M, positive integers d_i and an integer
    matrix M, as _exact_product builds it. H(w) shifts P's rows up and adds
    the bottom row sum_j w_(n-j) P_j, put over the lcm of its terms'
    denominators.
    """
    d, M = prod
    nums, dens = slot
    terms = [b * di for b, di in zip(dens, d)]
    den = math.lcm(*terms)
    coef = [a * (den // t) for a, t in zip(nums, terms)]
    bottom = tuple(sum(map(operator.mul, coef, col)) for col in zip(*M))
    return d[1:] + (den,), M[1:] + (bottom,)


def _exact_product(n: int, rates: Sequence[Sequence[float]]) -> tuple:
    """The exact period product H_m ... H_1 of the rates' companions, oldest first, as (d, M)."""
    prod = ((1,) * n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    for w in rates:
        prod = _extend(prod, _slot(w))
    return prod


def _radius_below(prod: tuple) -> bool:
    """Whether rho(P) < 1, exactly, for P = diag(d)^-1 M given as prod = (d, M).

    For nonnegative P, I - P is a nonsingular M-matrix exactly when
    rho(P) < 1, and a Z-matrix is one exactly when its leading principal
    minors are positive (Berman & Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, ch. 6, Thm 2.3). The leading minors of
    diag(d) - M = diag(d)(I - P) have the same signs, since every d_i > 0,
    and are the pivots of its fraction-free (Bareiss) elimination, in which
    every division is exact.
    """
    d, M = prod
    n = len(d)
    a = [[-x for x in row] for row in M]
    for i in range(n):
        a[i][i] += d[i]
    prev = 1
    for k in range(n):
        piv = a[k][k]
        if piv <= 0:
            return False
        rk = a[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * piv - f * rk[j]) // prev
        prev = piv
    return True


@dataclass(frozen=True)
class StabilityTest:
    rho: float
    stable: bool


def _check_margin(margin: float) -> None:
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must be in [0, 1), got {margin!r}")


def sufficient_test(
    p: UncertainPlant, q: QuantizerSpec, margin: float = 0.0
) -> StabilityTest:
    """Does the quantizer contract the scaling envelope for this plant?

    The one-slot periodic test: the companion matrix of the worst-case
    expansion rates passes when its spectral radius is strictly below
    1 - margin, decided exactly on the rescaled rates. rho is a diagnostic.
    """
    return periodic_sufficient_test(p, Schedule((q.N,)), [q], margin)


def _rate_table(p: UncertainPlant, family: str, N_max: int, margin: float) -> Iterator[tuple]:
    """(N, log2 N, _rescaled w_bar) for each size N in 2..N_max whose layout builds.

    Every size loop reads this table, built in one pass over N from one
    Layouts, so each size costs its boundary half from the powers r^l the
    sizes share, the QuantizerSpec checks and its worst cell rates; no
    QuantizerSpec is built. A size without a valid layout is skipped: for
    large N the float boundaries stop increasing once 1 - r^l rounds to 1.
    So is a size whose rescaled rates _rescaled keeps as exact rationals,
    past 2^1023 at a margin next to 1: such a size never contracts, and the
    searches read float rates only. A box that admits no layout yields
    nothing; an unknown family name raises on the first read.
    """
    try:
        layouts = layouts_for(family, p)
    except ValueError:
        if family not in FAMILIES:
            raise
        return
    for N in range(2, N_max + 1):
        try:
            h = layouts.half(N)
            check_half(N, h)
        except ValueError:
            continue
        w = _rescaled(worst_rates(h, N, p), margin)
        if isinstance(w[0], float):
            yield N, math.log2(N), w


class _Table:
    """_rate_table(p, family, N_max, margin) read once, however many readers iterate it.

    Iterating yields the rows read so far, then reads on only as far as it
    goes; the call that builds a table holds it, and none is kept between rows.
    """

    def __init__(self, p: UncertainPlant, family: str, N_max: int, margin: float) -> None:
        self.p = p
        self._rows: list[tuple] = []
        self._unread = _rate_table(p, family, N_max, margin)

    def __iter__(self) -> Iterator[tuple]:
        for i in itertools.count():
            if i == len(self._rows):
                row = next(self._unread, None)
                if row is None:
                    return
                self._rows.append(row)
            yield self._rows[i]

    def first_certified(self) -> int | None:
        """The first size the sum rule certifies, reading up to it; None when none does."""
        return next((N for N, _, w in self if _contracts(w)), None)


def min_sufficient_N(
    p: UncertainPlant, family: str, N_max: int = 64, margin: float = 0.0,
    *, table: _Table | None = None,
) -> int | None:
    """Smallest alphabet size the sum rule certifies at margin, or None within the cap.

    table, the _Table of these arguments, shares its reads; it never changes the answer.
    """
    _check_margin(margin)
    return (_Table(p, family, N_max, margin) if table is None else table).first_certified()


# ---------------------------------------------------------------------------
# periodic schedules


@dataclass(frozen=True)
class Schedule:
    """Periodic alphabet sizes (N_0, ..., N_{m-1}) applied as k mod m."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("schedule must have at least one slot")
        object.__setattr__(self, "sizes", tuple(map(operator.index, self.sizes)))
        if any(v < 2 for v in self.sizes):
            raise ValueError("every slot needs at least 2 levels")

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def average_rate(self) -> float:
        return sum(math.log2(N) for N in self.sizes) / len(self.sizes)


def schedule_quantizers(
    p: UncertainPlant, sched: Schedule, family: str | Sequence[QuantizerSpec]
) -> list[QuantizerSpec]:
    """Resolve a family name or an explicit per-slot quantizer list."""
    if isinstance(family, str):
        return [quantizer_for(family, p, N) for N in sched.sizes]
    qs = list(family)
    if len(qs) != sched.m or any(q.N != N for q, N in zip(qs, sched.sizes)):
        raise ValueError("custom quantizer list does not match the schedule sizes")
    return qs


def periodic_sufficient_test(
    p: UncertainPlant,
    sched: Schedule,
    family: str | Sequence[QuantizerSpec] = "optimal",
    margin: float = 0.0,
) -> StabilityTest:
    """Stability of an m-periodic schedule: radius of the period product.

    The product is H_0 H_1 ... H_{m-1}, H_j the companion of slot j, whose
    transpose the loop's envelope recursion steps by over a period (on its
    pending partial sums); its radius is invariant under cyclic shifts of the
    phase. stable is _radius_below on the exact product of the rescaled
    rates' companions, rho < (1 - margin)^m exactly; rho is a diagnostic.
    """
    _check_margin(margin)
    ws = [expansion_profile(q, p) for q in reversed(schedule_quantizers(p, sched, family))]
    rs = [_rescaled(w, margin) for w in ws]
    return StabilityTest(rho=_radius(_product(ws)), stable=_radius_below(_exact_product(p.n, rs)))


@dataclass(frozen=True)
class ScheduleSearchResult:
    schedule: Schedule
    avg_rate: float
    exact: bool


def _lower_hull(points: list[tuple[float, float]]) -> list[int]:
    """Indices of the lower convex hull of (x, y) points sorted by x."""
    hull: list[int] = []
    for i, (x, y) in enumerate(points):
        while len(hull) >= 2:
            x1, y1 = points[hull[-2]]
            x2, y2 = points[hull[-1]]
            # keep right turns only
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _seeds(gvec: list[float], cvec: list[float], m_max: int, band: float) -> tuple[float, list[float]]:
    """The cheapest seed average (inf without one) and the sorted slopes of the items' hull.

    Seeds are the uniform schedules and the closed-form mixes of adjacent
    lower-hull points of (g, c) = (ln w, log2 N), as _search_scalar_exact
    describes. They only bound the search, so each keeps its float log sum at
    least the rounding band below 0: it is certified. The slopes are the
    negative ones of the hull's segments, and 0.
    """
    seed_target = -max(band, 1e-9)
    ub = math.inf
    for g, c in zip(gvec, cvec):
        if m_max * g < seed_target:  # uniform schedule, any feasible period
            ub = min(ub, c)
    order = sorted(range(len(gvec)), key=lambda i: (gvec[i], cvec[i]))
    hull = [order[h] for h in _lower_hull([(gvec[i], cvec[i]) for i in order])]
    betas = [0.0]
    for a, b in zip(hull, hull[1:]):
        ga, gb, ca, cb = gvec[a], gvec[b], cvec[a], cvec[b]
        if not (ga < gb and ca > cb):
            continue
        betas.append((cb - ca) / (gb - ga))
        if not ga < 0.0 <= gb - seed_target:  # no mix of the pair beats the seeds
            continue
        # k slots of a and m - k of b: the cheapest feasible k in closed form
        for m in range(2, m_max + 1):
            k = max(1, math.floor((m * gb - seed_target) / (gb - ga)) + 1)
            if k * ga + (m - k) * gb >= seed_target:
                k += 1
            if k < m and k * ga + (m - k) * gb < seed_target:
                ub = min(ub, (k * ca + (m - k) * cb) / m)
    betas.sort()
    return ub, betas


def _band(m_max: int, gvec: list[float]) -> float:
    """Rounding band of a float log sum of at most m_max of the items' logs against 0.

    Each log errs by less than one ulp (2u |g|), and each of the at most
    m_max - 1 additions by u times a partial sum of at most k G, G = max |g|,
    so a sum lies within u G m_max (m_max + 5) / 2 of the exact log of the
    rates' product.
    """
    return (m_max + 2) ** 2 * _U * max(map(abs, gvec))


def _scalar_rows(table: _Table, m_max: int) -> list[tuple[int, float, float]]:
    """(N, log2 N, w) for the sizes of the rate table that a schedule within the caps can use.

    Every rescaled rate is at least w_floor = rate_floor(|a*|, eps), as
    w / z >= w, so an unread size N has g = ln w >= ln w_floor and, for a
    slope beta <= 0, a price c - beta g of at least log2 N - beta ln w_floor.
    The rows start as the table up to its first certified size, as
    min_sufficient_N reads it. From them come a certified incumbent
    average ub (_seeds) and beta, the most negative hull slope (0 for a
    single row), that of the segment straddling g = 0. A
    schedule of m <= m_max items with sum g < 0 costs at least the sum of
    its prices, so at least price_i + (m - 1) F for each of its items i, F
    the smallest price, and its average stays above ub once
    price_i > m_max ub - (m_max - 1) F, which is at least F since ub is the
    average of such a schedule. So reading stops before the first size whose
    price bound exceeds that, plus 1e-9 of the magnitudes compared for
    rounding: no later size's bound is smaller, and F, the smallest price
    read, is then the smallest of all. At a zero floor (eps = 0, or a zero-rate uniform plant)
    ln w_floor does not exist and the whole table is read, as it is when
    nothing contracts or the prefix holds no seed.
    """
    static = table.first_certified()
    floor = rate_floor(abs(table.p.a_star[0]), table.p.eps[0])
    reader = iter(table)
    rows: list[tuple[int, float, float]] = []
    for N, c, (w,) in reader:
        rows.append((N, c, w))
        if N == static:
            break
    if static is None or not floor > 0.0:  # nothing contracts, or a zero floor
        return rows + [(N, c, w) for N, c, (w,) in reader]
    gvec = [math.log(w) for _, _, w in rows]
    cvec = [c for _, c, _ in rows]
    ub, betas = _seeds(gvec, cvec, m_max, _band(m_max, gvec))
    if ub == math.inf:  # no incumbent to cap with
        return rows + [(N, c, w) for N, c, (w,) in reader]
    beta, lnf = betas[0], math.log(floor)
    F = min(c - beta * g for c, g in zip(cvec, gvec))
    mag = max(c + abs(beta * g) for c, g in zip(cvec, gvec))  # scale of F's rounding
    while True:
        tol = 1e-9 * (m_max * (ub + mag) + abs(beta * lnf))
        if math.log2(rows[-1][0] + 1) - beta * lnf > m_max * ub - (m_max - 1) * F + tol:
            return rows  # before building the next size
        row = next(reader, None)
        if row is None:
            return rows
        N, c, (w,) = row
        g = math.log(w)
        rows.append((N, c, w))
        F = min(F, c - beta * g)
        mag = max(mag, c + abs(beta * g))


def _within(lo: int, hi: int, a: float, b: float, t: float) -> tuple[int, int]:
    """The integers x of lo..hi with a + b x <= t, as (lo, hi): empty when lo > hi."""
    if b > 0.0:
        q = (t - a) / b
        if q < hi:
            hi = math.floor(q) if q >= lo else lo - 1
    elif b < 0.0:
        q = (t - a) / b
        if q > lo:
            lo = math.ceil(q) if q <= hi else hi + 1
    elif a > t:
        hi = lo - 1
    return lo, hi


def _prices(beta: float, cvec: list[float], gvec: list[float]) -> tuple[list, list]:
    """The items' prices c - beta g at a hull slope beta, and their suffix minima."""
    pr = [c - beta * g for c, g in zip(cvec, gvec)]
    return pr, list(itertools.accumulate(reversed(pr), min))[::-1]


def _most_copies(lo: int, hi: int, g: float, num: int, shift: int,
                 g0: float, n0: int, s0: int, band: float) -> int:
    """The largest x in lo..hi with num n0^x < 2^(shift + s0 x), of log g + x g0 and
    g0 >= 0, by the float log sum outside the rounding band; below lo when none."""
    x = hi
    if g + hi * g0 > band:  # infeasible at hi: start at the top of the band
        if g0 == 0.0:
            return lo - 1
        x = min(hi, math.floor((band - g) / g0) + 1)
    while x >= lo:
        d = -(g + x * g0)
        if d > band or d > -band and num * n0**x < 1 << (shift + s0 * x):
            return x
        if g0 == 0.0:
            break
        x -= 1
    return lo - 1


def _search_scalar_exact(table: _Table, m_max: int) -> ScheduleSearchResult | None:
    """Exact minimum-average-rate schedule for n = 1.

    The period product of scalar rates commutes, so schedules are multisets
    of sizes: pick m <= m_max items (g, c) = (ln w_N, log2 N) of the rescaled
    rates minimizing sum(c)/m subject to sum(g) < 0, a knapsack with exactly
    m items. Slots of the first size that contracts alone beat every schedule
    of larger sizes; their best count is found in closed form, as their float
    averages differ in the last bits. The rest is a depth-first branch and
    bound over the schedules whose smallest size N0 does not contract. A
    node is one N0 slot and S, a multiset of larger sizes, and carries x, the
    count of further N0 slots, as a range. Each N0 slot lowers the average
    and raises the log sum, so the node's best schedule is at the largest x
    in range whose exact product is below 1 (_most_copies): each rate is an
    integer over a power of two, so a node carries its exact product as num /
    2^shift. The incumbent average ub starts from uniform schedules and from
    the cheapest feasible mixes of the adjacent lower-hull points (a, b) in
    (g, c) that straddle the seed target, g_a < 0 <= g_b - target: a pair
    with g_a >= 0 never mixes below 0, and a pair of two feasible sizes mixes
    dearer than its cheaper size, which the uniform seed already holds.

    A child adding item i at count x, with e_min to e_max more items to
    come, is pruned when a Lagrangian bound shows that no completion reaches
    ub: for beta = 0 and each negative slope beta of the hull, an added item
    k costs at least min_{k' >= k}(c_k' - beta g_k') + beta g_k, and the
    added g sum stays below the remaining budget d. The bound is C + beta d
    + min(e_min s(beta), e_max s(beta)), with C = c_sum + c_i - ub j and
    s(beta) = min_{k >= i}(c_k - beta g_k) - ub. At one count it is concave
    in beta: a climb over the sorted slopes from the slope that served last
    finds its maximum, pruning at the first value above the tolerance. At
    one slope it is affine in x but for e_min's floor. So a failed climb
    cuts the child's range from the top at its slope's line, e_min relaxed
    to its unfloored linear form, then walks down that slope with e_min as
    is, a count, or where the bound rises below x an e_min step, at a time.
    Counts below a top that passes are kept unclimbed; relaxing only keeps
    more. A count that fails on a slope's price floor (s(beta) >= 0) fails
    for every later item too, and leaves the node's range.

    First slots come largest size first, each with x = 0, then 1..3, then
    the rest: short schedules set an incumbent that cuts the long ones. Below
    them, larger items come first. A small tolerance keeps children that tie
    ub, so ties still prefer fewer slots, then lexicographically smaller
    sizes; a key's average adds log2 N over its sorted sizes.

    The items are the rows _scalar_rows reads: the table up to the first
    contracting size, then further only while a size's price bound from the
    rate floor can still tie the seeds of that prefix. A size left out is in no
    schedule that ties the optimum, so the answer is the one the whole table
    gives. The floor is 0 at eps = 0 and on a zero-rate uniform plant, where
    its log does not exist; those rows read the whole table.
    """
    rated = _scalar_rows(table, m_max)
    if not rated:
        return None
    # A zero rate (the uniform family at a* = eps = 0) has no log, but every
    # schedule that holds it contracts. The cheapest of those is the first
    # zero-rate size with m - 1 slots of the cheapest size: alone when it is
    # the cheapest size, which nothing beats, else at m_max, as the seed.
    zero = next((v for v in rated if v[2] == 0.0), None)
    if zero is rated[0]:
        return ScheduleSearchResult(schedule=Schedule((zero[0],)), avg_rate=zero[1], exact=True)
    best: tuple[float, int, tuple[int, ...]] | None = None
    if zero is not None:
        N0, c0, _ = rated[0]
        best = (sum([c0] * (m_max - 1) + [zero[1]]) / m_max, m_max,
                (N0,) * (m_max - 1) + (zero[0],))
    vals = [v for v in rated if v[2] > 0.0]
    cvec = [c for _, c, _ in vals]
    gvec = [math.log(w) for _, _, w in vals]
    # w = nums[i] / 2^shifts[i] exactly
    nums, dens = zip(*(w.as_integer_ratio() for _, _, w in vals))
    shifts = [den.bit_length() - 1 for den in dens]
    nvals = len(vals)
    # cheapest future feasibility credit for slots restricted to index >= i
    gmin = list(itertools.accumulate(reversed(gvec), min))[::-1]
    first = next((i for i, g in enumerate(gvec) if g < 0.0), None)  # contracts alone
    if first is not None:  # x slots of it, each x summed as a path of sizes adds it
        cx = list(itertools.accumulate([cvec[first]] * m_max, initial=0.0))
        avg, x = min((cx[x] / x, x) for x in range(1, m_max + 1))
        best = min(best or (math.inf,), (avg, x, (vals[first][0],) * x))
    if not first:  # nothing contracts, or the cheapest size does: nothing is left to search
        return None if best is None else ScheduleSearchResult(Schedule(best[2]), best[0], True)
    band = _band(m_max, gvec)
    seeded, betas = _seeds(gvec, cvec, m_max, band)
    ub = min(seeded, best[0])  # at or above the optimum
    # per slope, built on first use: item prices c_k - beta g_k and their suffix minima
    rows: list = [None] * len(betas)
    tol = 1e-9  # keeps children that tie the incumbent
    nb, inf = len(betas), math.inf
    h = nb - 1  # slope of the last bound evaluated: warm start for the next
    # e_min > e_max at item i where the g sum with e_max more of gmin[i] passes this;
    # band comes in as a loop value so that it is no closure cell for the hot loop
    sheer = [b - 1e-9 * gm for b in (band,) for gm in gmin]
    # nodes: (slots, c sum, g sum, last index, indices, num, shift, lo, hi) of an N0
    # slot and S, num / 2^shift their exact product, lo..hi the further N0 slots
    c0 = g0 = 0.0
    y1s = [0.0] * nvals
    stack: list[tuple] = [(0, 0.0, 0.0, 0, (), 1, 0, 0, 0)]
    while stack:
        k, c_sum, g_sum, last, items, num, shift, alo, ahi = stack.pop()
        if k == 1:  # a new N0: x further slots of it, summed as a path of sizes adds them
            N0, c0, _ = vals[last]
            g0, n0, s0 = gvec[last], nums[last], shifts[last]
            cx = list(itertools.accumulate([c0] * m_max, initial=0.0))
            y1s = [s / gm if gm < 0.0 else 0.0 for s in (-g0,) for gm in gmin]  # e_min's step in x
        if k and g_sum + alo * g0 <= band:  # not infeasible at every count
            x = _most_copies(alo, ahi, g_sum, num, shift, g0, n0, s0, band)
            if x >= alo and (c_sum + x * c0) / (k + x) <= best[0] + tol:  # may tie: sum exactly
                cost = cx[x]
                for i in items:
                    cost += cvec[i]
                key = (cost / (k + x), k + x, (N0,) * x + tuple(vals[i][0] for i in items))
                if key < best:
                    best, ub = key, min(ub, key[0])
        e_top = m_max - k - 1  # e_max at x = 0
        if ahi > e_top:  # alo..ahi: the counts whose children are still looked at
            ahi = e_top
        base, cu = c_sum - ub * (k + 1), c0 - ub  # C - c_i at x = 0, and its step in x
        glo, elo = g_sum + alo * g0, e_top - alo  # the g sum and e_max at alo
        ctop, gtop = base + ahi * cu, g_sum + ahi * g0  # C - c_i and the g sum at ahi
        children = []
        for i in range(last + (k == 1), nvals if k else first):
            if not k:  # a first slot of N_i: the counts are of further N_i slots
                if alo > 0 or ahi < 0:  # x = 0 failed on a price floor, as every later one does
                    break
                c0, g0 = cvec[i], gvec[i]
                cu, ahi, y1s[i] = c0 - ub, e_top, -g0 / gmin[i]
                ctop, gtop = base + ahi * cu, g_sum + ahi * g0
            if alo > ahi:
                break
            gm = gmin[i]
            if gm < 0.0 and glo + gvec[i] + elo * gm > sheer[i]:  # e_min > e_max from alo on
                continue
            g2 = g_sum + gvec[i]
            if gm >= 0.0:  # no item from i on contracts: only feasible counts stay
                lo, hi = alo, _most_copies(alo, ahi, g2, num * nums[i], shift + shifts[i],
                                           g0, n0, s0, band)
                y0, y1 = -1.0, 0.0
            else:  # e_min = floor(y0 + y1 x) + 1 from (d + band) / gmin - 1e-9, d = -g2 - x g0:
                # d + band bounds the budget from above and 1e-9 the quotient's rounding
                lo, hi = alo, ahi
                y0, y1 = (band - g2) / gm - 1e-9, y1s[i]
                if hi > lo and y0 + y1 * hi > e_top - hi:  # cut where e_min passes e_max
                    q = (e_top - y0) / (y1 + 1.0)
                    if q < hi:
                        hi = math.floor(q)
            x = hi  # the top count
            while lo <= hi:
                if x == ahi:
                    cc, gg, e_max = ctop, gtop, e_top - x
                else:
                    cc, gg, e_max = base + x * cu, g_sum + x * g0, e_top - x
                e_min = y0 + y1 * x
                e_min = e_min // 1.0 + 1.0 if e_min >= 0.0 else 0.0
                if e_min > e_max:  # too few slots left: cut at y0 + y1 x <= e_top - x
                    q = (e_top - y0) / (y1 + 1.0)
                    x = hi = lo - 1 if q < lo else x - 1 if q >= x else math.floor(q)
                    continue
                start = j = h  # climb the concave bound at x from the warm start
                step, lb = 1, -inf
                fail = brk = None
                while True:
                    if 0 <= j < nb:
                        if rows[j] is None:
                            rows[j] = _prices(betas[j], cvec, gvec)
                        pr, fl = rows[j]
                        bb = cc - betas[j] * gg
                        slack = fl[i] - ub
                        if slack >= 0.0 and bb + fl[i] > tol:
                            fail, brk = j, True
                            break
                        val = bb + pr[i] + (e_min if slack >= 0.0 else e_max) * slack
                        if val > lb:  # the bound rose: move there and go on
                            h, lb = j, val
                            if lb > tol:
                                fail = j
                                break
                            j += step
                            continue
                    if step == 1 and h == start:  # no rise upward: try downward
                        step, j = -1, h - 1
                        continue
                    break
                if fail is None:
                    break
                hi = x - 1
                if lo > hi and not brk:
                    break
                if brk and alo == ahi:  # the one count left fails for every later item too
                    alo += 1
                    break
                # the failing slope's bound as a line a + b x at or below it, then one x at a
                # time: bb, pr, fl and slack are still the climb's at that slope
                b = cu - betas[fail] * g0
                a = bb - b * x
                if brk:  # fails for every later item: cut the counts they look at, and these
                    alo, ahi = _within(alo, ahi, a + fl[i], b, tol)
                    ctop, gtop = base + ahi * cu, g_sum + ahi * g0
                    glo, elo = g_sum + alo * g0, e_top - alo
                    lo, hi = (lo if lo > alo else alo), (hi if hi < ahi else ahi)
                    if lo > hi:
                        break
                a += pr[i]
                if slack < 0.0 or b > 0.0:  # the bound falls below x: cut at a line under it
                    if slack < 0.0:  # exact: e_max = e_top - x
                        a2, b2 = a + e_top * slack, b - slack
                    elif y0 + y1 * x > 0.0:  # e_min relaxed to y0 + y1 x
                        a2, b2 = a + y0 * slack, b + y1 * slack
                    else:  # e_min relaxed to 0
                        a2, b2 = a, b
                    if b2 > 0.0:
                        q = (tol - a2) / b2
                        if q < hi:
                            hi = math.floor(q) if q >= lo else lo - 1
                    elif a2 + b2 * hi > tol:  # no fall with x: no count below passes
                        hi = lo - 1
                    while slack >= 0.0 and lo <= hi:  # then with e_min as is, count by count
                        e = y0 + y1 * hi
                        if a + b * hi + (e // 1.0 + 1.0 if e >= 0.0 else 0.0) * slack <= tol:
                            break
                        hi -= 1
                else:  # it rises below x until e_min steps down: go one step at a time
                    e = y0 + y1 * lo
                    e_lo, e = (e // 1.0 + 1.0 if e >= 0.0 else 0.0), e_min  # e_min's least, its now
                    while lo <= hi:
                        if e == e_lo or a + b * hi + e_lo * slack > tol:  # no count below passes
                            hi = lo - 1
                            break
                        c = math.ceil((e - 1.0 - y0) / y1)  # the lowest count at this e_min
                        while (y0 + y1 * c) // 1.0 + 1.0 < e:
                            c += 1
                        if hi >= c:
                            hi = c - 1
                        e = y0 + y1 * hi
                        e = e // 1.0 + 1.0 if e >= 0.0 else 0.0
                        if a + b * hi + e * slack <= tol:
                            break
                x = hi
            if lo > hi:
                continue
            node = (k + 1, c_sum + cvec[i], g2, i, items + (i,), num * nums[i], shift + shifts[i])
            if not k:  # few N_i slots first: short schedules set an incumbent for long ones
                for s in (4, 1):
                    if lo < s <= hi:
                        children.append(node + (s, hi))
                        hi = s - 1
            children.append(node + (lo, hi))
        stack.extend(children)  # largest index first: feasible incumbents early

    avg, _, sizes = best
    return ScheduleSearchResult(schedule=Schedule(sizes), avg_rate=avg, exact=True)


def _search_heuristic(table: _Table, m_max: int) -> ScheduleSearchResult | None:
    """Best-effort search for higher-order plants: small periods only.

    None when no single size of the table certifies. Else the incumbent
    starts as static = the table's first certified size, as
    min_sufficient_N finds it, over the table's sizes up to static + 4 and
    periods up to 6. Depth-first over nondecreasing size sequences; a
    node carries its exact period product H_{m-1} ... H_0, its parent's
    extended by the new slot's rescaled rates:
    periodic_sufficient_test's order reversed, with equal verdicts
    where the rates lie on one line per coefficient over N, as the
    built-in families' do. A node's verdict is _radius_below on it, taken
    only when the node would beat the incumbent.
    A child is skipped when the product of per-size radii with the smallest
    radius in every remaining slot is not below 1: a heuristic prune, since
    that product does not bound the radius of the period product, so it can
    skip a schedule that would win. Sizes never decrease along a path, so a
    child's average rate bounds its subtree and every later sibling's from
    below: the loop over children stops at the first child whose average
    exceeds the incumbent's by more than rounding, which skips no node that
    could beat the incumbent.
    """
    static = table.first_certified()
    if static is None:
        return None
    rows = []
    for row in table:  # up to static + 4, building no size past the last one kept
        if row[0] > static + 4:
            break
        rows.append(row)
        if row[0] == static + 4:
            break
    cap_m = min(m_max, 6)
    cands = [(N, c, spectral_radius(w), _slot(w)) for N, c, w in rows]
    # static is a candidate: below 1 unless eigvals rounds it up, which skips every child
    rho_min = min(r for _, _, r, _ in cands)
    best = (math.log2(static), 1, (static,))

    def dfs(start: int, sizes: tuple, c_sum: float, rho_prod: float, prod: tuple) -> None:
        nonlocal best
        j = len(sizes)
        if j > 0:
            key = (c_sum / j, j, sizes)
            if key < best and _radius_below(prod):
                best = key
        if j == cap_m:
            return
        for idx in range(start, len(cands)):
            N, c, rho, slot = cands[idx]
            if (c_sum + c) / (j + 1) > best[0] * (1.0 + 1e-12):
                break
            # coarse screen: even finishing every remaining slot at the best
            # per-step radius, the radius product stays expansive
            if rho_prod * rho * rho_min ** (cap_m - j - 1) >= 1.0:
                continue
            dfs(idx, sizes + (N,), c_sum + c, rho_prod * rho, _extend(prod, slot))

    dfs(0, (), 0.0, 1.0, _exact_product(table.p.n, ()))
    avg, _, sizes = best
    return ScheduleSearchResult(schedule=Schedule(sizes), avg_rate=avg, exact=False)


def search_periodic_schedule(
    p: UncertainPlant,
    m_max: int,
    N_max: int,
    family: str = "optimal",
    margin: float = 0.0,
    *, table: _Table | None = None,
) -> ScheduleSearchResult | None:
    """Minimum average-rate periodic schedule within the given caps.

    The margin is a contraction per step, rho(P) < (1 - margin)^m over an
    m-slot period. Exact for first-order plants: each candidate is decided
    exactly for the rescaled float rates, by the float log sum outside its
    rounding band and by the integer rate product inside it. A flagged
    heuristic otherwise. Both read one rate table per plant and family:
    table, the _Table of these arguments, which never changes the answer.
    None when no schedule within the caps is found.
    """
    if m_max < 1 or N_max < 2:
        raise ValueError("need m_max >= 1 and N_max >= 2")
    _check_margin(margin)
    table = _Table(p, family, N_max, margin) if table is None else table
    return (_search_scalar_exact if p.n == 1 else _search_heuristic)(table, m_max)


# ---------------------------------------------------------------------------
# convex relaxation of the minimum average rate


@dataclass(frozen=True)
class RelaxedRateSolution:
    """Optimum of the continuous-size relaxation.

    components: the m relaxed sizes (all equal to 2^necessary_rate);
    phi: their geometric mean (the relaxed objective);
    psi: the feasibility residual (product of relaxed rates minus one),
    zero at the optimum where the constraint is active.
    """

    components: tuple[float, ...]
    phi: float
    psi: float
    multiplier: float


def relaxed_min_rate(lambda_abs: float, eps_n: float, m: int) -> RelaxedRateSolution:
    """Closed-form optimum of the relaxed schedule problem with m slots.

    Minimizing the geometric mean of continuous sizes subject to the
    product of even-layout worst rates reaching one puts every component at
    2^necessary_rate, confirming periodic scheduling cannot beat the
    necessary rate.
    """
    if m < 1:
        raise ValueError("need at least one slot")
    if not (0.0 < eps_n < 1.0):
        raise ValueError("relaxation needs 0 < eps_n < 1")
    r = r_ratio(lambda_abs, eps_n)
    n_star = math.log((1.0 - eps_n) ** 2) / math.log(r)
    comps = (n_star,) * m
    phi = 1.0
    psi_prod = 1.0
    for c in comps:
        phi *= c ** (1.0 / m)
        psi_prod *= eps_n / (1.0 - r ** (c / 2.0))
    lam_mult = -eps_n / (m * (1.0 - eps_n) * math.log(r))
    return RelaxedRateSolution(
        components=comps, phi=phi, psi=psi_prod - 1.0, multiplier=lam_mult
    )


# ---------------------------------------------------------------------------
# earlier sufficient bounds for comparison


@dataclass(frozen=True)
class ComparisonBounds:
    """Two earlier scalar sufficient rates; r_suf is None where undefined."""

    r_suf: float | None
    r_suf_prime: float


def comparison_bounds(lambda_abs: float, eps_1: float) -> ComparisonBounds:
    """Sufficient rates from two prior scalar constructions.

    r_suf = log2[(lam - eps(lam + eps)) / (1 - eps(2 lam + 2 eps + 1))],
    defined only while both parts are positive; r_suf_prime =
    log2[lam / (1 - eps)]. Both exceed the necessary rate on their domain.
    """
    r_ratio(lambda_abs, eps_1)  # rejects a box that is not expanding
    if not (0.0 <= eps_1 < 1.0):
        raise ValueError("eps_1 must be in [0, 1)")
    num = lambda_abs - eps_1 * (lambda_abs + eps_1)
    den = 1.0 - eps_1 * (2.0 * lambda_abs + 2.0 * eps_1 + 1.0)
    r_suf = math.log2(num / den) if num > 0.0 and den > 0.0 else None
    r_suf_prime = math.log2(lambda_abs / (1.0 - eps_1))
    return ComparisonBounds(r_suf=r_suf, r_suf_prime=r_suf_prime)
