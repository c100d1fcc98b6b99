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
  whose optimum reproduces the necessary rate. Every size loop reads one
  rate table per plant and family, built in one pass over the sizes and
  only as far as a reader has gone: each size takes its boundary half from
  a prefix of powers r^l shared by all sizes, the QuantizerSpec checks and
  its worst cell rates, through the same helpers as a QuantizerSpec, but
  builds none. The memo holds the tables of one plant, so the N_suf
  columns and the search of a sweep row share one build, and the next
  row's plant drops them. For scalar plants the search
  is exact: a knapsack with exactly m items, solved by depth-first branch
  and bound with the Lagrangian bound of the lower convex hull of the
  (log rate, log2 size) points. Each node is decided exactly, by the float
  log sum outside its rounding band and inside it by the rate product,
  carried as an integer over a power of two.
  Higher-order plants get a flagged heuristic: a depth-first search over
  short nondecreasing schedules that extends the period product from
  parent to child, stops a node's children at the first one whose average
  rate exceeds the incumbent, and starts from the cheapest certified
  single size; without one it returns None.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .plant import UncertainPlant
from .quantizer import (
    FAMILIES,
    Layouts,
    QuantizerSpec,
    check_half,
    expansion_profile,
    layouts_for,
    quantizer_for,
    r_ratio,
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


@dataclass(frozen=True)
class HMatrix:
    """Nonnegative companion matrix of worst-case expansion rates.

    w_bar is ordered (w_1, ..., w_n); the matrix has an identity
    superdiagonal and bottom row (w_n, ..., w_1), so iterating it drives the
    envelope of the scaling sequence.
    """

    n: int
    w_bar: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.w_bar) != self.n:
            raise ValueError("w_bar length must equal n >= 1")
        object.__setattr__(self, "w_bar", tuple(float(v) for v in self.w_bar))
        if any(v < 0 for v in self.w_bar):
            raise ValueError("expansion rates must be nonnegative")

    def matrix(self):
        """The companion matrix as a numpy array."""
        import numpy as np

        m = np.zeros((self.n, self.n))
        for j in range(self.n - 1):
            m[j, j + 1] = 1.0
        m[self.n - 1, :] = self.w_bar[::-1]
        return m


def _radius(m) -> float:
    """Spectral radius of a companion matrix or a period product of them."""
    import numpy as np

    return float(max(abs(np.linalg.eigvals(m))))


def spectral_radius(H: HMatrix) -> float:
    """Spectral radius of the companion matrix by eigvals, 0 when every rate is 0."""
    return _radius(H.matrix())


_U = 2.0**-53
"""Unit roundoff of float64: a correctly rounded operation errs by at most this, relatively."""


def _rescaled(w_bar: tuple[float, ...], margin: float) -> tuple:
    """Rates w_i z^-i, z = 1 - margin, whose companions' product P' has rho < 1 iff rho(P) < z^m.

    H(w)/z = D H(w') D^-1, D = diag(1, z, ..., z^(n-1)). Verdicts are exact
    for these floats, w_i / z^i or, where z^n nears underflow, the exact
    quotient rounded once; a rate past 2^1023 stays an exact rational, which
    the verdicts read exactly and the searches leave out. At margin 0, w_bar
    itself.
    """
    if margin == 0.0:
        return w_bar
    z = 1.0 - margin
    if z ** len(w_bar) > 2.0**-1000:
        out = tuple(wi / z**i for i, wi in enumerate(w_bar, 1))
        if max(out) < 2.0**1023:
            return out
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
        prod = HMatrix(len(w), w).matrix() @ prod
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


# The rate tables built so far, all for one plant: a table for another plant
# drops them, so a sweep holds the tables of one row at a time.
_TABLES: dict[tuple[str, UncertainPlant], tuple[Layouts | None, list]] = {}


def _table_of(family: str, p: UncertainPlant) -> tuple[Layouts | None, list]:
    """The family's layouts for p (None when its box admits none) and the w_bar built so far.

    Entry N - 2 of the list is w_bar of the N-level layout, None when that
    layout does not build; _rate_table appends to it. An unknown family
    name raises.
    """
    table = _TABLES.get((family, p))
    if table is None:
        if any(q != p for _, q in _TABLES):
            _TABLES.clear()
        try:
            layouts = layouts_for(family, p)
        except ValueError:
            if family not in FAMILIES:
                raise
            layouts = None
        table = _TABLES[family, p] = (layouts, [])
    return table


def _rate_table(p: UncertainPlant, family: str, N_max: int, margin: float) -> Iterator[tuple]:
    """(N, log2 N, _rescaled w_bar) for each size N in 2..N_max whose layout builds.

    Every size loop reads this table. It is built in one pass over N, only
    as far as a reader has gone, and kept for the plant until another
    plant's is read, so the N_suf columns and the schedule search of one
    sweep row build each size once. A size costs its boundary half from
    the powers r^l its table's layouts share, the QuantizerSpec checks and
    its worst cell rates; no QuantizerSpec is built. A size without a valid
    layout is skipped: for large N the float boundaries stop increasing
    once 1 - r^l rounds to 1. An unknown family name still raises.
    """
    layouts, ws = _table_of(family, p)
    for N in range(2, N_max + 1):
        if len(ws) == N - 2:
            w = None
            if layouts is not None:
                try:
                    h = layouts.half(N)
                    check_half(N, h)
                except ValueError:
                    pass
                else:
                    w = worst_rates(h, N, p)
            ws.append(w)
        w = ws[N - 2]
        if w is not None:
            yield N, math.log2(N), _rescaled(w, margin)


def min_sufficient_N(
    p: UncertainPlant, family: str, N_max: int = 64, margin: float = 0.0
) -> int | None:
    """Smallest alphabet size the sum rule certifies at margin, or None within the cap."""
    _check_margin(margin)
    for N, _, w in _rate_table(p, family, N_max, margin):
        if _contracts(w):
            return N
    return None


# ---------------------------------------------------------------------------
# periodic schedules


@dataclass(frozen=True)
class Schedule:
    """Periodic alphabet sizes (N_0, ..., N_{m-1}) applied as k mod m."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("schedule must have at least one slot")
        object.__setattr__(self, "sizes", tuple(int(v) for v in self.sizes))
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


def _search_scalar_exact(
    p: UncertainPlant, m_max: int, N_max: int, family: str, margin: float
) -> ScheduleSearchResult | None:
    """Exact minimum-average-rate schedule for n = 1.

    The period product of scalar rates commutes, so schedules are multisets
    of sizes: pick m <= m_max items (g, c) = (ln w_N, log2 N) of the rescaled
    rates minimizing sum(c)/m subject to sum(g) < 0, a knapsack with exactly
    m items. The search is a depth-first branch and bound over nondecreasing
    size indices, larger indices first so that feasible incumbents appear
    early. The incumbent average starts from uniform schedules and from the
    cheapest feasible mixes of the adjacent lower-hull points (a, b) in
    (g, c) that straddle the seed target, g_a < 0 <= g_b - target: a pair
    with g_a >= 0 never mixes below 0, and a pair of two feasible sizes mixes
    dearer than its cheaper size, which the uniform seed already holds.

    A child is pruned when a Lagrangian bound shows that no completion
    reaches the incumbent average: for beta = 0 and for each negative slope
    beta of the hull, an added item k costs at least
    min_{k' >= k}(c_k' - beta g_k') + beta g_k, and the added g sum stays
    below the remaining budget d. For a child adding item i to a node of
    j - 1 items, with e_min to e_max more items to come, the bound is
    C + beta d + min(e_min s(beta), e_max s(beta)), where C = c_sum + c_i -
    ub j and s(beta) = min_{k >= i}(c_k - beta g_k) - ub is a minimum of lines
    in beta. So the bound is concave in beta: over the sorted slopes it
    rises, then falls. Each child evaluates it at the slope that served the
    previous child, steps to a neighbour only while it rises, and is pruned
    at the first value above the tolerance; a local maximum is the maximum,
    so the climb keeps exactly the children a scan of every slope keeps, and
    each prune rests on a value that scan computes too. A slope's prices and
    suffix minima are built when the climb first reaches it. A small
    tolerance keeps children that tie the incumbent, so ties still prefer
    fewer slots, then lexicographically smaller sizes.

    Feasibility means the exact product of the rescaled float rates is
    below 1 (a rate past 2^1023, at a margin next to 1, is left out). Each
    float rate is an integer over a power of two, so every node carries its
    exact product as num / 2^shift next to its verdict. A child's float log
    sum decides outside its rounding band, and num < 2^shift inside it.
    """
    rated = [(N, c, w) for N, c, (w,) in _rate_table(p, family, N_max, margin)
             if isinstance(w, float)]
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
    if gmin[0] >= 0.0 and best is None:
        return None  # nothing contracts, so no product ever can
    # Rounding band of a float log sum against 0. Each log errs by less than
    # one ulp (2u |g|), and each of the at most m_max - 1 additions by u times
    # a partial sum of at most k G, G = max |g|, so a sum lies within
    # u G m_max (m_max + 5) / 2 of the exact log of the rates' product.
    band = (m_max + 2) ** 2 * _U * max(map(abs, gvec))

    # Seeds only bound the search, so they keep at least the band below 0.
    seed_target = -max(band, 1e-9)
    ub = cvec[-1] + 1.0 if best is None else best[0]  # at or above the optimum
    for g, c in zip(gvec, cvec):
        if m_max * g < seed_target:  # uniform schedule, any feasible period
            ub = min(ub, c)
    order = sorted(range(nvals), key=lambda i: (gvec[i], cvec[i]))
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
    # per slope, built on first use: item prices c_k - beta g_k and their suffix minima
    rows: list = [None] * len(betas)

    tol = 1e-9  # keeps children that tie the incumbent
    h = len(betas) - 1  # slope of the last bound evaluated: warm start for the next
    # nodes: (slots, c_sum, g_sum, last index, sizes, feasible, num, shift), with
    # num / 2^shift the exact rate product; the root's product 1 is not below 1
    stack: list[tuple] = [(0, 0.0, 0.0, 0, (), False, 1, 0)]
    while stack:
        j, c_sum, g_sum, last, sizes, feas, num, shift = stack.pop()
        if feas:
            key = (c_sum / j, j, sizes)
            if best is None or key < best:
                best = key
                ub = min(ub, key[0])
        if j == m_max:
            continue
        j2 = j + 1
        e_max = m_max - j2
        c0 = c_sum - ub * j2
        children = []
        for i in range(last, nvals):
            g2 = g_sum + gvec[i]
            d = -g2
            if d > band:
                feas2 = True
            elif d <= -band:
                feas2 = False
            else:
                feas2 = num * nums[i] < 1 << (shift + shifts[i])
            e_min = 0
            if not feas2:
                if gmin[i] >= 0.0:
                    continue
                # d + band bounds the exact budget from above and the 1e-9 covers
                # the relative rounding of the quotient, so never above the true count
                e_min = math.floor((d + band) / gmin[i] - 1e-9) + 1
                if e_min > e_max:
                    continue
            # A completion adding e items from index i on, with g sum below the
            # budget d, exceeds ub * (j2 + e) in cost by at least
            # c_sum - ub j2 - beta g_sum + price_i + e (floor_i - ub) for every
            # beta <= 0: climb that concave bound from the warm start.
            start, k, step, lb = h, h, 1, -math.inf
            while True:
                if 0 <= k < len(betas):
                    if rows[k] is None:
                        pr = [c - betas[k] * g for c, g in zip(cvec, gvec)]
                        rows[k] = (pr, list(itertools.accumulate(reversed(pr), min))[::-1])
                    pr, fl = rows[k]
                    bb = c0 - betas[k] * g_sum
                    slack = fl[i] - ub
                    if slack >= 0.0 and bb + fl[i] > tol:
                        lb = math.inf  # floors grow with i: every later i fails too
                        break
                    val = bb + pr[i] + (e_min if slack >= 0.0 else e_max) * slack
                    if val > lb:  # the bound rose: move there and go on
                        h, lb = k, val
                        if lb > tol:
                            break
                        k += step
                        continue
                if step == 1 and h == start:  # no rise upward: try downward
                    step, k = -1, h - 1
                    continue
                break
            if lb == math.inf:
                break
            if lb <= tol:
                children.append((j2, c_sum + cvec[i], g2, i, sizes + (vals[i][0],), feas2,
                                 num * nums[i], shift + shifts[i]))
        stack.extend(children)  # largest index first: feasible incumbents early

    if best is None:
        return None
    avg, _, sizes = best
    return ScheduleSearchResult(schedule=Schedule(sizes), avg_rate=avg, exact=True)


def _search_heuristic(
    p: UncertainPlant, m_max: int, N_max: int, family: str, margin: float
) -> ScheduleSearchResult | None:
    """Best-effort search for higher-order plants: small periods only.

    None when no single size up to N_max certifies. Else the incumbent
    starts as static = min_sufficient_N at the margin, over sizes up to
    static + 4 and periods up to 6 (a size with a rescaled rate past 2^1023
    is left out). Depth-first over nondecreasing size sequences; a node
    carries its exact period product H_{m-1} ... H_0, its parent's extended
    by the new slot's rescaled rates: periodic_sufficient_test's order
    reversed, with equal verdicts where the rates lie on one line per
    coefficient over N, as the built-in families' do. A node's verdict is
    _radius_below on it, taken only when the node would beat the incumbent.
    A child is skipped when the product of per-size radii with the smallest
    radius in every remaining slot is not below 1: a heuristic prune, since
    that product does not bound the radius of the period product, so it can
    skip a schedule that would win. Sizes never decrease along a path, so a
    child's average rate bounds its subtree and every later sibling's from
    below: the loop over children stops at the first child whose average
    exceeds the incumbent's by more than rounding, which skips no node that
    could beat the incumbent.
    """
    static = min_sufficient_N(p, family, N_max, margin)
    if static is None:
        return None
    cap_m = min(m_max, 6)
    cands = []
    for N, c, w in _rate_table(p, family, min(N_max, static + 4), margin):
        if isinstance(w[0], float):
            cands.append((N, c, spectral_radius(HMatrix(p.n, w)), _slot(w)))
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

    dfs(0, (), 0.0, 1.0, _exact_product(p.n, ()))
    avg, _, sizes = best
    return ScheduleSearchResult(schedule=Schedule(sizes), avg_rate=avg, exact=False)


def search_periodic_schedule(
    p: UncertainPlant,
    m_max: int,
    N_max: int,
    family: str = "optimal",
    margin: float = 0.0,
) -> ScheduleSearchResult | None:
    """Minimum average-rate periodic schedule within the given caps.

    The margin is a contraction per step, rho(P) < (1 - margin)^m over an
    m-slot period. Exact for first-order plants: each candidate is decided
    exactly for the rescaled float rates, by the float log sum outside its
    rounding band and by the integer rate product inside it. A flagged
    heuristic otherwise. Both read one rate table per plant and family.
    None when no schedule within the caps is found.
    """
    if m_max < 1 or N_max < 2:
        raise ValueError("need m_max >= 1 and N_max >= 2")
    _check_margin(margin)
    if p.n == 1:
        return _search_scalar_exact(p, m_max, N_max, family, margin)
    return _search_heuristic(p, m_max, N_max, family, margin)


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
