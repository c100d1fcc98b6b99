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
  product carried exactly in integers. The product's steps and the
  elimination run as straight-line code generated per plant order
  (_verdict_code): one template, _VERDICT, written out with every matrix
  entry and pivot a local variable, compiled on the first product of an
  order and cached; importing builds none, and order 24 builds in about
  0.12 s (2 vCPU, Python 3.11). Above MAX_ORDER = 24, the CLI's cap on
  the order, the loops _extend_loop and _radius_below_loop run; they are
  also the reference the generated code is tested against. A stability
  test returns that verdict alone. spectral_radius, the float Perron root
  of one companion by Newton's method and the n >= 2 search's screen,
  reaches no verdict; nothing here imports numpy;
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
  smallest, whose count is carried as a range, over the sizes up to the
  last one that contracts alone. It reads the table only as
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

import functools
import itertools
import math
import operator
from typing import Callable, Iterator, Sequence

from .plant import Record, UncertainPlant, _set_field
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


_NEWTON_STEPS = 100
"""Cap on spectral_radius's Newton steps. Seeded rate vectors of orders up
to 24 took at most 10, and all-ones rates of order 10 000 took 20."""


def spectral_radius(w_bar: Sequence[float]) -> float:
    """Spectral radius of the companion matrix of w_bar, 0 when every rate is 0.

    The companion of w_bar = (w_1, ..., w_n) has an identity superdiagonal
    and bottom row (w_n, ..., w_1), so iterating it drives the envelope of
    the scaling sequence. For nonnegative rates the radius is the Perron
    root 1/s, s the positive root of p(s) = sum_i w_i s^i = 1. p increases
    and is convex for s >= 0, so Newton's method falls to s from above,
    starting at s_0 = 1 / max_i w_i^(1/i), where p(s_0) >= 1; since no
    w_i exceeds s_0^-i, s_0 < 2 s, which bounds the steps. It stops at the
    first iterate with p(s) <= 1 in floats, or one that no longer falls.
    p and p' come from one Horner pass.
    Raises ValueError on a negative or non-finite rate.
    """
    c = 0.0
    for i, w in enumerate(w_bar, 1):
        if not 0.0 <= w < math.inf:
            raise ValueError(f"rates must be finite and nonnegative, got {tuple(w_bar)!r}")
        if w:
            c = max(c, w ** (1.0 / i))
    if not c:
        return 0.0
    s = 1.0 / c
    if s == math.inf:  # c < 2^-1024: a nonzero w_i, i >= 2, would put c above 2^-537
        return float(c)  # so w_1 = c is the only nonzero rate
    rev = w_bar[::-1]
    for _ in range(_NEWTON_STEPS):
        q = dq = 0.0  # q(s) = p(s) / s and its derivative
        for w in rev:
            dq = dq * s + q
            q = q * s + w
        f = s * q - 1.0
        if f <= 0.0:
            break
        t = s - f / (q + s * dq)
        if not t < s:
            break
        s = t
    return float(1.0 / s)


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


def _slot(w_bar: Sequence[float]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Numerators and denominators of the companion's bottom row (w_n, ..., w_1).

    A float is an integer over a power of two, so both are exact, as they
    are for the exact rationals _rescaled keeps.
    """
    return tuple(zip(*(v.as_integer_ratio() for v in reversed(w_bar))))


def _extend_loop(prod: tuple, slot: tuple) -> tuple:
    """The exact product H(w) P for slot = _slot(w), in loops over any order.

    prod = (d, M) is P = diag(d)^-1 M, positive integers d_i and an integer
    matrix M, as _exact_product builds it. H(w) shifts P's rows up and adds
    the bottom row sum_j w_(n-j) P_j, put over the lcm of its terms'
    denominators. The route above MAX_ORDER, and the reference that the
    generated extend of _verdict_code is tested against.
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
    extend = _verdict_code(n)[0]
    prod = ((1,) * n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    for w in rates:
        prod = extend(prod, _slot(w))
    return prod


def _radius_below(prod: tuple) -> bool:
    """Whether rho(P) < 1, exactly, for P = diag(d)^-1 M given as prod = (d, M).

    For nonnegative P, I - P is a nonsingular M-matrix exactly when
    rho(P) < 1, and a Z-matrix is one exactly when its leading principal
    minors are positive (Berman & Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, ch. 6, Thm 2.3). The leading minors of
    diag(d) - M = diag(d)(I - P) have the same signs, since every d_i > 0,
    and are the pivots of its fraction-free (Bareiss) elimination, in which
    every division is exact. Decided by the code _verdict_code generates for
    the order, or above MAX_ORDER by _radius_below_loop.
    """
    return _verdict_code(len(prod[0]))[1](prod)


def _radius_below_loop(prod: tuple) -> bool:
    """_radius_below in loops over any order: the route above MAX_ORDER, and
    the reference that the generated radius_below of _verdict_code is tested against."""
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


MAX_ORDER = 24
"""Highest plant order whose verdict code is generated, and the CLI's cap on the order.

The unrolled elimination grows as n^3 lines: order 24 builds in about 0.12 s
(2 vCPU, Python 3.11), mostly its compile."""

# The verdict code of order n: $name replaced by its part written out for
# i, j = 0..n-1 (_verdict_source). extend is _extend_loop and radius_below
# _radius_below_loop with every matrix entry and pivot a local variable.
_VERDICT = """\
def extend(prod, slot):
    $d, $rows = prod
$unpack_rows
    $nums, $dens = slot
$terms
    den = lcm($t)
$coefs
    return $d_shifted, $rows_shifted


def radius_below(prod):
    $d, $matrix = prod
$elimination
"""


def _verdict_source(n: int) -> str:
    """The source of the verdict code of plant order n."""
    from string import Template  # imported here: importing builds no verdict code

    at = range(n)
    m = [[f"m{i}_{j}" for j in at] for i in at]
    bottom = (" + ".join(f"c{i} * {m[i][j]}" for i in at) for j in at)
    return Template(_VERDICT).substitute(
        d=_tuple(f"d{i}" for i in at),
        rows=_tuple(f"r{i}" for i in at),
        unpack_rows="\n".join(f"    {_tuple(m[i])} = r{i}" for i in at),
        nums=_tuple(f"a{i}" for i in at),
        dens=_tuple(f"b{i}" for i in at),
        terms="\n".join(f"    t{i} = b{i} * d{i}" for i in at),
        t=", ".join(f"t{i}" for i in at),
        coefs="\n".join(f"    c{i} = a{i} * (den // t{i})" for i in at),
        d_shifted=_tuple([*(f"d{i}" for i in at[1:]), "den"]),
        rows_shifted=_tuple([*(f"r{i}" for i in at[1:]), _tuple(bottom)]),
        matrix=_tuple(map(_tuple, m)),
        elimination="\n".join(_elimination(n)),
    )


def _elimination(n: int) -> Iterator[str]:
    """The lines of radius_below after its unpacking: Bareiss on diag(d) - M.

    p{k} is the k-th pivot and x{i}_{j} entry (i, j) after the last step
    that wrote it; step 0 reads the entries d_i - m_ii and -m_ij in place
    and divides by nothing, as its previous pivot is 1. Each step writes its
    pivot first and returns at once when it is <= 0. The last pivot is not
    divided: every division is exact and by a positive pivot, so the
    numerator has its sign.
    """
    def entry(i: int, j: int) -> str:  # of diag(d) - M
        return f"(d{i} - m{i}_{i})" if i == j else f"-m{i}_{j}"

    if n == 1:
        yield "    return d0 - m0_0 > 0"
        return
    yield "    p0 = d0 - m0_0"
    yield "    if p0 <= 0:\n        return False"
    for k in range(n - 1):
        rest = range(k + 1, n)
        cells = [(i, j) for i in rest for j in rest]  # the pivot cell (k + 1, k + 1) first
        for i, j in cells:
            if k == 0:  # a_i0 a_0j = (-m_i0)(-m_0j)
                num = f"{entry(i, j)} * p0 - m{i}_0 * m0_{j}"
            else:
                num = f"x{i}_{j} * p{k} - x{i}_{k} * x{k}_{j}"
            value = num if k == 0 else f"({num}) // p{k - 1}"
            if k == n - 2:
                yield f"    return {num} > 0"
            elif i == j == k + 1:
                yield f"    p{i} = {value}\n    if p{i} <= 0:\n        return False"
            else:
                yield f"    x{i}_{j} = {value}"


def _tuple(items) -> str:
    """Source of the tuple display or target of items; loop's kernel source uses it too."""
    items = list(items)
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


@functools.cache
def _verdict_code(n: int) -> tuple[Callable, Callable]:
    """(extend, radius_below) of plant order n: for n <= MAX_ORDER the code
    generated from _VERDICT, compiled on its first use under a filename that
    names n; above it _extend_loop and _radius_below_loop."""
    if n > MAX_ORDER:
        return _extend_loop, _radius_below_loop
    namespace = {"lcm": math.lcm}
    exec(compile(_verdict_source(n), f"<quantstab.rates verdict n={n}>", "exec"), namespace)
    return namespace["extend"], namespace["radius_below"]


class StabilityTest(Record):
    __slots__ = __match_args__ = ("stable",)
    stable: bool

    def __init__(self, stable: bool) -> None:
        _set_field(self, "stable", stable)


def _check_margin(margin: float) -> None:
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must be in [0, 1), got {margin!r}")


def sufficient_test(
    p: UncertainPlant, q: QuantizerSpec, margin: float = 0.0
) -> StabilityTest:
    """Does the quantizer contract the scaling envelope for this plant?

    The one-slot periodic test: the companion matrix of the worst-case
    expansion rates passes when its spectral radius is strictly below
    1 - margin, decided exactly on the rescaled rates. No float radius
    is computed.
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


class Schedule(Record):
    """Periodic alphabet sizes (N_0, ..., N_{m-1}) applied as k mod m."""

    __slots__ = __match_args__ = ("sizes",)
    sizes: tuple[int, ...]

    def __init__(self, sizes: Sequence[int]) -> None:
        sizes = tuple(map(operator.index, sizes))
        if not sizes:
            raise ValueError("schedule must have at least one slot")
        if any(v < 2 for v in sizes):
            raise ValueError("every slot needs at least 2 levels")
        _set_field(self, "sizes", sizes)

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
    rates' companions, rho < (1 - margin)^m exactly, and the whole answer:
    no float radius is computed.
    """
    _check_margin(margin)
    qs = reversed(schedule_quantizers(p, sched, family))
    rs = [_rescaled(expansion_profile(q, p), margin) for q in qs]
    return StabilityTest(stable=_radius_below(_exact_product(p.n, rs)))


class ScheduleSearchResult(Record):
    __slots__ = __match_args__ = ("schedule", "avg_rate", "exact")
    schedule: Schedule
    avg_rate: float
    exact: bool

    def __init__(self, schedule: Schedule, avg_rate: float, exact: bool) -> None:
        _set_field(self, "schedule", schedule)
        _set_field(self, "avg_rate", avg_rate)
        _set_field(self, "exact", exact)


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


def _slopes(gvec: list[float], cvec: list[float]) -> list[float]:
    """0 and the negative slopes of the lower hull of the items' (g, c) = (ln w, log2 N), sorted."""
    order = sorted(range(len(gvec)), key=lambda i: (gvec[i], cvec[i]))
    hull = [order[h] for h in _lower_hull([(gvec[i], cvec[i]) for i in order])]
    return sorted([0.0] + [(cvec[b] - cvec[a]) / (gvec[b] - gvec[a]) for a, b in zip(hull, hull[1:])
                           if gvec[a] < gvec[b] and cvec[a] > cvec[b]])


def _seeds(ga: float, ca: float, gb: float, cb: float, m_max: int, target: float) -> tuple[float, int, int]:
    """The cheapest mix of k slots of a and m - k of b, 0 < k < m <= m_max, whose float log
    sum k ga + (m - k) gb is below target, as (average, k, m); (inf, 0, 0) without one.

    a contracts and is the dearer: ga < 0, ca > cb. At one count k the average falls as m
    grows, so each k takes the longest period that keeps its float sum below target. At
    gb > 0 that sum rises with m: the walk down starts at the closed form m - k <
    (target - k ga) / gb, widened by 8u of its terms for the rounding of the sum and of
    the quotient, so it passes no period that the float test takes, and the counts start
    where k ga + gb can pass. At gb <= 0 the sum falls with m, and m_max is the one
    period to try. The counts stop at the first that keeps m_max: later ones cost more.
    """
    best, room, a = (math.inf, 0, 0), target + 8 * _U * m_max * gb, ga * (1.0 + 8 * _U)
    for k in range(1 if gb <= 0.0 else max(1, math.floor(min((gb - target) / -ga, m_max))), m_max):
        j = m_max - k if gb <= 0.0 else math.ceil(min(max(0.0, (room - k * a) / gb), m_max - k + 1)) - 1
        while j > 0 and not k * ga + j * gb < target:
            j = j - 1 if gb > 0.0 else 0
        if j > 0 and (k * ca + j * cb) / (k + j) < best[0]:
            best = ((k * ca + j * cb) / (k + j), k, k + j)
        if k + j == m_max:
            return best
    return best


def _band(m_max: int, gvec: Sequence[float]) -> float:
    """Rounding band of a float log sum of at most m_max of the items' logs against 0.

    Each log errs by less than one ulp (2u |g|), and each of the at most
    m_max - 1 additions by u times a partial sum of at most k G, G = max |g|,
    so a sum lies within u G m_max (m_max + 5) / 2 of the exact log of the
    rates' product.
    """
    return (m_max + 2) ** 2 * _U * max(map(abs, gvec))


def _scalar_rows(table: _Table, m_max: int) -> tuple[list[tuple[int, float, float]], float]:
    """(N, log2 N, w) for the sizes of the rate table that a schedule within the caps can
    use, and ub, the average of a certified schedule of them (inf without one).

    Each row refreshes ub. A row that contracts, g = ln w < 0, is a uniform seed, and
    it mixes (_seeds) with each earlier row inside the seed target's band, and with
    the earlier row of g > 0 whose line with it is lowest at g = 0 where that line is
    the lowest yet; a row that the target certifies alone is cheaper than its mixes.
    The target is the band of the rows read so far, so each seed's float log sum
    certifies it. Every rescaled rate is at least w_floor = rate_floor(|a*|, eps), as
    w / z >= w, so an unread size N has g >= ln w_floor and, for a slope beta <= 0, a
    price c - beta g of at least log2 N - beta ln w_floor. A schedule of m <= m_max
    items with sum g < 0 costs at least the sum of its prices, so at least price_i +
    (m - 1) F for each of its items i, F the smallest price, and its average stays
    above ub once price_i > m_max ub - (m_max - 1) F, which is at least F since ub is
    the average of such a schedule. So reading stops before the first size whose
    price bound exceeds that, plus 1e-9 of the magnitudes compared for rounding, at
    beta or at 0: no later size's bound is smaller, and F, the smallest price read,
    is then the smallest of all. beta is the slope of the lowest line, the hull's
    segment that straddles 0, where F is largest; at 0, F is the first row's c. A
    lower line gives every price afresh. At a zero floor (eps = 0) ln w_floor does
    not exist and the whole table is read, as it is when nothing contracts; a zero
    rate has no log and ends the seeds.
    """
    floor = rate_floor(abs(table.p.a_star[0]), table.p.eps[0])
    lnf = math.log(floor) if floor > 0.0 else None
    unit, reader = _band(m_max, (1.0,)), iter(table)  # the band per unit of the largest |g|
    rows: list[tuple[int, float, float]] = []
    gvec, cvec, pos = [], [], []  # pos: the rows that no seed target certified alone
    ub = low = F = math.inf  # low: the straddling line's value at g = 0
    beta = big = mag = 0.0
    for N, c, (w,) in reader:
        rows.append((N, c, w))
        if w == 0.0:
            return rows + [(N, c, w) for N, c, (w,) in reader], ub
        g = math.log(w)
        gvec.append(g)
        cvec.append(c)
        big = max(big, abs(g))
        target = -max(unit * big, 1e-9)
        if g < 0.0:
            if c < ub and m_max * g < target:  # uniform, at any feasible period
                ub = c
            v, mate = math.inf, 0  # the row with g > 0 whose line with this one is lowest at 0
            for b in pos:
                gb, cb = gvec[b], cvec[b]
                if gb <= 0.0:  # inside the band: mixed as it is
                    ub = min(ub, _seeds(g, c, gb, cb, m_max, target)[0])
                elif (line := c - (cb - c) / (gb - g) * g) < v:
                    v, mate = line, b
            if v < low:  # a lower straddling line: its mix, and every price afresh
                low, beta = v, (cvec[mate] - c) / (gvec[mate] - g)
                if v < ub:  # else each mix averages above ub, as above the line at g = 0
                    ub = min(ub, _seeds(g, c, gvec[mate], cvec[mate], m_max, target)[0])
                F = min(ci - beta * gi for ci, gi in zip(cvec, gvec))
                mag = max(ci + abs(beta * gi) for ci, gi in zip(cvec, gvec))  # scale of F's rounding
        if g >= target:
            pos.append(len(gvec) - 1)
        if lnf is not None:  # the next size's price bound, at beta and at slope 0
            F, mag = min(F, c - beta * g), max(mag, c + abs(beta * g))
            top, nxt = m_max * ub + 1e-9 * m_max * ub, math.log2(N + 1)
            if (nxt - beta * lnf > top - (m_max - 1) * F + 1e-9 * (m_max * mag + abs(beta * lnf))
                    or nxt > top - (m_max - 1) * cvec[0] + 1e-9 * m_max * c):
                return rows, ub  # before building the next size
    return rows, ub


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
    """The largest x in lo..hi with num n0^x < 2^(shift + s0 x), of log g + x g0, by the
    float log sum outside the rounding band; below lo when none. The caller has g0 >= 0
    and g + lo g0 <= band, so g0 > 0 wherever g + hi g0 is above it."""
    x = hi
    if g + hi * g0 > band:  # infeasible at hi: start at the top of the band
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
    averages differ in the last bits. The items end at the last size L that
    contracts alone: L in place of a later size keeps a schedule feasible and
    lowers its float average (each rounding is monotone) or ties it with
    smaller sizes, so every item has one at or past it that contracts. The
    rest is a depth-first branch and bound over the schedules whose smallest
    size N0 does not contract. A node is one N0 slot and S, a multiset of
    larger sizes, and carries x, the count of further N0 slots, as a range.
    Each N0 slot lowers the average and raises the log sum, so the node's
    best schedule is at the largest x in range whose exact product is below
    1 (_most_copies): each rate is an integer over a power of two, so a node
    carries its exact product as num / 2^shift. The incumbent average ub
    starts from the seeds _scalar_rows certifies as it reads: uniform
    schedules, and the cheapest mixes (_seeds) of a size that contracts with
    each cheaper size inside the rounding band, and with the cheaper size
    whose line with it is the lowest yet at g = 0.

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

    The items are the rows _scalar_rows reads: the table only as far as a
    size's price bound from the rate floor can still tie the seeds of the rows
    before it. A size left out is in no schedule that ties the optimum, so the
    answer is the one the whole table gives. The floor is 0 at eps = 0 and on
    a zero-rate uniform plant, where its log does not exist; those rows read
    the whole table.
    """
    rated, seeded = _scalar_rows(table, m_max)
    if not rated:
        return None
    # A zero rate (the uniform family at a* = eps = 0) has no log, but every
    # schedule that holds it contracts. The cheapest of those is the first
    # zero-rate size with m - 1 slots of the cheapest size: alone when it is
    # the cheapest size, which nothing beats, else at m_max, as the seed. A plant
    # has zero rates only with one at size 2, its first row: the mix serves other tables.
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
    first = next((i for i, g in enumerate(gvec) if g < 0.0), None)  # contracts alone
    if first is not None:  # x slots of it, each x summed as a path of sizes adds it
        cx = list(itertools.accumulate([cvec[first]] * m_max, initial=0.0))
        avg, x = min((cx[x] / x, x) for x in range(1, m_max + 1))
        best = min(best or (math.inf,), (avg, x, (vals[first][0],) * x))
    if not first:  # nothing contracts, or the cheapest size does: nothing is left to search
        return None if best is None else ScheduleSearchResult(Schedule(best[2]), best[0], True)
    # the items end at the last size that contracts alone, so every gmin is negative
    nvals = max(i for i, g in enumerate(gvec) if g < 0.0) + 1
    del vals[nvals:], cvec[nvals:], gvec[nvals:]
    # w = nums[i] / 2^shifts[i] exactly
    nums, dens = zip(*(w.as_integer_ratio() for _, _, w in vals))
    shifts = [den.bit_length() - 1 for den in dens]
    # cheapest future feasibility credit for slots restricted to index >= i
    gmin = list(itertools.accumulate(reversed(gvec), min))[::-1]
    band, betas = _band(m_max, gvec), _slopes(gvec, cvec)
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
            y1s = [s / gm for s in (-g0,) for gm in gmin]  # e_min's step in x
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
                c0, g0 = cvec[i], gvec[i]
                cu, ahi, y1s[i] = c0 - ub, e_top, -g0 / gmin[i]
                ctop, gtop = base + ahi * cu, g_sum + ahi * g0
            if alo > ahi:
                break
            gm = gmin[i]
            if glo + gvec[i] + elo * gm > sheer[i]:  # e_min > e_max from alo on
                continue
            g2 = g_sum + gvec[i]
            # e_min = floor(y0 + y1 x) + 1 from (d + band) / gmin - 1e-9, d = -g2 - x g0:
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
    extended by the new slot's rescaled rates, in the verdict code of the
    plant's order, which the search takes from _verdict_code once:
    periodic_sufficient_test's order reversed, with equal verdicts
    where the rates lie on one line per coefficient over N, as the
    built-in families' do. A node's verdict is that code's radius_below on
    it, taken only when the node would beat the incumbent.
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
    extend, radius_below = _verdict_code(table.p.n)
    cands = [(N, c, spectral_radius(w), _slot(w)) for N, c, w in rows]
    # static is a candidate: below 1 unless its float root rounds it up, which skips every child
    rho_min = min(r for _, _, r, _ in cands)
    best = (math.log2(static), 1, (static,))

    def dfs(start: int, sizes: tuple, c_sum: float, rho_prod: float, prod: tuple) -> None:
        nonlocal best
        j = len(sizes)
        if j > 0:
            key = (c_sum / j, j, sizes)
            if key < best and radius_below(prod):
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
            dfs(idx, sizes + (N,), c_sum + c, rho_prod * rho, extend(prod, slot))

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


class RelaxedRateSolution(Record):
    """Optimum of the continuous-size relaxation.

    components: the m relaxed sizes (all equal to 2^necessary_rate);
    phi: their geometric mean (the relaxed objective);
    psi: the feasibility residual (product of relaxed rates minus one),
    zero at the optimum where the constraint is active.
    """

    __slots__ = __match_args__ = ("components", "phi", "psi", "multiplier")
    components: tuple[float, ...]
    phi: float
    psi: float
    multiplier: float

    def __init__(
        self, components: tuple[float, ...], phi: float, psi: float, multiplier: float
    ) -> None:
        _set_field(self, "components", components)
        _set_field(self, "phi", phi)
        _set_field(self, "psi", psi)
        _set_field(self, "multiplier", multiplier)


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


class ComparisonBounds(Record):
    """Two earlier scalar sufficient rates; r_suf is None where undefined."""

    __slots__ = __match_args__ = ("r_suf", "r_suf_prime")
    r_suf: float | None
    r_suf_prime: float

    def __init__(self, r_suf: float | None, r_suf_prime: float) -> None:
        _set_field(self, "r_suf", r_suf)
        _set_field(self, "r_suf_prime", r_suf_prime)


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
