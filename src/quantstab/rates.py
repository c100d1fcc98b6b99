"""Data-rate bounds and stability tests for quantized feedback loops.

Three layers:

* closed-form scalar bounds: the necessary rate below which no coder or
  controller can stabilize the uncertain plant, the conservative bound that
  treats the worst admissible plant as known, and two earlier sufficient
  bounds used for comparison;
* the stability test itself: the nonnegative companion matrix built from
  worst-case expansion rates, whose spectral radius strictly below one
  certifies the scaling recursion contracts. Every radius is computed one
  way, as the largest eigenvalue modulus from np.linalg.eigvals, and only
  where a caller reads it; one companion's verdict radius < 1 - margin is
  the sum rule sum_i w_i (1 - margin)^-i < 1, with no radius;
* time-varying alphabets: periodic schedules of quantizer sizes, their
  average rate, the minimum-average-rate search, and the convex relaxation
  whose optimum reproduces the necessary rate. For scalar plants the search
  is exact: a knapsack with exactly m items, solved by depth-first branch
  and bound with the Lagrangian bound of the lower convex hull of the
  (log rate, log2 size) points, and its winner is certified by an exact
  rational product of the rates. Higher-order plants get a flagged
  heuristic: a depth-first search over short nondecreasing schedules that
  builds each size's companion matrix once and extends the period product
  from parent to child.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .plant import UncertainPlant
from .quantizer import (
    FAMILIES,
    QuantizerSpec,
    coefficient_expansion_rates,
    expansion_profile,
    quantizer_for,
    r_ratio,
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

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        for j in range(self.n - 1):
            m[j, j + 1] = 1.0
        m[self.n - 1, :] = self.w_bar[::-1]
        return m


def _radius(m: np.ndarray) -> float:
    """Spectral radius of a companion matrix or a period product of them."""
    return float(max(abs(np.linalg.eigvals(m))))


def spectral_radius(H: HMatrix) -> float:
    """Spectral radius of the companion matrix by eigvals, 0 when every rate is 0."""
    return _radius(H.matrix())


def _contracts(w_bar: Sequence[float], margin: float) -> bool:
    """Sum rule: the companion's radius is below z = 1 - margin iff sum_i w_i z^-i < 1.

    The radius is the positive root of sum_i w_i z^-i = 1, and the sum decreases in z.
    """
    z = 1.0 - margin
    acc = 0.0
    zi = 1.0
    for wi in w_bar:
        zi *= z
        acc += wi / zi
    return acc < 1.0


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

    Builds the companion matrix from worst-case expansion rates; the test
    passes when its spectral radius is strictly below 1 - margin, decided
    by the sum rule with no iteration. rho is a diagnostic.
    """
    _check_margin(margin)
    h = HMatrix(p.n, expansion_profile(q, p))
    return StabilityTest(rho=spectral_radius(h), stable=_contracts(h.w_bar, margin))


def _layouts(
    p: UncertainPlant, family: str, N_max: int
) -> Iterator[tuple[int, QuantizerSpec]]:
    """(N, quantizer) for each size N in 2..N_max whose layout builds.

    A size without a valid layout is skipped: for large N at eps >= 0.5 the
    float boundaries stop increasing. An unknown family name still raises.
    """
    for N in range(2, N_max + 1):
        try:
            q = quantizer_for(family, p, N)
        except ValueError:
            if family not in FAMILIES:
                raise
            continue
        yield N, q


def min_sufficient_N(
    p: UncertainPlant, family: str, N_max: int = 64, margin: float = 0.0
) -> int | None:
    """Smallest alphabet size the sum rule certifies at margin, or None within the cap."""
    _check_margin(margin)
    for N, q in _layouts(p, family, N_max):
        if _contracts(expansion_profile(q, p), margin):
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

    The product is taken newest-applied-last, H_{m-1} ... H_1 H_0; its
    spectral radius is order-invariant under cyclic shifts, which matches
    the freedom in choosing the period's phase.
    """
    _check_margin(margin)
    qs = schedule_quantizers(p, sched, family)
    prod = np.eye(p.n)
    for q in qs:
        prod = HMatrix(p.n, expansion_profile(q, p)).matrix() @ prod
    rho = _radius(prod)
    return StabilityTest(rho=rho, stable=rho < 1.0 - margin)


@dataclass(frozen=True)
class ScheduleSearchResult:
    schedule: Schedule
    avg_rate: float
    exact: bool


def _scalar_step_rates(
    p: UncertainPlant, family: str, N_max: int
) -> list[tuple[int, float, float]]:
    """(N, log2 N, worst rate) per size for a first-order plant."""
    lam, e = abs(p.a_star[0]), p.eps[0]
    out = []
    for N, q in _layouts(p, family, N_max):
        wbar = max(coefficient_expansion_rates(q, lam, e))
        if wbar > 0.0:  # always true while the coefficient box expands
            out.append((N, math.log2(N), wbar))
    return out


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


class CertificateError(ArithmeticError):
    """The exact rate product of a search winner contradicts the float search."""


def _search_scalar_exact(
    p: UncertainPlant, m_max: int, N_max: int, family: str, margin: float
) -> ScheduleSearchResult | None:
    """Exact minimum-average-rate schedule for n = 1.

    The period product of scalar rates commutes, so schedules are multisets
    of sizes: pick m <= m_max items (g, c) = (ln w_N, log2 N) minimizing
    sum(c)/m subject to sum(g) < ln(1 - margin), a knapsack with exactly m
    items. The search is a depth-first branch and bound over nondecreasing
    size indices, larger indices first so that feasible incumbents appear
    early. The incumbent average starts from uniform schedules and from the
    cheapest feasible mix of each pair of adjacent lower-hull points in
    (g, c). A child is pruned when a Lagrangian bound shows that no
    completion reaches the incumbent average: for beta = 0 and for each
    negative slope beta of the hull, an added item k costs at least
    min_{k' >= k}(c_k' - beta g_k') + beta g_k, and the added g sum stays
    below the remaining budget. A small tolerance keeps children that tie
    the incumbent, so ties still prefer fewer slots, then lexicographically
    smaller sizes.

    The winner is certified by the exact rational product of its float
    worst rates against 1 - margin; a disagreement with the log-space
    search raises CertificateError.
    """
    vals = _scalar_step_rates(p, family, N_max)
    if not vals:
        return None
    target = math.log(1.0 - margin) if margin > 0.0 else 0.0
    cvec = [c for _, c, _ in vals]
    gvec = [math.log(w) for _, _, w in vals]
    nvals = len(vals)
    # cheapest future feasibility credit for slots restricted to index >= i
    gmin = list(itertools.accumulate(reversed(gvec), min))[::-1]
    if gmin[0] >= 0.0:
        return None  # nothing contracts, so no product ever can

    # Seeds only bound the search, so they keep a margin below the target
    # that no summation order can round away.
    seed_target = target - 1e-9
    ub = cvec[-1] + 1.0  # above every average
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
        # k slots of a and m - k of b: the cheapest feasible k in closed form
        for m in range(2, m_max + 1):
            k = max(1, math.floor((m * gb - seed_target) / (gb - ga)) + 1)
            if k * ga + (m - k) * gb >= seed_target:
                k += 1
            if k < m and k * ga + (m - k) * gb < seed_target:
                ub = min(ub, (k * ca + (m - k) * cb) / m)
    # per slope beta <= 0: item prices c_k - beta g_k and their suffix minima
    prices = [[c - b * g for c, g in zip(cvec, gvec)] for b in betas]
    floors = [list(itertools.accumulate(reversed(pr), min))[::-1] for pr in prices]
    tables = list(zip(prices, floors))

    tol = 1e-9  # keeps children that tie the incumbent
    best: tuple[float, int, tuple[int, ...]] | None = None
    # nodes: (slots, c_sum, g_sum, last index, sizes); the root has no slot
    stack: list[tuple[int, float, float, int, tuple[int, ...]]] = [(0, 0.0, 0.0, 0, ())]
    while stack:
        j, c_sum, g_sum, last, sizes = stack.pop()
        if j and g_sum < target:
            key = (c_sum / j, j, sizes)
            if best is None or key < best:
                best = key
                ub = min(ub, key[0])
        if j == m_max:
            continue
        j2 = j + 1
        e_max = m_max - j2
        # A completion adding e items from index i on, with g sum below the
        # budget d = target - g_sum - g_i, exceeds ub * (j2 + e) in cost by at
        # least base + price_i + e * (floor_i - ub) for every beta <= 0, where
        # base = c_sum - ub * j2 + beta * (target - g_sum).
        base = [c_sum - ub * j2 + b * (target - g_sum) for b in betas]
        children = []
        for i in range(last, nvals):
            g2 = g_sum + gvec[i]
            d = target - g2
            e_min = 0
            if d <= 0.0:
                if gmin[i] >= 0.0:
                    continue
                e_min = math.floor(d / gmin[i] - 1e-9) + 1  # never above the true count
                if e_min > e_max:
                    continue
            lb = -math.inf
            for (pr, fl), bb in zip(tables, base):
                slack = fl[i] - ub
                if slack >= 0.0 and bb + fl[i] > tol:
                    lb = math.inf  # floors grow with i: every later i fails too
                    break
                lb = bb + pr[i] + (e_min if slack >= 0.0 else e_max) * slack
                if lb > tol:
                    break
            if lb == math.inf:
                break
            if lb <= tol:
                children.append((j2, c_sum + cvec[i], g2, i, sizes + (vals[i][0],)))
        stack.extend(children)  # largest index first: feasible incumbents early

    if best is None:
        return None
    avg, _, sizes = best
    rate = {N: w for N, _, w in vals}
    product = Fraction(1)
    for N in sizes:
        product *= Fraction(rate[N])
    if not product < Fraction(1.0 - margin):
        raise CertificateError(
            f"schedule {list(sizes)} passes the log-space search but its exact "
            f"rate product {float(product)!r} is not below 1 - margin = {1.0 - margin!r}"
        )
    return ScheduleSearchResult(schedule=Schedule(sizes), avg_rate=avg, exact=True)


def _search_heuristic(
    p: UncertainPlant, m_max: int, N_max: int, family: str, margin: float
) -> ScheduleSearchResult | None:
    """Best-effort search for higher-order plants: small periods only.

    Sizes run up to static + 4, static being the first the sum rule
    certifies at margin 0. Depth-first over nondecreasing size sequences.
    Each size's companion matrix is built once, and a node's period product
    is its parent's times the new slot's matrix, newest last, the same
    products and radii that periodic_sufficient_test computes.
    """
    cap_m = min(m_max, 6)
    static = None
    cands = []
    for N, q in _layouts(p, family, N_max):
        if static is not None and N > static + 4:
            break
        h = HMatrix(p.n, expansion_profile(q, p))
        if static is None and _contracts(h.w_bar, 0.0):
            static = N
        cands.append((N, math.log2(N), spectral_radius(h), h.matrix()))
    if not cands:
        return None
    rho_min = min(r for _, _, r, _ in cands)
    best: tuple[float, int, tuple[int, ...]] | None = None

    def dfs(
        start: int, sizes: list[int], c_sum: float, rho_prod: float, prod: np.ndarray
    ) -> None:
        nonlocal best
        j = len(sizes)
        if j > 0:
            key = (c_sum / j, j, tuple(sizes))
            # the radius only matters for a node that would beat the incumbent
            if (best is None or key < best) and _radius(prod) < 1.0 - margin:
                best = key
        if j == cap_m:
            return
        for idx in range(start, len(cands)):
            N, c, rho, mat = cands[idx]
            # coarse screen: even finishing every remaining slot at the best
            # per-step radius, the radius product stays expansive
            if rho_prod * rho * rho_min ** (cap_m - j - 1) >= 1.0 - margin:
                continue
            sizes.append(N)
            dfs(idx, sizes, c_sum + c, rho_prod * rho, mat @ prod)
            sizes.pop()

    dfs(0, [], 0.0, 1.0, np.eye(p.n))
    if best is None:
        return None
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

    Exact and certified for first-order plants, raising CertificateError if
    the certificate disagrees with the search; a flagged heuristic otherwise.
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
