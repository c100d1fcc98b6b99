"""Brute-force and probe-based checks of the closed-form results.

Everything here recomputes a quantity the library derives analytically, by
grid search, exhaustive enumeration, random probing, or plain iteration, so
tests can compare the two routes. Nothing in this module reuses the closed
forms it checks: `sigma_envelope` iterates the companion recursion of a rate
vector step by step, with no closed form for its powers or its radius.

The grid search and the relaxation probes are array programs: every grid
point, and every probe of a block, is evaluated by the same plain
expression at once. They stay brute force; the arrays change how many
points are evaluated per interpreter step, not which points or what is
computed at each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .intervals import hull_contains
from .plant import UncertainPlant
from .quantizer import (
    QuantizerSpec,
    coefficient_expansion_rates,
    decode,
    encode,
)
from .rates import relaxed_min_rate


@dataclass(frozen=True)
class GridSearchResult:
    h: tuple[float, ...]
    value: float


def _worst_rate(cols, lam: float, eps: float, odd: bool):
    """max_l w_l over boundary columns cols = (h_0, ..., h_K).

    Each column is a float or an array, and the columns broadcast against
    each other, so a grid passes one open axis per free boundary and never
    builds the stacked boundary array. w_l = (lam+eps) h_{l+1} - (lam-eps) h_l,
    except that odd N replaces w_0 by the centre cell's 2 (lam+eps) h_1.
    """
    import numpy as np

    up, down = lam + eps, lam - eps
    worst = 2.0 * up * cols[1] if odd else up * cols[1] - down * cols[0]
    for lo, hi in zip(cols[1:-1], cols[2:]):
        worst = np.maximum(worst, up * hi - down * lo)
    return worst


_TILE_POINTS = 1 << 14
"""Most grid points `_grid_argmin` evaluates at once: each float64 temporary
takes at most 128 KiB, glibc's default mmap threshold, at any resolution."""


def _grid_argmin(axes, lam: float, eps: float, odd: bool) -> list:
    """Point of the grid axes[0] x axes[1] x ... with the least worst rate.

    Only points whose free boundaries increase strictly inside (0, 1/2)
    count; ties go to the first point in C order. The axes are increasing,
    so the entries outside (0, 1/2) are dropped first. The grid is then
    evaluated in tiles of rows of axes[0], in order, of at most _TILE_POINTS
    points each; a tile spans only the entries of axes[1] above its first
    row, since no other entry increases from any of its rows. A later tile
    wins only when strictly lower, so the answer is the whole grid's first
    minimum.
    """
    import numpy as np

    axes = [ax[(ax > 0.0) & (ax < 0.5)] for ax in axes]
    rows = max(1, _TILE_POINTS // math.prod(len(ax) for ax in axes[1:]))
    best, least = None, math.inf
    for i in range(0, len(axes[0]), rows):
        tile = [axes[0][i : i + rows], *axes[1:]]
        if len(axes) > 1:
            tile[1] = tile[1][np.searchsorted(tile[1], tile[0][0], side="right") :]
            if not len(tile[1]):
                break
        grid = np.ix_(*tile)
        vals = _worst_rate((0.0, *grid, 0.5), lam, eps, odd)
        for lo, hi in zip(grid, grid[1:]):
            vals = np.where(lo < hi, vals, np.inf)
        at = int(np.argmin(vals))
        if best is None or vals.flat[at] < least:
            least = vals.flat[at]
            best = [ax[j] for ax, j in zip(tile, np.unravel_index(at, vals.shape))]
    return best


def grid_optimal_boundaries(
    lambda_abs: float, eps_n: float, N: int, resolution: float = 1e-3
) -> GridSearchResult:
    """Minimize the worst cell expansion rate by brute force.

    Every point of a coarse grid at the given resolution over the interior
    boundaries, then four rounds of joint shrinking-bracket refinement, each
    a factor of ten finer. The free boundaries move together in each round:
    the objective is a max of linear functions whose active piece couples
    adjacent boundaries, so refining one coordinate at a time can stall on a
    non-optimal ridge. Four rounds put grid quantization a decade under the
    tightest agreement tolerance used by the checks. Every round evaluates
    the plain objective at every grid point as one array expression over
    open axes; no closed form or layout recursion enters.
    """
    import numpy as np

    if not (0.0 < resolution <= 1e-2):
        raise ValueError("resolution must be in (0, 1e-2]")
    if not (2 <= N <= 6):
        raise ValueError("grid search supports N in 2..6")
    if eps_n < 0 or lambda_abs - eps_n <= 1.0:
        raise ValueError("need eps_n >= 0 and lambda_abs - eps_n > 1")
    k = (N + 1) // 2
    odd = N % 2 == 1
    free = k - 1

    if free == 0:
        value = _worst_rate((0.0, 0.5), lambda_abs, eps_n, odd)
        return GridSearchResult(h=(0.0, 0.5), value=float(value))

    axis = np.arange(resolution, 0.5, resolution)
    best = _grid_argmin([axis] * free, lambda_abs, eps_n, odd)

    # Bracket radius 25 steps = 2.5x the previous round's step: on a shallow
    # diagonal valley the incumbent can sit more than one previous-step away
    # from the true minimizer, so a +-1 bracket would chase it forever.
    step = resolution
    for _ in range(4):
        step /= 10.0
        offsets = step * np.arange(-25, 26)
        best = _grid_argmin([b + offsets for b in best], lambda_abs, eps_n, odd)

    value = _worst_rate((0.0, *best, 0.5), lambda_abs, eps_n, odd)
    return GridSearchResult(h=(0.0, *map(float, best), 0.5), value=float(value))


_EQUALIZATION_TOL = 1e-12
"""Relative spread of cell rates below which `verify_equalization` calls them equal."""


def verify_equalization(q: QuantizerSpec, p: UncertainPlant) -> bool:
    """Are all cell expansion rates of the leading coefficient equal?

    Relative spread of the rate row across cells, compared against
    _EQUALIZATION_TOL. A two-level quantizer has a single rate and is
    trivially equalized.
    """
    rates = coefficient_expansion_rates(q, abs(p.a_star[-1]), p.eps[-1])
    mx, mn = max(rates), min(rates)
    return mx - mn <= _EQUALIZATION_TOL * mx


PROBE_BLOCK = 4096
"""Probes drawn and filtered together by `relaxation_probes`."""


def relaxation_probes(
    lambda_abs: float, eps_n: float, m: int, trials: int = 10_000, seed: int = 0
) -> Iterator[tuple]:
    """Random probes of the relaxed-schedule optimum, projected onto its surface.

    Each probe perturbs the first m-1 equal components of the optimum by a
    uniform draw in [-1/2, 1/2) and re-solves the last component so that
    the product of even-layout worst rates is one again. Yields one
    (kept, phi) pair per block of at most PROBE_BLOCK probes: kept marks
    the probes that pass every filter (positive head, each rate factor
    finite and positive, a last component that exists and is positive),
    phi is their geometric mean and nan elsewhere. The probes are drawn as
    rows of one array per block from default_rng(seed), so the stream is
    the one that per-probe draws of m-1 numbers would give.
    """
    import numpy as np

    n_star = relaxed_min_rate(lambda_abs, eps_n, m).components[0]
    r = (lambda_abs - eps_n) / (lambda_abs + eps_n)
    log_r = math.log(r)
    rng = np.random.default_rng(seed)
    for start in range(0, trials, PROBE_BLOCK):
        size = (min(PROBE_BLOCK, trials - start), m - 1)
        head = n_star + rng.uniform(-0.5, 0.5, size=size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            kept = np.all(head > 0.0, axis=1)
            prod_head = np.ones(size[0])
            for c in head.T:
                den = 1.0 - r ** (c / 2.0)
                kept &= den > 0.0
                prod_head *= eps_n / den
            kept &= np.isfinite(prod_head)
            # last component restoring the rate product to one
            tail_arg = 1.0 - eps_n * prod_head
            kept &= (0.0 < tail_arg) & (tail_arg < 1.0)
            tail = 2.0 * np.log(tail_arg) / log_r
            kept &= tail > 0.0
            log_sum = np.zeros(size[0])
            for c in head.T:
                log_sum += np.log(c)
            phi = np.exp((log_sum + np.log(tail)) / m)
        yield kept, np.where(kept, phi, np.nan)


_KKT_SLACK = 1e-9
"""How far a probe must beat the relaxed optimum for `verify_relaxation_kkt` to fail."""


def verify_relaxation_kkt(
    lambda_abs: float, eps_n: float, m: int, trials: int = 10_000, seed: int = 0
) -> bool:
    """Probe the relaxed-schedule optimum for local optimality.

    Reports False if any of the `trials` probes of `relaxation_probes`
    beats the optimum's geometric mean by more than _KKT_SLACK, or if the
    claimed optimum is not on the feasibility surface to begin with. The
    probes are brute force: each is re-solved from the constraint itself,
    not from the closed-form optimum.
    """
    import numpy as np

    sol = relaxed_min_rate(lambda_abs, eps_n, m)
    if abs(sol.psi) > 1e-10:
        return False
    for kept, phi in relaxation_probes(lambda_abs, eps_n, m, trials, seed):
        if np.any(kept & (phi < sol.phi - _KKT_SLACK)):
            return False
    return True


def exhaustive_encode_decode(q: QuantizerSpec, samples: int) -> bool:
    """Check the quantizer partitions [-1/2, 1/2] and roundtrips every point.

    Scans a uniform grid plus every boundary and a point nudged to each of
    its sides: the symbol must be in range, the point must lie in the
    half-open cell it encodes to, and the decoded closed cell must contain
    it.
    """
    import numpy as np

    if samples < q.N:
        raise ValueError("need at least one sample per cell")
    edges = q.edges
    if edges[0] != -0.5 or edges[-1] != 0.5:
        return False
    if any(not (a < b) for a, b in zip(edges, edges[1:])):
        return False
    pts = np.linspace(-0.5, 0.5, samples).tolist()
    for e in edges:
        pts.append(e)
        pts.append(min(0.5, e + 1e-12))
        pts.append(max(-0.5, e - 1e-12))
    for x in pts:
        s = encode(q, x)
        if not (1 <= s <= q.N):
            return False
        lo, hi = edges[s - 1], edges[s]
        inside = lo <= x < hi or (s == q.N and x == hi)
        if not inside:
            return False
        if not hull_contains(*decode(q, s, 1.0), x):
            return False
    return True


def sigma_envelope(
    w_bar: Sequence[float], init_sigmas: Sequence[float], K: int
) -> list[float]:
    """Worst-case scaling bounds for the next K steps under static rates w_bar.

    Iterates the companion recursion of w_bar = (w_1, ..., w_n) from the
    given n most recent scalings (oldest first) and returns the newest
    component per step.
    """
    n = len(w_bar)
    if len(init_sigmas) != n:
        raise ValueError(f"need {n} initial scalings, got {len(init_sigmas)}")
    if K < 0:
        raise ValueError("K must be nonnegative")
    ring = list(init_sigmas)
    out = []
    for _ in range(K):
        nxt = 0.0
        for i in range(1, n + 1):
            nxt += w_bar[i - 1] * ring[-i]
        out.append(nxt)
        ring.append(nxt)
        ring.pop(0)
    return out
