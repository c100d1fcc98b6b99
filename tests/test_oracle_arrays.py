"""The oracle's array routes against per-point reference copies.

`grid_optimal_boundaries` and `relaxation_probes` evaluate every grid point
or probe of a block as one array expression. The references below are the
earlier per-point formulations: the grid search over a stacked boundary
array with a max along its last axis, in one shot, and the relaxation
probes as a scalar loop, one probe at a time. The grid route, which
evaluates the grid in tiles of rows, must return the same floats bit for
bit; the probe route the same acceptance mask, with each
probe's geometric mean within 1e-14 relative (numpy's log, exp and power
may differ from the C library's in the last unit).
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from quantstab import oracle
from quantstab.cli import MIN_RESOLUTION
from quantstab.oracle import (
    PROBE_BLOCK,
    grid_optimal_boundaries,
    relaxation_probes,
)
from quantstab.rates import relaxed_min_rate

# ---------------------------------------------------------------------------
# grid search


def _stacked_worst_rate(h, lam, eps, odd):
    w = (lam + eps) * h[..., 1:] - (lam - eps) * h[..., :-1]
    if odd:
        w = np.concatenate([2.0 * (lam + eps) * h[..., 1:2], w[..., 1:]], axis=-1)
    return w.max(axis=-1)


def _stacked_grid(lam, eps, N, resolution):
    """(h, value) of the grid search over stacked (..., K+1) boundary arrays."""
    k = (N + 1) // 2
    odd = N % 2 == 1
    free = k - 1

    def objective(interior):
        shape = interior.shape[:-1]
        full = np.concatenate(
            [np.zeros(shape + (1,)), interior, np.full(shape + (1,), 0.5)], axis=-1
        )
        return _stacked_worst_rate(full, lam, eps, odd)

    if free == 0:
        return (0.0, 0.5), float(objective(np.zeros((0,))))
    axis = np.arange(resolution, 0.5, resolution)
    if free == 1:
        cand = axis[:, None]
        best = cand[int(np.argmin(objective(cand)))].copy()
    else:
        h1, h2 = axis[:, None], axis[None, :]
        pairs = np.stack(np.broadcast_arrays(h1, h2), axis=-1)
        vals = np.where(h1 < h2, objective(pairs), np.inf)
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best = np.array([axis[i], axis[j]])
    step = resolution
    for _ in range(4):
        step /= 10.0
        offsets = step * np.arange(-25, 26)
        mesh = np.meshgrid(*[best[c] + offsets for c in range(free)], indexing="ij")
        trial = np.stack([m.ravel() for m in mesh], axis=-1)
        ok = (trial[:, 0] > 0.0) & (trial[:, -1] < 0.5)
        for c in range(free - 1):
            ok &= trial[:, c] < trial[:, c + 1]
        trial = trial[ok]
        best = trial[int(np.argmin(objective(trial)))].copy()
    return (0.0, *best.tolist(), 0.5), float(objective(best[None, :])[0])


CANONICAL = [
    (lam, eps, N, 1e-3)
    for lam in (2.0, 2.5, 3.0)
    for eps in (0.2, 0.35, 0.5)
    for N in (2, 3, 4, 5)
]


def _random_cases(count=30, seed=20):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        eps = rng.choice((0.0, rng.uniform(0.0, 0.8)))
        lam = eps + 1.0 + rng.uniform(0.05, 3.0)
        N = rng.randint(2, 6)
        resolution = rng.choice((1e-3, 2.5e-3, 5e-3, 1e-2))
        cases.append((lam, eps, N, resolution))
    return cases


def _tile_rows(resolution):
    """(axis length, rows per tile) of the N = 5, 6 coarse grid."""
    n = len(np.arange(resolution, 0.5, resolution))
    return n, max(1, oracle._TILE_POINTS // n)


# N = 5 and 6 at resolutions where the coarse grid's axis is cut into tiles
# with a short last tile, a last tile with no column above its first row,
# and whole tiles only
TILED = [
    (lam, eps, N, resolution)
    for lam, eps in ((3.0, 0.35), (2.0, 0.5), (2.5, 0.0))
    for N in (5, 6)
    for resolution in (5e-4, 7e-4, 9.05e-4, 8e-4)
]


def test_tiled_resolutions_cover_every_last_tile():
    # a remainder of 1 puts the last tile on the last row, with no column above it
    shapes = [_tile_rows(r) for r in (5e-4, 7e-4, 9.05e-4, 8e-4)]
    assert all(n > rows for n, rows in shapes)
    assert [n % rows for n, rows in shapes] == [7, 10, 1, 0]


@pytest.mark.parametrize("lam,eps,N,resolution", CANONICAL + _random_cases() + TILED)
def test_grid_equals_stacked_reference_bit_for_bit(lam, eps, N, resolution):
    got = grid_optimal_boundaries(lam, eps, N, resolution)
    h, value = _stacked_grid(lam, eps, N, resolution)
    assert got.h == h
    assert got.value == value
    assert all(type(x) is float for x in got.h) and type(got.value) is float


# eps = 0 points whose coarse minimum is met exactly in two rows on either
# side of a tile boundary
TIES = [(2.0, 5, 5.33e-4), (3.0, 5, 6.22e-4), (2.0, 6, 5.44e-4)]


@pytest.mark.parametrize("lam,N,resolution", TIES)
def test_coarse_tie_across_tiles_goes_to_the_first_point(lam, N, resolution):
    axis = np.arange(resolution, 0.5, resolution)
    odd = N % 2 == 1
    h1, h2 = axis[:, None], axis[None, :]
    full = np.stack(np.broadcast_arrays(0.0 * h1, h1, h2, 0.5 + 0.0 * h2), axis=-1)
    vals = np.where(h1 < h2, _stacked_worst_rate(full, lam, 0.0, odd), np.inf)
    rows_at_min = np.nonzero(vals == vals.min())[0]
    tiles = set(rows_at_min // _tile_rows(resolution)[1])
    assert len(tiles) > 1
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    assert oracle._grid_argmin([axis, axis], lam, 0.0, odd) == [axis[i], axis[j]]
    h, value = _stacked_grid(lam, 0.0, N, resolution)
    got = grid_optimal_boundaries(lam, 0.0, N, resolution)
    assert (got.h, got.value) == (h, value)


@pytest.mark.parametrize("N", [5, 6])
def test_grid_at_the_cli_floor_stays_in_a_few_tiles_of_memory(N):
    # the one-shot grid traced 101 MB here
    tracemalloc.start()
    try:
        grid_optimal_boundaries(3.0, 0.35, N, MIN_RESOLUTION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# relaxation probes


def _scalar_probes(lam, eps, m, trials, seed):
    """(kept, phi) per probe, one probe at a time from the same stream."""
    n_star = relaxed_min_rate(lam, eps, m).components[0]
    r = (lam - eps) / (lam + eps)
    log_r = math.log(r)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        head = n_star + rng.uniform(-0.5, 0.5, size=m - 1)
        if np.any(head <= 0.0):
            out.append((False, None))
            continue
        prod_head = 1.0
        for c in head:
            den = 1.0 - r ** (c / 2.0)
            if den <= 0.0:
                prod_head = math.inf
                break
            prod_head *= eps / den
        if not math.isfinite(prod_head):
            out.append((False, None))
            continue
        tail_arg = 1.0 - eps * prod_head
        if not (0.0 < tail_arg < 1.0):
            out.append((False, None))
            continue
        tail = 2.0 * math.log(tail_arg) / log_r
        if tail <= 0.0:
            out.append((False, None))
            continue
        log_phi = (sum(math.log(c) for c in head) + math.log(tail)) / m
        out.append((True, math.exp(log_phi)))
    return out


TRIALS = 2 * PROBE_BLOCK + 123

# the verify point at every m, and a point with eps near 1 where some
# probes leave no positive last component and are dropped
PROBE_POINTS = [(3.0, 0.35, m) for m in (1, 2, 3, 5)] + [(1.99, 0.98, 5)]


@pytest.mark.parametrize("lam,eps,m", PROBE_POINTS)
@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_probe_blocks_equal_scalar_loop(lam, eps, m, seed):
    blocks = list(relaxation_probes(lam, eps, m, TRIALS, seed))
    assert [len(kept) for kept, _ in blocks] == [PROBE_BLOCK, PROBE_BLOCK, 123]
    kept = np.concatenate([k for k, _ in blocks])
    phi = np.concatenate([p for _, p in blocks])
    ref = _scalar_probes(lam, eps, m, TRIALS, seed)
    assert kept.tolist() == [ok for ok, _ in ref]
    if eps > 0.9:
        assert not kept.all()
    for got, (ok, want) in zip(phi, ref):
        if ok:
            assert math.isclose(got, want, rel_tol=1e-14, abs_tol=0.0)
        else:
            assert math.isnan(got)
