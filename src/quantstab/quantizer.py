"""Symmetric finite-alphabet quantizers on [-1/2, 1/2] and their expansion rates.

A quantizer with N levels is described by the nonnegative half of its cell
boundaries 0 = h_0 < h_1 < ... < h_K = 1/2 with K = ceil(N/2); the negative
half mirrors it. Cells are half open on the right except the outermost one,
so every point of [-1/2, 1/2] belongs to exactly one cell and an interior
boundary belongs to the cell on its right.

The expansion rate of a cell measures how much a coefficient box stretches
the cell under the set product, normalized by the current scaling. The
rate-equalizing boundary layout minimizes the worst cell's rate; its
closed-form worst rate is `v_rate`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .intervals import check_hull
from .plant import UncertainPlant


class SaturationError(Exception):
    """Raised when a value to encode lies strictly outside [-1/2, 1/2]."""


@dataclass(frozen=True)
class QuantizerSpec:
    """N levels plus the nonnegative boundary half h_0..h_K, K = ceil(N/2).

    For odd N the origin is interior to the center cell [-h_1, h_1); h_0 is
    kept as 0 by convention and is not a cell boundary.
    """

    N: int
    h: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("a quantizer needs at least 2 levels")
        object.__setattr__(self, "h", tuple(float(v) for v in self.h))
        k = (self.N + 1) // 2
        if len(self.h) != k + 1:
            raise ValueError(
                f"expected {k + 1} boundaries for N={self.N}, got {len(self.h)}"
            )
        if self.h[0] != 0.0:
            raise ValueError("h_0 must be 0")
        if self.h[-1] != 0.5:
            raise ValueError("h_K must be 1/2")
        for a, b in zip(self.h, self.h[1:]):
            if not (a < b):
                raise ValueError("boundaries must be strictly increasing")

    @property
    def half_levels(self) -> int:
        return (self.N + 1) // 2

    @cached_property
    def edges(self) -> tuple[float, ...]:
        """All N+1 cell boundaries, ascending from -1/2 to 1/2; built once."""
        pos = self.h[1:]  # h_1..h_K
        neg = tuple(-v for v in reversed(pos))
        mid = (0.0,) if self.N % 2 == 0 else ()
        return neg + mid + pos


def encode(q: QuantizerSpec, x: float) -> int:
    """Symbol in 1..N of the cell containing x.

    Interior boundaries belong to the cell on their right; +1/2 belongs to
    cell N. Strictly outside [-1/2, 1/2] is a saturation fault, never clamped.
    """
    if x < -0.5 or x > 0.5:
        raise SaturationError(f"value {x!r} outside [-1/2, 1/2]")
    s = bisect_right(q.edges, x)  # x in [edges[s-1], edges[s])
    return min(s, q.N)  # x == +1/2 folds into the top cell


def decode(q: QuantizerSpec, s: int, sigma: float) -> tuple[float, float]:
    """Endpoints (lo, hi) of the closed hull of cell s scaled by sigma.

    Raises ValueError when an overflowed sigma makes the hull malformed.
    """
    if not (1 <= s <= q.N):
        raise ValueError(f"symbol {s} outside 1..{q.N}")
    if sigma <= 0:
        raise ValueError("scaling must be positive")
    e = q.edges
    lo, hi = sigma * e[s - 1], sigma * e[s]
    check_hull(lo, hi)
    return lo, hi


def uniform_boundaries(N: int) -> QuantizerSpec:
    """Equal-width cells: h_l = l/N (N even) or (l - 1/2)/N for l >= 1 (N odd)."""
    if N < 2:
        raise ValueError("a quantizer needs at least 2 levels")
    k = (N + 1) // 2
    if N % 2 == 0:
        h = tuple(l / N for l in range(k + 1))
    else:
        h = (0.0,) + tuple((l - 0.5) / N for l in range(1, k + 1))
    return QuantizerSpec(N, h)


def r_ratio(lambda_abs: float, eps_n: float) -> float:
    """Contraction ratio r = (lambda - eps)/(lambda + eps) of the layout recursion.

    The one check of the expanding box: every bound and rate-equalizing
    layout needs eps_n >= 0 and lambda_abs - eps_n > 1.
    """
    if eps_n < 0:
        raise ValueError("eps_n must be nonnegative")
    if lambda_abs - eps_n <= 1.0:
        raise ValueError(f"need lambda_abs - eps_n > 1, got {lambda_abs} - {eps_n}")
    return (lambda_abs - eps_n) / (lambda_abs + eps_n)


def optimal_boundaries(lambda_abs: float, eps_n: float, N: int) -> QuantizerSpec:
    """Rate-equalizing boundaries for a coefficient box |a| in [lam-eps, lam+eps].

    Requires the whole box expanding (lambda_abs - eps_n > 1). With no
    uncertainty the layout degenerates to uniform, and so it does for even
    N when eps is so small that r rounds to 1.0: the uniform layout is the
    eps -> 0 limit of the even one, which would divide by 1 - r^K = 0. For
    odd N the geometric layout exists only while t*r^K < 1, which holds
    throughout the valid parameter range until r rounds to 1.0; the guard
    is kept as a construction-time check.
    """
    r = r_ratio(lambda_abs, eps_n)
    if eps_n == 0.0 or (r == 1.0 and N % 2 == 0):
        return uniform_boundaries(N)
    k = (N + 1) // 2
    if N % 2 == 0:
        den = 1.0 - r**k
        h = tuple(0.5 * (1.0 - r**l) / den for l in range(k + 1))
    else:
        t = lambda_abs / (lambda_abs - eps_n)
        den = 1.0 - t * r**k
        if den <= 0.0:
            raise ValueError(
                f"no rate-equalizing layout for odd N={N} at "
                f"lambda={lambda_abs}, eps={eps_n}"
            )
        h = (0.0,) + tuple(0.5 * (1.0 - t * r**l) / den for l in range(1, k + 1))
    return QuantizerSpec(N, h)


def coefficient_expansion_rates(
    q: QuantizerSpec, a_abs: float, eps: float
) -> tuple[float, ...]:
    """Per-cell expansion rates w_l of the box |a - a*| <= eps over q's cells.

    Entry l is the width of (box * cell_l) divided by the scaling, for the
    nonnegative cell family l = 0..K-1 (symmetry covers the negative half).
    """
    h = q.h
    k = q.half_levels
    straddles = a_abs <= eps  # 0 inside the coefficient box
    out = []
    for l in range(k):
        if q.N % 2 == 1 and l == 0:
            # center cell [-h_1, h_1) straddles the origin
            out.append(2.0 * (a_abs + eps) * h[1])
        elif straddles:
            out.append(2.0 * eps * h[l + 1])
        else:
            out.append((a_abs + eps) * h[l + 1] - (a_abs - eps) * h[l])
    return tuple(out)


def expansion_profile(q: QuantizerSpec, p: UncertainPlant) -> tuple[float, ...]:
    """Worst-case expansion rates w_bar = (w_1, ..., w_n), the companion matrix's entries.

    w_i is the largest of coefficient i's per-cell rates from coefficient_expansion_rates.
    """
    return tuple(
        max(coefficient_expansion_rates(q, abs(a), e)) for a, e in zip(p.a_star, p.eps)
    )


def v_rate(lambda_abs: float, eps_n: float, N: int) -> float:
    """Worst-cell expansion rate of the rate-equalizing N-level quantizer.

    Closed form: eps/(1 - t r^{(N+1)/2}) for odd N, eps/(1 - r^{N/2}) for
    even N, and lambda/N when eps = 0; also for even N when r rounds to
    1.0, as the eps -> 0 limit of the even form.
    """
    if N < 2:
        raise ValueError("a quantizer needs at least 2 levels")
    r = r_ratio(lambda_abs, eps_n)
    if eps_n == 0.0 or (r == 1.0 and N % 2 == 0):
        return lambda_abs / N
    if N % 2 == 1:
        t = lambda_abs / (lambda_abs - eps_n)
        den = 1.0 - t * r ** ((N + 1) // 2)
        if den <= 0.0:
            raise ValueError(f"degenerate layout for odd N={N}")
        return eps_n / den
    return eps_n / (1.0 - r ** (N // 2))


FAMILIES = ("optimal", "uniform")
"""Quantizer family names that quantizer_for accepts."""


def quantizer_for(
    family: str, p: UncertainPlant, N: int
) -> QuantizerSpec:
    """Family dispatch used by the rate tests and the simulator."""
    if family == "uniform":
        return uniform_boundaries(N)
    if family == "optimal":
        lam = abs(p.a_star[-1])
        return optimal_boundaries(lam, p.eps[-1], N)
    raise ValueError(f"unknown quantizer family {family!r}")
