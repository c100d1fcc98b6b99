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

Each step has one route. `Layouts.half` gives a size's boundary half h,
`check_half` runs the checks a QuantizerSpec makes of h, and `cell_rates`
gives a layout's per-cell rates (`worst_rates`, their maxima;
`rate_floor`, a bound below every layout's worst rate).
uniform_boundaries, optimal_boundaries, quantizer_for, QuantizerSpec,
coefficient_expansion_rates and expansion_profile call them on one size.
The rate table in `rates` calls them on every size it reads, with one
Layouts whose powers r^l all sizes share, and builds no QuantizerSpec.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from functools import cached_property
from typing import Sequence

from .intervals import check_hull
from .plant import Record, UncertainPlant, _set_field


class SaturationError(Exception):
    """Raised when a value to encode lies strictly outside [-1/2, 1/2]."""


def _check_levels(N: int) -> None:
    if N < 2:
        raise ValueError("a quantizer needs at least 2 levels")


def check_half(N: int, h: Sequence[float]) -> None:
    """The checks of a boundary half for N levels: K + 1 entries, h_0 = 0, h_K = 1/2, rising.

    Raises ValueError at the first that fails; QuantizerSpec and the rate
    table run it.
    """
    k = (N + 1) // 2
    if len(h) != k + 1:
        raise ValueError(f"expected {k + 1} boundaries for N={N}, got {len(h)}")
    if h[0] != 0.0:
        raise ValueError("h_0 must be 0")
    if h[-1] != 0.5:
        raise ValueError("h_K must be 1/2")
    if not all(map(operator.lt, h, h[1:])):
        raise ValueError("boundaries must be strictly increasing")


class QuantizerSpec(Record):
    """N levels plus the nonnegative boundary half h_0..h_K, K = ceil(N/2).

    For odd N the origin is interior to the center cell [-h_1, h_1); h_0 is
    kept as 0 by convention and is not a cell boundary.
    """

    __match_args__ = ("N", "h")
    __slots__ = (*__match_args__, "__dict__")  # __dict__ holds the cached edges
    N: int
    h: tuple[float, ...]

    def __init__(self, N: int, h: Sequence[float]) -> None:
        N = operator.index(N)  # an int, or TypeError
        _check_levels(N)
        h = tuple(map(float, h))
        check_half(N, h)
        _set_field(self, "N", N)
        _set_field(self, "h", h)

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


def r_ratio(lambda_abs: float, eps_n: float) -> float:
    """Contraction ratio r = (lambda - eps)/(lambda + eps) of the layout recursion.

    The one check of the expanding box: every bound and rate-equalizing
    layout needs eps_n >= 0 and lambda_abs - eps_n > 1, with lambda_abs +
    eps_n finite, each checked on its own; NaN fails the first two checks.
    """
    if not eps_n >= 0:
        raise ValueError("eps_n must be nonnegative")
    if not lambda_abs - eps_n > 1.0:
        raise ValueError(f"need lambda_abs - eps_n > 1, got {lambda_abs} - {eps_n}")
    if not math.isfinite(lambda_abs + eps_n):
        raise ValueError(f"lambda_abs + eps_n must be finite, got {lambda_abs} + {eps_n}")
    return (lambda_abs - eps_n) / (lambda_abs + eps_n)


class Layouts:
    """Boundary halves h of one family's layouts, by size N: the one route to h.

    Layouts() is the uniform family: h_l = l/N (N even) or (l - 1/2)/N for
    l >= 1 (N odd). Layouts(lambda_abs, eps_n) is the rate-equalizing
    family for a coefficient box |a| in [lam-eps, lam+eps], which must be
    expanding (lambda_abs - eps_n > 1). Its even sizes read the numerators
    0.5 (1 - r^l) and its odd sizes 0.5 (1 - t r^l), t = lam/(lam - eps),
    over one prefix of powers r^l grown to the largest K = ceil(N/2) asked
    for, so a further size costs only its own divisions.

    With no uncertainty the layout degenerates to uniform, and so it does
    for even N when eps is so small that r rounds to 1.0: the uniform
    layout is the eps -> 0 limit of the even one, which would divide by
    1 - r^K = 0. For odd N the geometric layout exists only while
    t r^K < 1, which holds throughout the valid parameter range until r
    rounds to 1.0; half raises ValueError past it.
    """

    def __init__(self, lambda_abs: float | None = None, eps_n: float = 0.0) -> None:
        self.box = (lambda_abs, eps_n)
        if lambda_abs is not None:
            self.r = r_ratio(lambda_abs, eps_n)
            self.t = lambda_abs / (lambda_abs - eps_n)
        self.uniform = lambda_abs is None or eps_n == 0.0
        # r^l, 0.5 (1 - r^l) and 0.5 (1 - t r^l) for l = 0, 1, ...
        self.powers: list[float] = []
        self.even: list[float] = []
        self.odd: list[float] = []

    def half(self, N: int) -> tuple[float, ...]:
        """h_0..h_K of the N-level layout; ValueError when it does not exist."""
        _check_levels(N)
        k = (N + 1) // 2
        odd = N % 2
        if self.uniform or (self.r == 1.0 and not odd):
            if odd:
                return (0.0,) + tuple((l - 0.5) / N for l in range(1, k + 1))
            return tuple(l / N for l in range(k + 1))
        powers, r, t = self.powers, self.r, self.t
        for l in range(len(powers), k + 1):
            rl = r**l
            powers.append(rl)
            self.even.append(0.5 * (1.0 - rl))
            self.odd.append(0.5 * (1.0 - t * rl))
        if odd:
            den = 1.0 - t * powers[k]
            if den <= 0.0:
                lambda_abs, eps_n = self.box
                raise ValueError(
                    f"no rate-equalizing layout for odd N={N} at "
                    f"lambda={lambda_abs}, eps={eps_n}"
                )
            out = [0.0]
            for v in self.odd[1 : k + 1]:
                out.append(v / den)
        else:
            den = 1.0 - powers[k]
            out = []
            for v in self.even[: k + 1]:
                out.append(v / den)
        return tuple(out)


UNIFORM = Layouts()
"""The uniform family's layouts; they hold no state."""


def uniform_boundaries(N: int) -> QuantizerSpec:
    """Equal-width cells: h_l = l/N (N even) or (l - 1/2)/N for l >= 1 (N odd)."""
    return QuantizerSpec(N, UNIFORM.half(N))


def optimal_boundaries(lambda_abs: float, eps_n: float, N: int) -> QuantizerSpec:
    """Rate-equalizing boundaries for a coefficient box |a| in [lam-eps, lam+eps].

    Requires the whole box expanding (lambda_abs - eps_n > 1); the layout
    and its degenerate cases are those of Layouts(lambda_abs, eps_n).
    """
    return QuantizerSpec(N, Layouts(lambda_abs, eps_n).half(N))


def cell_rates(h: Sequence[float], odd: int, a_abs: float, eps: float) -> list[float]:
    """Per-cell expansion rates of the box |a - a*| <= eps over boundary half h.

    Entry l is the width of (box * cell_l) divided by the scaling, for the
    nonnegative cell family l = 0..K-1 (symmetry covers the negative half);
    odd marks an odd N, whose cell 0 is the center cell [-h_1, h_1).
    """
    hi = a_abs + eps
    # center cell straddles the origin; 2 h_1 <= 1: finite for a finite box
    out = [hi * (2.0 * h[1])] if odd else []
    if a_abs <= eps:  # 0 inside the coefficient box
        for b in h[1 + odd :]:
            out.append(eps * (2.0 * b))
    else:
        lo = a_abs - eps
        a = h[odd]
        for b in h[1 + odd :]:
            out.append(hi * b - lo * a)
            a = b
    return out


def rate_floor(a_abs: float, eps: float) -> float:
    """A lower bound on the worst of cell_rates over every boundary half that check_half passes.

    The last cell [h_(K-1), 1/2] has rate hi/2 - lo h_(K-1) >= hi/2 - lo/2,
    as h_(K-1) < 1/2, and so it has in floats, since each rounding is
    monotone; with 0 in the box its rate is eps exactly.
    """
    if a_abs <= eps:
        return eps
    return (a_abs + eps) * 0.5 - (a_abs - eps) * 0.5


def worst_rates(h: Sequence[float], N: int, p: UncertainPlant) -> tuple[float, ...]:
    """(w_1, ..., w_n): each coefficient's largest cell rate over the N-level half h."""
    odd = N % 2
    return tuple(max(cell_rates(h, odd, abs(a), e)) for a, e in zip(p.a_star, p.eps))


def coefficient_expansion_rates(
    q: QuantizerSpec, a_abs: float, eps: float
) -> tuple[float, ...]:
    """Per-cell expansion rates w_l of the box |a - a*| <= eps over q's cells, by cell_rates."""
    return tuple(cell_rates(q.h, q.N % 2, a_abs, eps))


def expansion_profile(q: QuantizerSpec, p: UncertainPlant) -> tuple[float, ...]:
    """Worst-case expansion rates w_bar = (w_1, ..., w_n), the companion matrix's entries.

    w_i is the largest of coefficient i's per-cell rates, by worst_rates.
    """
    return worst_rates(q.h, q.N, p)


def v_rate(lambda_abs: float, eps_n: float, N: int) -> float:
    """Worst-cell expansion rate of the rate-equalizing N-level quantizer.

    Closed form: eps/(1 - t r^{(N+1)/2}) for odd N, eps/(1 - r^{N/2}) for
    even N, and lambda/N when eps = 0; also for even N when r rounds to
    1.0, as the eps -> 0 limit of the even form.
    """
    _check_levels(N)
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


def layouts_for(family: str, p: UncertainPlant) -> Layouts:
    """The family's layouts for plant p: the optimal ones fit the box of its last coefficient."""
    if family == "uniform":
        return UNIFORM
    if family == "optimal":
        return Layouts(abs(p.a_star[-1]), p.eps[-1])
    raise ValueError(f"unknown quantizer family {family!r}")


def quantizer_for(
    family: str, p: UncertainPlant, N: int
) -> QuantizerSpec:
    """Family dispatch used by the rate tests and the simulator."""
    return QuantizerSpec(N, layouts_for(family, p).half(N))
