"""Uncertain autoregressive plant models and concrete instances.

The plant is y_{k+1} = sum_i a_i y_{k-i+1} + u_k with each coefficient a_i
known only to lie in a box [a_i* - eps_i, a_i* + eps_i]. An instance is one
admissible coefficient tuple (a_1, ..., a_n); the simulator steps instances
while the estimator only ever sees the boxes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class UncertainPlant:
    """Coefficient boxes plus known bounds on the initial outputs.

    a_star and eps are ordered a_1..a_n. init_bounds[i] bounds |y_j| at time
    j = -n+1+i, so the last entry bounds y_0.
    """

    n: int
    a_star: tuple[float, ...]
    eps: tuple[float, ...]
    init_bounds: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("plant order must be at least 1")
        for name in ("a_star", "eps", "init_bounds"):
            vec = getattr(self, name)
            if len(vec) != self.n:
                raise ValueError(f"{name} must have length n={self.n}, got {len(vec)}")
            vec = tuple(float(v) for v in vec)
            if not all(map(math.isfinite, vec)):
                raise ValueError(f"{name} entries must be finite, got {vec}")
            object.__setattr__(self, name, vec)
        if any(e < 0 for e in self.eps):
            raise ValueError("uncertainty radii must be nonnegative")
        if not all(math.isfinite(abs(a) + e) for a, e in zip(self.a_star, self.eps)):
            raise ValueError("coefficient boxes must lie in the float range: |a_i*| + eps_i overflows")
        if any(b <= 0 for b in self.init_bounds):
            raise ValueError("initial output bounds must be positive")

    def parameter_intervals(self) -> tuple[tuple[float, float], ...]:
        """Boxes (a_i* - eps_i, a_i* + eps_i) of a_1..a_n, in that order."""
        return tuple((a - e, a + e) for a, e in zip(self.a_star, self.eps))


def step(a: Sequence[float], history: Sequence[float], u: float) -> float:
    """Advance the instance a = (a_1, ..., a_n) one step.

    history is most-recent-first (y_k, y_{k-1}, ...).
    """
    if len(history) != len(a):
        raise ValueError(
            f"history length {len(history)} does not match plant order {len(a)}"
        )
    acc = u
    for ai, yi in zip(a, history):
        acc += ai * yi
    return acc


SAMPLING_MODES = ("nominal", "vertex", "uniform")
"""Instance sampling modes that sample_instance accepts."""


def sample_instance(
    p: UncertainPlant,
    mode: str = "nominal",
    *,
    index: int | None = None,
    seed: int | None = None,
) -> tuple[float, ...]:
    """Draw an admissible instance, the coefficient tuple (a_1, ..., a_n).

    mode "nominal": a_star itself. mode "vertex": bit i-1 of index picks
    a_i* + eps_i (set) or a_i* - eps_i (clear). mode "uniform": seeded uniform
    draw inside the box, a_1 first, the draws of
    np.random.default_rng(seed).uniform bit for bit, made without numpy.
    """
    if mode == "nominal":
        return p.a_star
    if mode == "vertex":
        if index is None or not (0 <= index < 2**p.n):
            raise ValueError(f"vertex index must be in [0, {2**p.n}), got {index}")
        return tuple(
            ai + ei if (index >> i) & 1 else ai - ei
            for i, (ai, ei) in enumerate(zip(p.a_star, p.eps))
        )
    if mode == "uniform":
        return tuple(
            _uniform_draws(seed, [(ai - ei, ai + ei) for ai, ei in zip(p.a_star, p.eps)])
        )
    raise ValueError(f"unknown sampling mode {mode!r}")


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(start: int, mult: int, count: int) -> list[tuple[int, int]]:
    """(xor, multiplier) of each of count SeedSequence hashes: the hash
    constant before and after its update by mult, mod 2**32."""
    pairs = []
    for _ in range(count):
        pairs.append((start, start * mult & _M32))
        start = pairs[-1][1]
    return pairs


# SeedSequence hashes four entropy words into its pool, then mixes the hash
# of pool word src into dst for each ordered pair; PCG64 takes 8 state words
_POOL_HASH = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_POOL_MIX = [
    (src, dst, *h)
    for (src, dst), h in zip(
        [(s, d) for s in range(4) for d in range(4) if s != d], _POOL_HASH[4:]
    )
]
_STATE_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


def _uniform_draws(entropy, boxes) -> list[float]:
    """What np.random.default_rng(entropy).uniform(lo, hi) gives for each
    (lo, hi) of boxes in turn, bit for bit, without numpy.

    entropy is None, a nonnegative int or an iterable of them. Each int
    becomes its little-endian 32-bit words (0 is one word 0); numpy's
    SeedSequence hashes them into a four-word pool and the pool into
    PCG64's 128-bit state and increment. A draw steps PCG64, takes its
    XSL-RR output x and returns lo + (hi - lo) * (x >> 11) * 2**-53.
    A negative int raises ValueError and a non-finite hi - lo
    OverflowError, as numpy does; None takes secrets.randbits(128).
    """
    if entropy is None:
        import secrets

        entropy = secrets.randbits(128)
    words = []
    for e in entropy if hasattr(entropy, "__iter__") else (entropy,):
        e = operator.index(e)
        if e < 0:
            raise ValueError("expected non-negative integer")
        words.append(e & _M32)
        while e > _M32:
            e >>= 32
            words.append(e & _M32)
    pool = []
    for i in range(4):
        xor, mult = _POOL_HASH[i]
        v = ((words[i] if i < len(words) else 0) ^ xor) * mult & _M32
        pool.append(v ^ v >> 16)
    for src, dst, xor, mult in _POOL_MIX:
        v = (pool[src] ^ xor) * mult & _M32
        v = (0xCA01F9DD * pool[dst] - 0x4973F715 * (v ^ v >> 16)) & _M32
        pool[dst] = v ^ v >> 16
    if len(words) > 4:
        # words past the pool: each mixed into every pool word
        hashes = iter(_hash_consts(0x43B0D7E5, 0x931E8875, 4 * len(words))[16:])
        for w in words[4:]:
            for dst in range(4):
                xor, mult = next(hashes)
                v = (w ^ xor) * mult & _M32
                v = (0xCA01F9DD * pool[dst] - 0x4973F715 * (v ^ v >> 16)) & _M32
                pool[dst] = v ^ v >> 16
    # generate_state(4, uint64) as 8 little-endian words s0..s3
    seed = 0
    for i, (xor, mult) in enumerate(_STATE_HASH):
        v = (pool[i & 3] ^ xor) * mult & _M32
        seed |= (v ^ v >> 16) << 32 * i
    # PCG64 seeding: state from (s0, s1), increment from (s2, s3), high word first
    init = (seed & _M64) << 64 | seed >> 64 & _M64
    inc = ((seed >> 128 & _M64) << 64 | seed >> 192) << 1 & _M128 | 1
    state = ((inc + init) * _PCG_MULT + inc) & _M128
    draws = []
    for lo, hi in boxes:
        span = hi - lo
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        draws.append(lo + span * ((x >> 11) * 2.0**-53))
    return draws
