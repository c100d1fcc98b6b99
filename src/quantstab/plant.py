"""Uncertain autoregressive plant models and concrete instances.

The plant is y_{k+1} = sum_i a_i y_{k-i+1} + u_k with each coefficient a_i
known only to lie in a box [a_i* - eps_i, a_i* + eps_i]. An instance is one
admissible coefficient tuple (a_1, ..., a_n); the simulator steps instances
while the estimator only ever sees the boxes.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Sequence

CONVERGENCE_RATIO = 1e-12
"""A closed-loop run stabilizes once its scaling falls below this times its first."""
DIVERGENCE_RATIO = 1e12
"""A closed-loop run diverges once its scaling rises above this times its first."""


_set_field = object.__setattr__
"""Sets a field of a record in its __init__, past Record.__setattr__."""


class Record:
    """A frozen value record: the base of every record class of the package.

    Its fields are the names in __match_args__, which a subclass also lists
    in __slots__ and sets in its __init__ through _set_field, after its
    checks. Records compare equal when their classes are the same and
    their fields are equal, hash as the tuple of their fields and print as
    Name(field=value, ...): all as a frozen dataclass does. Assigning or
    deleting a field raises AttributeError. Pickling and copying call the
    class on the fields, so every copy passes the checks of __init__.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class UncertainPlant(Record):
    """Coefficient boxes plus known bounds on the initial outputs.

    a_star and eps are ordered a_1..a_n. init_bounds[i] bounds |y_j| at time
    j = -n+1+i, so the last entry bounds y_0.
    """

    __slots__ = __match_args__ = ("n", "a_star", "eps", "init_bounds")
    n: int
    a_star: tuple[float, ...]
    eps: tuple[float, ...]
    init_bounds: tuple[float, ...]

    def __init__(self, n: int, a_star, eps, init_bounds) -> None:
        n = operator.index(n)
        if n < 1:
            raise ValueError("plant order must be at least 1")
        _set_field(self, "n", n)
        for name, vec in (("a_star", a_star), ("eps", eps), ("init_bounds", init_bounds)):
            if len(vec) != n:
                raise ValueError(f"{name} must have length n={n}, got {len(vec)}")
            vec = tuple(map(float, vec))
            if not all(map(math.isfinite, vec)):
                raise ValueError(f"{name} entries must be finite, got {vec}")
            _set_field(self, name, vec)
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


def _mix_past_four(pool: list[int], rest: Sequence[int]) -> list[int]:
    """The pool after SeedSequence mixes each entropy word past the fourth
    into every pool word, in turn; its hash constants run on from the 16
    that the pool hashes and the mixes took."""
    hashes = iter(_hash_consts(0x43B0D7E5, 0x931E8875, 16 + 4 * len(rest))[16:])
    for w in rest:
        for dst in range(4):
            xor, mult = next(hashes)
            v = (w ^ xor) * mult & _M32
            v = (0xCA01F9DD * pool[dst] - 0x4973F715 * (v ^ v >> 16)) & _M32
            pool[dst] = v ^ v >> 16
    return pool


def _seeding_source() -> str:
    """The source of seed(w0, w1, w2, w3, rest): PCG64's (state, inc) from the
    entropy words w0..w3 and the words past them, each hash of _POOL_HASH,
    _POOL_MIX and _STATE_HASH one statement with its constants written in."""
    lines = ["def seed(w0, w1, w2, w3, rest):"]
    for i, (xor, mult) in enumerate(_POOL_HASH[:4]):
        lines += [f"    v = (w{i} ^ {xor:#x}) * {mult:#x} & {_M32:#x}", f"    p{i} = v ^ v >> 16"]
    for src, dst, xor, mult in _POOL_MIX:
        lines += [
            f"    v = (p{src} ^ {xor:#x}) * {mult:#x} & {_M32:#x}",
            f"    v = (0xca01f9dd * p{dst} - 0x4973f715 * (v ^ v >> 16)) & {_M32:#x}",
            f"    p{dst} = v ^ v >> 16",
        ]
    lines += [
        "    if rest:",
        "        p0, p1, p2, p3 = _mix_past_four([p0, p1, p2, p3], rest)",
    ]
    for i, (xor, mult) in enumerate(_STATE_HASH):
        lines += [f"    v = (p{i & 3} ^ {xor:#x}) * {mult:#x} & {_M32:#x}", f"    s{i} = v ^ v >> 16"]
    # generate_state(4, uint64) is the words s0 | s1 << 32, ..., s6 | s7 << 32;
    # PCG64's state is the first two, its increment the last two shifted
    # left by one with the low bit set, each pair high word first
    lines += [
        "    init = s1 << 96 | s0 << 64 | s3 << 32 | s2",
        f"    inc = (s5 << 97 | s4 << 65 | s7 << 33 | s6 << 1) & {_M128:#x} | 1",
        f"    return ((inc + init) * {_PCG_MULT:#x} + inc) & {_M128:#x}, inc",
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _seeding() -> Callable:
    """seed(w0, w1, w2, w3, rest) of _seeding_source, compiled on first use."""
    namespace = {"_mix_past_four": _mix_past_four}
    exec(compile(_seeding_source(), "<quantstab.plant seeding>", "exec"), namespace)
    return namespace["seed"]


def _uniform_draws(entropy, boxes) -> list[float]:
    """What np.random.default_rng(entropy).uniform(lo, hi) gives for each
    (lo, hi) of boxes in turn, bit for bit, without numpy.

    entropy is None, a nonnegative int or an iterable of them. Each int
    becomes its little-endian 32-bit words (0 is one word 0), padded with
    zeros to four; numpy's SeedSequence hashes the first four into a
    four-word pool, mixes the pool, mixes in each word past the fourth and
    hashes the pool into PCG64's 128-bit state and increment. The first
    use generates that hashing as straight-line code (_seeding), so
    importing compiles none of it; only the words past the fourth run
    through a loop. A draw steps PCG64, takes its XSL-RR output x and
    returns lo + (hi - lo) * (x >> 11) * 2**-53. A negative int raises
    ValueError and a non-finite hi - lo OverflowError, as numpy does; None
    takes secrets.randbits(128).
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
    words += [0] * (4 - len(words))
    state, inc = _seeding()(words[0], words[1], words[2], words[3], words[4:])
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
