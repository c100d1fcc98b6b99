"""Uncertain autoregressive plant models and concrete instances.

The plant is y_{k+1} = sum_i a_i y_{k-i+1} + u_k with each coefficient a_i
known only to lie in a box [a_i* - eps_i, a_i* + eps_i]. An instance is one
admissible coefficient tuple (a_1, ..., a_n); the simulator steps instances
while the estimator only ever sees the boxes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array
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
    seed=None,
) -> tuple[float, ...]:
    """Draw an admissible instance, the coefficient tuple (a_1, ..., a_n).

    mode "nominal": a_star itself. mode "vertex": bit i-1 of index picks
    a_i* + eps_i (set) or a_i* - eps_i (clear). mode "uniform": seeded uniform
    draw inside the box, a_1 first, the draws of
    np.random.default_rng(seed).uniform bit for bit, made without numpy.
    seed is an entropy or the SeedState that seed_states hashed from one,
    as default_rng takes a SeedSequence.
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


class SeedState(Record):
    """PCG64's 128-bit state and odd increment as seeded from an entropy:
    the state that np.random.PCG64(entropy) holds before its first draw.
    seed_states hashes them, and sample_instance and run_closed_loop draw
    from one as from its entropy."""

    __slots__ = __match_args__ = ("state", "inc")
    state: int
    inc: int

    def __init__(self, state: int, inc: int) -> None:
        state, inc = operator.index(state), operator.index(inc)
        if not (0 <= state <= _M128 and 0 < inc <= _M128 and inc & 1):
            raise ValueError("a PCG64 state and increment are 128-bit ints, the increment odd")
        _set_field(self, "state", state)
        _set_field(self, "inc", inc)


SEED_BLOCK = 1024
"""Most entropies that seed_states hashes in one pass: each big-int step of
a pass takes time in proportion to its lanes, so wider passes save little
more per lane, and a larger batch holds one block's states at a time."""


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
# the mix (L x - R y) mod 2**32 as L x + (2**32 - R) y, a sum of two
# products under 2**64 each, so no lane borrows from the next
_MIX_L = 0xCA01F9DD
_MIX_R = (1 << 32) - 0x4973F715
# a block of one lane: 1, the 32-bit mask and the xor constant of each hash
# of _POOL_HASH and _STATE_HASH, which seed takes as its lanes argument; a
# block of k lanes takes each times the k-lane 1
_ONE_LANE = (1, _M32, *[xor for xor, _ in _POOL_HASH + _STATE_HASH])
# the low 32-bit word of each 96-bit lane, in the native word order
_LOW_WORDS = slice(0, None, 3) if sys.byteorder == "little" else slice(-1, None, -3)


def _mix_past_four(pool: list[int], rest: Sequence[int], one: int, mask: int) -> list[int]:
    """The pool after SeedSequence mixes each entropy word past the fourth
    into every pool word, in turn, lane by lane; its hash constants run on
    from the 16 that the pool hashes and the mixes took."""
    hashes = iter(_hash_consts(0x43B0D7E5, 0x931E8875, 16 + 4 * len(rest))[16:])
    for w in rest:
        for dst in range(4):
            xor, mult = next(hashes)
            v = (w ^ xor * one) * mult & mask
            v = (_MIX_L * pool[dst] + _MIX_R * ((v ^ v >> 16) & mask)) & mask
            pool[dst] = (v ^ v >> 16) & mask
    return pool


def _seeding_source() -> str:
    """The source of seed(w0, w1, w2, w3, rest, lanes): the eight state
    words that SeedSequence hashes for PCG64 from the entropy words w0..w3
    and the words past them, each hash of _POOL_HASH, _POOL_MIX and
    _STATE_HASH one statement with its multipliers written in.

    Its words are packed ints, one 96-bit lane per entropy: lane j holds
    its word in bits 96 j .. 96 j + 31. lanes is _ONE_LANE with each entry
    times the packed 1 of as many lanes, so the xors and the mask m act on
    every lane at once. A lane needs 65 bits: a word times a 32-bit
    multiplier stays under 2**64, and a mix's sum of two such products
    under 2**65, so no carry reaches the next lane, and adding 2**32 - R
    times y in place of subtracting R times y keeps any lane from
    borrowing. A shift right by 16 moves the low 16 bits of each lane into
    the top of the one below, which each mask clears again. A lane of three
    32-bit words is the least above 65 bits that keeps lane j's low word at
    word 3 j of the packed int's bytes, where a memoryview reads it out.
    """
    xors = [f"x{h}" for h in range(len(_POOL_HASH) + len(_STATE_HASH))]
    lines = ["def seed(w0, w1, w2, w3, rest, lanes):", f"    one, m, {', '.join(xors)} = lanes"]
    for i, (_, mult) in enumerate(_POOL_HASH[:4]):
        lines += [f"    v = (w{i} ^ x{i}) * {mult:#x} & m", f"    p{i} = (v ^ v >> 16) & m"]
    for h, (src, dst, _, mult) in enumerate(_POOL_MIX, 4):
        lines += [
            f"    v = (p{src} ^ x{h}) * {mult:#x} & m",
            f"    v = ({_MIX_L:#x} * p{dst} + {_MIX_R:#x} * ((v ^ v >> 16) & m)) & m",
            f"    p{dst} = (v ^ v >> 16) & m",
        ]
    lines += [
        "    if rest:",
        "        p0, p1, p2, p3 = _mix_past_four([p0, p1, p2, p3], rest, one, m)",
    ]
    for i, (_, mult) in enumerate(_STATE_HASH):
        lines += [
            f"    v = (p{i & 3} ^ x{16 + i}) * {mult:#x} & m",
            f"    s{i} = (v ^ v >> 16) & m",
        ]
    lines.append("    return s0, s1, s2, s3, s4, s5, s6, s7")
    return "\n".join(lines) + "\n"


@functools.cache
def _seeding() -> Callable:
    """seed(w0, w1, w2, w3, rest, lanes) of _seeding_source, compiled on first use."""
    namespace = {"_mix_past_four": _mix_past_four}
    exec(compile(_seeding_source(), "<quantstab.plant seeding>", "exec"), namespace)
    return namespace["seed"]


def _entropy_words(entropy) -> list[int]:
    """The 32-bit words of entropy, a nonnegative int or an iterable of
    them: each int's little-endian words (0 is one word 0), padded with
    zeros to four. A negative int raises ValueError, as numpy does; None
    takes secrets.randbits(128)."""
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
    return words


def _pack(words: Sequence[int]) -> int:
    """The words as a packed int, word j in the low 32 bits of lane j."""
    buf = array("I", bytes(12 * len(words)))
    buf[_LOW_WORDS] = array("I", words)
    return int.from_bytes(buf, sys.byteorder)


def _hash_block(rows: list[list[int]]) -> list[tuple[int, int]]:
    """PCG64's (state, inc) of each entropy of rows, its words of
    _entropy_words, all of one count: one pass of the seeding code over one
    lane each. A block of one lane is its plain words, so it packs and
    unpacks nothing.
    """
    k = len(rows)
    seed = _seeding()
    if k == 1:
        w = rows[0]
        return [_pcg64(*seed(w[0], w[1], w[2], w[3], w[4:], _ONE_LANE))]
    w = [_pack(column) for column in zip(*rows)]
    one = _pack((1,) * k)
    packed = seed(w[0], w[1], w[2], w[3], w[4:], [c * one for c in _ONE_LANE])
    # the lanes of each state word: the low 32-bit word of each 96-bit lane
    views = [memoryview(s.to_bytes(12 * k, sys.byteorder)).cast("I") for s in packed]
    return list(map(_pcg64, *[v[_LOW_WORDS] for v in views]))


def _pcg64(s0, s1, s2, s3, s4, s5, s6, s7) -> tuple[int, int]:
    """PCG64's (state, inc) as seeded from the state words s0..s7 of
    SeedSequence.

    generate_state(4, uint64) is s0 | s1 << 32, ..., s6 | s7 << 32;
    PCG64's state is the first two, its increment the last two shifted
    left by one with the low bit set, each pair high word first, and its
    seeding steps the state once from inc + state.
    """
    init = s1 << 96 | s0 << 64 | s3 << 32 | s2
    inc = (s5 << 97 | s4 << 65 | s7 << 33 | s6 << 1) & _M128 | 1
    return ((inc + init) * _PCG_MULT + inc) & _M128, inc


def seed_states(entropies) -> list[SeedState]:
    """The SeedState of each entropy of entropies, in order: what numpy's
    SeedSequence(entropy) hashes into np.random.PCG64, bit for bit, made
    without numpy.

    Each entropy is one that np.random.default_rng takes, made words by
    _entropy_words. SeedSequence hashes the first four words into a
    four-word pool, mixes the pool, mixes in each word past the fourth and
    hashes the pool into eight state words. Each run of entropies of one
    word count hashes in blocks of at most SEED_BLOCK, one pass of
    straight-line code over all of a block's lanes (_seeding_source),
    which the first use generates, so importing compiles none of it; only
    the words past the fourth run through a loop.
    """
    states = []
    for _, run in itertools.groupby(map(_entropy_words, entropies), len):
        run = list(run)
        for start in range(0, len(run), SEED_BLOCK):
            block = _hash_block(run[start : start + SEED_BLOCK])
            states += [SeedState(state, inc) for state, inc in block]
    return states


def _uniform_draws(entropy, boxes) -> list[float]:
    """What np.random.default_rng(entropy).uniform(lo, hi) gives for each
    (lo, hi) of boxes in turn, bit for bit, without numpy.

    entropy is an entropy of seed_states, hashed as a block of one, or a
    SeedState that it hashed. A draw steps PCG64, takes its XSL-RR output
    x and returns lo + (hi - lo) * (x >> 11) * 2**-53. A non-finite
    hi - lo raises OverflowError, as numpy does.
    """
    if entropy.__class__ is SeedState:
        state, inc = entropy.state, entropy.inc
    else:
        ((state, inc),) = _hash_block([_entropy_words(entropy)])
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
