"""Integer draws without numpy.random.

FrameDraws(entropy).integers(low, high, size) returns the int64 array that
np.random.default_rng(entropy).integers(low, high, size) returns, and
successive calls continue the same stream. numpy.random is never imported:
its first use loads secrets, hashlib and OpenSSL, about 6 MiB of resident
memory and 10-15 ms, which is more than the ground fit's draws cost.

The stream is numpy's: SeedSequence(entropy) hashes the entropy into four
64-bit seed words, which seed PCG64 (O'Neill, 2014: a 128-bit LCG with the
XSL-RR output), and a bounded draw is Lemire's multiply-and-reject
("Fast Random Integer Generation in an Interval", 2019) on the low 32 bits
of a 64-bit output, then its high 32 bits, for a bound up to 2**32, and on
whole 64-bit outputs above that. numpy does not promise Generator methods the same
algorithm across releases (NEP 19); these draws are fixed here, whatever
numpy is installed. Nothing from the package is imported here.
"""

import math
import operator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants, its pool size and its cross-mix multipliers.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(entropy) -> list[int]:
    """Each entropy int as little-endian 32-bit words; 0 is one word, 0."""
    ints = [entropy] if isinstance(entropy, (int, np.integer)) else list(entropy)
    words = []
    for value in ints:
        value = operator.index(value)  # a float is a TypeError, as in numpy
        if value < 0:
            raise ValueError(f"entropy must be non-negative, got {value}")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix: xor in the running constant, step the
    constant, multiply by the new one, fold the high half down."""
    const = init

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _seed_state(entropy) -> list[int]:
    """SeedSequence(entropy).generate_state(4, np.uint64), as ints."""
    words = _entropy_words(entropy)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class FrameDraws:
    """numpy's default_rng(entropy) stream, for integers() alone.

    entropy is a non-negative int or a sequence of them, as default_rng
    takes it. The generator holds PCG64's 128-bit state and increment, and
    the high half of a 64-bit output whose low half a 32-bit draw used,
    which the next 32-bit draw takes, across calls.
    """

    def __init__(self, entropy):
        s0, s1, i0, i1 = _seed_state(entropy)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _MASK128
        self._half = None

    def _next64(self, count: int) -> np.ndarray:
        """The next count 64-bit outputs, as uint64: the LCG steps on
        Python ints, the XSL-RR output (high ^ low half, rotated right by
        the top 6 bits) runs over the whole array."""
        state, inc = self._state, self._inc
        states = [state := (state * _PCG_MULT + inc) & _MASK128 for _ in range(count)]
        self._state = state
        halves = np.frombuffer(b"".join([s.to_bytes(16, "little") for s in states]), dtype="<u8")
        halves = halves.astype(np.uint64)
        lo, hi = halves[0::2], halves[1::2]
        x, r = hi ^ lo, hi >> np.uint64(58)
        return (x >> r) | (x << ((np.uint64(64) - r) & np.uint64(63)))

    def _next32(self, count: int) -> np.ndarray:
        """The next count 32-bit outputs, as uint64: each 64-bit output's
        low half, then its high half, which waits here for the next draw
        if count runs out first."""
        held = np.array([] if self._half is None else [self._half], dtype=np.uint64)
        x = self._next64((count - len(held) + 1) // 2)
        halves = np.stack((x & np.uint64(_MASK32), x >> np.uint64(32)), axis=1).ravel()
        words = np.concatenate((held, halves))
        self._half = int(words[count]) if len(words) > count else None
        return words[:count]

    def integers(self, low: int, high: int, size) -> np.ndarray:
        """An int64 array of shape size (an int or a tuple) drawn from
        [low, high), as Generator.integers(low, high, size) draws it."""
        low, high = int(low), int(high)
        if not -(1 << 63) <= low < high <= 1 << 63:
            raise ValueError(f"need low < high within int64, got [{low}, {high})")
        shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        count = math.prod(shape)
        n = high - low
        if n == 1:  # one value: numpy consumes nothing
            return np.full(shape, low, dtype=np.int64)
        # Lemire: a word w gives (w * n) >> bits, unless the low bits of
        # w * n fall below (2**bits - n) % n. Accepted words give the
        # values in stream order, so a rejection only asks for more words.
        # Past 2**32, w * n needs 128 bits, so it is taken on Python ints.
        wide = n > 1 << 32
        bits, words_of = (64, self._next64) if wide else (32, self._next32)
        mask, threshold = (1 << bits) - 1, ((1 << bits) - n) % n
        parts, drawn = [np.empty(0, dtype=np.int64)], 0
        while drawn < count:
            m = words_of(count - drawn).astype(object if wide else np.uint64) * n
            values = m[(m & mask) >= threshold] >> bits
            parts.append(values.astype(object if wide else np.int64) + low)
            drawn += len(values)
        return np.concatenate(parts).astype(np.int64, copy=False).reshape(shape)
