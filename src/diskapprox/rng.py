"""Seed-stable pseudo-random numbers.

Everything downstream (instance generation, arrival orders, benchmark
seeding) draws from this generator, never from the stdlib ``random``
module, so a seed produces the same bits on every platform and Python
version.  The core is splitmix64: the state walks a fixed odd increment
and each output word is a finalizing avalanche hash of the state.
Uniform doubles take the top 53 bits of one output word divided by
2**53, which is exact in binary64.

:meth:`Rng.uniforms` computes a whole batch at once: the states sit in
128-bit lanes of one Python int, so each round of the finalizer is one
big-int operation over every lane instead of one bytecode loop per draw.
Each lane is masked to 64 bits before every multiply, so bits a shift
pulled in from the next lane never enter a product, and the lanes are
read back as little-endian bytes, so the batch gives the same floats on
every platform as the same number of single draws.  The lane constants for
a batch depend only on its size; those of sizes up to ``_LANE_MEMO_MAX``,
which covers every draw of an oracle-sized instance, are built on first use
and kept, and larger batches build theirs per call so a huge draw pins no
memory.
"""

from __future__ import annotations

import sys
from array import array

MASK64 = (1 << 64) - 1

_INCREMENT = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK53 = (1 << 53) - 1

_LANE_MEMO_MAX = 96
_lane_memo: dict[int, tuple[int, int, int, int]] = {}


def _lane_constants(count: int) -> tuple[int, int, int, int]:
    """For ``count`` 128-bit lanes: 1 in every lane, the 64-bit mask in every
    lane, k * increment in lane k - 1, and the 53-bit mask in every lane."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    steps = array("Q", bytes(16 * count))
    steps[0::2] = array("Q", range(1, count + 1))
    if sys.byteorder == "big":
        steps.byteswap()
    increments = _INCREMENT * int.from_bytes(steps, "little")
    return ones, MASK64 * ones, increments, _MASK53 * ones


def mix64(value: int) -> int:
    """Avalanche hash of a 64-bit word (the splitmix64 finalizer)."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Seed for child stream ``index``: output number ``index`` of the master stream."""
    return mix64((master + (index + 1) * _INCREMENT) & MASK64)


class Rng:
    """A splitmix64 stream; the output sequence is a pure function of the seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _INCREMENT) & MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniforms(self, count: int) -> list[float]:
        """The next ``count`` values of :meth:`uniform`, leaving the state where
        ``count`` calls would (``count <= 0`` draws nothing).

        Draw k (k = 1..count) hashes ``state + k * increment`` mod 2^64, where
        ``state`` is the state before the call.  Those states fill the 128-bit
        lanes of one int, lane k - 1 at bit 128 * (k - 1), and every round of
        :func:`mix64` runs once over all lanes.  A lane holds a 64-bit word
        and room for its 128-bit product with a 64-bit constant, so no product
        carries into the next lane.  A right shift does pull the next lane's
        low bits into this lane's top half, so every lane is masked back to
        64 bits after each xor-shift and before each multiply; unmasked, those
        bits would enter the product.  The lanes are decoded from explicit
        little-endian bytes, swapped to the host's order, so the floats are
        the same on every platform.

        The four lane constants depend only on ``count``.  Building them costs
        about as much as the hashing, so those of a count up to
        ``_LANE_MEMO_MAX`` are kept after first use (at most 96 entries,
        about 300 KB with all filled); a larger count builds its own per call.
        """
        if count <= 0:
            return []
        constants = _lane_memo.get(count)
        if constants is None:
            constants = _lane_constants(count)
            if count <= _LANE_MEMO_MAX:
                _lane_memo[count] = constants
        ones, lanes, increments, mask53 = constants
        # per lane, state + k * increment < 2^64 * (count + 1): no carry out
        z = (self._state * ones + increments) & lanes
        z = ((z ^ (z >> 30)) & lanes) * _MIX1 & lanes
        z = ((z ^ (z >> 27)) & lanes) * _MIX2 & lanes
        z = ((z ^ (z >> 31)) >> 11) & mask53
        words = array("Q", z.to_bytes(16 * count, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        self._state = (self._state + count * _INCREMENT) & MASK64
        return [word * 2.0 ** -53 for word in words[0::2]]

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection so there is no modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        bits = (bound - 1).bit_length()
        while True:
            value = self.next_u64() >> (64 - bits)
            if value < bound:
                return value

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
