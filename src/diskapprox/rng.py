"""Seed-stable pseudo-random numbers.

Everything downstream (instance generation, arrival orders, benchmark
seeding) draws from this generator, never from the stdlib ``random``
module, so a seed produces the same bits on every platform and Python
version.  The core is splitmix64: the state walks a fixed odd increment
and each output word is a finalizing avalanche hash of the state.
Uniform doubles take the top 53 bits of one output word divided by
2**53, which is exact in binary64.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_INCREMENT = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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
        ``count`` calls would."""
        state = self._state
        values = []
        for _ in range(count):
            # next_u64 with the mix64 finalizer inlined, saving a call per draw
            state = (state + _INCREMENT) & MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & MASK64
            values.append(((z ^ (z >> 31)) >> 11) * 2.0 ** -53)
        self._state = state
        return values

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
