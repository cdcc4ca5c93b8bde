"""SplitMix64 — the standard 64-bit seed mixer and utility generator.

SplitMix64 (Steele, Lea, Flood 2014) advances a counter by a fixed odd
constant and scrambles it with two xor-shift-multiply rounds.  It is the
conventional generator for expanding a single 64-bit seed into the larger
state needed by other generators, and it is itself equidistributed enough
for simulation use.
"""

from __future__ import annotations

from repro.rng.base import MASK64, BitGenerator64

__all__ = ["SplitMix64", "splitmix64_mix"]

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_mix(z: int) -> int:
    """Apply the SplitMix64 output scrambler to a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


class SplitMix64(BitGenerator64):
    """The SplitMix64 generator.

    Parameters
    ----------
    seed:
        Initial counter value (any Python int; reduced mod 2^64).
    """

    def __init__(self, seed: int = 0) -> None:
        self._state = seed & MASK64

    @property
    def state(self) -> int:
        """The raw counter state (mainly for tests)."""
        return self._state

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return splitmix64_mix(self._state)
