"""Deterministic 64-bit seed derivation for parallel/repeatable trials.

The finalizer is the splitmix64 avalanche function (Steele, Lea, Flood 2014),
so per-trial seeds are a fixed, documented function of (master, index).
"""

__all__ = ["mix64", "derive_seed"]

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    z = (x + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(master: int, index: int) -> int:
    """Seed for sub-stream `index` of the stream seeded by `master`.

    Distinct (master, index) pairs map to well-scrambled 64-bit seeds; the
    mapping is independent of execution order, so derived trials may run
    in any order or in parallel.
    """
    return mix64((master & MASK64) ^ mix64(index & MASK64))
