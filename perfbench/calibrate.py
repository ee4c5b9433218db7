"""A fixed calibration kernel that measures how fast the machine runs right now.

The benchmark's machine is shared: over minutes its speed drifts by half and
more, which would bury any change to the package.  The benchmark therefore
runs this kernel between its timed regions and divides each region's time by
the kernel's time around it, then multiplies by REFERENCE_S.  The result
reads as seconds on this machine at its reference speed.

The kernel imitates the package's mix of work - Python sets, tuples and
sorting as in Graph construction, a NumPy shuffle and unique as in the
samplers, and sparse products with a vector basis too large for the caches,
as in Lanczos - but calls no package code, so no change to the package can
move it.
"""
from __future__ import annotations

import random
import time

import numpy as np
import scipy.sparse as sp

# Roughly the kernel's time on the 2-vCPU machine the benchmark was built on
# (Python 3.11, NumPy 2.4) when nothing else slows it.  It only sets the
# scale of the calibrated times.
REFERENCE_S = 0.02
READS = 5  # kernel timings per reading

_N = 100_000
_rng = np.random.default_rng(0xCA1)
_MATRIX = sp.random(_N, _N, density=6 / _N, format="csr", random_state=_rng)
_BASIS = _rng.standard_normal((8, _N))
_VECTOR = _rng.standard_normal(_N)


def kernel_s() -> float:
    """Seconds the kernel takes now."""
    rng = random.Random(0xCA1)
    start = time.perf_counter()
    edges = set()
    for _ in range(5000):
        u, v = rng.randrange(400), rng.randrange(400)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    adj: list[set[int]] = [set() for _ in range(400)]
    for u, v in sorted(edges):
        adj[u].add(v)
        adj[v].add(u)
    stubs = np.repeat(np.arange(2000), 4)
    np.random.default_rng(0xCA1).shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    np.unique(pairs.min(axis=1).astype(np.int64) * 2000 + pairs.max(axis=1))
    x = _VECTOR
    for _ in range(4):
        x = _MATRIX @ x
        x -= _BASIS.T @ (_BASIS @ x) / _N
        x /= np.linalg.norm(x)
    return time.perf_counter() - start


def reading() -> list[float]:
    """READS kernel times, taken back to back."""
    return [kernel_s() for _ in range(READS)]


def calibrated(seconds: float, kernel: float) -> float:
    """`seconds` measured while the kernel took `kernel` seconds, scaled to
    the reference speed."""
    return seconds * REFERENCE_S / kernel
