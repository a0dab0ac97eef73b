"""How fast the host runs right now, from a fixed piece of reference work.

The benchmark's machine is a few cores of a shared host whose speed drifts
by up to 1.8x over tens of seconds to minutes, as other tenants load it;
CPU time drifts with wall time, so the slowdown is not preemption. Runs of
30 s cannot average such phases out. So every call process times a fixed
reference, code of the benchmark's own that no change to the program can
alter, just before and just after its runner call, and ``run.py`` scales
the call's times by the host factor: the median reference chunk time over
``REF_CHUNK_S``. A time reported by the benchmark is therefore in seconds
of a host that runs one reference chunk in ``REF_CHUNK_S``; on this
benchmark's 2-core x86_64 machine that is close to the raw time. ``run.py``
prints the raw figures and the factor on standard error.

The reference mixes what the program's trial loops do: a Python loop of
small NumPy row operations (a GF(2) elimination of a 48x48 matrix) and
plain interpreter arithmetic.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_CHUNK_S = 0.0135    # one chunk's median time on the benchmark's 2-core machine
REF_CHUNKS = 5          # chunks timed on each side of a runner call
_ELIMINATIONS = 4       # GF(2) eliminations per chunk

_MATRIX = np.random.default_rng(12345).integers(0, 2, (48, 48), dtype=np.uint8)


def _eliminate(a: np.ndarray) -> int:
    """Rank of ``a`` over GF(2), by row reduction in place."""
    r = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        rows = np.flatnonzero(a[:, c])
        a[rows[rows != r]] ^= a[r]
        r += 1
        if r == a.shape[0]:
            break
    return r


def _chunk() -> float:
    t0 = perf_counter()
    for _ in range(_ELIMINATIONS):
        _eliminate(_MATRIX.copy())
    s = 0
    for i in range(20000 * _ELIMINATIONS):
        s += i * i % 7
    return perf_counter() - t0


def reference_chunks() -> list[float]:
    """Times of ``REF_CHUNKS`` reference chunks run now."""
    return [_chunk() for _ in range(REF_CHUNKS)]


def host_factor(chunks: list[float]) -> float:
    """How much slower than nominal the host ran the reference (1.0 = nominal)."""
    return statistics.median(chunks) / REF_CHUNK_S
