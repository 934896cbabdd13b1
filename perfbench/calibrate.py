"""Machine speed: a fixed kernel, timed next to the measured work.

A shared machine changes the speed of its CPU by up to a half within
seconds and by a third between minutes, and every polymix layer slows
with it.  The benchmark therefore scales the query timings of a run to a
reference speed: wall time times ``(REFERENCE_S / t) ** EXPONENT``, where
t is the median of the kernel times that the processes answering the queries
measured before their first query and then between queries, at most
every ``EVERY_S``.  The kernel uses no polymix code and runs with the
garbage collector off, so no change to polymix can move it.

The kernel does in small what the three workloads do in large: division
of a sparse polynomial over F_5 with a heap, Gaussian elimination over
the rationals, and row reduction of an integer matrix mod 5 in numpy.
Over sets of five and ten runs per workload on the machine in README.md,
the log of a run's throughput followed the log of the kernel's speed
with correlation 0.45 to 0.93, and the slope of the fit varied between
sets from 0.6 to 2.2.  EXPONENT is the value that kept the largest
spread between runs lowest over three such sets; it is fitted to this
machine, not derived.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# The kernel's median time on the machine in README.md; scaled timings
# read as wall times there.
REFERENCE_S = 0.00345
EXPONENT = 0.7
EVERY_S = 0.2

_MATRIX = (np.arange(48 * 64, dtype=np.int64).reshape(48, 64) * 7919) % 5


def _divide() -> int:
    """A product of two sparse polynomials over F_5, divided by 1 + x + y^2."""
    a = {(i % 7, (3 * i) % 5): 1 + i % 4 for i in range(24)}
    b = {(i % 5, (2 * i) % 7): 1 + i % 3 for i in range(20)}
    work: dict[tuple[int, int], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            work[e] = (work.get(e, 0) + ca * cb) % 5
    heap = [(-(x + y), -y, -x) for x, y in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        _, ny, nx = heapq.heappop(heap)
        e = (-nx, -ny)
        c = work.pop(e, None)
        if not c:
            continue
        if e[1] < 2:
            remainder[e] = c
            continue
        for t in ((e[0], e[1] - 2), (e[0] + 1, e[1] - 2)):
            if t not in work:
                heapq.heappush(heap, (-(t[0] + t[1]), -t[1], -t[0]))
            work[t] = (work.get(t, 0) - c) % 5
    return len(remainder)


def _eliminate() -> Fraction:
    """Gauss-Jordan elimination of a 7 x 8 rational matrix."""
    n = 7
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(n + 1)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return m[0][-1]


def _rref_mod5() -> int:
    """Rank of a 48 x 64 integer matrix mod 5, by vectorized row reduction."""
    m = _MATRIX.copy()
    row = 0
    for col in range(m.shape[1]):
        nz = np.flatnonzero(m[row:, col])
        if nz.size == 0:
            continue
        piv = row + nz[0]
        m[[row, piv]] = m[[piv, row]]
        m[row] = (m[row] * pow(int(m[row, col]), 3, 5)) % 5
        others = np.flatnonzero(m[:, col])
        others = others[others != row]
        m[others] = (m[others] - np.outer(m[others, col], m[row])) % 5
        row += 1
        if row == m.shape[0]:
            break
    return row


def kernel() -> tuple:
    return _divide(), _eliminate(), _rref_mod5()


def kernel_samples(count: int) -> list[float]:
    """``count`` timings of the kernel in seconds, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(count):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
        return times
    finally:
        if enabled:
            gc.enable()


def speed(samples: list[float]) -> float:
    """The factor that scales wall times towards the reference speed."""
    return (REFERENCE_S / statistics.median(samples)) ** EXPONENT
