"""Linear algebra over F_p: one sparse echelon and a dense reference.

``insert_row`` is the elimination every measure runs on.  A row is a
dict from a sortable key to a coefficient in {1, ..., p-1}, and an
echelon is a dict ``{lead: row}`` holding each kept row under its least
key, scaled to 1 there.  Inserting a row reduces it against the kept rows
smallest key first and keeps whatever is left, so the rank of the rows
inserted is the number of kept rows and the leads are the least keys of
their span.  It uses Python integers, so any prime works, and does not
load numpy.

``rref``, ``rank``, ``kernel_basis`` and ``in_row_space`` are dense
eliminations on numpy int64 matrices with entries in {0, ..., p-1}.
They serve the library's box solution spaces and the tests as an
independent reference; numpy is imported inside them.  Every product of
two entries must fit in int64, so p is limited to (p - 1)^2 < 2^63, and
``check_modulus`` refuses larger primes before any dense arithmetic;
``box_projected_dimension`` calls it too, for the int64 array it returns.
"""

from __future__ import annotations

import heapq
from math import isqrt
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:
    import numpy as np

INT64_LIMIT = 2 ** 63
MAX_MODULUS = isqrt(INT64_LIMIT - 1) + 1  # largest p with (p - 1)^2 < 2^63


def check_modulus(p: int) -> None:
    """Refuse a modulus whose entry products overflow int64."""
    if p > MAX_MODULUS:
        raise ValueError(
            f"p = {p} is too large for int64 arithmetic over F_p, "
            f"which needs (p - 1)^2 < 2^63, i.e. p <= {MAX_MODULUS}"
        )


def insert_row(echelon: dict, row: dict, p: int) -> Hashable | None:
    """Reduce ``row`` against the echelon and keep what is left; consumes ``row``.

    Keys are taken off a heap smallest first.  A key that leads a kept
    row is cleared by subtracting that row, which has no key below its
    lead, so only larger keys are added and pushed.  The first key that
    leads no kept row is the least key left: the row, scaled to 1 there,
    is kept under it and that key is returned.  A row reduced to nothing
    returns None.
    """
    heap = list(row)
    heapq.heapify(heap)
    while heap:
        key = heapq.heappop(heap)
        c = row.get(key)
        if c is None:
            continue  # cleared since it was pushed
        kept = echelon.get(key)
        if kept is None:
            inv = pow(c, p - 2, p)
            echelon[key] = {k: v * inv % p for k, v in row.items()}
            return key
        for k, v in kept.items():
            old = row.get(k)
            nc = ((old or 0) - c * v) % p
            if nc:
                if old is None:
                    heapq.heappush(heap, k)
                row[k] = nc
            elif old is not None:
                del row[k]
    return None


def rref(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (R, pivot column list)."""
    import numpy as np

    check_modulus(p)
    m = np.array(matrix, dtype=np.int64, copy=True) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        other = m[:, c].nonzero()[0]
        other = other[other != r]
        # columns left of c are zero in row r, so one outer product clears c
        m[other, c:] = (m[other, c:] - m[other, c, None] * m[r, c:]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(matrix: np.ndarray, p: int) -> int:
    if matrix.size == 0:
        return 0
    return len(rref(matrix, p)[1])


def kernel_basis(matrix: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space mod p, one vector per row."""
    import numpy as np

    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    cols = matrix.shape[1]
    if matrix.size == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref(matrix, p)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[: len(pivots), free].T) % p
    return basis


def in_row_space(matrix: np.ndarray, vector: np.ndarray, p: int) -> bool:
    """Is `vector` an F_p-combination of the rows of `matrix`?"""
    import numpy as np

    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    vector = np.asarray(vector, dtype=np.int64) % p
    if matrix.size == 0:
        return not vector.any()
    base = rank(matrix, p)
    aug = np.vstack([matrix % p, vector])
    return rank(aug, p) == base
