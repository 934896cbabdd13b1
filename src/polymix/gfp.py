"""Dense linear algebra over F_p on numpy int64 matrices.

Matrices here come from constraint systems on boxes of lattice cells and
from residue-coefficient tables; entries always live in {0, ..., p-1}.
numpy is imported inside the functions, so only the commands that
eliminate (measure, experiment) pay for loading it.

Every product of two entries must fit in int64, so p is limited to
(p - 1)^2 < 2^63; ``check_modulus`` refuses larger primes before any
arithmetic, and ``matmul`` keeps longer sums of products exact.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

INT64_LIMIT = 2 ** 63
FLOAT64_EXACT = 2 ** 53  # float64 holds every integer below this exactly
MAX_MODULUS = isqrt(INT64_LIMIT - 1) + 1  # largest p with (p - 1)^2 < 2^63


def check_modulus(p: int) -> None:
    """Refuse a modulus whose entry products overflow int64."""
    if p > MAX_MODULUS:
        raise ValueError(
            f"p = {p} is too large for int64 arithmetic over F_p, "
            f"which needs (p - 1)^2 < 2^63, i.e. p <= {MAX_MODULUS}"
        )


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for entries in {0, ..., p-1}, as int64.

    A sum of n products is below n (p - 1)^2.  While that is under 2^53
    one float64 product is exact; otherwise int64 products over slices of
    the inner dimension short enough not to overflow are reduced and
    summed.
    """
    import numpy as np

    check_modulus(p)
    inner = a.shape[-1]
    bound = (p - 1) ** 2
    if inner * bound < FLOAT64_EXACT:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    step = (INT64_LIMIT - 1) // bound
    out = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for s in range(0, inner, step):
        out = (out + (a[..., s:s + step] @ b[s:s + step]) % p) % p
    return out


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
