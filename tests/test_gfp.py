import random

import numpy as np
import pytest

from polymix import gfp

PRIMES = (2, 3, 5, 7)


def _reference_rref(matrix, p):
    """Pure-Python Gauss-Jordan mod p on lists: (R as lists, pivot columns)."""
    m = [[int(x) % p for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [(a - factor * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _reference_kernel(matrix, p, cols):
    """Null-space basis read off the reference R, one vector per free column."""
    r, pivots = _reference_rref(matrix, p)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = -r[i][fc] % p
        basis.append(vec)
    return basis


def _random_matrix(rng, p, rows, cols, rank=None):
    """Random matrix mod p; with ``rank`` a product of two thin factors."""
    def draw(n, m):
        return np.array([[rng.randrange(p) for _ in range(m)] for _ in range(n)], dtype=np.int64)

    if rank is None:
        return draw(rows, cols)
    return (draw(rows, rank) @ draw(rank, cols)) % p


def _cases():
    """(p, matrix) pairs: seeded random shapes and every edge shape."""
    rng = random.Random(2024)
    cases = []
    for p in PRIMES:
        for _ in range(12):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            cases.append((p, _random_matrix(rng, p, rows, cols)))
        cases += [
            (p, np.zeros((4, 6), dtype=np.int64)),  # all zero
            (p, _random_matrix(rng, p, 1, 7)),  # 1 x n
            (p, _random_matrix(rng, p, 7, 1)),  # n x 1
            (p, _random_matrix(rng, p, 12, 4)),  # tall
            (p, _random_matrix(rng, p, 3, 11)),  # wide
            (p, _random_matrix(rng, p, 8, 8, rank=3)),  # rank-deficient
            (p, _random_matrix(rng, p, 10, 6, rank=2)),
            (p, np.zeros((0, 5), dtype=np.int64)),  # empty
        ]
    return cases


CASES = _cases()


@pytest.mark.parametrize("p,matrix", CASES)
def test_rref_matches_reference(p, matrix):
    r, pivots = gfp.rref(matrix, p)
    ref_r, ref_pivots = _reference_rref(matrix.tolist(), p)
    assert pivots == ref_pivots
    assert r.shape == matrix.shape
    assert r.tolist() == ref_r


@pytest.mark.parametrize("p,matrix", CASES)
def test_rank_and_kernel_match_reference(p, matrix):
    cols = matrix.shape[1]
    rank = gfp.rank(matrix, p)
    assert rank == len(_reference_rref(matrix.tolist(), p)[1])
    basis = gfp.kernel_basis(matrix, p)
    assert basis.shape == (cols - rank, cols)
    assert basis.tolist() == (
        _reference_kernel(matrix.tolist(), p, cols) if matrix.size else np.eye(cols).tolist()
    )
    assert not ((matrix @ basis.T) % p).any()
    assert gfp.rank(basis, p) == cols - rank  # the basis vectors are independent


@pytest.mark.parametrize("p,matrix", CASES)
def test_in_row_space_matches_reference(p, matrix):
    rng = random.Random(matrix.size * 31 + p)
    cols = matrix.shape[1]
    ref_rank = len(_reference_rref(matrix.tolist(), p)[1])
    weights = np.array([rng.randrange(p) for _ in range(matrix.shape[0])], dtype=np.int64)
    combination = (weights @ matrix) % p
    assert gfp.in_row_space(matrix, combination, p)
    for _ in range(5):
        vector = np.array([rng.randrange(p) for _ in range(cols)], dtype=np.int64)
        augmented = matrix.tolist() + [vector.tolist()]
        expected = len(_reference_rref(augmented, p)[1]) == ref_rank
        assert gfp.in_row_space(matrix, vector, p) == expected


def test_rref_reduces_entries_and_leaves_input():
    matrix = np.array([[3, -1, 4], [6, 5, -9]], dtype=np.int64)
    before = matrix.copy()
    r, pivots = gfp.rref(matrix, 5)
    assert (matrix == before).all()
    assert ((r >= 0) & (r < 5)).all()
    assert r.tolist() == _reference_rref(matrix.tolist(), 5)[0] and pivots == [0, 1]


def test_empty_column_matrix():
    matrix = np.zeros((3, 0), dtype=np.int64)
    assert gfp.rank(matrix, 3) == 0
    assert gfp.kernel_basis(matrix, 3).shape == (0, 0)


def _echelon(matrix, p):
    """Insert the rows of a matrix, keyed by column, into one sparse echelon."""
    echelon = {}
    for row in matrix.tolist():
        gfp.insert_row(echelon, {c: x % p for c, x in enumerate(row) if x % p}, p)
    return echelon


@pytest.mark.parametrize("p,matrix", CASES)
def test_insert_row_matches_rref(p, matrix):
    # the leads are the least keys of the row space: the pivot columns
    echelon = _echelon(matrix, p)
    assert sorted(echelon) == _reference_rref(matrix.tolist(), p)[1]
    for lead, row in echelon.items():
        assert min(row) == lead and row[lead] == 1
        assert all(0 < x < p for x in row.values())
        dense = np.zeros(matrix.shape[1], dtype=np.int64)
        dense[list(row)] = list(row.values())
        assert gfp.in_row_space(matrix, dense, p)


def test_insert_row_reports_the_lead():
    p = 5
    echelon = {}
    assert gfp.insert_row(echelon, {(1, "b"): 2, (0, "a"): 3}, p) == (0, "a")
    assert echelon == {(0, "a"): {(0, "a"): 1, (1, "b"): 4}}
    # 3 * the kept row: cancels entirely
    assert gfp.insert_row(echelon, {(0, "a"): 3, (1, "b"): 2}, p) is None
    # the subtraction creates (1, "b"), which leads what is left
    assert gfp.insert_row(echelon, {(0, "a"): 1, (2, "d"): 1}, p) == (1, "b")
    assert echelon[(1, "b")] == {(1, "b"): 1, (2, "d"): 1}
    assert gfp.insert_row(echelon, {}, p) is None


def test_rref_near_the_bound():
    p = 3037000493
    matrix = np.array([[p - 1, p - 2, 3], [p - 3, 1, p - 1], [2, p - 1, p - 2]], dtype=np.int64)
    r, pivots = gfp.rref(matrix, p)
    ref_r, ref_pivots = _reference_rref(matrix.tolist(), p)
    assert (r.tolist(), pivots) == (ref_r, ref_pivots)


def test_modulus_over_the_bound_refused():
    p = 4294967311  # the least prime above 2^32
    assert gfp.MAX_MODULUS == 3037000500
    matrix = np.ones((2, 2), dtype=np.int64)
    with pytest.raises(ValueError, match=r"p <= 3037000500"):
        gfp.rref(matrix, p)
    gfp.check_modulus(gfp.MAX_MODULUS)
