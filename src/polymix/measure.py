"""Exact Haar measures of cylinder events for the shift space of f.

The configurations x: Z^d -> F_p satisfying sum_n c_{f,n} x(m+n) = 0 for
every m form a compact group X; cylinder events fix the values on a
finite window W.  Their Haar measure is always 0 or p^{-m}.

Two computation paths are provided and cross-checked:

* ``exact``  -- the measure-zero/p^{-m} split comes from the projection
  of X onto F_p^W, whose annihilator consists exactly of the window
  polynomials sum lambda_w u^w lying in the ideal <f>.  The projected
  dimension is therefore the rank of the window monomials' residues, a
  few small quotient-ring reductions.  Total and exact for any window.
* ``box``    -- the literal finite-window relaxation: the relations of f
  on a surrounding box, kept as one reduced echelon form whose columns
  run newest ring first and window cells last.  Growing the box by one
  ring eliminates only the new translates' rows against the kept form;
  the rows with a window pivot span the annihilator of the projection
  onto the window, which gives the projected dimension and the
  consistency test.  The margin grows until that dimension stops
  dropping for two consecutive steps.  Dimensions are monotone
  non-increasing in the margin, so this stabilizes, but the stopping
  rule is a heuristic and the result carries the margin used and a
  ``stabilized`` flag.

``brute_force_measure`` enumerates every configuration on a small box
and serves as an independent oracle for both paths.

numpy is imported inside the functions that build arrays, so importing
this module does not load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import budgets, gfp
from .errors import BudgetExceededError, InternalInconsistencyError, TrivialQuotientError
from .laurent import ExponentVec, LaurentPoly
from .quotient import monomial_residue

if TYPE_CHECKING:
    import numpy as np

Box = Sequence[tuple[int, int]]


@dataclass(frozen=True)
class CylinderSpec:
    """A finite window with a fixed F_p value at each of its points."""

    window: tuple[ExponentVec, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if not self.window:
            raise ValueError("cylinder window must be non-empty")
        if len(set(self.window)) != len(self.window):
            raise ValueError("cylinder window has repeated points")
        if len(self.window) != len(self.values):
            raise ValueError("window and values have different lengths")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Sequence[int], int]]) -> "CylinderSpec":
        items = sorted((tuple(w), int(v)) for w, v in pairs)
        return cls(tuple(w for w, _ in items), tuple(v for _, v in items))

    def translated(self, shift: Sequence[int]) -> "CylinderSpec":
        return CylinderSpec.from_pairs(
            (tuple(a + b for a, b in zip(w, shift)), v)
            for w, v in zip(self.window, self.values)
        )


@dataclass(frozen=True)
class MeasureResult:
    """Exact measure: zero when ``exponent`` is None, else p^-exponent."""

    p: int
    exponent: int | None
    box_margin_used: int
    stabilized: bool
    method: str

    @property
    def value(self) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        return Fraction(1, self.p ** self.exponent)


@dataclass
class SolutionSpace:
    box: tuple[tuple[int, int], ...]
    cells: list[ExponentVec]
    basis: np.ndarray  # one solution per row, entries in {0..p-1}
    dimension: int


def _check_modulus(f: LaurentPoly) -> None:
    if f.is_zero or f.is_monomial:
        raise TrivialQuotientError("shift space needs a non-monomial relation")


def _box_shape(box: Box, dim: int) -> tuple[int, ...]:
    if len(box) != dim:
        raise ValueError(f"box has {len(box)} axes, polynomial has {dim}")
    for lo, hi in box:
        if lo > hi:
            raise ValueError(f"empty axis range ({lo}, {hi})")
    return tuple(hi - lo + 1 for lo, hi in box)


def _box_cells(box: Box, dim: int) -> list[ExponentVec]:
    _box_shape(box, dim)
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))


def _relation_cells(
    f: LaurentPoly, box: Box, ring_only: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Cells of the relations of f contained in the box, and f's coefficients.

    Entry (i, j) is the lexicographic index in the box of m_i + n_j, for
    the translates m_i with m_i + S(f) inside the box (in lexicographic
    order) and the terms n_j of f.  With ``ring_only`` the translates
    that also fit the box shrunk by one cell per side are left out.
    """
    import numpy as np

    shape = tuple(hi - lo + 1 for lo, hi in box)
    exps = np.array(list(f.terms), dtype=np.int64).reshape(len(f.terms), f.dim)
    coeffs = np.array(list(f.terms.values()), dtype=np.int64) % f.p
    offsets = exps - exps.min(axis=0)
    # m + min S(f) - box low corner runs over [0, span) on each axis
    spans = [size - int(width) for size, width in zip(shape, offsets.max(axis=0))]
    grid = np.indices([max(s, 0) for s in spans]).reshape(f.dim, -1).T
    if ring_only:
        grid = grid[((grid == 0) | (grid == np.array(spans) - 1)).any(axis=1)]
    cells = grid[:, None, :] + offsets[None, :, :]
    return np.ravel_multi_index(tuple(np.moveaxis(cells, -1, 0)), shape), coeffs


def _constraint_matrix(f: LaurentPoly, box: Box) -> np.ndarray:
    """One row per translate m with m + S(f) inside the box, cells in lexicographic order."""
    import numpy as np

    flat, coeffs = _relation_cells(f, box)
    n_cells = math.prod(hi - lo + 1 for lo, hi in box)
    matrix = np.zeros((flat.shape[0], n_cells), dtype=np.int64)
    matrix[np.arange(flat.shape[0])[:, None], flat] = coeffs
    return matrix


def solution_space(f: LaurentPoly, box: Box) -> SolutionSpace:
    """Basis of the configurations on the box meeting every contained relation."""
    _check_modulus(f)
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    cells = _box_cells(box, f.dim)
    budgets.check("cells", len(cells))
    basis = gfp.kernel_basis(_constraint_matrix(f, box), f.p)
    return SolutionSpace(box, cells, basis, basis.shape[0])


class _BoxEchelon:
    """Reduced echelon form of the relations of f on a box that grows.

    Columns run newest ring first, then older cells, and the window cells
    last.  Relations of a smaller box are zero on the ring around it, so
    the kept form stays reduced when the ring's columns are put in front:
    growing the box eliminates only the new translates' rows, by one
    product with the kept rows, one ``gfp.rref`` of that block and one
    product substituting its pivots back.  The rows whose pivot is a
    window column span rowspace ∩ F^W, the annihilator of the window
    projection of the box solutions.
    """

    def __init__(self, f: LaurentPoly, window: Sequence[ExponentVec], box: Box):
        import numpy as np

        shape = _box_shape(box, f.dim)
        n_cells = math.prod(shape)
        budgets.check("cells", n_cells)
        for w in window:
            if len(w) != len(box) or not all(lo <= a <= hi for a, (lo, hi) in zip(w, box)):
                raise ValueError(f"window point {tuple(w)} outside the box")
        if len(set(map(tuple, window))) != len(window):
            raise ValueError("window has repeated points")
        self.f, self.box, self.n_window = f, box, len(window)
        flat_window = np.ravel_multi_index(
            tuple(np.array([[a - lo for a, (lo, _) in zip(w, box)] for w in window]).T), shape
        )
        rest = np.ones(n_cells, dtype=bool)
        rest[flat_window] = False
        column = np.empty(n_cells, dtype=np.int64)
        column[rest] = np.arange(n_cells - self.n_window)
        column[flat_window] = np.arange(n_cells - self.n_window, n_cells)
        self.column = column.reshape(shape)  # column of each box cell
        self.rows = np.zeros((0, n_cells), dtype=np.int64)
        self.pivots = np.zeros(0, dtype=np.int64)
        self._eliminate(*_relation_cells(f, box))

    def grow(self) -> None:
        """Widen the box by one cell on every side (state is kept on budget failure)."""
        import numpy as np

        box = tuple((lo - 1, hi + 1) for lo, hi in self.box)
        shape = tuple(hi - lo + 1 for lo, hi in box)
        budgets.check("cells", math.prod(shape))
        inner = (slice(1, -1),) * len(shape)
        ring = np.ones(shape, dtype=bool)
        ring[inner] = False
        n_ring = int(ring.sum())
        column = np.empty(shape, dtype=np.int64)
        column[inner] = self.column + n_ring
        column[ring] = np.arange(n_ring)
        self.box, self.column = box, column
        self.rows = np.hstack([np.zeros((len(self.rows), n_ring), dtype=np.int64), self.rows])
        self.pivots = self.pivots + n_ring
        self._eliminate(*_relation_cells(self.f, box, ring_only=True))

    def _eliminate(self, flat: np.ndarray, coeffs: np.ndarray) -> None:
        import numpy as np

        p = self.f.p
        block = np.zeros((flat.shape[0], self.column.size), dtype=np.int64)
        block[np.arange(flat.shape[0])[:, None], self.column.ravel()[flat]] = coeffs
        block = (block - gfp.matmul(block[:, self.pivots], self.rows, p)) % p
        block, pivots = gfp.rref(block, p)
        if not pivots:
            return
        block = block[: len(pivots)]
        self.rows = (self.rows - gfp.matmul(self.rows[:, pivots], block, p)) % p
        self.rows = np.vstack([block, self.rows])
        self.pivots = np.concatenate([np.array(pivots, dtype=np.int64), self.pivots])

    def annihilator(self) -> np.ndarray:
        """Functionals on the window vanishing on every box solution, one per row."""
        first = self.column.size - self.n_window
        return self.rows[self.pivots >= first, first:]


def box_projected_dimension(
    f: LaurentPoly, window: Sequence[ExponentVec], box: Box
) -> tuple[int, np.ndarray]:
    """Projected dimension of the box solution space on the window.

    Also returns the annihilator of the projection, one functional on
    the window per row: values are the restriction of a box solution iff
    every row sums to 0 against them.
    """
    _check_modulus(f)
    annihilator = _BoxEchelon(f, window, tuple((int(lo), int(hi)) for lo, hi in box)).annihilator()
    return len(window) - annihilator.shape[0], annihilator


# -- exact (duality) path ----------------------------------------------------


def _window_residue_matrix(
    f: LaurentPoly, window: Sequence[ExponentVec]
) -> tuple[np.ndarray, int]:
    """Residues of the window monomials as F_p row vectors.

    The annihilator of the window projection of X is the null space of
    this matrix: lambda annihilates iff sum lambda_w u^w lies in <f>.
    A common monomial shift (a unit) clears negative exponents first.
    The residues come from ``monomial_residue``, asked in lexicographic
    order, so a point whose neighbour u^(w - e_i) is in the window finds
    that neighbour's residue kept.
    """
    import numpy as np

    window = [tuple(w) for w in window]
    shift = tuple(min(w[i] for w in window) for i in range(f.dim))
    points = [tuple(a - b for a, b in zip(w, shift)) for w in window]
    residue = {e: monomial_residue(e, f) for e in sorted(points)}
    residues = [residue[e] for e in points]
    monomials = sorted({e for r in residues for e in r.terms})
    index = {e: i for i, e in enumerate(monomials)}
    matrix = np.zeros((len(window), max(len(monomials), 1)), dtype=np.int64)
    for row, r in enumerate(residues):
        for e, c in r.terms.items():
            matrix[row, index[e]] = c
    return matrix, len(window)


def _exact_measure(f: LaurentPoly, cyl: CylinderSpec) -> MeasureResult:
    import numpy as np

    matrix, n = _window_residue_matrix(f, cyl.window)
    p = f.p
    # annihilating functionals: lambda with lambda^T . matrix = 0; the
    # projected dimension is the rank, n minus their number
    annihilator = gfp.kernel_basis(matrix.T, p)
    dim_proj = n - annihilator.shape[0]
    values = np.array([v % p for v in cyl.values], dtype=np.int64)
    consistent = not gfp.matmul(annihilator, values, p).any()
    exponent = dim_proj if consistent else None
    return MeasureResult(p, exponent, 0, True, "exact")


# -- box (finite relaxation) path --------------------------------------------


def _box_measure(f: LaurentPoly, cyl: CylinderSpec) -> MeasureResult:
    import numpy as np

    p = f.p
    smin, smax = f.min_exponents(), f.max_exponents()
    diameter = max(b - a for a, b in zip(smin, smax))
    m = max(1, diameter)
    wlo = [min(w[i] for w in cyl.window) for i in range(f.dim)]
    whi = [max(w[i] for w in cyl.window) for i in range(f.dim)]
    echelon = _BoxEchelon(f, cyl.window, tuple((lo - m, hi + m) for lo, hi in zip(wlo, whi)))
    previous = None
    stable = 0
    while True:
        annihilator = echelon.annihilator()
        dim_proj = len(cyl.window) - annihilator.shape[0]
        if previous is not None:
            if dim_proj > previous:
                raise InternalInconsistencyError(
                    "projected dimension grew with the box margin"
                )
            stable = stable + 1 if dim_proj == previous else 0
        previous = dim_proj
        stabilized = stable >= 2
        if stabilized:
            break
        try:
            echelon.grow()
        except BudgetExceededError:
            break
        m += 1
    values = np.array([v % p for v in cyl.values], dtype=np.int64)
    consistent = not gfp.matmul(annihilator, values, p).any()
    return MeasureResult(p, dim_proj if consistent else None, m, stabilized, "box")


# -- public operations --------------------------------------------------------


def cylinder_measure(
    f: LaurentPoly,
    cyl: CylinderSpec,
    method: str = "exact",
) -> MeasureResult:
    """Haar measure of the event {x restricted to the window = values}."""
    _check_modulus(f)
    for w in cyl.window:
        if len(w) != f.dim:
            raise ValueError(f"window point {w} has wrong dimension")
    if method == "exact":
        return _exact_measure(f, cyl)
    if method == "box":
        return _box_measure(f, cyl)
    raise ValueError(f"unknown method {method!r}")


def merge_events(events: Sequence[tuple[Sequence[int], CylinderSpec]]) -> CylinderSpec | None:
    """Union of shifted cylinders; None signals a conflicting overlap."""
    merged: dict[ExponentVec, int] = {}
    for shift, cyl in events:
        moved = cyl.translated(shift)
        for w, v in zip(moved.window, moved.values):
            if w in merged and merged[w] != v:
                return None
            merged[w] = v
    return CylinderSpec.from_pairs(merged.items())


def joint_measure(
    f: LaurentPoly,
    events: Sequence[tuple[Sequence[int], CylinderSpec]],
    method: str = "exact",
) -> MeasureResult:
    """Measure of the intersection of shifted cylinder events.

    The action convention is (alpha^n x)(m) = x(m+n), so the preimage of
    a cylinder on W under alpha^n is the cylinder on W + n with the same
    values.
    """
    _check_modulus(f)
    merged = merge_events(events)
    if merged is None:
        return MeasureResult(f.p, None, 0, True, "merge")
    return cylinder_measure(f, merged, method=method)


@dataclass(frozen=True)
class ExperimentRow:
    k: int
    available: bool
    joint: Fraction | None = None
    product: Fraction | None = None
    gap: Fraction | None = None


def mixing_experiment(
    f: LaurentPoly,
    shape_or_rule: Sequence[Sequence[int]] | Callable[[int], Sequence[Sequence[int]]],
    cylinders: Sequence[CylinderSpec],
    k_range: Iterable[int],
    method: str = "exact",
) -> list[ExperimentRow]:
    """Joint vs product measures along dilations of a shape (or a rule).

    Each row reports the joint measure of the cylinders shifted by
    k * shape (or by the rule's k-th tuple), the product of the single
    measures, and the gap between them.
    """
    rows: list[ExperimentRow] = []
    singles = [cylinder_measure(f, cyl, method=method).value for cyl in cylinders]
    for k in k_range:
        if callable(shape_or_rule):
            shifts = [tuple(v) for v in shape_or_rule(k)]
        else:
            shifts = [tuple(k * x for x in v) for v in shape_or_rule]
        if len(shifts) != len(cylinders):
            raise ValueError("one cylinder per shape point is required")
        try:
            joint = joint_measure(f, list(zip(shifts, cylinders)), method=method).value
        except BudgetExceededError:
            rows.append(ExperimentRow(k, False))
            continue
        product = Fraction(1)
        for s in singles:
            product *= s
        rows.append(ExperimentRow(k, True, joint, product, joint - product))
    return rows


# -- brute-force oracle --------------------------------------------------------


def brute_force_counts(
    f: LaurentPoly, cyl: CylinderSpec, box: Box
) -> tuple[int, int]:
    """(matching, total) configuration counts on the box, by enumeration.

    ``total`` counts configurations satisfying every fully contained
    relation; ``matching`` additionally requires the window assignment.
    Kept deliberately independent of the linear-algebra paths.
    """
    import numpy as np

    _check_modulus(f)
    p = f.p
    cells = _box_cells(tuple((int(a), int(b)) for a, b in box), f.dim)
    n_cells = len(cells)
    n_configs = p ** n_cells
    budgets.check("enumeration", n_configs)
    index = {c: i for i, c in enumerate(cells)}
    for w in cyl.window:
        if tuple(w) not in index:
            raise ValueError(f"window point {w} outside the box")
    matrix = _constraint_matrix(f, tuple(box))
    wcols = np.array([index[tuple(w)] for w in cyl.window], dtype=np.int64)
    wvals = np.array([v % p for v in cyl.values], dtype=np.int64)

    powers = p ** np.arange(n_cells, dtype=np.int64)
    total = 0
    matching = 0
    chunk = 1 << 16
    for start in range(0, n_configs, chunk):
        idx = np.arange(start, min(start + chunk, n_configs), dtype=np.int64)
        digits = (idx[:, None] // powers) % p
        if matrix.size:
            ok = ((digits @ matrix.T) % p == 0).all(axis=1)
        else:
            ok = np.ones(len(idx), dtype=bool)
        total += int(ok.sum())
        match = ok & (digits[:, wcols] == wvals).all(axis=1)
        matching += int(match.sum())
    return matching, total


def brute_force_measure(f: LaurentPoly, cyl: CylinderSpec, box: Box) -> MeasureResult:
    """Conditional frequency of the assignment among box solutions.

    Solution sets are cosets of a subgroup, so the frequency is exactly
    0 or p^-m; anything else is an internal error.
    """
    matching, total = brute_force_counts(f, cyl, box)
    if matching == 0:
        return MeasureResult(f.p, None, 0, False, "brute-force")
    ratio = Fraction(matching, total)
    exponent = 0
    rest = ratio
    while rest < 1:
        rest *= f.p
        exponent += 1
    if rest != 1:
        raise InternalInconsistencyError(
            f"brute-force frequency {ratio} is not a power of 1/{f.p}"
        )
    return MeasureResult(f.p, exponent, 0, False, "brute-force")
