"""Exact Haar measures of cylinder events for the shift space of f.

The configurations x: Z^d -> F_p satisfying sum_n c_{f,n} x(m+n) = 0 for
every m form a compact group X; cylinder events fix the values on a
finite window W.  Their Haar measure is always 0 or p^{-m}.

Both computation paths insert sparse rows into one F_p echelon,
``gfp.insert_row``, and are cross-checked:

* ``exact``  -- the measure-zero/p^{-m} split comes from the projection
  of X onto F_p^W, whose annihilator consists exactly of the window
  polynomials sum lambda_w u^w lying in the ideal <f>.  The projected
  dimension is therefore the rank of the window monomials' residues, a
  few small quotient-ring reductions, and the values are consistent
  unless the rank grows when they are put beside the residues.  Total
  and exact for any window.
* ``box``    -- the literal finite-window relaxation: the relations of f
  on a surrounding box, keyed so that window cells come last.  Growing
  the box by one ring inserts only the new translates' relations into
  the kept echelon; the rows led by a window cell span the annihilator
  of the projection onto the window, which gives the projected
  dimension and the consistency test.  The margin grows until that
  dimension stops dropping for two consecutive steps.  Dimensions are
  monotone non-increasing in the margin, so this stabilizes, but the
  stopping rule is a heuristic and the result carries the margin used
  and a ``stabilized`` flag.

``brute_force_measure`` enumerates every configuration on a small box
and serves as an independent oracle for both paths.  ``solution_space``
solves a box densely with ``gfp.kernel_basis``; it and the brute force
import numpy inside, as does ``box_projected_dimension`` for the array
it returns, so ``measure`` and ``experiment`` never load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import budgets, gfp
from .errors import BudgetExceededError, InternalInconsistencyError
from .laurent import ExponentVec, LaurentPoly
from .quotient import check_modulus, window_residues

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


def _check_box(box: Box, dim: int) -> None:
    if len(box) != dim:
        raise ValueError(f"box has {len(box)} axes, polynomial has {dim}")
    for lo, hi in box:
        if lo > hi:
            raise ValueError(f"empty axis range ({lo}, {hi})")


def _box_cells(box: Box, dim: int) -> list[ExponentVec]:
    _check_box(box, dim)
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))


def _relations(f: LaurentPoly, box: Box, grown: bool = False) -> Iterator[dict[ExponentVec, int]]:
    """The relations of f contained in the box, as {cell: coefficient}.

    One relation per translate m with m + S(f) inside the box, in
    lexicographic order of m.  With ``grown`` the translates that also
    fit the box shrunk by one cell per side are left out: those are the
    relations a box gains when it grows by one ring.
    """
    terms = list(f.terms.items())
    ranges = [range(lo - a, hi - b + 1)
              for (lo, hi), a, b in zip(box, f.min_exponents(), f.max_exponents())]
    for m in itertools.product(*ranges):
        if grown and all(r[0] < x < r[-1] for x, r in zip(m, ranges)):
            continue
        yield {tuple(map(add, m, e)): c for e, c in terms}


def _constraint_matrix(f: LaurentPoly, box: Box) -> np.ndarray:
    """One row per translate m with m + S(f) inside the box, cells in lexicographic order."""
    import numpy as np

    index = {c: i for i, c in enumerate(_box_cells(box, f.dim))}
    relations = list(_relations(f, box))
    matrix = np.zeros((len(relations), len(index)), dtype=np.int64)
    for row, relation in enumerate(relations):
        for c, coeff in relation.items():
            matrix[row, index[c]] = coeff
    return matrix


def solution_space(f: LaurentPoly, box: Box) -> SolutionSpace:
    """Basis of the configurations on the box meeting every contained relation."""
    check_modulus(f)
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    cells = _box_cells(box, f.dim)
    budgets.check("cells", len(cells))
    basis = gfp.kernel_basis(_constraint_matrix(f, box), f.p)
    return SolutionSpace(box, cells, basis, basis.shape[0])


def _insert_relations(
    f: LaurentPoly, window: set, box: Box, echelon: dict, grown: bool = False
) -> list[dict]:
    """Insert the box's relations keyed (cell in window, cell); return the window rows.

    Window cells come last in that static order, so a growing box only
    inserts its new translates' relations into the kept echelon.  A kept
    row led by a window cell lies in F^W, and those rows span
    rowspace ∩ F^W: the functionals on the window vanishing on every box
    solution.
    """
    budgets.check("cells", math.prod(hi - lo + 1 for lo, hi in box))
    for relation in _relations(f, box, grown):
        gfp.insert_row(echelon, {(c in window, c): v for c, v in relation.items()}, f.p)
    return [row for lead, row in echelon.items() if lead[0]]


def box_projected_dimension(
    f: LaurentPoly, window: Sequence[ExponentVec], box: Box
) -> tuple[int, np.ndarray]:
    """Projected dimension of the box solution space on the window.

    Also returns the annihilator of the projection, one functional on
    the window per row: values are the restriction of a box solution iff
    every row sums to 0 against them.
    """
    import numpy as np

    check_modulus(f)
    gfp.check_modulus(f.p)
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    _check_box(box, f.dim)
    window = [tuple(w) for w in window]
    for w in window:
        if len(w) != len(box) or not all(lo <= a <= hi for a, (lo, hi) in zip(w, box)):
            raise ValueError(f"window point {w} outside the box")
    if len(set(window)) != len(window):
        raise ValueError("window has repeated points")
    rows = _insert_relations(f, set(window), box, {})
    index = {w: i for i, w in enumerate(window)}
    annihilator = np.zeros((len(rows), len(window)), dtype=np.int64)
    for r, row in enumerate(rows):
        for (_, c), v in row.items():
            annihilator[r, index[c]] = v
    return len(window) - len(rows), annihilator


# -- exact (duality) path ----------------------------------------------------


def _exact_measure(f: LaurentPoly, cyl: CylinderSpec) -> MeasureResult:
    """Rank of the window monomials' residues, with the values beside them.

    lambda annihilates the window projection iff sum lambda_w u^w lies in
    <f>, so the projected dimension is the rank of the residues.  Each
    residue is inserted on the packed keys of ``window_residues``, with
    the cylinder value, when nonzero, under its top key.  That key sits
    above every monomial key, so it leads a kept row exactly when some
    annihilator is nonzero on the values.  A common monomial shift (a
    unit) clears negative exponents first.  The points are walked in the
    window's lexicographic order, so each finds a neighbour u^(w - e_i)
    kept, and inserted shortest residue first: a one-monomial residue
    clears that monomial from every later row in one step.
    """
    p = f.p
    shift = tuple(min(w[i] for w in cyl.window) for i in range(f.dim))
    residues, top = window_residues([tuple(map(sub, w, shift)) for w in cyl.window], f)
    echelon: dict = {}
    values = (v % p for v in cyl.values)
    for terms, v in sorted(zip(residues, values), key=lambda tv: len(tv[0])):
        row = dict(terms)
        if v:
            row[top] = v
        gfp.insert_row(echelon, row, p)
    exponent = None if top in echelon else len(echelon)
    return MeasureResult(p, exponent, 0, True, "exact")


# -- box (finite relaxation) path --------------------------------------------


def _box_measure(f: LaurentPoly, cyl: CylinderSpec) -> MeasureResult:
    p = f.p
    smin, smax = f.min_exponents(), f.max_exponents()
    diameter = max(b - a for a, b in zip(smin, smax))
    m = max(1, diameter)
    wlo = [min(w[i] for w in cyl.window) for i in range(f.dim)]
    whi = [max(w[i] for w in cyl.window) for i in range(f.dim)]
    window = set(cyl.window)
    echelon: dict = {}
    box = tuple((lo - m, hi + m) for lo, hi in zip(wlo, whi))
    annihilator = _insert_relations(f, window, box, echelon)
    previous = None
    stable = 0
    while True:
        dim_proj = len(cyl.window) - len(annihilator)
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
        box = tuple((lo - 1, hi + 1) for lo, hi in box)
        try:
            annihilator = _insert_relations(f, window, box, echelon, grown=True)
        except BudgetExceededError:
            break
        m += 1
    values = dict(zip(cyl.window, cyl.values))
    consistent = all(
        sum(v * values[c] for (_, c), v in row.items()) % p == 0 for row in annihilator
    )
    return MeasureResult(p, dim_proj if consistent else None, m, stabilized, "box")


# -- public operations --------------------------------------------------------


def cylinder_measure(
    f: LaurentPoly,
    cyl: CylinderSpec,
    method: str = "exact",
) -> MeasureResult:
    """Haar measure of the event {x restricted to the window = values}."""
    check_modulus(f)
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
        for w, v in zip(cyl.window, cyl.values):
            w = tuple(map(add, w, shift))
            if merged.setdefault(w, v) != v:
                return None
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
    check_modulus(f)
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
    shape: Sequence[Sequence[int]],
    cylinders: Sequence[CylinderSpec],
    k_range: Iterable[int],
    method: str = "exact",
) -> list[ExperimentRow]:
    """Joint vs product measures along dilations of a shape.

    Each row reports the joint measure of the cylinders shifted by
    k * shape, the product of the single measures, and the gap between
    them.  Repeated shape points never move apart, and k = 0 dilates two
    or more points to one, so both are refused.
    """
    if len(set(map(tuple, shape))) != len(shape):
        raise ValueError("shape has repeated points")
    if len(shape) != len(cylinders):
        raise ValueError("one cylinder per shape point is required")
    k_range = list(k_range)
    if len(shape) > 1 and 0 in k_range:
        raise ValueError("k = 0 dilates every shape point to the origin")
    rows: list[ExperimentRow] = []
    product = math.prod((cylinder_measure(f, cyl, method=method).value for cyl in cylinders),
                        start=Fraction(1))
    for k in k_range:
        shifts = [tuple(k * x for x in v) for v in shape]
        try:
            joint = joint_measure(f, list(zip(shifts, cylinders)), method=method).value
        except BudgetExceededError:
            rows.append(ExperimentRow(k, False))
            continue
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

    check_modulus(f)
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
