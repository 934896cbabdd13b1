"""Exact Haar measures of cylinder events for the shift space of f.

The configurations x: Z^d -> F_p satisfying sum_n c_{f,n} x(m+n) = 0 for
every m form a compact group X; cylinder events fix the values on a
finite window W.  Their Haar measure is always 0 or p^{-m}.

The two computation paths are cross-checked:

* ``exact``  -- the projection of X onto F_p^W has as annihilator the
  window polynomials sum lambda_w u^w lying in the ideal <f>.  When W
  fills its bounding box, Ostrowski's theorem N(f h) = N(f) + N(h) puts
  m + S(f) inside W for every m in supp(h) of such a polynomial f h, so
  the annihilator is spanned by the T translates u^m f that fit in W.
  Their lexicographically least cells differ, so they are independent:
  the projected dimension is |W| - T, and the values are consistent
  exactly when every translate's relation vanishes on them.  That costs
  T |S(f)| steps and no residue.  Any other window takes the rank of the
  window monomials' residues, a few small quotient-ring reductions, and
  the values are consistent unless the rank grows when they are put
  beside the residues.  Total and exact for any window.
* ``box``    -- the literal finite-window relaxation: the relations of f
  on a box around W, keyed so that window cells come last and inserted
  into one echelon, whose rows led by a window cell span rowspace ∩ F^W,
  the annihilator of the box solutions' projection onto the window.  It
  gives the projected dimension and the consistency test.  Every box B
  holding W gives the same annihilator, <f> ∩ F^W: each relation u^n f
  lies in <f>, and a window polynomial f h in <f> has, by Ostrowski,
  N(f) + N(h) = N(f h) inside conv(W), so every translate u^n f with n
  in supp(h) fits in B.  So the window's own bounding box is exact, and
  it is the one box eliminated.

The residue rank and the box path insert sparse rows into one F_p
echelon, ``gfp.insert_row``.  ``brute_force_measure`` enumerates every
configuration on a small box and serves as an independent oracle for
both paths.  ``solution_space`` solves a box densely with
``gfp.kernel_basis``; it and the brute force import numpy inside, as
does ``box_projected_dimension`` for the array it returns, so
``measure`` and ``experiment`` never load it.
"""

from __future__ import annotations

import itertools
import math
import reprlib
from collections import namedtuple
from fractions import Fraction
from operator import add, itemgetter, sub
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from . import budgets, gfp
from .errors import BudgetExceededError, InternalInconsistencyError
from .laurent import ExponentVec, LaurentPoly, check_vectors
from .quotient import check_modulus, window_residues

if TYPE_CHECKING:
    import numpy as np

Box = Sequence[tuple[int, int]]


class CylinderSpec(namedtuple("CylinderSpec", "window values")):
    """A finite window with a fixed F_p value at each of its points.

    The window is a non-empty tuple of distinct int vectors of one
    length, in sorted order, and the values are ints, one per point.
    """

    __slots__ = ()

    def __new__(cls, window: Sequence[Sequence[int]], values: Sequence[int]):
        if not window:
            raise ValueError("cylinder window must be non-empty")
        check_vectors(window, None, "window point")
        if len(window) != len(values):
            raise ValueError("cylinder window and values differ in length")
        window, values = map(tuple, zip(*sorted(zip(map(tuple, window), values), key=itemgetter(0))))
        if len(set(window)) != len(window):
            raise ValueError("cylinder window has repeated points")
        for w, v in zip(window, values):
            if type(v) is not int:
                raise ValueError(f"window point {w}: value {reprlib.repr(v)} is not an integer")
        return super().__new__(cls, window, values)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks as well

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Sequence[int], int]]) -> "CylinderSpec":
        pairs = list(pairs)
        return cls([w for w, _ in pairs], [v for _, v in pairs])


class MeasureResult(NamedTuple):
    """Exact measure: zero when ``exponent`` is None, else p^-exponent."""

    p: int
    exponent: int | None
    method: str

    @property
    def value(self) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        return Fraction(1, self.p ** self.exponent)


class SolutionSpace(NamedTuple):
    box: tuple[tuple[int, int], ...]
    cells: list[ExponentVec]
    basis: np.ndarray  # one solution per row, entries in {0..p-1}
    dimension: int


def _check_box(box: Box, dim: int) -> None:
    if len(box) != dim:
        raise ValueError(f"box has {len(box)} axes, polynomial has {dim}")
    check_vectors(box, 2, "box axis range")
    for lo, hi in box:
        if lo > hi:
            raise ValueError(f"empty axis range ({lo}, {hi})")


def _box_cells(box: Box, dim: int) -> list[ExponentVec]:
    _check_box(box, dim)
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))


def _relations(f: LaurentPoly, box: Box) -> Iterator[dict[ExponentVec, int]]:
    """The relations of f contained in the box, as {cell: coefficient}.

    One relation per translate m with m + S(f) inside the box, in
    lexicographic order of m.
    """
    terms = list(f.terms.items())
    ranges = [range(lo - a, hi - b + 1)
              for (lo, hi), a, b in zip(box, f.min_exponents(), f.max_exponents())]
    for m in itertools.product(*ranges):
        yield {tuple(map(add, m, e)): c for e, c in terms}


def _volume(box: Box) -> int:
    return math.prod(hi - lo + 1 for lo, hi in box)


def _window_box(window: Sequence[ExponentVec]) -> tuple[tuple[int, int], ...]:
    """The window's bounding box."""
    return tuple((min(axis), max(axis)) for axis in zip(*window))


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
    cells = _box_cells(box, f.dim)
    budgets.check("cells", len(cells))
    basis = gfp.kernel_basis(_constraint_matrix(f, box), f.p)
    return SolutionSpace(tuple(map(tuple, box)), cells, basis, basis.shape[0])


def _insert_relations(f: LaurentPoly, window: set, box: Box) -> list[dict]:
    """Eliminate the box's relations keyed (cell in window, cell); return the window rows.

    Window cells come last in that order, so a kept row led by a window
    cell lies in F^W, and those rows span rowspace ∩ F^W: the functionals
    on the window vanishing on every box solution.
    """
    echelon: dict = {}
    for relation in _relations(f, box):
        gfp.insert_row(echelon, {(c in window, c): v for c, v in relation.items()}, f.p)
    return [row for lead, row in echelon.items() if lead[0]]


def box_projected_dimension(
    f: LaurentPoly, window: Sequence[ExponentVec], box: Box
) -> tuple[int, np.ndarray]:
    """Projected dimension of the box solution space on the window.

    Also returns the annihilator of the projection, one functional on
    the window per row: values are the restriction of a box solution iff
    every row sums to 0 against them.  Every box holding the window gives
    the same answer: the annihilator is <f> ∩ F^W (see the module notes).
    """
    import numpy as np

    check_modulus(f)
    gfp.check_modulus(f.p)
    _check_box(box, f.dim)
    check_vectors(window, f.dim, "window point")
    window = [tuple(w) for w in window]
    for w in window:
        if not all(lo <= a <= hi for a, (lo, hi) in zip(w, box)):
            raise ValueError(f"window point {w} outside the box")
    if len(set(window)) != len(window):
        raise ValueError("window has repeated points")
    budgets.check("cells", _volume(box))
    rows = _insert_relations(f, set(window), box)
    index = {w: i for i, w in enumerate(window)}
    annihilator = np.zeros((len(rows), len(window)), dtype=np.int64)
    for r, row in enumerate(rows):
        for (_, c), v in row.items():
            annihilator[r, index[c]] = v
    return len(window) - len(rows), annihilator


# -- exact (duality) path ----------------------------------------------------


def _exact_measure(f: LaurentPoly, cyl: CylinderSpec) -> MeasureResult:
    """Exponent of the window projection of X, or None when the values miss it.

    A window that fills its bounding box walks the translates of f inside
    it: by Ostrowski's theorem they span the window polynomials in <f>,
    the annihilator of the projection, and they are independent, so the
    exponent is |W| minus their number unless one of their relations is
    nonzero on the values.  No modulus is prepared and no budget charged.

    Any other window ranks the window monomials' residues: lambda
    annihilates the window projection iff sum lambda_w u^w lies in <f>,
    so the projected dimension is the rank of the residues.  Each
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
    box = _window_box(cyl.window)
    if len(cyl.window) == _volume(box):
        values = dict(zip(cyl.window, cyl.values))
        translates = 0
        for relation in _relations(f, box):
            if sum(c * values[w] for w, c in relation.items()) % p:
                return MeasureResult(p, None, "exact")
            translates += 1
        return MeasureResult(p, len(cyl.window) - translates, "exact")
    shift = [lo for lo, _ in box]
    residues, top = window_residues([tuple(map(sub, w, shift)) for w in cyl.window], f)
    echelon: dict = {}
    values = (v % p for v in cyl.values)
    for terms, v in sorted(zip(residues, values), key=lambda tv: len(tv[0])):
        row = dict(terms)
        if v:
            row[top] = v
        gfp.insert_row(echelon, row, p)
    exponent = None if top in echelon else len(echelon)
    return MeasureResult(p, exponent, "exact")


# -- box (finite relaxation) path --------------------------------------------


def _box_measure(f: LaurentPoly, cyl: CylinderSpec) -> MeasureResult:
    """Projected dimension of the relations of the window's bounding box B.

    Each relation u^n f inside B lies in <f>, so rowspace(B) ∩ F^W ⊆
    <f> ∩ F^W.  Conversely, take f h in <f> supported on W: Ostrowski
    gives N(f) + N(h) = N(f h) ⊆ conv(W) ⊆ B, so n + N(f) ⊆ B for every
    n in supp(h), and f h = Σ h_n u^n f lies in rowspace(B).  So the rows
    of B led by a window cell span <f> ∩ F^W, the annihilator of X's
    projection, and no wider box is needed.
    """
    box = _window_box(cyl.window)
    budgets.check("cells", _volume(box))
    annihilator = _insert_relations(f, set(cyl.window), box)
    values = dict(zip(cyl.window, cyl.values))
    consistent = all(
        sum(v * values[c] for (_, c), v in row.items()) % f.p == 0 for row in annihilator
    )
    exponent = len(cyl.window) - len(annihilator) if consistent else None
    return MeasureResult(f.p, exponent, "box")


# -- public operations --------------------------------------------------------


def cylinder_measure(
    f: LaurentPoly,
    cyl: CylinderSpec,
    method: str = "exact",
) -> MeasureResult:
    """Haar measure of the event {x restricted to the window = values}."""
    check_modulus(f)
    check_vectors(cyl.window[:1], f.dim, "window point")
    if method == "exact":
        return _exact_measure(f, cyl)
    if method == "box":
        return _box_measure(f, cyl)
    raise ValueError(f"unknown method {method!r}")


def merge_events(events: Sequence[tuple[Sequence[int], CylinderSpec]]) -> CylinderSpec | None:
    """Union of shifted cylinders; None signals a conflicting overlap."""
    merged: dict[ExponentVec, int] = {}
    for shift, cyl in events:
        check_vectors((shift,), len(cyl.window[0]), "shift")
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
    check_vectors([shift for shift, _ in events], f.dim, "shift")
    merged = merge_events(events)
    if merged is None:
        return MeasureResult(f.p, None, "merge")
    return cylinder_measure(f, merged, method=method)


class ExperimentRow(NamedTuple):
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
    k * shape, the product of the single measures (one per distinct
    cylinder), and the gap between them.  Repeated shape points never
    move apart, and k = 0 dilates two or more points to one, so both are
    refused.
    """
    check_vectors(shape, f.dim, "shape point")
    if len(set(map(tuple, shape))) != len(shape):
        raise ValueError("shape has repeated points")
    if len(shape) != len(cylinders):
        raise ValueError("one cylinder per shape point is required")
    k_range = list(k_range)
    if len(shape) > 1 and 0 in k_range:
        raise ValueError("k = 0 dilates every shape point to the origin")
    rows: list[ExperimentRow] = []
    single = {cyl: cylinder_measure(f, cyl, method=method).value
              for cyl in dict.fromkeys(cylinders)}
    product = math.prod(map(single.get, cylinders), start=Fraction(1))
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
    cells = _box_cells(box, f.dim)
    n_cells = len(cells)
    n_configs = p ** n_cells
    budgets.check("enumeration", n_configs)
    index = {c: i for i, c in enumerate(cells)}
    for w in cyl.window:
        if tuple(w) not in index:
            raise ValueError(f"window point {w} outside the box")
    matrix = _constraint_matrix(f, box)
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
        return MeasureResult(f.p, None, "brute-force")
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
    return MeasureResult(f.p, exponent, "brute-force")
