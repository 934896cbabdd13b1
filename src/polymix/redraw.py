"""Parallel redrawings of a polytope 1-skeleton and the tightness test.

A redrawing assigns new positions q_i to the skeleton's vertices so that
every edge stays parallel to the corresponding original edge.  These
constraints are linear: with e the original edge direction and x the
redrawn one, every 2x2 minor e_i x_j - e_j x_i vanishes.  The d - 1
minors through the coordinate i of largest |e_i| already span them, so
each edge contributes rank d-1 in any dimension d.  The kernel always
contains the translations and the global scaling, so its dimension is
at least d+1; the skeleton is *tight* exactly when nothing else
survives, i.e. when the dimension equals d+1 and every redrawing is a
homothety.

Two arithmetic paths: a fraction-free integer rank (``lattice.int_rank``)
whenever the positions are integers/Fractions (the lattice-polytope
pipeline), and an SVD rank with a relative tolerance for irrational
catalog solids such as the icosahedron.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational
from typing import Sequence

from .errors import InternalInconsistencyError
from .lattice import int_rank
from .polytope import LatticePolytope

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Skeleton:
    dim: int
    positions: tuple[tuple, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("repeated vertex positions")
        for p in self.positions:
            if len(p) != self.dim:
                raise ValueError(f"position {p} does not have dimension {self.dim}")
        n = len(self.positions)
        for s, t in self.edges:
            if s == t:
                raise ValueError(f"edge ({s},{t}) has equal endpoints")
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"edge ({s},{t}) references a missing vertex")
            if all(a == b for a, b in zip(self.positions[s], self.positions[t])):
                raise ValueError(f"edge ({s},{t}) has zero length")


def make_skeleton(dim: int, positions: Sequence[Sequence], edges: Sequence[Sequence[int]]) -> Skeleton:
    return Skeleton(
        dim,
        tuple(tuple(p) for p in positions),
        tuple((int(s), int(t)) for s, t in edges),
    )


def skeleton_from_polytope(poly: LatticePolytope) -> Skeleton:
    """1-skeleton of a lattice polytope in its face-computation coordinates.

    Those coordinates have the affine dimension, which is what the
    tightness verdict of a possibly degenerate Newton polytope needs;
    tightness is invariant under the unimodular change of coordinates.
    """
    if not poly.edges:
        raise ValueError("polytope has no edges; skeleton undefined")
    positions = poly.face_vertices
    return make_skeleton(len(positions[0]), positions, poly.edges)


@dataclass(frozen=True)
class RedrawSpace:
    dimension: int
    tight: bool
    arithmetic: str           # "exact" or "approximate"
    constraint_rank: int
    tolerance: float | None = None


def _is_exact(positions) -> bool:
    return all(isinstance(x, (int, Rational)) for p in positions for x in p)


def constraint_rows(skeleton: Skeleton) -> list[list]:
    """Rows of the parallelism system over the d*V position unknowns.

    Unknown layout: vertex v occupies columns v*d .. v*d+d-1.  Each edge
    s -> t with direction e gives d - 1 rows: with i the first coordinate
    of largest |e_i|, one minor e_i (q_t - q_s)_j - e_j (q_t - q_s)_i per
    j != i.  As e_i != 0, these vanish exactly when x = q_t - q_s is a
    multiple of e, so they span the same row space as all C(d, 2) minors.
    For d = 1 every redrawing is parallel, so there are no rows.
    """
    d = skeleton.dim
    n = len(skeleton.positions)
    rows: list[list] = []
    for s, t in skeleton.edges:
        e = [a - b for a, b in zip(skeleton.positions[t], skeleton.positions[s])]
        i = max(range(d), key=lambda c: abs(e[c]))
        for j in range(d):
            if j == i:
                continue
            row = [0] * (n * d)
            row[t * d + j] += e[i]
            row[t * d + i] -= e[j]
            row[s * d + j] -= e[i]
            row[s * d + i] += e[j]
            rows.append(row)
    return rows


def _rank_approx(rows: list[list], tolerance: float) -> int:
    if not rows:
        return 0
    import numpy as np  # here, so that exact skeletons never load numpy

    mat = np.array([[float(x) for x in row] for row in rows], dtype=float)
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tolerance * sv[0]))


def redraw_space(skeleton: Skeleton, tolerance: float = DEFAULT_TOLERANCE) -> RedrawSpace:
    """Dimension of the space of parallel redrawings and the tightness verdict."""
    if not skeleton.edges:
        raise ValueError("skeleton has no edges")
    d = skeleton.dim
    rows = constraint_rows(skeleton)
    exact = _is_exact(skeleton.positions)
    if exact:
        rank = int_rank(rows)
        arithmetic = "exact"
        tol = None
    else:
        rank = _rank_approx(rows, tolerance)
        arithmetic = "approximate"
        tol = tolerance
    dimension = len(skeleton.positions) * d - rank
    if dimension < d + 1:
        raise InternalInconsistencyError(
            f"redrawing space of dimension {dimension} < {d + 1}: "
            "translations and scaling must always survive"
        )
    return RedrawSpace(dimension, dimension == d + 1, arithmetic, rank, tol)


def is_tight(skeleton: Skeleton, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """True when every parallel redrawing is a homothety."""
    return redraw_space(skeleton, tolerance).tight
