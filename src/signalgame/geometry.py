"""Piecewise-linear geometry over probability simplices.

Beliefs live on the standard simplex in R^n.  Value functions are
piecewise linear and carried by a triangulation of the simplex with one
value per vertex.  This module provides that toolkit plus the concave
envelope step used by the backward induction: candidate kink points are
read off an arrangement of affine functionals, the candidates are
lifted by the objective and run through an upper convex hull, and the
upper faces are triangulated by the pulling rule (lexicographic vertex
order) so the output is reproducible bit for bit.

A set of m affine functionals x -> w . x + b on R^n is one (m, n+1)
float array with rows [w_0 ... w_{n-1}, b].
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

# Tolerance table: every numeric tolerance of the package, one per role.
# Point coincidence, zero mass, and simplex rows (beliefs, vertices, atoms,
# experiment and kernel rows; per coordinate, in as_simplex_points).
EPS_GEOM = 1e-12
# Relative degeneracy: non-transversal subsets, collinear chain points, flat cells.
EPS_DEGENERATE = 1e-12
# Receiver indifference: slack for argmax tie sets.
EPS_TIE = 1e-9
# Equilibrium identities: value gap, deviation gains, Bellman residuals, backups.
EPS_EQUILIBRIUM = 1e-9
# Membership and measure slack: points in cells, weights, means.
EPS_MEMBER = 1e-9
# Functional and facet equality: dedup, hull facet clusters, affine fits.
EPS_FUNCTIONAL = 1e-9
# Oracle checks in validate_triangulation: boundary facets, degenerate cells, volume sum.
EPS_ORACLE = 1e-9
# Upper-hull normal: a lifted hull facet faces up above this component.
EPS_HULL_NORMAL = 1e-10
# Tiling audit: relative slack on the upper-hull cells' total volume.
EPS_TILING = 1e-7

__all__ = [
    "EPS_GEOM",
    "EPS_TIE",
    "GeometryDomainError",
    "CandidateBudgetExceeded",
    "SupportMeasure",
    "Triangulation",
    "VertexInterpolant",
    "CellArrangement",
    "as_simplex_point",
    "as_simplex_points",
    "simplex_grid",
    "validate_triangulation",
    "barycentric",
    "barycentric_indices",
    "dedup_functionals",
    "pullback_affine",
    "candidate_vertices",
    "argcav",
]


class GeometryDomainError(ValueError):
    """Raised when an input is outside the geometric domain of an operation."""


# Most (n-1)-subsets of the deduped pool candidate_vertices may count.
# The largest stage of the tests and benchmarks counts 752,151; after
# dropping the rows whose zero set misses the simplex it enumerates
# 482,653, and after dropping the subsets whose vertex provably misses
# the simplex it solves 130,230.  Subsets are enumerated in blocks of
# _CANDIDATE_BLOCK, so enumeration memory stays near one block's systems
# (12.4 MiB traced on that stage) whatever the count.  The objective pass
# over that stage's 128,818 candidates then traces 15.0 MiB: 88 bytes per
# candidate (the action values, next beliefs and continuation values of
# 3 states and 3 actions) plus one _EVALUATE_BLOCK.  The cap bounds time
# on the full pool, because pruning may keep every subset: 2,000,000
# subsets of rows that all cross the simplex take about 1.5 s at 3 and 4
# states on a 2-vCPU Xeon virtual machine.
CANDIDATE_CAP = 2_000_000
# Subsets candidate_vertices enumerates and filters per batch of linear systems.
_CANDIDATE_BLOCK = 1 << 15
# Floats of scratch Triangulation.locate_many fills per block of points,
# 2 * n * C * rows: 2 MiB whatever the cell count.
_LOCATE_BLOCK = 1 << 18
# Rows VertexInterpolant.evaluate_many locates and interpolates per block on
# 3+ states, so the stage objective's pass over every candidate holds a few
# (rows, n) arrays at a time (4 MiB at 3 states) besides its (P, n) input
# and output.  On the two largest such passes of the simplex-dense
# benchmark (128,818 and 36,062 candidates; a 2-vCPU Xeon virtual machine,
# NumPy 2.4, medians of 15 interleaved rounds) time is flat from 2^14 to
# 2^16 rows, 108-110 ms, against 108 ms unblocked; 2^12 rows take 120 ms.
_EVALUATE_BLOCK = 1 << 15
# Rows from which one pass per column beats a NumPy reduction over the
# last axis (_column_passes), and from which _lex_order's split sort beats
# np.lexsort; below them the NumPy call's fixed cost is smaller.  On a
# 2-vCPU Xeon virtual machine (NumPy 2.4) the passes break even at 128-256
# rows for _renormalize and 3-action receiver_best and at 256-512 for
# 6 actions, and the split sort, whose first-column argsort uses NumPy's
# default (SIMD) kind, at 384-512 rows of 3 and 4 columns.
_COLUMN_PASS_ROWS = 256
_LEX_SPLIT_ROWS = 512


class CandidateBudgetExceeded(RuntimeError):
    """Candidate enumeration would solve more linear systems than CANDIDATE_CAP."""

    def __init__(self, functionals: int, n_states: int, subsets: int, cap: int, stage: int | None = None):
        self.functionals = functionals
        self.n_states = n_states
        self.subsets = subsets
        self.cap = cap
        self.stage = stage
        where = "" if stage is None else f"stage {stage}: "
        super().__init__(
            f"{where}candidate enumeration over {functionals} functionals in {n_states} states "
            f"needs {subsets} subsets, over the cap of {cap}"
        )


def _column_passes(rows: np.ndarray) -> bool:
    """Whether to reduce rows (last axis) by one elementwise pass per column.

    NumPy reduces a row of fewer than 8 entries one entry at a time, so
    the passes give its bits; longer rows are summed pairwise and their
    max may pick the other signed zero.  Below _COLUMN_PASS_ROWS rows the
    reduction itself is faster.
    """
    width = rows.shape[-1]
    return 0 < width < 8 and rows.size >= _COLUMN_PASS_ROWS * width


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """rows.sum(axis=-1) bit for bit, one pass per column where _column_passes
    says so: 0.0 plus the entries in order (0.0 + x is x, except that it
    turns -0.0 into 0.0, as NumPy's sum does)."""
    if not _column_passes(rows):
        return rows.sum(axis=-1)
    width = rows.shape[-1]
    total = rows[..., 0] + 0.0
    for j in range(1, width):
        total += rows[..., j]
    return total


def _renormalize(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """rows clipped at zero, then divided by their sums along the last axis,
    in a new array or in out (which may be rows itself)."""
    rows = np.clip(rows, 0.0, None, out=out)
    rows /= _row_sums(rows)[..., None]
    return rows


def _simplex_row_faults(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """as_simplex_points' tests of every row (last axis) of a float array.

    Returns (bad, finite, lowest, totals), each over the leading axes:
    bad marks the rows that fail, and the other three say why.
    """
    finite = np.isfinite(x).all(axis=-1)
    with np.errstate(invalid="ignore"):
        lowest = x.min(axis=-1)
        totals = x.sum(axis=-1)
    bad = ~finite | (lowest < -EPS_GEOM) | (np.abs(totals - 1.0) > EPS_GEOM * x.shape[-1])
    return bad, finite, lowest, totals


def as_simplex_points(rows) -> np.ndarray:
    """Validate each row (last axis) of an array as a point of the standard simplex.

    Every row must be finite, nonnegative within EPS_GEOM, and sum to
    one within EPS_GEOM per coordinate (EPS_GEOM times the row length).
    A GeometryDomainError names the first bad row, by its index over
    the leading axes.  The returned rows are clipped at zero and
    renormalized, so downstream arithmetic sees exact points.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim < 2 or x.size == 0:
        raise GeometryDomainError(f"expected a nonempty array of point rows, got shape {x.shape}")
    bad, finite, lowest, totals = _simplex_row_faults(x)
    if bad.any():
        at = np.unravel_index(int(bad.argmax()), bad.shape)
        if not finite[at]:
            problem = "coordinates must be finite"
        elif lowest[at] < -EPS_GEOM:
            problem = f"negative coordinate {lowest[at]:.3e} below tolerance -{EPS_GEOM:.1e}"
        else:
            problem = f"coordinates sum to {float(totals[at])!r}, expected 1"
        row = int(at[0]) if len(at) == 1 else tuple(int(i) for i in at)
        raise GeometryDomainError(f"row {row}: {problem}")
    return _renormalize(x)


def as_simplex_point(coords) -> np.ndarray:
    """as_simplex_points of one point, given as a nonempty 1-d coordinate vector."""
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise GeometryDomainError(f"expected a 1-d coordinate vector, got shape {x.shape}")
    return as_simplex_points(x[None, :])[0]


def simplex_grid(n_states: int, resolution: int) -> np.ndarray:
    """All simplex points whose coordinates are multiples of 1/resolution.

    Returns an array of shape (C(resolution+n-1, n-1), n_states) in
    lexicographic order of the first coordinates.
    """
    if n_states < 1 or resolution < 1:
        raise GeometryDomainError("need n_states >= 1 and resolution >= 1")
    if n_states == 1:
        return np.ones((1, 1))
    rows = []
    for cuts in itertools.combinations(range(resolution + n_states - 1), n_states - 1):
        edges = (-1,) + cuts + (resolution + n_states - 1,)
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(n_states)])
    return np.asarray(rows, dtype=float) / resolution


def _lex_order(points: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically (first coordinate major).

    The permutation of np.lexsort(points.T[::-1]): a sort on the first
    column (NumPy's default kind, which may dispatch to a SIMD kernel and
    need not be stable), then np.lexsort inside each run of tied first
    coordinates on the other columns and, last, the original index, so
    each run comes out as np.lexsort orders it whichever kernel sorted.
    NaNs sort last and tie with each other, as in np.lexsort.
    """
    if len(points) < _LEX_SPLIT_ROWS or points.shape[1] == 1:
        return np.lexsort(points.T[::-1])
    order = np.argsort(points[:, 0])
    first = points[order, 0]
    tied = first[1:] == first[:-1]
    if np.isnan(first[-1]):
        tied[np.isnan(first).argmax() :] = True
    if not tied.any():
        return order
    with_prev = np.concatenate([[False], tied])
    at = np.flatnonzero(with_prev | np.append(tied, False))
    run = np.cumsum(~with_prev[at])
    index = order[at]
    rows = points[index]
    order[at] = index[np.lexsort((index, *rows[:, :0:-1].T, run))]
    return order


def _dedup_sorted(points: np.ndarray) -> np.ndarray:
    """Indices of rows to keep, merging rows within EPS_GEOM in the sup norm.

    Points must be lexicographically sorted.  Row i is kept unless an
    earlier kept row j has x0_j >= x0_i - EPS_GEOM and max|p_j - p_i| <=
    EPS_GEOM, so the kept representative of each cluster is the
    lex-smallest one.  The relation is not transitive: of a chain
    a~b~c with a and c apart, a and c are kept.  Exact duplicates are
    adjacent and collapse to the first of their run.  A k-d tree finds
    the near pairs among the rows whose first coordinate is within
    EPS_GEOM of a lex neighbour's, and only those pairs are walked.
    """
    if len(points) < 2:
        return np.arange(len(points))
    first = np.flatnonzero(np.concatenate([[True], (points[1:] != points[:-1]).any(axis=1)]))
    rows = points[first]
    # If rows j < i are within EPS_GEOM, so are the first coordinates of
    # every lex-adjacent pair from j to i (the rows are sorted, and
    # rounding is monotone): only rows with such a neighbour can merge.
    close = np.diff(rows[:, 0]) <= EPS_GEOM
    if not close.any():
        return first
    near_first = np.flatnonzero(np.append(close, False) | np.insert(close, 0, False))
    # The tree only narrows the search; the predicate itself is applied
    # below with the same float arithmetic as a row-by-row scan.
    from scipy.spatial import cKDTree

    tree = cKDTree(rows[near_first], balanced_tree=False)
    earlier, later = near_first[tree.query_pairs(2.0 * EPS_GEOM, p=np.inf, output_type="ndarray").T]
    near = (np.max(np.abs(rows[earlier] - rows[later]), axis=1) <= EPS_GEOM) & (
        rows[earlier, 0] >= rows[later, 0] - EPS_GEOM
    )
    earlier, later = earlier[near], later[near]
    order = np.lexsort((earlier, later))
    keep = np.ones(len(rows), dtype=bool)
    for j, i in zip(earlier[order].tolist(), later[order].tolist()):
        if keep[j]:
            keep[i] = False
    return first[keep]


@dataclass(frozen=True, eq=False)
class SupportMeasure:
    """Finitely supported probability measure on the simplex."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise GeometryDomainError("support points must form a nonempty 2-d array")
        pts = as_simplex_points(pts)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (pts.shape[0],) or not np.all(np.isfinite(w)):
            raise GeometryDomainError("weights shape does not match the support")
        if w.min() <= 0.0:
            raise GeometryDomainError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > EPS_MEMBER:
            raise GeometryDomainError(f"weights sum to {w.sum()!r}, expected 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w / w.sum())

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def n_states(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return self.weights @ self.points


def _point_rows(points, n_states: int) -> np.ndarray:
    """points as a float (P, n_states) array, one point per row; a single
    point is one row.  Any other shape raises GeometryDomainError."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != n_states:
        raise GeometryDomainError(f"points of shape {pts.shape} do not have {n_states} coordinates, one per state")
    return pts


def _flat_cells(corners: np.ndarray) -> np.ndarray:
    """Mask of the flat cells of a (C, n, n) stack of vertex rows: |det| <= EPS_DEGENERATE
    * prod_j |v_j - v_0|, relative to the edges so that a 1e-9-sized corner cell is kept."""
    edges = np.linalg.norm(corners[:, 1:] - corners[:, :1], axis=2)
    return np.abs(np.linalg.det(corners)) <= EPS_DEGENERATE * edges.prod(axis=1)


@dataclass(frozen=True, eq=False)
class Triangulation:
    """Vertices on the simplex plus one (C, n) np.intp array of cell vertex labels.

    Validated once at construction: each cell has n_states distinct
    labels of existing vertices and is not flat (_flat_cells), so it is
    invertible.  A ragged or non-integer cell list raises GeometryDomainError.
    """

    vertices: np.ndarray
    simplices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] == 0:
            raise GeometryDomainError("vertices must form a nonempty 2-d array")
        verts = as_simplex_points(verts)
        n = verts.shape[1]
        try:
            cells = np.asarray(self.simplices)
        except ValueError:
            raise GeometryDomainError("cells must form a (C, n) array, got a ragged list") from None
        if cells.size == 0:
            cells = cells.reshape(0, n).astype(np.intp)
        if cells.dtype.kind not in "iu":
            raise GeometryDomainError(f"cell labels must be integers, got dtype {cells.dtype}")
        if cells.ndim != 2 or cells.shape[1] != n:
            raise GeometryDomainError(f"cells must be full-dimensional, {n} labels each; got shape {cells.shape}")
        cells = cells.astype(np.intp)
        ordered = np.sort(cells, axis=1)
        for bad, problem in (
            ((ordered[:, 1:] == ordered[:, :-1]).any(axis=1), "repeats a vertex"),
            ((ordered[:, 0] < 0) | (ordered[:, -1] >= len(verts)), "references a missing vertex"),
        ):
            if bad.any():
                raise GeometryDomainError(f"cell {tuple(cells[bad.argmax()].tolist())} {problem}")
        flat = _flat_cells(verts[cells])
        if flat.any():
            raise GeometryDomainError(f"cell {tuple(cells[flat.argmax()].tolist())} is affinely degenerate")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "simplices", cells)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_states(self) -> int:
        return self.vertices.shape[1]

    @property
    def dim(self) -> int:
        return self.n_states - 1

    @cached_property
    def _cell_inverses(self) -> np.ndarray:
        # Column j of each cell matrix is vertex j; barycentric weights of
        # omega in the cell are inverse @ omega (columns sum to one, so the
        # weights automatically sum to one on the simplex).  The inverses
        # keep the matrices' transposed strides: cell_pieces' matmul rounds
        # by the layout, and the solve artifacts' bits rest on this one.
        mats = self.vertices[self.simplices].transpose(0, 2, 1)
        invs = np.empty_like(mats)
        invs[...] = np.linalg.inv(mats)
        return invs

    @cached_property
    def _inverse_columns(self) -> np.ndarray:
        """locate_many's layout of the inverses, (n, n, C, 1): [j, i] holds
        entry (i, j) of every cell."""
        return np.ascontiguousarray(self._cell_inverses.transpose(2, 1, 0))[..., None]

    @cached_property
    def boundary_functionals(self) -> np.ndarray:
        """Rows vanishing on the cell facets (kink candidates), deduped.

        Row j of a cell inverse is the barycentric coordinate of its
        vertex j: zero exactly on the opposite facet's hyperplane.
        """
        invs = self._cell_inverses
        raw = invs.reshape(-1, invs.shape[2])
        return dedup_functionals(np.column_stack([raw, np.zeros(len(raw))]))

    @cached_property
    def _chain_order(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The sorted first coordinates and their vertex order, if the cells chain
        the vertices across the segment, else None.

        They chain when they are the V - 1 consecutive pairs in
        first-coordinate order and the end vertices lie within EPS_GEOM of
        0 and 1.  VertexInterpolant._interp_xy reads it on 2 states.
        """
        xs = self.vertices[:, 0]
        order = np.argsort(xs)
        low, high = np.sort(np.argsort(order)[self.simplices], axis=1).T
        chained = (
            np.array_equal(np.sort(low), np.arange(len(xs) - 1))
            and np.array_equal(high, low + 1)
            and xs[order[0]] <= EPS_GEOM
            and xs[order[-1]] >= 1.0 - EPS_GEOM
        )
        if not chained:
            return None
        sorted_xs = xs[order]
        for a in (sorted_xs, order):
            a.setflags(write=False)
        return sorted_xs, order

    @cached_property
    def _pulled_boundaries(self) -> dict[tuple, np.ndarray]:
        """pullback_affine's deduped pulled boundary per kernel, keyed by the
        kernel's shape, strides and bytes: the pull's matmul rounds by the
        layout, so a hit returns exactly what the uncached call would."""
        return {}

    def locate_many(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and barycentric weights for each query point.

        A point goes to the first cell in listing order whose weights are
        all >= -EPS_MEMBER, so a point on shared faces resolves to the
        first feasible cell.  Points go in blocks, and each block gets its
        weights in every cell at once: weight i of a point x in cell c is
        inv_c[i, 0] x_0 + inv_c[i, 1] x_1 + ..., one elementwise product
        and sum at a time in index order, so its bits do not depend on the
        kernel NumPy picks.  A block fills about _LOCATE_BLOCK floats of
        one scratch array, so memory stays near one (P, n) array.

        A point that no cell holds by weights goes to the cell whose
        smallest signed facet distance (weight over the length of its
        gradient along the simplex, so a sliver gets no stricter bound
        than a fat cell) is largest, if that is >= -EPS_MEMBER.  Raises
        GeometryDomainError naming the first point placed neither way.
        """
        pts = _point_rows(points, self.n_states)
        cols = self._inverse_columns
        n, _, n_cells, _ = cols.shape
        if n_cells == 0 and len(pts):
            raise GeometryDomainError(f"point {pts[0]} is not covered by any cell")
        coords = np.ascontiguousarray(pts.T)
        cell_idx = np.empty(len(pts), dtype=np.intp)
        lam = np.empty(pts.shape)
        rows = max(1, _LOCATE_BLOCK // (2 * n * max(1, n_cells)))
        scratch = np.empty(2 * n * n_cells * min(rows, len(pts)))
        for start in range(0, len(pts), rows):
            x = coords[:, start : start + rows]
            k = x.shape[1]
            # weights[i, c, p]: weight i of point p in cell c
            weights, term = scratch[: 2 * n * n_cells * k].reshape(2, n, n_cells, k)
            with np.errstate(invalid="ignore"):
                np.multiply(cols[0], x[0], out=weights)
                for j in range(1, n):
                    np.multiply(cols[j], x[j], out=term)
                    weights += term
                inside = weights.min(axis=0) >= -EPS_MEMBER
            first = inside.argmax(axis=0)
            picked = np.arange(k)
            missing = ~inside[first, picked]
            if missing.any():
                lost = np.flatnonzero(missing)
                slopes = self._cell_inverses - self._cell_inverses.mean(axis=2, keepdims=True)
                steepness = np.linalg.norm(slopes, axis=2).T[:, :, None]
                nearest = (weights[:, :, lost] / steepness).min(axis=0)
                best = nearest.argmax(axis=0)
                far = ~(nearest[best, np.arange(len(lost))] >= -EPS_MEMBER)
                if far.any():
                    raise GeometryDomainError(f"point {pts[start + lost[far.argmax()]]} is not covered by any cell")
                first[lost] = best
            cell_idx[start : start + k] = first
            lam[start : start + k] = weights[:, first, picked].T
        return cell_idx, _renormalize(lam, out=lam)

    def split_many(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Barycentric split of each point onto vertex labels: (labels, weights), each (P, n).

        Weights <= EPS_GEOM are dropped and the rest renormalized.  A
        row's labels ascend over its kept weights; dropped slots come
        last with weight 0.
        """
        cells, lam = self.locate_many(points)
        labels = self.simplices[cells]
        kept = lam > EPS_GEOM
        weights = np.where(kept, lam, 0.0)
        weights /= weights.sum(axis=1, keepdims=True)
        order = np.argsort(np.where(kept, labels, self.n_vertices), axis=1, kind="stable")
        rows = np.arange(len(order))[:, None]
        return labels[rows, order], weights[rows, order]


def _by_column(fn, values: np.ndarray, axis: int) -> np.ndarray:
    """fn of each value column as its own contiguous 1-d array, stacked along axis.

    A column then rounds exactly like a one-column interpolant; one
    stacked matmul or einsum over all columns can differ in the last bit.
    """
    if values.ndim == 1:
        return fn(values)
    return np.stack([fn(np.ascontiguousarray(col)) for col in values.T], axis=axis)


@dataclass(frozen=True, eq=False)
class VertexInterpolant:
    """Piecewise-linear function(s): values (V,), or (V, k) for k functions on one triangulation."""

    triangulation: Triangulation
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (1, 2) or vals.shape[0] != self.triangulation.n_vertices:
            raise GeometryDomainError(f"need one value or value row per vertex, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise GeometryDomainError("vertex values must be finite")
        object.__setattr__(self, "values", vals)

    @cached_property
    def _interp_xy(self) -> tuple[np.ndarray, np.ndarray] | None:
        """A 2-state interpolant's sorted first coordinates and values for np.interp.

        None unless the cells chain the vertices across the segment (see
        Triangulation._chain_order, derived once per triangulation and
        shared by its interpolants); else the values gathered in its order.
        """
        chain = self.triangulation._chain_order
        if chain is None:
            return None
        xs, order = chain
        return xs, self.values[order]

    def evaluate_many(self, points) -> np.ndarray:
        """Values at each row of points: shape (P,), or (P, k) for k columns.

        Off the 2-state chain, rows are located and interpolated
        _EVALUATE_BLOCK at a time into one output array.  A row's value
        depends on that row alone, so its bits do not depend on the block.
        """
        tri = self.triangulation
        pts = _point_rows(points, tri.n_states)
        if tri.n_states == 2 and self._interp_xy is not None:
            xs, ys = self._interp_xy
            return _by_column(lambda col: np.interp(pts[:, 0], xs, col), ys, axis=-1)
        out = np.empty((len(pts),) + self.values.shape[1:])
        for start in range(0, len(pts), _EVALUATE_BLOCK):
            block = pts[start : start + _EVALUATE_BLOCK]
            out[start : start + len(block)] = self._located_values(block)
        return out

    def _located_values(self, points: np.ndarray) -> np.ndarray:
        """evaluate_many of (P, n) points through Triangulation.locate_many.

        Its own frame, so one block's arrays are freed before the next
        block is located."""
        cells, lam = self.triangulation.locate_many(points)
        corners = self.triangulation.simplices[cells]
        return _by_column(lambda col: np.einsum("pi,pi->p", lam, col[corners]), self.values, axis=-1)

    def __call__(self, omega) -> float | np.ndarray:
        value = self.evaluate_many(np.asarray(omega, dtype=float)[None, :])[0]
        return float(value) if self.values.ndim == 1 else value

    @cached_property
    def cell_pieces(self) -> np.ndarray:
        """Rows of each cell's linear piece in cell order: (C, n+1), or (k, C, n+1) for k columns."""
        invs = self.triangulation._cell_inverses.transpose(0, 2, 1)
        cells = self.triangulation.simplices
        weights = _by_column(lambda col: np.matmul(invs, col[cells][..., None])[..., 0], self.values, axis=0)
        return np.concatenate([weights, np.zeros(weights.shape[:-1] + (1,))], axis=-1)


@dataclass(frozen=True, eq=False)
class CellArrangement:
    """Functional rows, shape (m, n_states + 1), whose zero sets cut the simplex into cells."""

    n_states: int
    functionals: np.ndarray

    def __post_init__(self):
        if self.n_states < 1:
            raise GeometryDomainError("need at least one state")
        rows = np.asarray(self.functionals, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, self.n_states + 1)
        if rows.ndim != 2 or rows.shape[1] != self.n_states + 1:
            raise GeometryDomainError("functional dimension does not match the arrangement")
        if not np.all(np.isfinite(rows)):
            raise GeometryDomainError("functionals must be finite")
        object.__setattr__(self, "functionals", rows)


def dedup_functionals(functionals) -> np.ndarray:
    """Canonical, scale/sign-normalized functional rows with duplicates and constants removed.

    On the simplex w.x + b equals (w - c).x + (b + c) for every
    constant c, so each row is moved to mean-zero weights, scaled to
    max |w| = 1 and signed so its first entry beyond EPS_FUNCTIONAL is
    positive.  Rows whose rounded canonical forms match (same zero set
    on the simplex) keep their first occurrence, in input order;
    constants (no zero set) are dropped.
    """
    rows = np.asarray(functionals, dtype=float)
    if rows.size == 0:
        return np.empty((0, rows.shape[1] if rows.ndim == 2 else 0))
    shift = rows[:, :-1].mean(axis=1)
    keys = np.column_stack([rows[:, :-1] - shift[:, None], rows[:, -1] + shift])
    scale = np.abs(keys[:, :-1]).max(axis=1)
    varies = scale > EPS_FUNCTIONAL
    keys = keys[varies] / scale[varies, None]
    lead = np.argmax(np.abs(keys) > EPS_FUNCTIONAL, axis=1)
    keys[keys[np.arange(len(keys)), lead] < 0] *= -1.0
    decimals = max(1, int(-math.log10(EPS_FUNCTIONAL)))
    rounded = np.round(keys, decimals) + 0.0
    # lexsort is stable, so each run of equal rows starts at its first occurrence
    order = np.lexsort(rounded.T[::-1])
    ranked = rounded[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    # Input order matters downstream: candidate_vertices solves row subsets
    # in order, and another order changes the low bits of its points.
    return keys[np.sort(order[first])]


def _orientation(rows: np.ndarray) -> int:
    """Exact sign of det [x_0 ... x_{n-2}, 1] over n point rows of n coordinates:
    Gaussian elimination, O(n^3), in fractions.Fraction on the float coordinates."""
    m = [[Fraction(x) for x in row[:-1]] + [Fraction(1)] for row in rows.tolist()]
    sign = 1
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        m[k], m[pivot] = m[pivot], m[k]
        top = m[k]
        sign *= (-1 if pivot != k else 1) * (-1 if top[k] < 0 else 1)
        for below in m[k + 1 :]:
            ratio = below[k] / top[k]
            below[k + 1 :] = [x - ratio * y for x, y in zip(below[k + 1 :], top[k + 1 :])]
    return sign


def validate_triangulation(t: Triangulation) -> tuple[bool, list[str]]:
    """Check that t is a genuine triangulation of the whole simplex.

    Vertices must be pairwise distinct, cells not affinely degenerate,
    and the cell volumes must add up to the simplex volume.  Each facet
    (a cell's labels minus one) must be a boundary facet, of one cell
    only, whose vertices share a coordinate <= EPS_ORACLE, or an interior
    facet of exactly two cells whose opposite vertices lie on different
    sides of it (_orientation, exact).  With the volume sum, the cells
    then cover every point once and meet face to face.  Returns (ok,
    list of human-readable problems).
    """
    problems: list[str] = []
    verts = t.vertices
    n = t.n_states
    diffs = np.max(np.abs(verts[:, None, :] - verts[None, :, :]), axis=2)
    problems += [f"vertices {i} and {j} coincide" for i, j in np.argwhere(np.triu(diffs <= EPS_GEOM, 1))]
    if len(t.simplices) == 0:
        problems.append("no cells: the simplex is not covered")
        return False, problems
    if n == 1:
        return not problems, problems

    cells = np.sort(t.simplices, axis=1)
    corners = verts[cells]
    # |det| of the vertex rows is the cell's share of the simplex volume,
    # and unlike a Gram determinant it keeps its relative accuracy on a sliver.
    volumes = np.abs(np.linalg.det(corners))
    edges = np.linalg.norm(corners[:, 1:] - corners[:, :1], axis=2).prod(axis=1)
    degenerate = volumes * math.sqrt(n) <= EPS_ORACLE * np.maximum(edges, 1e-30)
    problems += [f"cell {c} is affinely degenerate" for c in np.flatnonzero(degenerate)]

    # facets[n * c + j] is cell c's labels without its j-th, apexes[n * c + j] that label
    drop_one = np.array([np.delete(np.arange(n), j) for j in range(n)])
    facets = cells[:, drop_one].reshape(-1, n - 1)
    apexes = cells.reshape(-1)
    keys, which, counts = np.unique(facets, axis=0, return_inverse=True, return_counts=True)
    slots = np.split(np.argsort(which.reshape(-1), kind="stable"), np.cumsum(counts)[:-1])
    on_boundary = (verts[keys] <= EPS_ORACLE).all(axis=1).any(axis=1)
    for f in np.flatnonzero((counts == 1) & ~on_boundary):
        problems.append(f"facet {tuple(keys[f].tolist())} of cell {slots[f][0] // n} is in no other cell")
    for f in np.flatnonzero(counts > 2):
        problems.append(f"facet {tuple(keys[f].tolist())} is in {counts[f]} cells {(slots[f] // n).tolist()}")
    for f in np.flatnonzero(counts == 2):
        a, b = (_orientation(verts[np.append(keys[f], apexes[s])]) for s in slots[f])
        if a * b >= 0:
            first, second = (slots[f] // n).tolist()
            problems.append(f"cells {first} and {second} lie on one side of their facet {tuple(keys[f].tolist())}")

    total = volumes[~degenerate].sum()
    if abs(total - 1.0) > EPS_ORACLE:
        problems.append(f"cell volumes sum to {float(total)!r} times the simplex volume")
    return not problems, problems


def barycentric_indices(t: Triangulation, omega) -> tuple[np.ndarray, np.ndarray]:
    """Vertex indices and weights expressing omega in its containing cell.

    The kept slots of one row of Triangulation.split_many: indices
    ascend, and every returned atom carries strictly positive mass.
    """
    labels, weights = t.split_many(as_simplex_point(omega)[None, :])
    kept = weights[0] > 0.0
    return labels[0, kept], weights[0, kept]


def barycentric(t: Triangulation, omega) -> SupportMeasure:
    """Barycentric split of omega: atoms at cell vertices, mean omega."""
    ids, weights = barycentric_indices(t, omega)
    return SupportMeasure(t.vertices[ids], weights)


def _pull_rows(kernel: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows of x -> g(x @ kernel) for each row g (last axis): weights kernel @ w, offsets kept."""
    # A stack of matrix-vector products rounds exactly like kernel @ w row
    # by row; rows @ kernel.T or einsum can differ in the last bit.
    weights = np.matmul(kernel, rows[..., :-1, None])[..., 0]
    return np.concatenate([weights, rows[..., -1:]], axis=-1)


def pullback_affine(f: VertexInterpolant, kernel) -> tuple[np.ndarray, np.ndarray]:
    """Compose a piecewise-linear function with the push-forward x -> x @ kernel.

    kernel is a row-stochastic (n_source, n_target) matrix.  Returns
    (pieces, boundary) as rows on the source simplex: the cell pieces
    of f pulled back, shaped like f.cell_pieces, and the pulled-back
    cell facets of f, deduped (constants dropped).  Raises
    GeometryDomainError if the kernel can carry a source simplex point
    outside the domain of f: some kernel row fails as_simplex_points
    (EPS_GEOM per coordinate).  The kernel is used as given, without
    renormalizing its rows.  The boundary is read-only and cached on f's
    triangulation per kernel (shape, strides and bytes), so interpolants
    on one triangulation share it.  The kernel is checked only when that
    cache misses: a hit means the same bytes have passed, and a kernel
    that fails is never cached, so it raises on every call.
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[1] != f.triangulation.n_states:
        raise GeometryDomainError("kernel target does not match the interpolant domain")
    pulled = f.triangulation._pulled_boundaries
    key = (kernel.shape, kernel.strides, kernel.tobytes())
    boundary = pulled.get(key)
    if boundary is None:
        try:
            as_simplex_points(kernel)
        except GeometryDomainError as err:
            raise GeometryDomainError(f"kernel sends the simplex outside the target simplex: {err}") from None
        boundary = dedup_functionals(_pull_rows(kernel, f.triangulation.boundary_functionals))
        boundary.setflags(write=False)
        pulled[key] = boundary
    return _pull_rows(kernel, f.cell_pieces), boundary


def _subset_blocks(m: int, r: int, size: int):
    """itertools.combinations(range(m), r) as (k, r) np.intp blocks of k <= size rows.

    Each row is found from its rank, one element at a time.  Given the
    elements before it, the subsets whose next element is i number
    C(m - 1 - i, elements after it), whatever came before, so one
    cumulative table per position locates the element within the
    remaining rank.  A block's ranks are consecutive, so its first
    elements come in runs (np.repeat); the middle ones are searched in
    their tables, and the last one is the rank that is left.  Memory
    stays near one block whatever C(m, r) is.
    """
    count = math.comb(m, r)
    # tables[level][i]: the (r - level)-subsets of range(m) whose least element is below i
    tables = [
        np.concatenate([[0], np.cumsum([math.comb(m - 1 - i, left) for i in range(m)])]).astype(np.intp)
        for left in range(r - 1, 0, -1)
    ]
    for start in range(0, count, size):
        stop = min(start + size, count)
        rank = np.arange(start, stop, dtype=np.intp)
        block = np.empty((stop - start, r), dtype=np.intp)
        lo = 0
        if tables:
            first = tables[0]
            low, high = np.searchsorted(first, [start, stop - 1], side="right")
            runs = np.diff(np.concatenate([[start], first[low:high], [stop]]))
            block[:, 0] = np.repeat(np.arange(low - 1, high, dtype=np.intp), runs)
            rank -= np.repeat(first[low - 1 : high], runs)
            lo = block[:, 0] + 1
        for level, table in enumerate(tables[1:], start=1):
            rank += table[lo]
            block[:, level] = np.searchsorted(table, rank, side="right") - 1
            rank -= table[block[:, level]]
            lo = block[:, level] + 1
        block[:, r - 1] = lo + rank
        yield block


def _screen_subsets(
    pool_w: np.ndarray, at_corners: np.ndarray, norms: np.ndarray, subsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(off, transversal): masks of the subsets whose linear systems provably
    solve outside the simplex, and of those whose systems pass the
    determinant test |det| > EPS_DEGENERATE * scale.

    Pool row s has weights w_s (norms[s] = |w_s|_2) and corner values
    at_corners[s] = F_s = w_s + b_s.  The system of an (n-1)-subset S
    has the rows w_s (right side -b_s) and the ones row (right side 1),
    so its solution has F_S x = 0 and sum(x) = 1: x = c / sum(c), where
    c_k = (-1)^(n-1+k) det(F_S without column k) and sum(c) = det [F_S; 1]
    is the system's determinant.  The minors come from a Laplace
    expansion along the rows (for n = 3, c is the cross product).  A
    subset is flagged off only when the closed form puts a coordinate
    below -EPS_MEMBER - slack, so the LAPACK solution fails the membership
    test too; subsets near singular are never flagged.  A subset is
    transversal when |sum(c)| clears the threshold by more than a bound on
    its distance from np.linalg.det's value, and not when it falls short
    by more; np.linalg.det decides the subsets in that band, so the mask
    is exactly np.abs(np.linalg.det(systems)) > EPS_DEGENERATE * scale.
    """
    m = subsets.shape[1]
    n = m + 1
    values = np.ascontiguousarray(at_corners.T)
    # minors[cols]: determinant of the subsets' first r rows on columns
    # cols, expanded along row r - 1 (starting a sum at 0.0 is exact)
    minors = {(j,): values[j][subsets[:, 0]] for j in range(n)}
    for r in range(1, m):
        row = [values[j][subsets[:, r]] for j in range(n)]
        grown = {}
        for cols in itertools.combinations(range(n), r + 1):
            det = 0.0
            for i, j in enumerate(cols):
                term = row[j] * minors[cols[:i] + cols[i + 1 :]]
                det = det - term if (r + i) % 2 else det + term
            grown[cols] = det
        minors = grown
    c = []
    for k in range(n):
        minor = minors[tuple(j for j in range(n) if j != k)]
        c.append(-minor if (m + k) % 2 else minor)
    total = sum(c)
    # the product of the systems' row norms, row by row in order as
    # np.prod(np.linalg.norm(systems, axis=2), axis=1) multiplies them
    scale = norms[subsets[:, 0]]
    for r in range(1, m):
        scale *= norms[subsets[:, r]]
    scale *= math.sqrt(n)  # the ones row's norm: its squares sum to n exactly
    # Error bounds.  With u the unit roundoff, g(p) = p u / (1 - p u) and
    # scale = sqrt(n) prod_s |w_s|_2 (the product of the system's row norms):
    # pool rows come from dedup_functionals (max |w| = 1) or are corners, so
    # every system row a has |a|_2 >= 1, |a|_1 <= n and entries within 1 of
    # zero, and a row that crosses the simplex has corner values within 2
    # of zero (plus its tiny margin), so |F_s|_1 <= 2n.
    # (1) LAPACK.  GEPP gives (A + dA) x~ = r with |dA|_inf <= g(3n) (1 +
    #     2 (n^2 - n) 2^(n-1)) |A|_inf (Higham, Accuracy and Stability of
    #     Numerical Algorithms, 2nd ed., Thm 9.4 and Lemma 9.6, growth
    #     factor <= 2^(n-1)), and |A|_inf <= n.  By Hadamard's inequality a
    #     cofactor is at most scale over its row's norm, so |A^-1|_inf <=
    #     n scale / |det A|.  As x~ - x = -A^-1 dA x~, |x~ - x|_inf <= eta
    #     |x~|_inf with eta <= g(3n) (1 + (n^2 - n) 2^n) n^2 scale / |det A|.
    # (2) Closed form.  Each product summed into c^_k or sum(c^) carries at
    #     most p = (n-1) + (n-2) + (n-1)(n-2)/2 + (n-1) roundings (forming
    #     F, the products, the expansion's sums, the final sum), and the
    #     absolute products add up to at most prod_s |F_s|_1 <= (2n)^(n-1)
    #     scale.  So c^ and sum(c^) are off by at most e = g(p) (2n)^(n-1)
    #     scale, and c^/sum(c^) - c/sum(c) = (c^ - c + x (sum(c) - sum(c^)))
    #     / sum(c^) gives |x^_k - x_k| <= e (1 + |x_k|) / |sum(c^)|.
    # With bound = K u scale, K = 2 (3 n^3 (1 + (n^2 - n) 2^n) + p (2n)^(n-1))
    # and rel = bound / |sum(c^)| <= 1/4, both parts together are below
    # 0.6 rel, so |sum(c) - sum(c^)| < |sum(c^)| / 7, eta < 1/6, and
    # |x^ - x|_inf + |x~ - x|_inf <= rel (1 + |x^|_inf) = slack, with room
    # for the division's rounding.  Subsets with rel > 1/4 (sum(c^) near
    # zero) are never flagged: the determinant test decides them.
    # (3) np.linalg.det, which returns D for the system A with d = det A.
    #     (a) A crossing row's corner values straddle zero (within its margin)
    #     and span at most 2, so |F_s|_1 <= 2 (n - 1); with scale >= sqrt(n),
    #     (2) gives |sum(c^) - d| <= e' = g(p) (2n - 2)^(n-1) scale / sqrt(n).
    #     (b) GEPP computes L^U^ = PA + dA with |dA| <= g(n + 1) |L^||U^|
    #     (Higham, Thm 9.3, in any order of the inner products; the + 1 covers
    #     multipliers formed with the pivot's reciprocal, as getf2 does), and
    #     |L^| <= 1, |U^| <= 2^(n-1) entrywise (growth factor), so each row of
    #     dA has 2-norm at most h = g(n + 1) n^(3/2) 2^(n-1) times its row of
    #     A.  Expanding det(A + P^T dA) row by row into 2^n determinants, each
    #     under Hadamard's bound, |v - |d|| <= ((1 + h)^n - 1) scale <= 1.1
    #     (n + 1) n^(5/2) 2^(n-1) u scale, where v = prod_i |u^_ii|.
    #     (c) NumPy's det is sign exp(sum_i log |u^_ii|).  As |u^_ii| <=
    #     2^(n-1), sum_i |log |u^_ii|| <= 2n (n-1) log 2 + log(1 / v), and the
    #     logs, their sum and exp (each within 1 ulp) keep |D| / v within
    #     (n + 3) u (that sum + 1) of one.  With t = EPS_DEGENERATE scale >=
    #     1e-12, that moves |D| by less than u scale where v <= 2t (v log(1/v)
    #     grows up to 1/e), and keeps |D| > t where v > 2t.
    # So with band = e' + (1.1 (n + 1) n^(5/2) 2^(n-1) + 1) u scale, doubled
    # below to cover the rounding of the scale, the bound and the comparisons,
    # |sum(c^)| > t + band gives |D| > t and |sum(c^)| < t - band gives |D| <=
    # t; np.linalg.det decides the subsets between.
    u = np.finfo(float).eps / 2
    p = (n - 1) * (n - 2) // 2 + 3 * n - 4
    growth = 2 * (3 * n**3 * (1 + (n * n - n) * 2**n) + p * (2 * n) ** (n - 1))
    band = 2 * (p * (2 * n - 2) ** (n - 1) / math.sqrt(n) + 1.1 * (n + 1) * n**2.5 * 2 ** (n - 1) + 1) * u
    size_of_total = np.abs(total)
    transversal = size_of_total > (EPS_DEGENERATE + band) * scale
    unsure = ~transversal & (size_of_total >= (EPS_DEGENERATE - band) * scale)
    if unsure.any():
        rows = subsets[unsure]
        systems = np.empty((len(rows), n, n))
        systems[:, :m, :] = pool_w[rows]
        systems[:, m, :] = 1.0
        transversal[unsure] = np.abs(np.linalg.det(systems)) > EPS_DEGENERATE * scale[unsure]
    bound = growth * u * scale
    settled = 4.0 * bound < size_of_total
    with np.errstate(divide="ignore", invalid="ignore"):
        x = [ck / total for ck in c]
        lowest = reduce(np.minimum, x)
        largest = reduce(np.maximum, [np.abs(xk) for xk in x])
        slack = bound / size_of_total * (1.0 + largest)
        return settled & (lowest < -EPS_MEMBER - slack), transversal


def candidate_vertices(arrangement: CellArrangement) -> np.ndarray:
    """Vertices of the cell arrangement cut out on the simplex.

    Solves every (n-1)-subset of {arrangement functionals} united with
    the simplex facet equalities, together with the sum-to-one row, one
    block of _CANDIDATE_BLOCK subsets at a time; near-singular subsets
    are skipped as non-transversal.  For n >= 3, functionals whose zero
    set misses the simplex are left out of the pool first: those whose
    corner values f(e_i) = w_i + b all lie on one side of zero by more
    than 2 * n * EPS_MEMBER * max(1, max_i |f(e_i)|).  A solution within
    EPS_MEMBER of the simplex keeps such a functional that far from
    zero, so every subset using one fails the membership test anyway.
    Each block then drops the subsets whose closed-form vertex lies
    outside the simplex by more than EPS_MEMBER plus a bound on both
    its rounding and LAPACK's, and the non-transversal ones: |det| <=
    EPS_DEGENERATE times the product of the system's row norms, decided
    from the closed form's determinant unless it lies within a bound of
    that threshold, where np.linalg.det decides (_screen_subsets).  The
    kept subsets are solved in the same order, one matrix at a time, so
    the points are bit for bit those of the full pool.  The corners
    always appear, and a point within EPS_GEOM (sup norm) of a corner
    becomes that corner.
    Rows come back lexicographically sorted and deduped at EPS_GEOM.
    Raises CandidateBudgetExceeded, before enumerating, when the full
    deduped pool has more than CANDIDATE_CAP subsets.
    """
    n = arrangement.n_states
    if n == 1:
        return np.ones((1, 1))
    fs = dedup_functionals(arrangement.functionals).reshape(-1, n + 1)
    corners = np.eye(n)

    if n == 2:
        w0, w1, b = fs.T
        denom = w0 - w1
        crossing = np.abs(denom) > EPS_GEOM
        p = -(w1[crossing] + b[crossing]) / denom[crossing]
        p = p[(p >= -EPS_MEMBER) & (p <= 1.0 + EPS_MEMBER)]
        p = np.where(p < 0.0, 0.0, np.where(p > 1.0, 1.0, p))
        points = [corners, np.column_stack([p, 1.0 - p])]
    else:
        count = math.comb(len(fs) + n, n - 1)
        if count > CANDIDATE_CAP:
            raise CandidateBudgetExceeded(len(fs), n, count, CANDIDATE_CAP)
        at_corners = fs[:, :-1] + fs[:, -1:]
        margin = 2 * n * EPS_MEMBER * np.maximum(1.0, np.abs(at_corners).max(axis=1))
        crosses = (at_corners.min(axis=1) <= margin) & (at_corners.max(axis=1) >= -margin)
        fs = fs[crosses]
        pool_w = np.vstack([fs[:, :-1], corners])
        pool_b = np.concatenate([fs[:, -1], np.zeros(n)])
        pool_at_corners = np.vstack([at_corners[crosses], corners])
        pool_norms = np.linalg.norm(pool_w, axis=1)

        points = [corners]
        for subsets in _subset_blocks(len(pool_w), n - 1, _CANDIDATE_BLOCK):
            off, transversal = _screen_subsets(pool_w, pool_at_corners, pool_norms, subsets)
            subsets = subsets[transversal & ~off]
            size = len(subsets)
            if size == 0:
                continue
            systems = np.empty((size, n, n))
            systems[:, : n - 1, :] = pool_w[subsets]
            systems[:, n - 1, :] = 1.0
            rhs = np.empty((size, n))
            rhs[:, : n - 1] = -pool_b[subsets]
            rhs[:, n - 1] = 1.0
            sols = np.linalg.solve(systems, rhs[..., None])[..., 0]
            inside = reduce(np.minimum, sols.T) >= -EPS_MEMBER
            points.append(_renormalize(sols if inside.all() else sols[inside]))
    allpts = np.vstack(points)
    # A row within EPS_GEOM (sup norm) of a corner is that corner, so that
    # dedup cannot keep a near copy in its place; only the row's largest
    # coordinate's corner can be that close, and only if that coordinate
    # is at least 1 - EPS_GEOM (x - 1 is exact there), so only rows with
    # a coordinate of at least 1 - 2 EPS_GEOM are tested.
    high = np.flatnonzero(allpts >= 1.0 - 2.0 * EPS_GEOM) // n
    top = allpts[high].argmax(axis=1)
    near = np.abs(allpts[high] - corners[top]).max(axis=1) <= EPS_GEOM
    allpts[high[near]] = corners[top[near]]
    allpts = allpts[_lex_order(allpts)]
    return allpts[_dedup_sorted(allpts)]


def _upper_chain(x: np.ndarray, y: np.ndarray, scale: float) -> list[int]:
    """Indices of the upper convex chain of points (x, y) sorted by x (Andrew's monotone chain).

    A point within EPS_DEGENERATE * scale (cross product) of the chord of
    its neighbours, or below it, is dropped.
    """
    keep: list[int] = []
    for i in range(len(x)):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            cross = (x[b] - x[a]) * (y[i] - y[a]) - (y[b] - y[a]) * (x[i] - x[a])
            if cross >= -EPS_DEGENERATE * scale:
                keep.pop()
            else:
                break
        keep.append(i)
    return keep


# argcav's triangulations by content: the shape, dtype and bytes of the
# vertex rows and cell labels it passes in.  Stages of a long horizon
# often land on one geometry byte for byte, and then share one object,
# validated, inverted and pulled back once.  The table is weak: an entry
# lives as long as some solution holds its triangulation.  Two threads
# that miss on one key each build a correct object; only sharing is lost.
_ENVELOPE_TRIANGULATIONS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared_triangulation(vertices: np.ndarray, simplices: np.ndarray) -> Triangulation:
    """Triangulation(vertices, simplices), shared by every caller with the
    same input bytes.  Its vertices and simplices are read-only, so no
    holder can change another's geometry; a failed validation is not kept."""
    key = tuple((a.shape, a.dtype.str, a.tobytes()) for a in (vertices, simplices))
    tri = _ENVELOPE_TRIANGULATIONS.get(key)
    if tri is None:
        tri = Triangulation(vertices, simplices)
        tri.vertices.setflags(write=False)
        tri.simplices.setflags(write=False)
        _ENVELOPE_TRIANGULATIONS[key] = tri
    return tri


def _chain_envelope(cands: np.ndarray, vals: np.ndarray) -> VertexInterpolant:
    """Upper concave envelope on a segment via a monotone chain.

    Candidates must be sorted by first coordinate.  Collinear interior
    points are dropped, so vertices are exactly the envelope kinks plus
    the two endpoints.
    """
    keep = _upper_chain(cands[:, 0], vals, max(1.0, float(np.ptp(vals))))
    labels = np.arange(len(keep))
    tri = _shared_triangulation(cands[keep], np.column_stack([labels[:-1], labels[1:]]))
    return VertexInterpolant(tri, vals[keep])


def _affine_envelope(cands: np.ndarray, vals: np.ndarray) -> VertexInterpolant:
    """Fallback when the lifted candidates are coplanar: psi is affine.

    The envelope is the corner simplex with psi's own values at the
    exact corner rows that candidate_vertices always returns (the only
    rows with a coordinate equal to 1).
    """
    n = cands.shape[1]
    corner_vals = vals[(cands == 1.0).argmax(axis=0)]
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.max(np.abs(cands @ corner_vals - vals)) > EPS_FUNCTIONAL * scale:
        raise GeometryDomainError("degenerate lifted hull for a non-affine objective")
    tri = _shared_triangulation(np.eye(n), np.arange(n)[None, :])
    return VertexInterpolant(tri, corner_vals)


def ConvexHull(points: np.ndarray):
    """scipy.spatial.ConvexHull(points), importing scipy.spatial on the first call.

    Only envelopes of 3 or more states build hulls, so 2-state games
    run without loading scipy.
    """
    import scipy.spatial

    return scipy.spatial.ConvexHull(points)


def _hull_faces(hull, rows: np.ndarray) -> list[np.ndarray]:
    """The hull facets rows grouped into faces, each face as its ascending point indices.

    The first facet not yet in a face starts one and takes every later
    free facet whose equation is within EPS_FUNCTIONAL (sup norm) of its own.
    """
    equations, simplices = hull.equations[rows], hull.simplices[rows]
    free = np.ones(len(rows), dtype=bool)
    faces = []
    while free.any():
        members = free & (np.abs(equations - equations[free.argmax()]).max(axis=1) <= EPS_FUNCTIONAL)
        free &= ~members
        faces.append(np.unique(simplices[members]))
    return faces


def _face_facets(ids: tuple[int, ...], proj: np.ndarray, k: int) -> list[tuple[int, ...]]:
    """Facets of the k-dimensional face (k >= 2) spanned by proj[ids] as vertex id tuples.

    A polygon's facets are its edges: lower chain out, upper chain back.
    Higher faces take the faces of their Qhull hull (_hull_faces).
    """
    pts = proj[list(ids)]
    centered = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    local = centered @ vt[:k].T
    if k == 2:
        order = _lex_order(local)
        x, y = local[order].T
        ring = order[_upper_chain(x, -y, 1.0) + _upper_chain(x, y, 1.0)[-2::-1]].tolist()
        return [tuple(sorted((ids[a], ids[b]))) for a, b in zip(ring[:-1], ring[1:])]
    from scipy.spatial import QhullError

    try:
        hull = ConvexHull(local)
    except QhullError as err:
        first = str(err).strip().splitlines()[0]
        raise GeometryDomainError(f"hull of the {k}-face on candidates {ids} failed: {first}") from None
    faces = _hull_faces(hull, np.arange(len(hull.equations)))
    return [tuple(sorted(ids[j] for j in face.tolist())) for face in faces]


def _pull_face(ids: tuple[int, ...], proj: np.ndarray, k: int) -> list[tuple[int, ...]]:
    """Pulling triangulation of a k-face: cone the lex-least vertex over
    the pulled facets that avoid it."""
    if len(ids) == k + 1:
        return [tuple(ids)]
    v0 = ids[0]
    cells: list[tuple[int, ...]] = []
    for facet in _face_facets(ids, proj, k):
        if v0 in facet:
            continue
        for sub in _pull_face(facet, proj, k - 1):
            cells.append(tuple(sorted((v0,) + sub)))
    return cells


def _lifted_envelope(cands: np.ndarray, vals: np.ndarray) -> VertexInterpolant:
    """Upper-hull concave envelope for any number of states but 2 (_chain_envelope's)."""
    n = cands.shape[1]
    d = n - 1
    if len(cands) == n:
        # Corners only (always so in 1 state): the envelope is the affine interpolant.
        return VertexInterpolant(_shared_triangulation(cands, np.arange(n)[None, :]), vals)
    proj = cands[:, :-1]
    lifted = np.column_stack([proj, vals])
    from scipy.spatial import QhullError

    try:
        hull = ConvexHull(lifted)
    except QhullError:
        return _affine_envelope(cands, vals)
    upper = np.flatnonzero(hull.equations[:, d] > EPS_HULL_NORMAL)
    if upper.size == 0:
        return _affine_envelope(cands, vals)
    cells: set[tuple[int, ...]] = set()
    for face in _hull_faces(hull, upper):
        cells.update(_pull_face(tuple(face.tolist()), proj, d))
    simplices = np.array(sorted(cells), dtype=np.intp).reshape(-1, n)
    # Triangulation's own rows; flat cells (nearly vertical lifted facets)
    # are dropped, and the rest must tile the simplex (|det| sums to 1).
    corners = _renormalize(cands[simplices])
    kept = ~_flat_cells(corners)
    if abs(np.abs(np.linalg.det(corners[kept])).sum() - 1.0) > EPS_TILING:
        raise GeometryDomainError("upper-hull faces failed to tile the simplex")
    # An increasing relabel keeps the sorted cell order.
    used, labels = np.unique(simplices[kept], return_inverse=True)
    tri = _shared_triangulation(cands[used], labels.reshape(-1, n))
    return VertexInterpolant(tri, vals[used])


def argcav(psi, arrangement: CellArrangement) -> VertexInterpolant:
    """Concave envelope of psi over the simplex, with its triangulation.

    psi must be piecewise affine with kinks contained in the zero sets
    of the arrangement functionals.  It is called once, with the (k, n)
    array of candidate points, and must return k finite values;
    anything else raises GeometryDomainError.  The result interpolates
    psi at the returned triangulation's vertices and majorizes psi
    everywhere.  Output is deterministic: candidates are evaluated in
    lexicographic order and upper-hull faces are triangulated by the
    pulling rule anchored at lex-least vertices.  The triangulation is
    one object with every live argcav result of byte-equal geometry,
    with read-only vertices and simplices; do not key on its identity.
    """
    cands = candidate_vertices(arrangement)
    vals = np.asarray(psi(cands), dtype=float)
    if vals.shape != (len(cands),):
        raise GeometryDomainError(
            f"objective returned shape {vals.shape} for {len(cands)} points"
        )
    if not np.all(np.isfinite(vals)):
        raise GeometryDomainError("objective returned non-finite values")
    if arrangement.n_states == 2:
        return _chain_envelope(cands, vals)
    return _lifted_envelope(cands, vals)
