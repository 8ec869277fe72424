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
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError, cKDTree

# Tolerance table: every numeric tolerance of the package, one per role.
# Point coincidence, zero mass, and stochastic-row sums.
EPS_GEOM = 1e-12
# Relative degeneracy: non-transversal subsets, collinear chain points.
EPS_DEGENERATE = 1e-12
# Receiver indifference: slack for argmax tie sets.
EPS_TIE = 1e-9
# Equilibrium identities: value gap, deviation gains, Bellman residuals, backups.
EPS_EQUILIBRIUM = 1e-9
# Membership and measure slack: points in cells, kernels, weights, means.
EPS_MEMBER = 1e-9
# Functional and facet equality: dedup, hull facet clusters, affine fits.
EPS_FUNCTIONAL = 1e-9
# Oracle checks in validate_triangulation.
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
# The largest stage of the tests and benchmarks counts 752,151 and,
# after dropping the rows whose zero set misses the simplex, solves
# 482,653.  Subsets are solved in blocks of _CANDIDATE_BLOCK, so
# enumeration memory stays near one block's systems (15 MiB traced)
# whatever the count.  The cap bounds time on the full pool, because
# pruning may keep every row: 2,000,000 subsets of rows that all cross
# the simplex take about 1.5 s at 3 and 4 states on a 2-vCPU Xeon virtual
# machine.
CANDIDATE_CAP = 2_000_000
# Subsets candidate_vertices solves per batch of linear systems.
_CANDIDATE_BLOCK = 1 << 15


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


def as_simplex_point(coords) -> np.ndarray:
    """Validate coordinates as a point of the standard simplex.

    Coordinates must be finite, nonnegative within EPS_GEOM, and sum to
    one within EPS_GEOM per coordinate.  The returned array is clipped
    to [0, 1] and renormalized so downstream arithmetic sees an exact
    point.
    """
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise GeometryDomainError(f"expected a 1-d coordinate vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise GeometryDomainError("coordinates must be finite")
    if x.min() < -EPS_GEOM:
        raise GeometryDomainError(f"negative coordinate {x.min():.3e} below tolerance -{EPS_GEOM:.1e}")
    total = float(x.sum())
    if abs(total - 1.0) > EPS_GEOM * x.size:
        raise GeometryDomainError(f"coordinates sum to {total!r}, expected 1")
    x = np.clip(x, 0.0, None)
    return x / x.sum()


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
    """Indices sorting rows lexicographically (first coordinate major)."""
    return np.lexsort(points.T[::-1])


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


def _cluster_rows(rows: np.ndarray) -> list[list[int]]:
    """Group row indices whose rows agree within EPS_FUNCTIONAL in the sup norm."""
    groups: list[list[int]] = []
    reps: list[np.ndarray] = []
    for i in range(len(rows)):
        row = rows[i]
        for g, rep in zip(groups, reps):
            if np.max(np.abs(row - rep)) <= EPS_FUNCTIONAL:
                g.append(i)
                break
        else:
            groups.append([i])
            reps.append(row)
    return groups


@dataclass(frozen=True, eq=False)
class SupportMeasure:
    """Finitely supported probability measure on the simplex."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise GeometryDomainError("support points must form a nonempty 2-d array")
        pts = np.vstack([as_simplex_point(row) for row in pts])
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


@dataclass(frozen=True, eq=False)
class Triangulation:
    """Vertices on the simplex plus cells given as vertex index tuples."""

    vertices: np.ndarray
    simplices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] == 0:
            raise GeometryDomainError("vertices must form a nonempty 2-d array")
        verts = np.vstack([as_simplex_point(row) for row in verts])
        cells = []
        for cell in self.simplices:
            cell = tuple(int(i) for i in cell)
            if len(set(cell)) != len(cell):
                raise GeometryDomainError(f"cell {cell} repeats a vertex")
            if not cell or min(cell) < 0 or max(cell) >= verts.shape[0]:
                raise GeometryDomainError(f"cell {cell} references a missing vertex")
            cells.append(cell)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "simplices", tuple(cells))

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
    def _uniform_full_dim(self) -> bool:
        n = self.n_states
        return bool(self.simplices) and all(len(c) == n for c in self.simplices)

    @cached_property
    def _cell_inverses(self) -> np.ndarray:
        # Column j of each cell matrix is vertex j; barycentric weights of
        # omega in the cell are inverse @ omega (columns sum to one, so the
        # weights automatically sum to one on the simplex).
        n = self.n_states
        mats = np.stack([self.vertices[list(c)].T for c in self.simplices])
        invs = np.full_like(mats, np.nan)
        for i in range(mats.shape[0]):
            try:
                invs[i] = np.linalg.inv(mats[i])
            except np.linalg.LinAlgError:
                pass
        return invs

    def _checked_inverses(self) -> np.ndarray:
        """The cell inverses, checked to exist for every cell."""
        if not self._uniform_full_dim:
            raise GeometryDomainError("affine pieces need full-dimensional cells")
        invs = self._cell_inverses
        degenerate = ~np.isfinite(invs).all(axis=(1, 2))
        if degenerate.any():
            cell = self.simplices[int(np.argmax(degenerate))]
            raise GeometryDomainError(f"cell {cell} is affinely degenerate")
        return invs

    @cached_property
    def boundary_functionals(self) -> np.ndarray:
        """Rows vanishing on the cell facets (kink candidates), deduped.

        Row j of a cell inverse is the barycentric coordinate of its
        vertex j: zero exactly on the opposite facet's hyperplane.
        """
        invs = self._checked_inverses()
        raw = invs.reshape(-1, invs.shape[2])
        return dedup_functionals(np.column_stack([raw, np.zeros(len(raw))]))

    def locate_many(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and barycentric weights for each query point.

        Cells are walked in listing order, each tested only on the
        points that no earlier cell holds, so a point on shared faces
        resolves to the first feasible cell and the work stops once
        every point is placed.  Memory stays near one (P, n) array.
        Raises GeometryDomainError when a cell has fewer than n_states
        vertices or a point is not covered by any cell (naming the first
        such point).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not self.simplices:
            raise GeometryDomainError("triangulation has no cells")
        if not self._uniform_full_dim:
            raise GeometryDomainError("point location needs full-dimensional cells")
        cell_idx = np.zeros(len(pts), dtype=np.intp)
        lam = np.empty(pts.shape)
        todo = np.arange(len(pts))
        with np.errstate(invalid="ignore"):  # a degenerate cell's NaN weights are infeasible
            for c, inv in enumerate(self._cell_inverses):
                if not todo.size:
                    break
                # The same rounding as einsum("cij,pj->pci") over every cell, which
                # the solve artifacts' bits rest on; pts @ inv.T or one flattened
                # (C*n, n) einsum can differ in the last bit.
                bary = np.einsum("ij,pj->pi", inv, pts[todo])
                hit = (bary >= -EPS_MEMBER).all(axis=1)
                placed = todo[hit]
                cell_idx[placed] = c
                lam[placed] = bary[hit]
                todo = todo[~hit]
        if todo.size:
            raise GeometryDomainError(f"point {pts[todo[0]]} is not covered by any cell")
        lam = np.clip(lam, 0.0, None)
        lam /= lam.sum(axis=1, keepdims=True)
        return cell_idx, lam

    def split_many(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Barycentric split of each point onto vertex labels: (labels, weights), each (P, n).

        Weights <= EPS_GEOM are dropped and the rest renormalized.  A
        row's labels ascend over its kept weights; dropped slots come
        last with weight 0.
        """
        cells, lam = self.locate_many(points)
        labels = np.asarray(self.simplices, dtype=np.intp)[cells]
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
    def _interp_xy(self) -> tuple[np.ndarray, np.ndarray]:
        xs = self.triangulation.vertices[:, 0]
        order = np.argsort(xs)
        return xs[order], self.values[order]

    def evaluate_many(self, points) -> np.ndarray:
        """Values at each row of points: shape (P,), or (P, k) for k columns."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tri = self.triangulation
        if tri.n_states == 2 and tri._uniform_full_dim:
            xs, ys = self._interp_xy
            return _by_column(lambda col: np.interp(pts[:, 0], xs, col), ys, axis=-1)
        cells, lam = tri.locate_many(pts)
        corners = np.asarray(tri.simplices, dtype=int)[cells]
        return _by_column(lambda col: np.einsum("pi,pi->p", lam, col[corners]), self.values, axis=-1)

    def __call__(self, omega) -> float | np.ndarray:
        value = self.evaluate_many(np.asarray(omega, dtype=float)[None, :])[0]
        return float(value) if self.values.ndim == 1 else value

    @cached_property
    def cell_pieces(self) -> np.ndarray:
        """Rows of each cell's linear piece in cell order: (C, n+1), or (k, C, n+1) for k columns."""
        invs = self.triangulation._checked_inverses().transpose(0, 2, 1)
        cells = np.asarray(self.triangulation.simplices)
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
    _, first = np.unique(np.round(keys, decimals) + 0.0, axis=0, return_index=True)
    # Input order matters downstream: candidate_vertices solves row subsets
    # in order, and another order changes the low bits of its points.
    return keys[np.sort(first)]


def validate_triangulation(t: Triangulation, tol: float = EPS_ORACLE) -> tuple[bool, list[str]]:
    """Check that t is a genuine triangulation of the whole simplex.

    Verifies pairwise-distinct vertices, affinely independent cells,
    the face-to-face property (each pairwise intersection is a common
    face, via small LPs), and that cell volumes add up to the simplex
    volume.  Returns (ok, list of human-readable problems).
    """
    problems: list[str] = []
    verts = t.vertices
    n = t.n_states

    diffs = np.max(np.abs(verts[:, None, :] - verts[None, :, :]), axis=2)
    np.fill_diagonal(diffs, 1.0)
    dup = np.argwhere(diffs <= EPS_GEOM)
    for i, j in dup:
        if i < j:
            problems.append(f"vertices {i} and {j} coincide")

    if not t.simplices:
        problems.append("no cells: the simplex is not covered")
        return False, problems

    if n == 1:
        return (len(problems) == 0), problems

    total_volume = 0.0
    degenerate = set()
    for ci, cell in enumerate(t.simplices):
        pts = verts[list(cell)]
        if len(cell) > n:
            problems.append(f"cell {ci} has {len(cell)} vertices in dimension {n - 1}")
            degenerate.add(ci)
            continue
        if len(cell) >= 2:
            edges = pts[1:] - pts[0]
            gram = edges @ edges.T
            det = float(np.linalg.det(gram))
            edge_scale = float(np.prod(np.linalg.norm(edges, axis=1)))
            if det <= (EPS_ORACLE * max(edge_scale, 1e-30)) ** 2:
                problems.append(f"cell {ci} is affinely degenerate")
                degenerate.add(ci)
                continue
            if len(cell) == n:
                total_volume += math.sqrt(det) / math.factorial(n - 1)

    # Pairwise face-to-face: any point common to two cells must be a convex
    # combination of their shared vertices.  Representations are unique for
    # affinely independent cells, so it suffices to maximize the weight put
    # on non-shared vertices over the intersection.
    for ai in range(len(t.simplices)):
        if ai in degenerate:
            continue
        for bi in range(ai + 1, len(t.simplices)):
            if bi in degenerate:
                continue
            cell_a, cell_b = t.simplices[ai], t.simplices[bi]
            if set(cell_a) == set(cell_b):
                problems.append(f"cells {ai} and {bi} are identical")
                continue
            pa, pb = verts[list(cell_a)], verts[list(cell_b)]
            if np.any(pa.min(axis=0) > pb.max(axis=0) + tol) or np.any(
                pb.min(axis=0) > pa.max(axis=0) + tol
            ):
                continue
            shared = set(cell_a) & set(cell_b)
            free = np.array(
                [1.0 * (v not in shared) for v in cell_a]
                + [1.0 * (v not in shared) for v in cell_b]
            )
            if not free.any():
                continue
            n_a, n_b = len(cell_a), len(cell_b)
            eq_rows = np.vstack(
                [
                    np.hstack([pa.T, -pb.T]),
                    np.hstack([np.ones(n_a), np.zeros(n_b)]),
                    np.hstack([np.zeros(n_a), np.ones(n_b)]),
                ]
            )
            rhs = np.concatenate([np.zeros(n), [1.0, 1.0]])
            res = linprog(-free, A_eq=eq_rows, b_eq=rhs, bounds=(0.0, None), method="highs")
            if res.status == 2:
                continue  # disjoint closures
            if res.success and -res.fun > tol:
                problems.append(
                    f"cells {ai} and {bi} intersect outside their common face"
                )
            elif not res.success:
                problems.append(f"cells {ai} and {bi}: face check LP failed ({res.message})")

    target = math.sqrt(n) / math.factorial(n - 1)
    if abs(total_volume - target) > EPS_ORACLE * target:
        problems.append(
            f"cell volumes sum to {total_volume!r}, simplex volume is {target!r}"
        )

    return (len(problems) == 0), problems


def barycentric_indices(t: Triangulation, omega) -> tuple[np.ndarray, np.ndarray]:
    """Vertex indices and weights expressing omega in its containing cell.

    The kept slots of one row of Triangulation.split_many: indices
    ascend, and every returned atom carries strictly positive mass.
    """
    point = as_simplex_point(omega)
    if point.size != t.n_states:
        raise GeometryDomainError("point dimension does not match the triangulation")
    labels, weights = t.split_many(point[None, :])
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
    outside the domain of f.
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[1] != f.triangulation.n_states:
        raise GeometryDomainError("kernel target does not match the interpolant domain")
    if (
        not np.all(np.isfinite(kernel))
        or kernel.min() < -EPS_MEMBER
        or np.max(np.abs(kernel.sum(axis=1) - 1.0)) > EPS_MEMBER
    ):
        raise GeometryDomainError("kernel sends the simplex outside the target simplex")
    pieces = _pull_rows(kernel, f.cell_pieces)
    boundary = dedup_functionals(_pull_rows(kernel, f.triangulation.boundary_functionals))
    return pieces, boundary


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
    zero, so every subset using one fails the membership test anyway;
    the kept subsets are solved in the same order, so the points are
    bit for bit those of the full pool.  The corners always appear.
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
        ps = np.sort(np.concatenate([[0.0, 1.0], p]), kind="stable")
        pts = np.column_stack([ps, 1.0 - ps])
        return pts[_dedup_sorted(pts)]

    count = math.comb(len(fs) + n, n - 1)
    if count > CANDIDATE_CAP:
        raise CandidateBudgetExceeded(len(fs), n, count, CANDIDATE_CAP)
    at_corners = fs[:, :-1] + fs[:, -1:]
    margin = 2 * n * EPS_MEMBER * np.maximum(1.0, np.abs(at_corners).max(axis=1))
    crosses = (at_corners.min(axis=1) <= margin) & (at_corners.max(axis=1) >= -margin)
    fs = fs[crosses]
    pool_w = np.vstack([fs[:, :-1], corners])
    pool_b = np.concatenate([fs[:, -1], np.zeros(n)])

    count = math.comb(len(pool_w), n - 1)
    combos = itertools.combinations(range(len(pool_w)), n - 1)
    points = [corners]
    for start in range(0, count, _CANDIDATE_BLOCK):
        size = min(_CANDIDATE_BLOCK, count - start)
        subsets = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, size)),
            dtype=np.intp,
            count=size * (n - 1),
        ).reshape(size, n - 1)
        systems = np.empty((size, n, n))
        systems[:, : n - 1, :] = pool_w[subsets]
        systems[:, n - 1, :] = 1.0
        rhs = np.empty((size, n))
        rhs[:, : n - 1] = -pool_b[subsets]
        rhs[:, n - 1] = 1.0
        dets = np.abs(np.linalg.det(systems))
        scale = np.prod(np.linalg.norm(systems, axis=2), axis=1)
        transversal = dets > EPS_DEGENERATE * np.maximum(scale, 1e-30)
        if transversal.any():
            sols = np.linalg.solve(systems[transversal], rhs[transversal][..., None])[..., 0]
            inside = sols.min(axis=1) >= -EPS_MEMBER
            if inside.any():
                pts = np.clip(sols[inside], 0.0, None)
                pts /= pts.sum(axis=1, keepdims=True)
                points.append(pts)
    allpts = np.vstack(points)
    allpts = allpts[_lex_order(allpts)]
    return allpts[_dedup_sorted(allpts)]


def _chain_envelope(cands: np.ndarray, vals: np.ndarray) -> VertexInterpolant:
    """Upper concave envelope on a segment via a monotone chain.

    Candidates must be sorted by first coordinate.  Collinear interior
    points are dropped, so vertices are exactly the envelope kinks plus
    the two endpoints.
    """
    p = cands[:, 0]
    tol_area = EPS_DEGENERATE * max(1.0, float(np.ptp(vals)))
    keep: list[int] = []
    for i in range(len(p)):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            cross = (p[b] - p[a]) * (vals[i] - vals[a]) - (vals[b] - vals[a]) * (p[i] - p[a])
            if cross >= -tol_area:
                keep.pop()  # middle point on or below the chord
            else:
                break
        keep.append(i)
    verts = cands[keep]
    cells = tuple((i, i + 1) for i in range(len(keep) - 1))
    tri = Triangulation(verts, cells)
    return VertexInterpolant(tri, vals[keep])


def _affine_envelope(cands: np.ndarray, vals: np.ndarray) -> VertexInterpolant:
    """Fallback when the lifted candidates are coplanar: psi is affine."""
    n = cands.shape[1]
    design = np.column_stack([cands[:, :-1], np.ones(len(cands))])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    fitted = design @ coef
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.max(np.abs(fitted - vals)) > EPS_FUNCTIONAL * scale:
        raise GeometryDomainError("degenerate lifted hull for a non-affine objective")
    corners = np.eye(n)
    corner_vals = np.column_stack([corners[:, :-1], np.ones(n)]) @ coef
    tri = Triangulation(corners, (tuple(range(n)),))
    return VertexInterpolant(tri, corner_vals)


def _face_facets(ids: tuple[int, ...], proj: np.ndarray, k: int) -> list[tuple[int, ...]]:
    """Facets of the k-dimensional face spanned by proj[ids] as vertex id tuples."""
    pts = proj[list(ids)]
    center = pts.mean(axis=0)
    centered = pts - center
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    local = centered @ vt[:k].T
    if k == 1:
        return [
            (ids[int(np.argmin(local[:, 0]))],),
            (ids[int(np.argmax(local[:, 0]))],),
        ]
    hull = ConvexHull(local)
    extremes = set(hull.vertices.tolist())
    facets = []
    for group in _cluster_rows(hull.equations):
        members = set()
        for row in group:
            members.update(hull.simplices[row].tolist())
        members &= extremes
        facets.append(tuple(sorted(ids[j] for j in members)))
    return facets


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
    """Upper-hull concave envelope for dimension >= 2."""
    n = cands.shape[1]
    d = n - 1
    if len(cands) == n:
        # Corners only: the envelope is the affine interpolant.
        return VertexInterpolant(Triangulation(cands, (tuple(range(n)),)), vals)
    proj = cands[:, :-1]
    lifted = np.column_stack([proj, vals])
    try:
        hull = ConvexHull(lifted)
    except QhullError:
        return _affine_envelope(cands, vals)
    extremes = set(hull.vertices.tolist())
    upper = np.where(hull.equations[:, d] > EPS_HULL_NORMAL)[0]
    if upper.size == 0:
        return _affine_envelope(cands, vals)
    cells: set[tuple[int, ...]] = set()
    for group in _cluster_rows(hull.equations[upper]):
        members = set()
        for gi in group:
            members.update(hull.simplices[upper[gi]].tolist())
        members &= extremes
        face = tuple(sorted(members))
        cells.update(_pull_face(face, proj, d))
    used = sorted(set(itertools.chain.from_iterable(cells)))
    remap = {v: i for i, v in enumerate(used)}
    tri = Triangulation(
        cands[used],
        tuple(sorted(tuple(remap[v] for v in cell) for cell in cells)),
    )
    # Cheap coverage audit: projected cells must tile the simplex.
    vol = 0.0
    for cell in tri.simplices:
        pts = tri.vertices[list(cell)]
        edges = pts[1:] - pts[0]
        vol += abs(math.sqrt(max(np.linalg.det(edges @ edges.T), 0.0))) / math.factorial(d)
    target = math.sqrt(n) / math.factorial(d)
    if abs(vol - target) > EPS_TILING * target:
        raise GeometryDomainError("upper-hull faces failed to tile the simplex")
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
    pulling rule anchored at lex-least vertices.
    """
    cands = candidate_vertices(arrangement)
    vals = np.asarray(psi(cands), dtype=float)
    if vals.shape != (len(cands),):
        raise GeometryDomainError(
            f"objective returned shape {vals.shape} for {len(cands)} points"
        )
    if not np.all(np.isfinite(vals)):
        raise GeometryDomainError("objective returned non-finite values")
    n = arrangement.n_states
    if n == 1:
        tri = Triangulation(np.ones((1, 1)), ((0,),))
        return VertexInterpolant(tri, vals)
    if n == 2:
        return _chain_envelope(cands, vals)
    return _lifted_envelope(cands, vals)
