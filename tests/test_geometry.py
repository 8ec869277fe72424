import bisect
import importlib.util
import itertools
import json
import math
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError
from test_cli import FLAT_CELL_GAME
from near_tie_corpus import near_tie_game
from test_goldens import CASES as GOLDEN_CASES
from test_goldens import GAME_1, GAME_3, GAME_3_2, GAME_RANDOM, NEAR_TIE_167, run_case

from signalgame import geometry
from signalgame.cli import builtin_example, main
from signalgame.game import spec_from_dict
from signalgame.geometry import (
    CANDIDATE_CAP,
    EPS_DEGENERATE,
    EPS_FUNCTIONAL,
    EPS_GEOM,
    EPS_MEMBER,
    CandidateBudgetExceeded,
    CellArrangement,
    GeometryDomainError,
    SupportMeasure,
    Triangulation,
    VertexInterpolant,
    argcav,
    as_simplex_point,
    as_simplex_points,
    barycentric,
    barycentric_indices,
    candidate_vertices,
    dedup_functionals,
    pullback_affine,
    simplex_grid,
    validate_triangulation,
)
from signalgame.solver import solve

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _unit_triangulation(n):
    return Triangulation(np.eye(n), (tuple(range(n)),))


def _values(rows, points):
    """Functional rows [w, b] evaluated at each point: shape (k, m)."""
    rows = np.asarray(rows, dtype=float)
    return np.atleast_2d(points) @ rows[:, :-1].T + rows[:, -1]


def test_as_simplex_point_accepts_and_cleans():
    p = as_simplex_point([0.25, 0.75])
    assert np.allclose(p, [0.25, 0.75])
    p = as_simplex_point([1.0 + 5e-13, -5e-13])
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) < 1e-15


def test_as_simplex_point_rejects_bad_input():
    with pytest.raises(GeometryDomainError):
        as_simplex_point([0.6, 0.6])
    with pytest.raises(GeometryDomainError):
        as_simplex_point([1.5, -0.5])
    with pytest.raises(GeometryDomainError):
        as_simplex_point([np.nan, 1.0])
    with pytest.raises(GeometryDomainError):
        as_simplex_point([[0.5, 0.5]])


def _as_simplex_point_reference(coords):
    """The one-point validation that Triangulation and SupportMeasure once looped over."""
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


def test_as_simplex_points_matches_the_per_row_loop_bit_for_bit():
    rng = np.random.default_rng(12)
    for n in range(2, 6):
        rows = rng.dirichlet(np.ones(n), size=400)
        rows[::3, rng.integers(n)] = 0.0  # facet points, whose clip matters
        rows /= rows.sum(axis=1, keepdims=True)
        rows[::5] = np.eye(n)[rng.integers(n, size=len(rows[::5]))]
        rows += rng.choice([-1e-13, 0.0, 1e-13], size=rows.shape)
        loop = np.vstack([_as_simplex_point_reference(row) for row in rows])
        assert np.array_equal(as_simplex_points(rows).view(np.int64), loop.view(np.int64))
        assert np.array_equal(Triangulation(rows, ()).vertices.view(np.int64), loop.view(np.int64))
        one = np.vstack([as_simplex_point(row) for row in rows])
        assert np.array_equal(one.view(np.int64), loop.view(np.int64))


def test_as_simplex_points_names_the_first_bad_row():
    rows = np.full((5, 3), 1.0 / 3.0)
    rows[4] = [np.nan, 0.5, 0.5]
    rows[3] = [0.5, 0.5, 0.5]
    with pytest.raises(GeometryDomainError, match=r"^row 3: coordinates sum to 1\.5, expected 1$"):
        as_simplex_points(rows)
    rows[2] = [1.5, -0.5, 0.0]
    with pytest.raises(GeometryDomainError, match=r"^row 2: negative coordinate -5\.000e-01 below"):
        as_simplex_points(rows)
    rows[1, 0] = np.inf
    with pytest.raises(GeometryDomainError, match=r"^row 1: coordinates must be finite$"):
        as_simplex_points(rows)
    # rows of a higher-dimensional array are named by their leading indices
    kernel = np.full((2, 3, 2), 0.5)
    kernel[1, 2] = [0.5, 0.6]
    kernel[1, 0] = [0.7, 0.6]
    with pytest.raises(GeometryDomainError, match=r"^row \(1, 0\): coordinates sum to "):
        as_simplex_points(kernel)
    for shape in [(0, 3), (3,), ()]:
        with pytest.raises(GeometryDomainError, match="nonempty array of point rows"):
            as_simplex_points(np.zeros(shape))


def test_simplex_grid_counts_and_contents():
    g = simplex_grid(2, 4)
    assert g.shape == (5, 2)
    assert np.allclose(g[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    g = simplex_grid(3, 6)
    assert g.shape == (28, 3)
    assert np.allclose(g.sum(axis=1), 1.0)
    assert np.allclose(np.round(g * 6) / 6, g)


def test_affine_functional_eval_and_arithmetic():
    f = np.array([2.0, -1.0, 0.5])
    g = np.array([1.0, 1.0, -0.5])
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    assert np.allclose(_values([f], pts)[:, 0], [2.5, -0.5, 1.0])
    assert np.allclose(_values([f + g, f - g], [0.5, 0.5]), [[1.5, 0.5]])
    # the zero set of the row f - g is where f and g agree
    cand = candidate_vertices(CellArrangement(2, [f - g]))
    cross = cand[(cand[:, 0] > 0.0) & (cand[:, 0] < 1.0)]
    assert len(cross) == 1
    assert _values([f], cross)[0, 0] == pytest.approx(_values([g], cross)[0, 0])


def test_affine_functional_simplex_canonical():
    rows = np.array([[3.0, 1.0, 0.25], [-1.0, 2.0, 0.5], [2.0, 2.0, -2.0]])
    kept = dedup_functionals(rows)
    assert kept.shape == (2, 3)  # the constant row [2, 2, -2] is dropped
    w = kept[:, :-1]
    assert np.allclose(w.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(np.abs(w).max(axis=1), 1.0)
    assert np.all(kept[np.arange(2), np.argmax(np.abs(kept) > 1e-9, axis=1)] > 0)
    # each canonical row is a nonzero multiple of its input on the simplex
    pts = simplex_grid(2, 7)
    ratio = _values(rows[:2], pts) / _values(kept, pts)
    assert np.allclose(ratio, ratio[0])


def test_affine_map_and_pullback():
    rng = np.random.default_rng(3)
    kernel = rng.dirichlet(np.ones(3), size=2)  # rows: images of the corners
    f = VertexInterpolant(_unit_triangulation(3), rng.normal(size=3))
    pieces, boundary = pullback_affine(f, kernel)
    pts = rng.dirichlet(np.ones(2), size=10)
    images = pts @ kernel
    assert np.allclose(images.sum(axis=1), 1.0)
    assert pieces.shape == (1, 3) and boundary.shape[1] == 3
    assert np.allclose(_values(pieces, pts), _values(f.cell_pieces, images))
    assert np.allclose(_values(pieces, pts)[:, 0], f.evaluate_many(images))
    with pytest.raises(GeometryDomainError):
        pullback_affine(f, 2.0 * kernel)
    with pytest.raises(GeometryDomainError):
        pullback_affine(f, kernel[:, :2])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pullback_affine_kernel_rows_sum_to_one_within_eps_geom_per_coordinate(n):
    f = VertexInterpolant(_unit_triangulation(n), np.arange(n, dtype=float))
    kernel = np.full((2, n), 1.0 / n)
    kernel[1, -1] += 0.5 * n * EPS_GEOM
    pullback_affine(f, kernel)
    kernel[1, -1] += 1.5 * n * EPS_GEOM
    with pytest.raises(GeometryDomainError, match=r"outside the target simplex: row 1: coordinates sum to "):
        pullback_affine(f, kernel)


def test_support_measure_validation_and_mean():
    mu = SupportMeasure([[1.0, 0.0], [0.0, 1.0]], [0.3, 0.7])
    assert np.allclose(mu.mean(), [0.3, 0.7])
    with pytest.raises(GeometryDomainError):
        SupportMeasure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.6])
    with pytest.raises(GeometryDomainError):
        SupportMeasure([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: SupportMeasure([1.0, 0.0], [1.0]), "nonempty 2-d array"),
        (lambda: SupportMeasure(np.empty((0, 2)), []), "nonempty 2-d array"),
        (lambda: SupportMeasure([[1.0, 0.0], [0.0, 1.0]], [1.0]), "weights shape"),
        (lambda: SupportMeasure([[1.0, 0.0]], [np.nan]), "weights shape"),
        (lambda: CellArrangement(0, []), "at least one state"),
        (lambda: CellArrangement(2, [[1.0, -1.0]]), "functional dimension"),
        (lambda: CellArrangement(2, [[1.0, np.inf, 0.0]]), "must be finite"),
        (lambda: simplex_grid(0, 3), "n_states >= 1 and resolution >= 1"),
        (lambda: simplex_grid(3, 0), "n_states >= 1 and resolution >= 1"),
        (lambda: Triangulation(np.empty((0, 3)), ()), "nonempty 2-d array"),
        (lambda: VertexInterpolant(_unit_triangulation(2), [0.0, np.inf]), "must be finite"),
        (lambda: barycentric_indices(_unit_triangulation(3), [0.5, 0.5]), "do not have 3 coordinates"),
    ],
    ids=[
        "measure-1d", "measure-empty", "measure-weights", "measure-nan", "arrangement-states",
        "arrangement-width", "arrangement-inf", "grid-states", "grid-resolution", "no-vertices",
        "interpolant-inf", "barycentric-dimension",
    ],
)
def test_geometry_constructors_reject_malformed_inputs(call, fragment):
    with pytest.raises(GeometryDomainError, match=fragment):
        call()


def test_triangulation_dim_is_one_less_than_the_states():
    assert [_unit_triangulation(n).dim for n in (1, 2, 3, 4)] == [0, 1, 2, 3]


def test_locate_many_unit_simplex():
    tri = _unit_triangulation(3)
    pts = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    cells, lam = tri.locate_many(pts)
    assert np.all(cells == 0)
    assert np.allclose(lam, pts)


def test_locate_many_outside_raises():
    tri = Triangulation(
        np.array([[1.0, 0.0], [0.5, 0.5]]), ((0, 1),)
    )
    with pytest.raises(GeometryDomainError):
        tri.locate_many(np.array([[0.1, 0.9]]))


@pytest.mark.parametrize(
    "cells, match",
    [
        (((0, 1), (1, 2)), "full-dimensional"),  # edges, not triangles, in 3 states
        (((-1, 1, 2),), "missing vertex"),
        (((0, 1, 3),), "missing vertex"),
        (((0, 1, 1),), "repeats a vertex"),
        (((0, 1, 2), (1, 2)), "ragged"),
        (((0.0, 1.0, 2.0),), "integers"),
    ],
    ids=["lower-dimensional", "label-minus-one", "label-V", "repeated", "ragged", "float"],
)
def test_triangulation_rejects_invalid_cells(cells, match):
    with pytest.raises(GeometryDomainError, match=match):
        Triangulation(np.eye(3), cells)


@pytest.mark.parametrize("cells", [np.empty((0, 3), dtype=np.intp), ()], ids=["array", "tuple"])
def test_triangulation_accepts_an_empty_cell_array(cells):
    tri = Triangulation(np.eye(3), cells)
    assert tri.simplices.shape == (0, 3) and tri.simplices.dtype == np.intp
    with pytest.raises(GeometryDomainError, match="not covered"):
        tri.locate_many(np.array([[0.5, 0.5, 0.0]]))


def test_triangulation_rejects_a_flat_cell_and_keeps_a_tiny_one():
    collinear = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(GeometryDomainError, match=r"cell \(0, 1, 2\) is affinely degenerate"):
        Triangulation(collinear, ((0, 2, 3), (0, 1, 2)))
    # A corner cell with 1e-9 legs: its determinant is 1e-18, far below
    # EPS_DEGENERATE, but its shape is a proper triangle.
    a, b = [1.0 - 1e-9, 1e-9, 0.0], [1.0 - 1e-9, 0.0, 1e-9]
    tri = Triangulation(np.vstack([np.eye(3), [a, b]]), ((0, 3, 4), (1, 3, 4), (1, 2, 4)))
    assert abs(np.linalg.det(tri.vertices[tri.simplices[0]])) < EPS_DEGENERATE
    cells, _ = tri.locate_many(np.array([[1.0, 0.0, 0.0], [0.2, 0.4, 0.4]]))
    assert cells.tolist() == [0, 2]


def _locate_many_all_cells(tri, points):
    """locate_many as one einsum over every cell, kept as the bit-exact reference."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    bary = np.einsum("cij,pj->pci", tri._cell_inverses, pts)
    feasible = (bary >= -EPS_MEMBER).all(axis=2)
    if not feasible.any(axis=1).all():
        missing = pts[~feasible.any(axis=1)][0]
        raise GeometryDomainError(f"point {missing} is not covered by any cell")
    cell_idx = feasible.argmax(axis=1)
    lam = np.clip(bary[np.arange(len(pts)), cell_idx], 0.0, None)
    lam /= lam.sum(axis=1, keepdims=True)
    return cell_idx, lam


def _reference_locate_many(tri, points):
    """locate_many as it was before the block bound, kept as the bit-exact
    reference: each block of points gets its weights in every cell."""
    pts = geometry._point_rows(points, tri.n_states)
    cols = tri._inverse_columns
    n, _, n_cells, _ = cols.shape
    if n_cells == 0 and len(pts):
        raise GeometryDomainError(f"point {pts[0]} is not covered by any cell")
    coords = np.ascontiguousarray(pts.T)
    cell_idx = np.empty(len(pts), dtype=np.intp)
    lam = np.empty(pts.shape)
    rows = max(1, geometry._LOCATE_BLOCK // (2 * n * max(1, n_cells)))
    for start in range(0, len(pts), rows):
        x = coords[:, start : start + rows]
        k = x.shape[1]
        with np.errstate(invalid="ignore"):
            weights = cols[0] * x[0]
            for j in range(1, n):
                weights = weights + cols[j] * x[j]
            inside = weights.min(axis=0) >= -EPS_MEMBER
        first = inside.argmax(axis=0)
        picked = np.arange(k)
        missing = ~inside[first, picked]
        if missing.any():
            lost = np.flatnonzero(missing)
            slopes = tri._cell_inverses - tri._cell_inverses.mean(axis=2, keepdims=True)
            steepness = np.linalg.norm(slopes, axis=2).T[:, :, None]
            nearest = (weights[:, :, lost] / steepness).min(axis=0)
            best = nearest.argmax(axis=0)
            far = ~(nearest[best, np.arange(len(lost))] >= -EPS_MEMBER)
            if far.any():
                raise GeometryDomainError(f"point {pts[start + lost[far.argmax()]]} is not covered by any cell")
            first[lost] = best
        cell_idx[start : start + k] = first
        lam[start : start + k] = weights[:, first, picked].T
    return cell_idx, geometry._renormalize(lam, out=lam)


def _assert_same_location(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))


def _simplex_dense_games(monkeypatch):
    """The games of bench/workloads.py's simplex-dense workload as --input
    dicts, loaded without writing to bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    games = workloads.WORKLOADS["simplex-dense"].games
    return [workloads.random_game(*game.generated) for game in games]


def _simplex_dense_specs(monkeypatch):
    return [spec_from_dict(game) for game in _simplex_dense_games(monkeypatch)]


def test_locate_many_matches_the_all_cells_reference_on_the_simplex_dense_solves(monkeypatch):
    sizes, evaluated = [], []
    walk = Triangulation.locate_many
    evaluate = VertexInterpolant.evaluate_many

    def checked(tri, points):
        got = walk(tri, points)
        _assert_same_location(got, _locate_many_all_cells(tri, points))
        sizes.append(len(got[0]))
        return got

    def counted(f, points):
        evaluated.append(len(points))
        return evaluate(f, points)

    monkeypatch.setattr(Triangulation, "locate_many", checked)
    monkeypatch.setattr(VertexInterpolant, "evaluate_many", counted)
    for spec in _simplex_dense_specs(monkeypatch):
        solve(spec)
    # evaluate_many locates in blocks, so one call no longer holds the
    # largest pass; its blocks are all checked above
    assert len(sizes) > 30 and sum(sizes) > 500_000 and max(evaluated) > 100_000


def _min_of_pieces_triangulation(n, pieces, seed):
    """Triangulation of the concave envelope of a min of random affine pieces."""
    rows = np.random.default_rng(seed).normal(size=(pieces, n + 1))
    diffs = [rows[i] - rows[j] for i, j in itertools.combinations(range(pieces), 2)]
    env = argcav(lambda points: _values(rows, points).min(axis=1), CellArrangement(n, dedup_functionals(diffs)))
    return env.triangulation


@pytest.mark.parametrize("n", [3, 4])
def test_locate_many_matches_the_reference_on_shared_faces(n):
    tri = _min_of_pieces_triangulation(n, 7, seed=n)
    verts = tri.vertices
    first, second = np.array(
        [edge for cell in tri.simplices for edge in itertools.combinations(cell, 2)]
    ).T
    pts = np.vstack([verts, (verts[first] + verts[second]) / 2, (verts[first] + 2 * verts[second]) / 3])
    got = tri.locate_many(pts)
    _assert_same_location(got, _locate_many_all_cells(tri, pts))
    # the listing order decides: each vertex lands in the first cell that has it
    owners = [min(c for c, cell in enumerate(tri.simplices) if v in cell) for v in range(tri.n_vertices)]
    assert got[0][: tri.n_vertices].tolist() == owners
    assert len(tri.simplices) > 4 and max(map(owners.count, set(owners))) > 1


def test_locate_many_names_the_first_uncovered_point_like_the_reference():
    # the corner cells of the midpoint subdivision, without the middle one
    verts = np.vstack([np.eye(3), [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]])
    tri = Triangulation(verts, ((0, 3, 4), (1, 3, 5), (2, 4, 5)))
    covered = np.array([[0.8, 0.1, 0.1], [0.5, 0.5, 0.0], [0.1, 0.1, 0.8]])
    for uncovered in ([[0.3, 0.3, 0.4], [1 / 3, 1 / 3, 1 / 3]], [[0.4, 0.3, 0.3], [np.nan, 0.5, 0.5]]):
        pts = np.vstack([covered, uncovered, covered])
        with pytest.raises(GeometryDomainError) as got:
            tri.locate_many(pts)
        with pytest.raises(GeometryDomainError) as want:
            _locate_many_all_cells(tri, pts)
        assert str(got.value) == str(want.value) == f"point {pts[3]} is not covered by any cell"
    _assert_same_location(tri.locate_many(covered), _locate_many_all_cells(tri, covered))


def _band_points(tri, rng):
    """Points a few ulps to either side of weight -EPS_MEMBER in some cell,
    across the facets that lie inside the simplex, with their cells and slots."""
    pts, cells, slots = [], [], []
    for c, cell in enumerate(tri.simplices):
        corners = tri.vertices[cell]
        for k in np.repeat(np.arange(tri.n_states), 4):
            lam = np.insert(rng.dirichlet(np.ones(tri.n_states - 1)) * (1.0 + EPS_MEMBER), k, -EPS_MEMBER)
            on_level = lam @ corners
            if on_level.min() < 1e-3:
                continue  # a facet on the simplex boundary: nothing lies beyond it
            toward = corners[k] - on_level
            for step in range(-6, 7):
                pts.append(on_level + step * 2.0**-52 * toward)
                cells.append(c)
                slots.append(k)
    return np.array(pts), np.array(cells), np.array(slots)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_locate_many_matches_the_reference_across_blocks_and_the_membership_band(n, monkeypatch):
    rng = np.random.default_rng(40 + n)
    tri = _min_of_pieces_triangulation(n, 9, seed=n)
    band, band_cells, band_slots = _band_points(tri, rng)
    # the band straddles the membership threshold in the einsum the artifacts rest on
    weights = np.einsum("pij,pj->pi", tri._cell_inverses[band_cells], band)[np.arange(len(band)), band_slots]
    assert (weights >= -EPS_MEMBER).any() and (weights < -EPS_MEMBER).any()
    assert np.abs(weights + EPS_MEMBER).max() < 1e-13
    pts = np.vstack([rng.dirichlet(np.ones(n), size=1500), tri.vertices, band])
    pts = pts[rng.permutation(len(pts))]
    want = _locate_many_all_cells(tri, pts)
    _assert_same_location(tri.locate_many(pts), want)
    # blocks of 5 points put a seam between most neighbours
    monkeypatch.setattr(geometry, "_LOCATE_BLOCK", 5 * 2 * tri.simplices.size)
    _assert_same_location(tri.locate_many(pts), want)


def test_locate_many_names_the_first_uncovered_point_in_blocks_of_any_size(monkeypatch):
    # the corner cells of the midpoint subdivision, without the middle one
    verts = np.vstack([np.eye(3), [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]])
    tri = Triangulation(verts, ((0, 3, 4), (1, 3, 5), (2, 4, 5)))
    covered = np.array([[0.8, 0.1, 0.1], [0.5, 0.5, 0.0], [0.1, 0.1, 0.8]])
    # Each first uncovered point comes before the centre, which no cell
    # holds either: a NaN row has a NaN weight in every cell, and the edge
    # point lies in the hole just past cell 0's facet, a few ulps beyond
    # the membership bound on its distance to the facet, whether it shares
    # a block with the centre or not.
    outward = np.array([1.0, -0.5, -0.5]) / math.sqrt(1.5)
    edge = np.array([0.5, 0.25, 0.25]) - (EPS_MEMBER + 2.0**-50) * outward
    assert -EPS_MEMBER - 1e-14 < _facet_distances(tri, edge)[0].min() < -EPS_MEMBER
    for uncovered in ([[np.nan, 0.5, 0.5], [1 / 3, 1 / 3, 1 / 3]], [edge, [1 / 3, 1 / 3, 1 / 3]]):
        pts = np.vstack([covered, uncovered, covered])
        for block in (geometry._LOCATE_BLOCK, 2 * 2 * tri.simplices.size, 2 * tri.simplices.size):
            monkeypatch.setattr(geometry, "_LOCATE_BLOCK", block)
            with pytest.raises(GeometryDomainError) as got:
                tri.locate_many(pts)
            with pytest.raises(GeometryDomainError) as want:
                _locate_many_all_cells(tri, pts)
            assert str(got.value) == str(want.value) == f"point {pts[3]} is not covered by any cell"


def _facet_distances(tri, point):
    """(C, n): the signed distance from point to each cell's facet opposite
    each vertex, the weight over the length of its gradient along the simplex."""
    invs = tri._cell_inverses
    slopes = invs - invs.mean(axis=2, keepdims=True)
    return np.einsum("cij,j->ci", invs, point) / np.linalg.norm(slopes, axis=2)


def _weights_in_index_order(tri, points):
    """(..., C, n): each point's weights in every cell as locate_many sums
    them, for one point (n,) or a stack of them (..., n)."""
    invs, x = tri._cell_inverses, np.asarray(points)[..., None, None, :]
    weights = invs[:, :, 0] * x[..., 0]
    for j in range(1, tri.n_states):
        weights = weights + invs[:, :, j] * x[..., j]
    return weights


def test_locate_many_takes_a_point_within_the_membership_distance_of_a_cell():
    # The point lies past cell 0's facet into the hole: its weight there
    # is a few ulps below -EPS_MEMBER, but it is only 6.1e-10 from the facet.
    verts = np.vstack([np.eye(3), [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]])
    tri = Triangulation(verts, ((0, 3, 4), (1, 3, 5), (2, 4, 5)))
    point = np.array([0.5, 0.25, 0.25]) - (EPS_MEMBER / 2 + 2.0**-52) * np.array([1.0, -0.5, -0.5])
    assert -EPS_MEMBER - 1e-14 < _weights_in_index_order(tri, point)[0].min() < -EPS_MEMBER
    assert -EPS_MEMBER < _facet_distances(tri, point)[0].min() < -EPS_MEMBER / 2
    covered = np.array([[0.8, 0.1, 0.1], [0.5, 0.5, 0.0], [0.1, 0.1, 0.8]])
    cells, lam = tri.locate_many(np.vstack([covered, point, covered]))
    assert cells.tolist() == [0, 0, 2, 0, 0, 0, 2]
    # its weights are clipped and renormalized, and the other rows are untouched
    assert lam[3].tolist() == [0.0, 0.5, 0.5]
    _assert_same_location((cells[4:], lam[4:]), _locate_many_all_cells(tri, covered))


def test_locate_many_takes_seed_13s_uncovered_point_into_a_needle_cell():
    # Stage 1 of near-tie corpus game (3 states, seed 13) evaluates the
    # continuation at this point of stage 2's triangulation.  No cell holds
    # it by weights, and the cell it lands in, 1.9e-17 away, is a needle.
    tri = solve(spec_from_dict(near_tie_game(3, 13))).stage(2).triangulation
    point = np.array([0.32810588058123613, 0.2748644645029597, 0.3970296549158042])
    assert (_weights_in_index_order(tri, point).min(axis=1) < -EPS_MEMBER).all()
    cells, lam = tri.locate_many(point[None, :])
    assert cells.tolist() == [5] and tri.simplices[5].tolist() == [2, 6, 7]
    assert -2e-17 < _facet_distances(tri, point)[5].min() < 0.0
    # two of its vertices are 1.6e-9 apart; clipping a weight moves the
    # split's mean by 1.1e-9
    corners = tri.vertices[tri.simplices[5]]
    assert np.abs(corners[1] - corners[2]).max() < 2e-9
    assert lam.min() >= 0.0 and np.abs(lam[0] @ corners - point).max() < 2e-9


def test_locate_many_memory_stays_near_one_points_array():
    # 14 cells fanned from the corner e0 over the edge from e1 to e2
    ts = np.linspace(0.0, 1.0, 15)
    verts = np.vstack([[1.0, 0.0, 0.0], np.column_stack([np.zeros(15), 1.0 - ts, ts])])
    tri = Triangulation(verts, tuple((0, k, k + 1) for k in range(1, 15)))
    pts = np.random.default_rng(5).dirichlet(np.ones(3), size=100_000)
    tri.locate_many(pts[:1])  # the cell inverses are cached outside the trace
    tracemalloc.start()
    try:
        got = tri.locate_many(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all cells' weights at once, (100,000, 14, 3) floats, are 33.6 MB
    assert peak < 16 * 2**20
    _assert_same_location(got, _locate_many_all_cells(tri, pts))


def _assert_located_like_the_reference(tri, points, blocks):
    """locate_many at each of the block sizes (points per block, None for
    the default) gives the reference's cells and weight bits, or its error."""
    try:
        want = _reference_locate_many(tri, points)
    except GeometryDomainError as error:
        want = error
    default = geometry._LOCATE_BLOCK
    try:
        for rows in blocks:
            size = default if rows is None else 2 * tri.n_states * max(1, len(tri.simplices)) * rows
            geometry._LOCATE_BLOCK = size
            if isinstance(want, GeometryDomainError):
                with pytest.raises(GeometryDomainError) as got:
                    tri.locate_many(points)
                assert str(got.value) == str(want)
            else:
                _assert_same_location(tri.locate_many(points), want)
    finally:
        geometry._LOCATE_BLOCK = default


def test_locate_many_matches_the_reference_on_every_golden_and_bench_stage(monkeypatch, tmp_path):
    # Every location the golden artifacts and the bench games make: the
    # objective pass pushes candidates through each action's kernel into
    # the next stage's triangulation, and split_many and the deviation
    # check locate beliefs.  Blocks of 3 points (499 in calls of 2,000 or
    # more) put the bound on every block.
    calls, walk = [], Triangulation.locate_many

    def recorded(tri, points):
        calls.append((tri, np.array(points, dtype=float)))
        return walk(tri, points)

    monkeypatch.setattr(Triangulation, "locate_many", recorded)
    for name in sorted(GOLDEN_CASES):
        run_case(name, tmp_path)
    for k, game in enumerate(_simplex_dense_games(monkeypatch)):
        path = tmp_path / f"simplex-dense-{k}.json"
        path.write_text(json.dumps(game))
        assert main(["evaluate", "--input", str(path), "--out", str(tmp_path / "out.json")]) == 0
    monkeypatch.setattr(Triangulation, "locate_many", walk)
    for tri, points in calls:
        _assert_located_like_the_reference(tri, points, (None, 3 if len(points) < 2000 else 499))
    assert {tri.n_states for tri, _ in calls} == {1, 2, 3, 4}
    assert len(calls) > 250 and sum(len(points) for _, points in calls) > 500_000


def _sliver_fan(n, width=2.0**-10):
    """The corners e_0 .. e_{n-3} coned over a split edge from e_{n-2} to
    e_{n-1}: cells of width `width` along the edge's first eighth, then one
    fat cell, so the sliver inverses reach 1 / width."""
    ts = np.append(np.arange(9) * width, 1.0)
    edge = np.zeros((len(ts), n))
    edge[:, n - 2], edge[:, n - 1] = 1.0 - ts, ts
    verts = np.vstack([np.eye(n)[: n - 2], edge])
    cone = tuple(range(n - 2))
    return Triangulation(verts, tuple((*cone, n - 2 + k, n - 1 + k) for k in range(len(ts) - 1)))


def _location_inputs(tri, rng):
    """Points for the reference comparison: random ones, the vertices,
    points on shared facets, and rows up to EPS_MEMBER off the simplex."""
    n = tri.n_states
    corners = tri.vertices[tri.simplices]
    first, second = np.array([edge for c in corners for edge in itertools.combinations(c, 2)]).transpose(1, 0, 2)
    facets = np.einsum("cp,cpj->cj", rng.dirichlet(np.ones(n - 1), size=len(corners)), corners[:, 1:])
    pts = np.vstack([rng.dirichlet(np.ones(n), size=400), tri.vertices, (first + second) / 2, (first + 2 * second) / 3, facets])
    off = pts[rng.integers(len(pts), size=40)] + rng.uniform(-1.0, 1.0, size=(40, n)) * EPS_MEMBER / n
    return rng.permutation(np.vstack([pts, off]))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("shape", ["min-of-pieces", "sliver-fan"])
def test_locate_many_matches_the_reference_on_random_and_sliver_triangulations(n, shape):
    rng = np.random.default_rng(70 + n)
    tri = _min_of_pieces_triangulation(n, 9, seed=n) if shape == "min-of-pieces" else _sliver_fan(n)
    assert np.abs(tri._cell_inverses).max() > (1e3 if shape == "sliver-fan" else 2.0)
    pts = _location_inputs(tri, rng)
    blocks = (None, 1, 7, 64)
    _assert_located_like_the_reference(tri, pts, blocks)
    for empty_or_one in (pts[:0], pts[:1], pts[0]):
        _assert_located_like_the_reference(tri, empty_or_one, blocks)
    # a row far off the simplex, or with a NaN or an infinity, is named by
    # the error wherever it sits, and a block of clean rows around it is
    # located as before
    bad_rows = ([np.nan] + [0.5] * (n - 1), [np.inf] + [0.0] * (n - 1), [-np.inf] + [1.0] * (n - 1), [2.0] + [-1.0 / (n - 1)] * (n - 1))
    for bad in bad_rows:
        for at in (0, 33, len(pts)):
            _assert_located_like_the_reference(tri, np.insert(pts, at, bad, axis=0), blocks)


def test_locate_many_matches_the_reference_on_distance_rule_points():
    # seed 13's point, which only the facet distance places, in a block of
    # points that cells hold, and a point of the hole that no rule places
    tri = solve(spec_from_dict(near_tie_game(3, 13))).stage(2).triangulation
    point = np.array([0.32810588058123613, 0.2748644645029597, 0.3970296549158042])
    pts = np.insert(_location_inputs(tri, np.random.default_rng(13)), 17, point, axis=0)
    _assert_located_like_the_reference(tri, pts, (None, 1, 7, 64))
    holed, centre, placed, _ = _holed_triangulation(3)
    pts = _location_inputs(holed, np.random.default_rng(3))
    _assert_located_like_the_reference(holed, np.insert(pts, 9, placed, axis=0), (None, 1, 7, 64))
    _assert_located_like_the_reference(holed, np.insert(pts, [9, 40], [placed, centre], axis=0), (None, 1, 7, 64))


def _threshold_points(tri):
    """Points whose computed weight in some cell lies at -EPS_MEMBER: for
    each cell and each facet inside the simplex, the two points nearest the
    threshold on either side, along the segment toward the opposite vertex."""
    pts = []
    for c, cell in enumerate(tri.simplices):
        corners = tri.vertices[cell]
        for i in range(tri.n_states):
            rest = np.delete(corners, i, axis=0).mean(axis=0)
            toward = corners[i] - rest
            on_level = rest - EPS_MEMBER * toward
            if on_level.min() < 1e-3:
                continue  # a facet on the simplex boundary
            quantum = np.spacing(np.abs(tri._cell_inverses[c, i]).sum())
            along = on_level + np.linspace(-8.0, 8.0, 129)[:, None] * quantum * toward
            weights = _weights_in_index_order(tri, along)[:, c, i]
            inside = weights >= -EPS_MEMBER
            pts += [along[inside][weights[inside].argmin()], along[~inside][weights[~inside].argmax()]]
    return np.array(pts)


@pytest.mark.parametrize("n", [3, 4])
def test_cells_reached_keeps_every_cell_that_holds_a_point_of_the_block(n):
    # The block bound drops a cell only if no point of the block is in it
    # by weights: checked on points at the membership threshold, alone, in
    # pairs that straddle it, and in blocks with random points, on slivers
    # whose inverses reach 1e3.
    tri = _sliver_fan(n)
    assert np.abs(tri._cell_inverses).max() > 1e3
    threshold = _threshold_points(tri)
    # each point's weight is within a rounding quantum of -EPS_MEMBER in
    # some cell, and half of them lie outside that cell
    lowest = _weights_in_index_order(tri, threshold).min(axis=2)
    assert len(threshold) > 2 * len(tri.simplices)
    assert (np.abs(lowest + EPS_MEMBER) < 1e-12).any(axis=1).all()
    assert ((lowest < -EPS_MEMBER) & (lowest > -EPS_MEMBER - 1e-12)).any(axis=1).sum() >= len(threshold) // 2
    rng = np.random.default_rng(n)
    blocks = [threshold[k : k + 1] for k in range(len(threshold))]
    blocks += [threshold[k : k + 2] for k in range(len(threshold) - 1)]
    mixed = rng.permutation(np.vstack([threshold, rng.dirichlet(np.ones(n), size=3 * len(threshold))]))
    blocks += [mixed[k : k + 7] for k in range(0, len(mixed), 7)] + [mixed]
    pruned = 0
    for block in blocks:
        held = np.flatnonzero((_weights_in_index_order(tri, block).min(axis=2) >= -EPS_MEMBER).any(axis=0))
        kept = geometry._cells_reached(tri._inverse_columns, np.ascontiguousarray(block.T))
        if kept is not None:
            assert set(held) <= set(kept.tolist())
            pruned += len(kept) < len(tri.simplices)
    assert pruned > len(blocks) // 2
    # and locate_many, one point per block or several, places them as before
    _assert_located_like_the_reference(tri, mixed, (None, 1, 2, 7))


def test_cells_reached_keeps_a_cell_whose_weight_is_exactly_minus_eps_member():
    # The midpoint subdivision.  Off the edge from e1 to e2, next to its
    # midpoint, the corner cells 1 and 2 have the weight 2 x_0, so a point
    # with x_0 = -EPS_MEMBER / 2 has weight exactly -EPS_MEMBER there, and
    # the middle cell, listed last, holds it with room to spare.  A bound
    # one ulp too low, or a strict test, would send it to the middle cell.
    verts = np.vstack([np.eye(3), [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]])
    tri = Triangulation(verts, ((0, 3, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)))
    levels = (np.nextafter(-EPS_MEMBER, -1.0), -EPS_MEMBER, np.nextafter(-EPS_MEMBER, 0.0))
    pts = np.array([[level / 2, 0.5 + EPS_MEMBER / 4, 0.5 + EPS_MEMBER / 4] for level in levels])
    weights = _weights_in_index_order(tri, pts)
    assert weights[:, 1, 1].tolist() == weights[:, 2, 1].tolist() == list(levels)
    assert (weights[:, 3] > -EPS_MEMBER).all() and (np.delete(weights[:, 1:3], 1, axis=2) > 0).all()
    for point, cells in zip(pts, ([3], [1, 2, 3], [1, 2, 3])):
        kept = geometry._cells_reached(tri._inverse_columns, point[:, None])
        assert kept.tolist() == cells
    assert _reference_locate_many(tri, pts)[0].tolist() == [3, 1, 1]
    _assert_located_like_the_reference(tri, pts, (None, 1, 3))


def _holed_triangulation(n):
    """A min-of-pieces triangulation less one cell, the hole, plus points:
    (tri, the hole's centroid, a point in the hole that only the facet
    distance places, its cell).  The point lies just past the steepest
    facet that the hole shares with a kept cell."""
    full = _min_of_pieces_triangulation(n, 7, seed=n)
    slopes = full._cell_inverses - full._cell_inverses.mean(axis=2, keepdims=True)
    steepness, owner, hole, k = max(
        (np.linalg.norm(slopes[c, k]), c, h, k)
        for c, h in itertools.permutations(range(len(full.simplices)), 2)
        for k in range(n)
        if set(full.simplices[c]) - {full.simplices[c][k]} <= set(full.simplices[h])
    )
    tri = Triangulation(full.vertices, np.delete(full.simplices, hole, axis=0))
    facet = np.delete(full.vertices[full.simplices[owner]], k, axis=0).mean(axis=0)
    # the weight drops by steepness per unit step: below -EPS_MEMBER, while
    # the distance stays above it
    step = EPS_MEMBER * (1.0 + 1.0 / steepness) / 2.0
    point = facet - step * slopes[owner, k] / steepness
    assert steepness > 2.0 and (_weights_in_index_order(tri, point).min(axis=1) < -EPS_MEMBER).all()
    assert _facet_distances(tri, point).min(axis=1).max() >= -EPS_MEMBER
    return tri, full.vertices[full.simplices[hole]].mean(axis=0), point, owner - (owner > hole)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("columns", [None, 2], ids=["1-d", "2-column"])
def test_evaluate_many_gives_the_one_block_bits_in_blocks_of_any_size(n, columns, monkeypatch):
    rng = np.random.default_rng(60 + n)
    tri, centre, point, cell = _holed_triangulation(n)
    values = rng.normal(size=(tri.n_vertices,) if columns is None else (tri.n_vertices, columns))
    f = VertexInterpolant(tri, values)
    corners = tri.vertices[tri.simplices]
    first, second = np.array([edge for c in corners for edge in itertools.combinations(c, 2)]).transpose(1, 0, 2)
    inside = np.einsum("cp,cpj->cj", rng.dirichlet(np.ones(n), size=len(corners)), corners)
    # vertices and edge points lie on faces that cells share
    pts = np.vstack([tri.vertices[np.unique(tri.simplices)], (first + second) / 2, (first + 2 * second) / 3, inside, point])
    pts = np.insert(pts[rng.permutation(len(pts))], 5, point, axis=0)
    assert tri.locate_many(point[None, :])[0].tolist() == [cell]
    want = f.evaluate_many(pts)
    empty = f.evaluate_many(np.empty((0, n)))
    assert want.shape == (len(pts),) + values.shape[1:] and empty.shape == (0,) + values.shape[1:]
    holed = np.insert(pts, [11, 23], [centre, centre + 1e-3 * (point - centre)], axis=0)
    for block in (1, 7, geometry._EVALUATE_BLOCK):
        monkeypatch.setattr(geometry, "_EVALUATE_BLOCK", block)
        assert np.array_equal(f.evaluate_many(pts).view(np.int64), want.view(np.int64))
        assert np.array_equal(f.evaluate_many(np.empty((0, n))), empty)
        with pytest.raises(GeometryDomainError) as got:
            f.evaluate_many(holed)
        assert str(got.value) == f"point {holed[11]} is not covered by any cell"


def test_evaluate_many_memory_stays_near_one_points_array():
    # the 14-cell fan of test_locate_many_memory_stays_near_one_points_array,
    # with two value columns
    ts = np.linspace(0.0, 1.0, 15)
    verts = np.vstack([[1.0, 0.0, 0.0], np.column_stack([np.zeros(15), 1.0 - ts, ts])])
    tri = Triangulation(verts, tuple((0, k, k + 1) for k in range(1, 15)))
    f = VertexInterpolant(tri, np.random.default_rng(6).normal(size=(16, 2)))
    pts = np.random.default_rng(5).dirichlet(np.ones(3), size=100_000)
    want = f.evaluate_many(pts)
    tracemalloc.start()
    try:
        got = f.evaluate_many(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (100,000, 2) output is 1.5 MiB; located all at once the pass
    # holds 10.5 MiB, in blocks 5.7 MiB
    assert peak < 7 * 2**20
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_location_and_interpolation_reject_points_of_another_dimension():
    segment = VertexInterpolant(_unit_triangulation(2), np.array([1.0, 2.0]))
    with pytest.raises(GeometryDomainError, match=r"shape \(1, 3\) do not have 2 coordinates"):
        segment.evaluate_many(np.array([[0.2, 0.3, 0.5]]))
    with pytest.raises(GeometryDomainError, match=r"shape \(1, 3\) do not have 2 coordinates"):
        segment([0.2, 0.3, 0.5])
    tri = _unit_triangulation(3)
    for point, shape in (([0.4, 0.6], r"\(1, 2\)"), ([0.1, 0.2, 0.3, 0.4], r"\(1, 4\)")):
        with pytest.raises(GeometryDomainError, match=shape + " do not have 3 coordinates"):
            tri.locate_many(np.array([point]))
        with pytest.raises(GeometryDomainError, match=shape + " do not have 3 coordinates"):
            VertexInterpolant(tri, np.zeros(3)).evaluate_many(np.array([point]))


def test_split_many_rows():
    tri = _min_of_pieces_triangulation(3, 7, seed=3)
    pts = np.vstack([tri.vertices, np.random.default_rng(2).dirichlet(np.ones(3), size=200)])
    labels, weights = tri.split_many(pts)
    assert labels.shape == weights.shape == pts.shape
    kept = weights > 0.0
    # kept slots first, with ascending labels; dropped slots carry weight 0
    assert np.all(kept[:, :-1] >= kept[:, 1:])
    assert np.all(np.where(kept[:, 1:], np.diff(labels, axis=1) > 0, True))
    assert np.all(kept.sum(axis=1)[: tri.n_vertices] == 1)
    assert np.allclose(weights.sum(axis=1), 1.0)
    assert np.allclose(np.einsum("pk,pkj->pj", weights, tri.vertices[labels]), pts, atol=1e-12)
    # barycentric_indices is the kept part of one row, after as_simplex_point
    for p in pts[:: 10]:
        ids, w = barycentric_indices(tri, p)
        row_labels, row_weights = tri.split_many(as_simplex_point(p)[None, :])
        kept = row_weights[0] > 0.0
        assert np.array_equal(ids, row_labels[0, kept]) and np.array_equal(w, row_weights[0, kept])


def test_barycentric_mean_recovers_point():
    tri = Triangulation(
        np.array([[0.0, 1.0], [0.4, 0.6], [1.0, 0.0]]), ((0, 1), (1, 2))
    )
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.dirichlet(np.ones(2))
        mu = barycentric(tri, p)
        assert np.allclose(mu.mean(), p, atol=1e-9)
        assert mu.n_atoms <= 2
        ids, w = barycentric_indices(tri, p)
        assert w.min() > 0.0
        assert np.allclose(w @ tri.vertices[ids], p, atol=1e-9)


def test_vertex_interpolant_matches_vertex_values_and_is_linear():
    tri = Triangulation(
        np.array([[0.0, 1.0], [0.25, 0.75], [1.0, 0.0]]), ((0, 1), (1, 2))
    )
    f = VertexInterpolant(tri, np.array([1.0, 3.0, 0.0]))
    assert np.allclose(f.evaluate_many(tri.vertices), [1.0, 3.0, 0.0])
    # linear inside each cell: midpoint value is the value average
    for cell in tri.simplices:
        a, b = tri.vertices[list(cell)]
        mid = 0.5 * (a + b)
        assert f(mid) == pytest.approx(0.5 * (f(a) + f(b)), abs=1e-12)
    # 2-state fast path agrees with the generic path at random points
    rng = np.random.default_rng(5)
    pts = rng.dirichlet(np.ones(2), size=40)
    direct = np.array([f(p) for p in pts])
    assert np.allclose(f.evaluate_many(pts), direct, atol=1e-12)


@pytest.mark.parametrize("cells", [((0, 1),), np.empty((0, 2), dtype=np.intp)], ids=["gap", "empty"])
def test_two_state_interpolant_evaluates_only_where_its_cells_cover(cells):
    tri = Triangulation(np.array([[1.0, 0.0], [0.6, 0.4], [0.0, 1.0]]), cells)
    f = VertexInterpolant(tri, np.array([0.0, 1.0, 5.0]))
    with pytest.raises(GeometryDomainError, match="not covered"):
        f.evaluate_many(np.array([[0.1, 0.9]]))
    if len(tri.simplices):
        assert f([0.8, 0.2]) == pytest.approx(0.5)


def test_vertex_interpolant_cell_pieces_and_boundaries():
    tri = Triangulation(
        np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]), ((0, 1), (1, 2))
    )
    f = VertexInterpolant(tri, np.array([0.0, 1.0, 0.0]))
    pieces = f.cell_pieces
    assert pieces.shape == (2, 3)
    mids = np.array([[0.25, 0.75], [0.75, 0.25]])
    for piece, mid in zip(pieces, mids):
        assert _values([piece], mid)[0, 0] == pytest.approx(f(mid), abs=1e-12)
    assert len(tri.boundary_functionals) >= 1


@pytest.mark.parametrize("n", [2, 3])
def test_value_columns_match_one_column_interpolants(n):
    # Each column of a (V, 2) interpolant must round exactly like its own
    # one-column interpolant, or stage values drift in their last bits.
    if n == 2:
        tri = Triangulation(
            np.array([[0.3, 0.7], [0.0, 1.0], [1.0, 0.0], [0.8, 0.2]]), ((1, 0), (0, 3), (3, 2))
        )
    else:
        tri = Triangulation(
            np.vstack([np.eye(3), [[0.2, 0.3, 0.5]]]), ((0, 1, 3), (1, 2, 3), (0, 2, 3))
        )
    rng = np.random.default_rng(40 + n)
    both = VertexInterpolant(tri, rng.uniform(-1.0, 1.0, size=(tri.n_vertices, 2)))
    columns = [VertexInterpolant(tri, both.values[:, j]) for j in range(2)]
    pts = rng.dirichlet(np.ones(n), size=50)
    kernel = rng.dirichlet(np.ones(n), size=n)
    values = both.evaluate_many(pts)
    pulled, boundary = pullback_affine(both, kernel)
    assert values.shape == (50, 2)
    assert both.cell_pieces.shape == pulled.shape == (2, len(tri.simplices), n + 1)
    for j, f in enumerate(columns):
        assert np.array_equal(values[:, j], f.evaluate_many(pts))
        assert np.array_equal([both(p)[j] for p in pts[:5]], [f(p) for p in pts[:5]])
        assert np.array_equal(both.cell_pieces[j], f.cell_pieces)
        f_pulled, f_boundary = pullback_affine(f, kernel)
        assert np.array_equal(pulled[j], f_pulled)
        assert np.array_equal(boundary, f_boundary)


def test_vertex_interpolant_rejects_bad_value_shapes():
    tri = _unit_triangulation(3)
    for shape in ((), (2,), (4,), (2, 2), (3, 2, 1)):
        with pytest.raises(GeometryDomainError, match="per vertex"):
            VertexInterpolant(tri, np.zeros(shape))


def test_pullback_affine_composes():
    tri = Triangulation(
        np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]), ((0, 1), (1, 2))
    )
    f = VertexInterpolant(tri, np.array([0.0, 2.0, 1.0]))
    kernel = np.array([[0.8, 0.2], [0.1, 0.9]])
    pieces, boundary = pullback_affine(f, kernel)
    assert pieces.shape == (2, 3)
    rng = np.random.default_rng(7)
    pts = rng.dirichlet(np.ones(2), size=30)
    # f is concave here, so it is the min of its pulled-back cell pieces
    assert np.allclose(_values(pieces, pts).min(axis=1), f.evaluate_many(pts @ kernel), atol=1e-12)
    # the kink of f at 1/2 pulls back to where x @ kernel crosses 1/2
    kink = np.array([(0.5 - 0.1) / 0.7, 1.0 - (0.5 - 0.1) / 0.7])
    assert np.abs(_values(boundary, kink)).min() < 1e-12


def test_dedup_functionals_collapses_equivalent():
    f1 = [1.0, -1.0, 0.0]
    f2 = [2.0, -2.0, 0.0]         # scaled
    f3 = [-1.0, 1.0, 0.0]         # sign flipped
    f4 = [2.0, 0.0, -1.0]         # same zero set on the simplex
    const = [1.0, 1.0, 1.0]       # constant: dropped
    kept = dedup_functionals([f1, f2, f3, f4, const])
    assert len(kept) == 1
    f5 = [1.0, 0.0, -0.25]
    assert len(dedup_functionals([f1, f5])) == 2
    # first occurrences survive, in input order
    assert np.allclose(dedup_functionals([f5, f1, f4]), [[1.0, -1.0, 0.5], [1.0, -1.0, 0.0]])
    # a tuple of 1-d rows is accepted, and no rows give no rows
    assert dedup_functionals(tuple(np.array([f1, f2]))).shape == (1, 3)
    assert len(dedup_functionals(())) == 0



def _dedup_functionals_by_unique(functionals):
    # dedup_functionals with np.unique(axis=0, return_index=True) on the
    # rounded keys: the reference for its stable lexsort
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
    return keys[np.sort(first)]


def test_dedup_functionals_matches_unique():
    rng = np.random.default_rng(11)
    base = rng.uniform(-1, 1, (6, 4))
    lattice = rng.integers(-2, 3, (200, 4)).astype(float)
    cases = {
        "exact duplicates": np.vstack([base, base[::-1], base[2:4]]),
        "scaled and negated": np.vstack([base, 3.0 * base, -0.5 * base, -base[::-1]]),
        "below the rounding": np.vstack([base, base + 1e-14, base - 3e-14]),
        "negative zero": np.array([[1.0, -0.0, 0.5, -0.0], [1.0, 0.0, 0.5, 0.0], [-0.0, 1.0, 0.0, 0.25]]),
        "lattice": lattice,
        "one row": base[:1],
        "empty": np.empty((0, 4)),
    }
    for name, rows in cases.items():
        got, want = dedup_functionals(rows), _dedup_functionals_by_unique(rows)
        assert got.shape == want.shape and np.array_equal(got, want), name
    assert len(dedup_functionals(cases["lattice"])) < len(cases["lattice"])

def test_candidate_vertices_two_states():
    arr = CellArrangement(2, [[1.0, -1.0, 0.0]])
    cand = candidate_vertices(arr)
    assert np.allclose(cand, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])


def test_candidate_vertices_two_states_snaps_a_near_corner_crossing():
    # the crossing 1 / (1 + 1e-13) is within EPS_GEOM of the corner (1, 0),
    # and the corner itself is what comes back
    cand = candidate_vertices(CellArrangement(2, [[-(1 + 1e-13), 0.0, 1.0]]))
    assert cand.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_candidate_vertices_three_states():
    arr = CellArrangement(
        3,
        [
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -0.5],
        ],
    )
    cand = candidate_vertices(arr)
    expect = np.array(
        [
            [0.0, 0.0, 1.0],
            [0.0, 0.5, 0.5],
            [0.0, 1.0, 0.0],
            [0.25, 0.25, 0.5],
            [0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0],
            [1.0, 0.0, 0.0],
        ]
    )
    assert cand.shape == expect.shape
    assert np.allclose(cand, expect, atol=1e-12)


def test_argcav_concave_min_is_kept():
    # min(x0, x1) is concave: the envelope is the function itself and the
    # kink at 1/2 must appear as a vertex.
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def psi(points):
        return _values(rows, points).min(axis=1)

    env = argcav(psi, CellArrangement(2, dedup_functionals([rows[0] - rows[1]])))
    assert np.allclose(env.triangulation.vertices, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    assert np.allclose(env.values, [0.0, 0.5, 0.0])
    assert env.triangulation.simplices.tolist() == [[0, 1], [1, 2]]


def test_argcav_convex_max_flattens():
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def psi(points):
        return _values(rows, points).max(axis=1)

    env = argcav(psi, CellArrangement(2, dedup_functionals([rows[0] - rows[1]])))
    assert env.triangulation.n_vertices == 2
    pts = simplex_grid(2, 50)
    assert np.allclose(env.evaluate_many(pts), 1.0)


def test_candidate_vertices_refuses_an_oversized_enumeration():
    # as many functionals as stage 1 of bench/workloads.py's
    # random_game(1, 4, 3, 4): C(3443, 3), about 6.8e9 linear systems
    rows = np.random.default_rng(0).normal(size=(3439, 5))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(CandidateBudgetExceeded) as err:
            candidate_vertices(CellArrangement(4, rows))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 16 * 2**20
    e = err.value
    subsets = math.comb(3443, 3)
    assert (e.functionals, e.n_states, e.subsets, e.cap, e.stage) == (3439, 4, subsets, CANDIDATE_CAP, None)
    assert str(e) == (
        f"candidate enumeration over 3439 functionals in 4 states needs {subsets} subsets, "
        f"over the cap of {CANDIDATE_CAP}"
    )


def test_argcav_concave_kink_two_pieces():
    rows = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def psi(points):
        return _values(rows, points).min(axis=1)

    env = argcav(psi, CellArrangement(2, dedup_functionals([rows[0] - rows[1]])))
    assert np.allclose(env.triangulation.vertices[:, 0], [0.0, 1.0 / 3.0, 1.0])
    assert np.allclose(env.values, [0.0, 2.0 / 3.0, 0.0])


def test_argcav_three_states_properties():
    rng = np.random.default_rng(17)
    pts = simplex_grid(3, 40)
    for trial in range(5):
        fs = np.array([np.append(rng.normal(size=3), rng.normal() * 0.2) for _ in range(3)])

        def psi(points, fs=fs):
            return _values(fs, points).max(axis=1)

        diffs = [fs[0] - fs[1], fs[0] - fs[2], fs[1] - fs[2]]
        env = argcav(psi, CellArrangement(3, dedup_functionals(diffs)))
        ok, problems = validate_triangulation(env.triangulation)
        assert ok, problems
        # touches psi at vertices, majorizes psi everywhere
        assert np.allclose(
            env.evaluate_many(env.triangulation.vertices),
            psi(env.triangulation.vertices),
            atol=1e-9,
        )
        vals = env.evaluate_many(pts)
        assert np.all(vals >= psi(pts) - 1e-9)
        # concavity along random chords
        a = pts[rng.integers(0, len(pts), size=200)]
        b = pts[rng.integers(0, len(pts), size=200)]
        lam = rng.random(200)[:, None]
        mix = lam * a + (1 - lam) * b
        mixed = env.evaluate_many(mix)
        assert np.all(
            mixed
            >= lam[:, 0] * env.evaluate_many(a) + (1 - lam[:, 0]) * env.evaluate_many(b) - 1e-9
        )


def test_argcav_affine_three_states_is_exact():
    f = np.array([[0.3, -0.2, 0.1, 0.05]])

    def psi(points):
        return _values(f, points)[:, 0]

    env = argcav(psi, CellArrangement(3, ()))
    pts = simplex_grid(3, 25)
    assert np.allclose(env.evaluate_many(pts), psi(pts), atol=1e-12)


def test_argcav_affine_envelope_takes_psi_at_the_corners():
    # the lift of a linear psi over its candidates is coplanar: the envelope
    # is the corner simplex, and it interpolates psi there bit for bit
    weights = np.array([0.3, -0.7, 1.1])
    env = argcav(lambda points: points @ weights, CellArrangement(3, [[1, -1, 0, 0], [0, 1, -1, 0.1]]))
    assert env.triangulation.vertices.tolist() == np.eye(3).tolist()
    assert env.values.tolist() == [0.3, -0.7, 1.1]


def test_affine_envelope_rejects_a_non_affine_objective():
    cands = candidate_vertices(CellArrangement(3, [[1.0, -1.0, 0.0, 0.0]]))
    vals = cands @ np.array([0.3, -0.7, 1.1])
    vals[(cands == 0.5).any(axis=1)] += 1e-6
    with pytest.raises(GeometryDomainError, match="non-affine objective"):
        geometry._affine_envelope(cands, vals)


def test_argcav_rejects_scalar_only_objective():
    arrangement = CellArrangement(2, [[1.0, -1.0, 0.0]])

    def scalar_psi(points):
        return float(np.min(points))  # one value for the whole batch

    with pytest.raises(GeometryDomainError, match="shape"):
        argcav(scalar_psi, arrangement)
    with pytest.raises(GeometryDomainError, match="non-finite"):
        argcav(lambda points: np.full(len(points), np.nan), arrangement)


def test_validate_triangulation_detects_problems():
    ok, problems = validate_triangulation(_unit_triangulation(3))
    assert ok and not problems

    dup = Triangulation(
        np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), ((0, 2),)
    )
    assert validate_triangulation(dup) == (False, ["vertices 0 and 1 coincide"])

    gap = Triangulation(
        np.array([[1.0, 0.0], [0.6, 0.4], [0.0, 1.0]]), ((0, 1),)
    )
    assert validate_triangulation(gap) == (
        False,
        ["facet (1,) of cell 0 is in no other cell", "cell volumes sum to 0.4 times the simplex volume"],
    )

    overlap = Triangulation(
        np.array([[1.0, 0.0], [0.4, 0.6], [0.6, 0.4], [0.0, 1.0]]),
        ((0, 1), (2, 3), (1, 3)),
    )
    assert validate_triangulation(overlap) == (
        False,
        [
            "facet (2,) of cell 1 is in no other cell",
            "cells 1 and 2 lie on one side of their facet (3,)",
            "cell volumes sum to 1.6 times the simplex volume",
        ],
    )


def test_validate_triangulation_without_cells_and_in_one_state():
    assert validate_triangulation(Triangulation(np.eye(3), ())) == (False, ["no cells: the simplex is not covered"])
    assert validate_triangulation(_unit_triangulation(1)) == (True, [])


def test_orientation_is_the_exact_sign():
    # rows [x_0, x_1, 1] of three collinear points, then the middle one's x_0
    # nudged by an ulp either way, which makes the determinant minus half
    # the nudge
    line = np.array([[0.25, 0.5, 0.25], [0.5, 0.25, 0.25], [0.75, 0.0, 0.25]])
    assert geometry._orientation(line) == 0
    for toward, sign in ((np.inf, -1), (-np.inf, 1)):
        nudged = line.copy()
        nudged[1, 0] = np.nextafter(0.5, toward)
        assert geometry._orientation(nudged) == sign
        assert geometry._orientation(nudged[[1, 0, 2]]) == -sign
    assert geometry._orientation(np.eye(3)) == 1


# e0, e1, e2 and the centre, which cones the three edges into a triangulation
_CENTRED = np.vstack([np.eye(3), [[1 / 3, 1 / 3, 1 / 3]]])
_CONED = ((0, 1, 3), (1, 2, 3), (2, 0, 3))


def test_validate_triangulation_accepts_cells_in_any_label_order():
    assert validate_triangulation(Triangulation(_CENTRED, _CONED)) == (True, [])
    assert validate_triangulation(Triangulation(_CENTRED, ((3, 1, 0), (1, 3, 2), (0, 2, 3)))) == (True, [])


def test_validate_triangulation_names_an_unmatched_interior_facet():
    # the corner cells of the midpoint subdivision, without the middle one
    verts = np.vstack([np.eye(3), [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]])
    corners = ((0, 3, 4), (1, 3, 5), (2, 4, 5))
    assert validate_triangulation(Triangulation(verts, corners)) == (
        False,
        [
            "facet (3, 4) of cell 0 is in no other cell",
            "facet (3, 5) of cell 1 is in no other cell",
            "facet (4, 5) of cell 2 is in no other cell",
            "cell volumes sum to 0.75 times the simplex volume",
        ],
    )
    assert validate_triangulation(Triangulation(verts, corners + ((3, 4, 5),))) == (True, [])


def test_validate_triangulation_names_a_facet_in_three_cells():
    # a fourth cell on the far side of the centre's edge to e0 overlaps cell 2
    verts = np.vstack([_CENTRED, [[0.5, 0.1, 0.4]]])
    assert validate_triangulation(Triangulation(verts, _CONED + ((0, 3, 4),))) == (
        False,
        [
            "facet (0, 4) of cell 3 is in no other cell",
            "facet (3, 4) of cell 3 is in no other cell",
            "facet (0, 3) is in 3 cells [0, 2, 3]",
            "cell volumes sum to 1.1 times the simplex volume",
        ],
    )


def test_validate_triangulation_names_neighbours_on_one_side_of_their_facet():
    # A cell listed twice shares every facet with its copy, and the copies'
    # opposite vertices coincide.
    assert validate_triangulation(Triangulation(_CENTRED, _CONED + ((1, 0, 3),))) == (
        False,
        [
            "facet (0, 3) is in 3 cells [0, 2, 3]",
            "facet (1, 3) is in 3 cells [0, 1, 3]",
            "cells 0 and 3 lie on one side of their facet (0, 1)",
            "cell volumes sum to 1.3333333333333333 times the simplex volume",
        ],
    )
    # A chain of segments that folds back at vertices 1 and 2: every facet
    # is matched or on the boundary, and only the sides tell the folds.
    verts = np.array([[1.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.0, 1.0]])
    assert validate_triangulation(Triangulation(verts, ((0, 1), (1, 2), (2, 3)))) == (
        False,
        [
            "cells 0 and 1 lie on one side of their facet (1,)",
            "cells 1 and 2 lie on one side of their facet (2,)",
            "cell volumes sum to 1.5 times the simplex volume",
        ],
    )


def test_validate_triangulation_names_a_degenerate_cell():
    # A cell 1e-10 high over a unit edge: not flat for Triangulation
    # (EPS_DEGENERATE), but degenerate at EPS_ORACLE; the others tile the
    # rest, so its volume is missing from the sum only within tolerance.
    verts = np.vstack([np.eye(3), [[0.5 - 5e-11, 0.5 - 5e-11, 1e-10]]])
    assert validate_triangulation(Triangulation(verts, ((0, 1, 3), (0, 3, 2), (3, 1, 2)))) == (
        False,
        ["cell 0 is affinely degenerate"],
    )


def test_validate_triangulation_names_a_missing_sliver_that_fits_in_the_volume_slack():
    # Cell 3 is 5e-10 of the simplex volume, a sliver along the segment
    # from e2 to the middle of the opposite edge.  Without it, the three
    # facets that bound it have no neighbour, though the volumes add up
    # within EPS_ORACLE.
    verts = np.vstack([np.eye(3), [[0.5, 0.5, 0.0], [0.25 + 5e-10, 0.25 - 5e-10, 0.5]]])
    cells = ((0, 3, 4), (0, 4, 2), (3, 1, 2), (3, 4, 2))
    assert validate_triangulation(Triangulation(verts, cells)) == (True, [])
    assert validate_triangulation(Triangulation(verts, cells[:3])) == (
        False,
        [
            "facet (2, 3) of cell 2 is in no other cell",
            "facet (2, 4) of cell 1 is in no other cell",
            "facet (3, 4) of cell 0 is in no other cell",
        ],
    )


def test_validate_triangulation_sums_sliver_volumes_exactly():
    # The flat-cell game's stage 1 (reproducer D) has a cell 1e-8 wide with
    # unit edges: its volume from a Gram determinant was off by 7.2e-9
    # (relative), and an LP at HiGHS's feasibility tolerance saw it overlap.
    tri = solve(spec_from_dict(FLAT_CELL_GAME)).stage(1).triangulation
    ok, problems = validate_triangulation(tri)
    assert ok, problems


def test_validate_triangulation_passes_every_golden_and_bench_stage(monkeypatch):
    specs = [spec_from_dict(game) for game in (GAME_1, GAME_3, GAME_3_2, GAME_RANDOM, NEAR_TIE_167, FLAT_CELL_GAME)]
    for name, c in (("quickest_detection", 0.1), ("detector", 0.15)):
        specs.append(builtin_example(name, horizon=14))
        specs += [builtin_example(name, p=0.2, c=c, horizon=horizon) for horizon in (40, 100)]
    specs += _simplex_dense_specs(monkeypatch)
    tris = {}
    for spec in specs:
        for st in solve(spec).stages:
            tri = st.triangulation
            tris[tri.vertices.tobytes(), tri.simplices.tobytes()] = tri
    failed = [problems for ok, problems in map(validate_triangulation, tris.values()) if not ok]
    assert len(tris) == 37 and not failed


def _polygon_facets_qhull(ids, proj):
    """Edges of the polygon proj[ids] by Qhull in its own plane: the reference for _face_facets(k=2).

    Hull edges whose equations agree within EPS_FUNCTIONAL merge into one
    facet (_hull_faces).
    """
    pts = proj[list(ids)]
    centered = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    hull = ConvexHull(centered @ vt[:2].T)
    faces = geometry._hull_faces(hull, np.arange(len(hull.equations)))
    return sorted(tuple(sorted(ids[j] for j in face.tolist())) for face in faces)


@pytest.mark.parametrize("dim", [2, 3])
def test_polygon_facets_match_qhull_on_convex_polygons(dim):
    rng = np.random.default_rng(70 + dim)
    for _ in range(20):
        angles = rng.uniform(0.0, 2.0 * np.pi, int(rng.integers(3, 12)))
        rim = np.column_stack([np.cos(angles), np.sin(angles)])
        inner = rng.uniform(-0.3, 0.3, (int(rng.integers(0, 5)), 2))
        plane = np.linalg.qr(rng.normal(size=(dim, 2)))[0]
        proj = np.vstack([rim, inner]) @ plane.T + rng.normal(size=dim)
        ids = tuple(range(len(proj)))
        assert sorted(geometry._face_facets(ids, proj, 2)) == _polygon_facets_qhull(ids, proj)


def test_polygon_facets_match_qhull_on_the_three_state_solve(monkeypatch):
    faces = []
    chain = geometry._face_facets

    def checked(ids, proj, k):
        got = chain(ids, proj, k)
        if k == 2:
            assert sorted(got) == _polygon_facets_qhull(ids, proj)
            faces.append(len(ids))
        return got

    monkeypatch.setattr(geometry, "_face_facets", checked)
    solve(spec_from_dict(GAME_3))
    assert len(faces) == 8 and max(faces) == 6


def test_a_polygon_flat_to_qhull_is_walked_as_a_segment():
    # A stage-2 hull face of the near-tie game in tests/test_cli.py, whose
    # candidates lie within 2e-17 of one line.
    proj = np.array([[0.0, 0.0], [5.0000000467265593e-01, 1.8503716904162935e-17],
                     [9.9999999700000042e-01, 0.0], [1.0, 0.0]])
    ids = (0, 1, 2, 3)
    with pytest.raises(QhullError, match="QH6154"):
        _polygon_facets_qhull(ids, proj)
    # out along the lower chain and back along the upper one: a ring
    assert geometry._face_facets(ids, proj, 2) == [(0, 3), (0, 3)]
    assert geometry._pull_face(ids, proj, 2) == []


def test_a_flat_3_face_fails_with_a_typed_error():
    # Five points on the plane z = 0: Qhull's initial simplex is flat.
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.3, 0.6, 0.0]])
    ids = tuple(range(5))
    with pytest.raises(GeometryDomainError, match=r"hull of the 3-face on candidates \(0, 1, 2, 3, 4\) failed: QH6154"):
        geometry._face_facets(ids, flat, 3)


def _volume_sum(proj, cells):
    volumes = [abs(np.linalg.det(proj[list(cell[1:])] - proj[cell[0]])) for cell in cells]
    return sum(volumes) / math.factorial(proj.shape[1])


def test_a_cube_has_six_square_faces_and_pulls_into_six_tetrahedra():
    cube = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    ids = tuple(range(8))
    assert len(ConvexHull(cube).simplices) == 12
    facets = geometry._face_facets(ids, cube, 3)
    assert sorted(facets) == sorted(
        tuple(np.flatnonzero(cube[:, axis] == side).tolist()) for axis in range(3) for side in (0.0, 1.0)
    )
    cells = geometry._pull_face(ids, cube, 3)
    assert len(cells) == 6 and all(0 in cell and 7 in cell for cell in cells)
    assert _volume_sum(cube, cells) == pytest.approx(1.0, abs=1e-15)


def test_a_triangular_prism_has_five_faces_and_pulls_into_three_tetrahedra():
    prism = np.array([[x, y, z] for x, y in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)) for z in (0.0, 1.0)])
    ids = tuple(range(6))
    facets = geometry._face_facets(ids, prism, 3)
    assert sorted(facets) == [(0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4), (1, 3, 5), (2, 3, 4, 5)]
    cells = geometry._pull_face(ids, prism, 3)
    assert sorted(cells) == [(0, 1, 3, 5), (0, 2, 3, 5), (0, 2, 4, 5)]
    assert _volume_sum(prism, cells) == pytest.approx(0.5, abs=1e-15)


def _dedup_sorted_loop(points):
    """The greedy row-by-row scan, kept as the bit-exact reference for _dedup_sorted."""
    kept: list[int] = []
    kept_first: list[float] = []
    for i in range(len(points)):
        row = points[i]
        lo = bisect.bisect_left(kept_first, row[0] - EPS_GEOM)
        for j in range(lo, len(kept)):
            if np.max(np.abs(points[kept[j]] - row)) <= EPS_GEOM:
                break
        else:
            kept.append(i)
            kept_first.append(float(row[0]))
    return kept


def _assert_dedup_matches_loop(points, dedup=None):
    points = np.asarray(points, dtype=float)
    kept = (dedup or geometry._dedup_sorted)(points)
    assert np.array_equal(np.asarray(kept, dtype=np.intp), np.asarray(_dedup_sorted_loop(points), dtype=np.intp))
    return list(kept)


def _lex_sorted(points):
    points = np.asarray(points, dtype=float)
    return points[np.lexsort(points.T[::-1])]


def test_dedup_sorted_small_cases():
    assert _assert_dedup_matches_loop(np.empty((0, 3))) == []
    assert _assert_dedup_matches_loop([[0.2, 0.8]]) == [0]
    # exact duplicates keep the first of each run
    rows = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    assert _assert_dedup_matches_loop(rows) == [0, 2]
    # a chain a~b~c with a and c apart keeps a and c
    step = 0.8 * EPS_GEOM
    chain = [[0.0, 0.5 + k * step, 0.5 - k * step] for k in range(3)]
    assert _assert_dedup_matches_loop(chain) == [0, 2]
    # near rows that are not lex neighbours: r is p moved by under EPS_GEOM,
    # and q sorts between them
    p, q = [0.3, 0.2, 0.5], [0.3, 0.6, 0.1]
    r = [0.3 + 0.4 * EPS_GEOM, 0.2 + 0.4 * EPS_GEOM, 0.5 - 0.8 * EPS_GEOM]
    assert _assert_dedup_matches_loop([p, q, r]) == [0, 1]


def test_dedup_sorted_first_coordinate_gaps_at_the_tolerance():
    # First coordinates EPS_GEOM apart, give or take two ulps.  Near zero
    # the scan's window x0_j >= x0_i - EPS_GEOM can exclude a row within
    # EPS_GEOM of x0_j, and the kept set must follow the window.
    bases = [0.0, 0.25, 1.0 / 3.0, *np.random.default_rng(31).random(20) * 5e-13]
    window_only = 0
    for base in bases:
        edge = base + EPS_GEOM
        gaps = [edge]
        for _ in range(2):
            gaps = [np.nextafter(gaps[0], -np.inf)] + gaps + [np.nextafter(gaps[-1], np.inf)]
        for x0 in gaps:
            window_only += bool(abs(x0 - base) <= EPS_GEOM and base < x0 - EPS_GEOM)
            rows = _lex_sorted([[base, 0.5, 0.5 - base], [x0, 0.5, 0.5 - base]])
            _assert_dedup_matches_loop(rows)
            # with a third row inside both windows
            mid = [0.5 * (base + x0), 0.5, 0.5 - base]
            _assert_dedup_matches_loop(_lex_sorted([rows[0], mid, rows[1]]))
    assert window_only > 0


def test_dedup_sorted_facet_rows():
    # 2,000 rows on the x0 = 0 facet, where every first coordinate ties,
    # in clusters of near and exact copies
    rng = np.random.default_rng(23)
    base = np.repeat(rng.random(50), 40)
    x1 = base + rng.uniform(-1.5, 1.5, size=2000) * EPS_GEOM
    x1[::7] = base[::7]
    rows = _lex_sorted(np.column_stack([np.zeros(2000), x1, 1.0 - x1]))
    kept = _assert_dedup_matches_loop(rows)
    assert 100 < len(kept) < 400


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dedup_sorted_random_clouds(n):
    rng = np.random.default_rng(100 + n)
    for trial in range(5):
        base = rng.dirichlet(np.ones(n), size=300)
        base[:40, 0] = 0.0
        copies = np.repeat(base, rng.integers(1, 5, size=len(base)), axis=0)
        scale = (0.3, 1.0, 1.5, 3.0, 1.0)[trial]
        noise = rng.uniform(-scale, scale, size=copies.shape) * EPS_GEOM
        noise[rng.random(len(copies)) < 0.2] = 0.0
        _assert_dedup_matches_loop(_lex_sorted(copies + noise))


def test_dedup_sorted_matches_the_loop_on_a_solve(monkeypatch):
    seen = []
    fast = geometry._dedup_sorted

    def checked(points):
        seen.append(len(points))
        return _assert_dedup_matches_loop(points, fast)

    monkeypatch.setattr(geometry, "_dedup_sorted", checked)
    solve(spec_from_dict(GAME_3))
    assert len(seen) >= 4 and max(seen) > 100


def _candidate_vertices_one_shot(arrangement):
    """candidate_vertices with every subset solved in one batch, corners snapped
    row by row, and the loop dedup."""
    n = arrangement.n_states
    fs = dedup_functionals(arrangement.functionals).reshape(-1, n + 1)
    corners = np.eye(n)
    pool_w = np.vstack([fs[:, :-1], corners])
    pool_b = np.concatenate([fs[:, -1], np.zeros(n)])
    count = math.comb(len(pool_w), n - 1)
    subsets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(len(pool_w)), n - 1)),
        dtype=np.intp,
        count=count * (n - 1),
    ).reshape(count, n - 1)
    points = [corners]
    systems = np.empty((len(subsets), n, n))
    systems[:, : n - 1, :] = pool_w[subsets]
    systems[:, n - 1, :] = 1.0
    rhs = np.empty((len(subsets), n))
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
    for row in allpts:
        for corner in corners:
            if np.max(np.abs(row - corner)) <= EPS_GEOM:
                row[:] = corner
    allpts = allpts[np.lexsort(allpts.T[::-1])]
    return allpts[_dedup_sorted_loop(allpts)]


def _concurrent_arrangement(n, pieces, seed):
    """Pairwise differences of random affine pieces on a coarse grid of weights.

    Three differences of three pieces meet where the pieces tie, so many
    subsets solve to the same or nearly the same point.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(-8, 9, size=(pieces, n + 1)) / 8.0
    diffs = [rows[i] - rows[j] for i, j in itertools.combinations(range(pieces), 2)]
    return CellArrangement(n, dedup_functionals(diffs))


def _subset_count(arrangement):
    n = arrangement.n_states
    return math.comb(len(dedup_functionals(arrangement.functionals)) + n, n - 1)


@pytest.mark.parametrize("n, pieces", [(3, 8), (4, 6)])
def test_candidate_vertices_blocks_match_one_batch(monkeypatch, n, pieces):
    arrangement = _concurrent_arrangement(n, pieces, seed=n)
    count = _subset_count(arrangement)
    want = _candidate_vertices_one_shot(arrangement)
    # below one block, exactly one block, one block + 1, several blocks
    for block in (count + 7, count, count - 1, max(1, count // 5)):
        monkeypatch.setattr(geometry, "_CANDIDATE_BLOCK", block)
        got = candidate_vertices(arrangement)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), block


def test_candidate_vertices_default_blocks_match_one_batch():
    arrangement = _concurrent_arrangement(3, 32, seed=9)
    assert _subset_count(arrangement) > 3 * geometry._CANDIDATE_BLOCK
    got = candidate_vertices(arrangement)
    assert np.array_equal(got.view(np.int64), _candidate_vertices_one_shot(arrangement).view(np.int64))


def test_candidate_vertices_memory_does_not_grow_with_subsets():
    # C(123, 3) = 302,621 subsets at 4 states; solved in one batch they
    # peak above 100 MiB traced, in blocks near 14 MiB
    arrangement = CellArrangement(4, np.random.default_rng(1).normal(size=(119, 5)))
    assert _subset_count(arrangement) == 302_621
    tracemalloc.start()
    try:
        candidate_vertices(arrangement)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("n, crossing, missing", [(3, 40, 300), (4, 20, 60)])
def test_candidate_vertices_skips_rows_that_miss_the_simplex(monkeypatch, n, crossing, missing):
    rng = np.random.default_rng(20 + n)
    # rows through random interior points cross the simplex
    w = rng.uniform(-1.0, 1.0, size=(crossing, n))
    through = np.column_stack([w, -np.einsum("ij,ij->i", w, rng.dirichlet(np.ones(n), size=crossing))])
    # rows whose corner values w_i + b are all at least 1 away from zero
    w = rng.uniform(-1.0, 1.0, size=(missing, n))
    apart = np.column_stack([w, rng.choice([-1.0, 1.0], missing) * rng.uniform(2.0, 5.0, missing)])
    # inside the margin: tangent at the corner e0, and crossing EPS_MEMBER / 2
    # outside the facet x0 = 0, whose points are clipped onto it
    tangent = np.append(np.r_[0.0, np.ones(n - 1)], 0.0)
    outside = np.append(np.eye(n)[0], 0.5 * EPS_MEMBER)
    # beyond the margin: crossing 1e-8 outside the same facet
    beyond = np.append(np.eye(n)[0], 1e-8)
    rows = np.vstack([through[: crossing // 2], apart, tangent, through[crossing // 2 :], outside, beyond])
    arrangement = CellArrangement(n, rows)
    pool = len(dedup_functionals(rows))
    assert pool == crossing + missing + 3
    want = _candidate_vertices_one_shot(arrangement)
    # the row EPS_MEMBER / 2 outside adds points, clipped onto the facet
    assert len(_candidate_vertices_one_shot(CellArrangement(n, np.delete(rows, -2, axis=0)))) < len(want)
    kept, solved, determined = [], [], []
    screen, det, solve_systems = geometry._screen_subsets, np.linalg.det, np.linalg.solve

    def screened(*args):
        off, transversal = screen(*args)
        kept.append(int((~off).sum()))
        return off, transversal

    monkeypatch.setattr(geometry, "_screen_subsets", screened)
    monkeypatch.setattr(np.linalg, "det", lambda a: determined.append(len(a)) or det(a))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(len(a)) or solve_systems(a, b))
    got = candidate_vertices(arrangement)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # of the subsets of crossing rows and facets, only those whose closed-form
    # vertex is not provably outside the simplex are kept; of those, the
    # transversal ones reach solve, and the closed form settles every
    # determinant test, so det sees none of them
    assert sum(kept) == {3: 548, 4: 845}[n] < math.comb(crossing + 2 + n, n - 1) < math.comb(pool + n, n - 1)
    assert sum(solved) == {3: 545, 4: 775}[n]
    assert not determined


def _rows_through(point, weights):
    """Rows [w, b] whose zero sets pass through point, one per row of weights."""
    weights = np.atleast_2d(weights)
    return np.column_stack([weights, -(weights @ point)])


def _crossing_rows(n, count, rng):
    """Rows through random interior points of the simplex."""
    w = rng.uniform(-1.0, 1.0, size=(count, n))
    return np.column_stack([w, -np.einsum("ij,ij->i", w, rng.dirichlet(np.ones(n), size=count))])


def _outside(n, depth):
    """A point of the plane sum(x) = 1 whose coordinate 0 is -depth."""
    return np.r_[-depth, np.full(n - 1, (1.0 + depth) / (n - 1))]


def _nearly_parallel_rows(n, rng):
    # pencils of rows through points inside, on, and EPS_MEMBER / 2,
    # EPS_MEMBER, 2 EPS_MEMBER and 1e-8 outside the facet x0 = 0; the rows
    # of a pencil differ by angles down to 1e-10, so their systems are
    # ill-conditioned and the closed form and LAPACK disagree in low digits
    rows = []
    for depth in (-0.1, 0.0, 0.5 * EPS_MEMBER, EPS_MEMBER, 2.0 * EPS_MEMBER, 1e-8):
        point = _outside(n, depth)
        w = rng.uniform(-1.0, 1.0, size=n)
        for angle in (1e-4, 1e-7, 1e-10):
            rows.append(_rows_through(point, [w, w + angle * rng.uniform(-1.0, 1.0, size=n)]))
        rows.append(_rows_through(point, rng.uniform(-1.0, 1.0, size=(n - 3, n))))
    return np.vstack(rows + [_crossing_rows(n, 6, rng)])


def _facet_rows(n, rng):
    # rows meeting EPS_MEMBER / 2, EPS_MEMBER and 2 EPS_MEMBER outside each
    # facet x_k = 0 (the first are kept and clipped, the last dropped), with
    # the membership boundary itself approached from both sides
    depths = [0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0]
    rows = [np.append(np.eye(n)[k], d * EPS_MEMBER) for k in range(n) for d in depths]
    return np.vstack(rows + [_crossing_rows(n, 12 if n == 3 else 6, rng)])


def _corner_rows(n, rng):
    # rows concurrent at the corner e0, exactly and within 1e-12, and a row
    # through the corner along the facet x1 = 0
    corner = np.eye(n)[0]
    rows = [_rows_through(corner, rng.uniform(-1.0, 1.0, size=(5, n)))]
    for shift in (1e-12, -1e-12):
        rows.append(_rows_through(corner + shift * np.r_[-1.0, np.ones(n - 1) / (n - 1)],
                                  rng.uniform(-1.0, 1.0, size=(2, n))))
    rows.append(_rows_through(corner, np.eye(n)[1] + 1e-13))
    return np.vstack(rows + [_crossing_rows(n, 8 if n == 3 else 5, rng)])


def _degenerate_rows(n, rng):
    """Two near-singular subsets, |det| / scale just above and just below EPS_DEGENERATE.

    Each is a pair of rows a few 1e-13 apart in angle, through one interior
    point, that dedup_functionals keeps apart: their weights straddle a
    rounding boundary of its 9-decimal keys.  At 4 states a third row
    through the same point completes the subset.  The pairs come first,
    and dedup keeps input order.
    """
    rows = []
    for a, point in ((7e-13, [0.2, 0.3, 0.5]), (3e-13, [0.5, 0.2, 0.3])):
        if n == 4:
            a, point = 10 * a, np.r_[point[0], 0.6 * np.array(point[1:]), 0.4 * sum(point[1:])]
        w = np.zeros((2, n))
        w[:, 0] = 1.0
        w[:, 1] = -0.4000000005 + np.array([a, -a])
        w[:, 2] = -0.5999999995 - np.array([a, -a])
        if n == 4:
            w[:, 2] += 0.3
            w[:, 3] = -0.3
        rows.append(_rows_through(np.asarray(point), w))
        if n == 4:
            rows.append(_rows_through(np.asarray(point), [0.3, -1.0, 0.9, -0.2]))
    return np.vstack(rows + [_crossing_rows(n, 12 if n == 3 else 6, rng)])


def _system_ratio(pool, subset):
    """|det| / (product of row norms) of candidate_vertices' system for subset."""
    n = pool.shape[1] - 1
    system = np.vstack([pool[list(subset), :-1], np.ones(n)])
    return abs(np.linalg.det(system)) / np.prod(np.linalg.norm(system, axis=1))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize(
    "build", [_nearly_parallel_rows, _facet_rows, _corner_rows, _degenerate_rows],
    ids=["nearly_parallel", "facet", "corner", "degenerate"],
)
def test_candidate_vertices_subset_prefilter_is_bit_exact(n, build):
    rows = build(n, np.random.default_rng(40 + n))
    arrangement = CellArrangement(n, rows)
    if build is _degenerate_rows:
        pool = dedup_functionals(rows)
        step = n - 1
        above, below = _system_ratio(pool, range(step)), _system_ratio(pool, range(step, 2 * step))
        assert EPS_DEGENERATE < above < 2 * EPS_DEGENERATE
        assert 0.5 * EPS_DEGENERATE < below < EPS_DEGENERATE
    want = _candidate_vertices_one_shot(arrangement)
    got = candidate_vertices(arrangement)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_candidate_vertices_subset_prefilter_is_bit_exact_on_a_near_tie_game():
    # the 3-state near-tie game whose stage-2 candidates hold near copies of
    # the corner [0, 1, 0] (tests/test_cli.py); every arrangement it meets
    game = spec_from_dict({
        "horizon": 3,
        "states": ["x0", "x1", "x2"],
        "actions": ["u0", "u1"],
        "terminating": [],
        "kernel": [[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
                   [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]],
        "rewards_A": [[-0.999999999, 0.0], [1e-09, 1.000000002], [-0.9999999999, 1e-08]],
        "rewards_B": [[-0.999999999, 2e-09], [1e-08, 1.00000001], [1.00000001, 1.000000002]],
        "prior": [0.12017222434295911, 0.6999616207688908, 0.1798661548881502],
    })
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "candidate_vertices", lambda a: seen.append(a) or candidate_vertices(a))
        solve(game)
    assert len(seen) == 3
    for arrangement in seen:
        want = _candidate_vertices_one_shot(arrangement)
        assert np.array_equal(candidate_vertices(arrangement).view(np.int64), want.view(np.int64))


def _exact_det(rows):
    """Exact determinant of a small float matrix, as a Fraction (Leibniz formula)."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= Fraction(float(rows[i][j]))
        total += term
    return total


# (w1, w2, other rows): base = w1, or (w1 + 1) / 2, makes [w1; base; others; 1]
# singular, and w2 - base is a unit vector, so w = base + delta (w2 - base) gives
# a system whose exact determinant is delta times that of w2's.  Unit vectors
# are the pool's facet rows (b = 0); the other rows pass through an interior
# point.  Pool rows have max |w| = 1, so their norms range from 1 to sqrt(n).
_BAND_FAMILIES = {
    3: [
        ([1.0, -1.0, 0.0], [1.0, -1.0, 1.0], []),
        ([1.0, 0.0, 0.0], [1.0, 1.0, 0.0], []),
        ([1.0, -1.0, 0.5], [1.0, 1.0, 0.75], []),
    ],
    4: [
        ([1.0, -1.0, 0.0, 0.0], [1.0, -1.0, 1.0, 0.0], [[0.0, 1.0, 0.0, -1.0]]),
        ([1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [[0.0, 0.0, 1.0, 0.0]]),
        ([1.0, -1.0, 1.0, -1.0], [1.0, 1.0, 1.0, 0.0], [[0.5, 1.0, -1.0, 0.25]]),
    ],
}


@pytest.mark.parametrize("n", [3, 4])
def test_candidate_vertices_transversal_band_matches_det(monkeypatch, n):
    point = np.array([0.2, 0.3, 0.5] if n == 3 else [0.1, 0.2, 0.3, 0.4])
    # exact |det| / scale: 200 steps within 1e-4 of EPS_DEGENERATE, 40 from half to twice it
    ratios = np.concatenate([1.0 + np.linspace(-1e-4, 1e-4, 200), np.geomspace(0.5, 2.0, 40)])
    w_rows, b_rows, subsets = [], [], []

    def add(w, shift=0.0):
        w_rows.append(np.asarray(w, dtype=float))
        b_rows.append((0.0 if np.count_nonzero(w) == 1 else -(w_rows[-1] @ point)) + shift)
        return len(w_rows) - 1

    for w1, w2, others in _BAND_FAMILIES[n]:
        w1, w2 = np.array(w1), np.array(w2)
        base = w1 if np.count_nonzero(w2 - w1) == 1 else (w1 + 1.0) / 2.0
        unit = _exact_det(np.vstack([w1, w2, *others, np.ones(n)]))
        assert unit != 0 and np.count_nonzero(w2 - base) == 1
        head, tail = [add(w1)], [add(w) for w in others]
        norms = np.linalg.norm(np.vstack([w1, base, *others, np.ones(n)]), axis=1)
        for ratio in ratios:
            delta = EPS_DEGENERATE * ratio * np.prod(norms) / abs(float(unit))
            subsets.append(head + [add(base + delta * (w2 - base))] + tail)
        # exactly singular: w1 again, and w1 with another offset
        subsets.append(head + [add(w1)] + tail)
        subsets.append(head + [add(w1, shift=0.3)] + tail)
    pool_w, pool_b = np.array(w_rows), np.array(b_rows)
    subsets = np.array(subsets, dtype=np.intp)
    systems = np.empty((len(subsets), n, n))
    systems[:, : n - 1] = pool_w[subsets]
    systems[:, n - 1] = 1.0
    scale = np.prod(np.linalg.norm(systems, axis=2), axis=1)
    ratio = np.array([float(abs(_exact_det(system))) for system in systems]) / scale / EPS_DEGENERATE
    fine = np.abs(ratio - 1.0) <= 1.001e-4
    assert fine.sum() == 200 * len(_BAND_FAMILIES[n])
    assert (ratio[fine] > 1.0).sum() > 50 and (ratio[fine] < 1.0).sum() > 50
    assert (ratio == 0.0).sum() == 2 * len(_BAND_FAMILIES[n])
    want = np.abs(np.linalg.det(systems)) > EPS_DEGENERATE * scale

    determined = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: determined.append(len(a)) or det(a))
    at_corners = pool_w + pool_b[:, None]
    _, transversal = geometry._screen_subsets(pool_w, at_corners, np.linalg.norm(pool_w, axis=1), subsets)
    assert np.array_equal(transversal, want)
    # det decides every fine step, but the closed form decides some coarse ones
    assert 200 * len(_BAND_FAMILIES[n]) <= sum(determined) < len(subsets) - 2 * len(_BAND_FAMILIES[n])
