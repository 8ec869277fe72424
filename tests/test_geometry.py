import math
import time
import tracemalloc

import numpy as np
import pytest

from signalgame.geometry import (
    CANDIDATE_CAP,
    EPS_GEOM,
    CandidateBudgetExceeded,
    CellArrangement,
    GeometryDomainError,
    SupportMeasure,
    Triangulation,
    VertexInterpolant,
    argcav,
    as_simplex_point,
    barycentric,
    barycentric_indices,
    candidate_vertices,
    dedup_functionals,
    pullback_affine,
    simplex_grid,
    validate_triangulation,
)


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


def test_support_measure_validation_and_mean():
    mu = SupportMeasure([[1.0, 0.0], [0.0, 1.0]], [0.3, 0.7])
    assert np.allclose(mu.mean(), [0.3, 0.7])
    with pytest.raises(GeometryDomainError):
        SupportMeasure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.6])
    with pytest.raises(GeometryDomainError):
        SupportMeasure([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])


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


def test_locate_many_rejects_lower_dimensional_cells():
    # a 3-state triangulation whose cells are edges, not triangles
    tri = Triangulation(np.eye(3), ((0, 1), (1, 2)))
    with pytest.raises(GeometryDomainError, match="full-dimensional"):
        tri.locate_many(np.array([[0.5, 0.5, 0.0]]))
    with pytest.raises(GeometryDomainError, match="full-dimensional"):
        VertexInterpolant(tri, np.zeros(3)).evaluate_many(np.array([[0.5, 0.5, 0.0]]))


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


def test_candidate_vertices_two_states():
    arr = CellArrangement(2, [[1.0, -1.0, 0.0]])
    cand = candidate_vertices(arr)
    assert np.allclose(cand, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])


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
    assert env.triangulation.simplices == ((0, 1), (1, 2))


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
    ok, problems = validate_triangulation(dup)
    assert not ok

    gap = Triangulation(
        np.array([[1.0, 0.0], [0.6, 0.4], [0.0, 1.0]]), ((0, 1),)
    )
    ok, problems = validate_triangulation(gap)
    assert not ok

    overlap = Triangulation(
        np.array([[1.0, 0.0], [0.4, 0.6], [0.6, 0.4], [0.0, 1.0]]),
        ((0, 1), (2, 3), (1, 3)),
    )
    ok, problems = validate_triangulation(overlap)
    assert not ok
