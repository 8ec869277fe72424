import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from test_geometry import _simplex_dense_specs
from test_goldens import GAME_3
from signalgame.cli import builtin_example
from signalgame.game import Belief, GameSpec, SpecValidationError, bayes_update, push_forward, spec_from_dict
from signalgame import geometry, solver
from signalgame.geometry import (
    CellArrangement,
    GeometryDomainError,
    Triangulation,
    VertexInterpolant,
    dedup_functionals,
    pullback_affine,
    simplex_grid,
)
from signalgame.solver import (
    StageObjective,
    q_values,
    receiver_best,
    solve,
    stage_backup,
)


def _aligned_one_shot():
    # two actions, identical interests: plain one-shot persuasion
    rewards = np.array([[1.0, 0.0], [0.0, 2.0]])
    return GameSpec(
        horizon=1,
        states=(("x0", "x1"),),
        actions=(("u0", "u1"),),
        terminating=(frozenset(),),
        kernels=(),
        rewards_principal=(rewards,),
        rewards_receiver=(rewards,),
        prior=[0.5, 0.5],
    )


def _random_game(rng):
    horizon = int(rng.integers(1, 4))
    nx = [int(rng.integers(2, 4)) for _ in range(horizon)]
    nu = [int(rng.integers(1, 4)) for _ in range(horizon)]
    terminating = tuple(
        frozenset(u for u in range(nu[t]) if rng.random() < 0.25) for t in range(horizon)
    )
    return GameSpec(
        horizon=horizon,
        states=tuple(tuple(f"s{k}" for k in range(n)) for n in nx),
        actions=tuple(tuple(f"u{k}" for k in range(n)) for n in nu),
        terminating=terminating,
        kernels=tuple(
            rng.dirichlet(np.ones(nx[t + 1]), size=(nx[t], nu[t]))
            for t in range(horizon - 1)
        ),
        rewards_principal=tuple(
            rng.uniform(-1.0, 1.0, size=(nx[t], nu[t])) for t in range(horizon)
        ),
        rewards_receiver=tuple(
            rng.uniform(-1.0, 1.0, size=(nx[t], nu[t])) for t in range(horizon)
        ),
        prior=rng.dirichlet(np.ones(nx[0])),
    )


def _dedup_loop(rows, tol=1e-9):
    """Row-at-a-time reference for dedup_functionals."""
    kept, seen = [], set()
    decimals = max(1, int(-math.log10(tol)))
    for row in rows:
        shift = float(row[:-1].mean())
        w, b = row[:-1] - shift, row[-1] + shift
        scale = float(np.max(np.abs(w)))
        if scale <= tol:
            continue
        key = np.append(w, b) / scale
        if key[np.argmax(np.abs(key) > tol)] < 0:
            key = -key
        rounded = tuple(np.round(key, decimals) + 0.0)
        if rounded not in seen:
            seen.add(rounded)
            kept.append(key)
    return np.array(kept).reshape(-1, rows.shape[1])


def test_row_arithmetic_matches_per_row_reference():
    # The vectorized dedup, cell pieces and pullbacks must reproduce the
    # row-at-a-time arithmetic bit for bit on real stage data, or solver
    # artifacts drift in their last digits.
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(6):
        spec = _random_game(rng)
        sol = solve(spec)
        for t in range(1, spec.horizon + 1):
            st = sol.stage(t)
            rows = st.objective.arrangement.functionals
            assert np.array_equal(dedup_functionals(rows), _dedup_loop(rows))
            if t == spec.horizon:
                continue
            f = sol.stage(t + 1).interp
            tri = f.triangulation
            for j in range(2):  # principal, receiver
                for ci, cell in enumerate(tri.simplices):
                    piece = tri._cell_inverses[ci].T @ f.values[list(cell), j]
                    assert np.array_equal(f.cell_pieces[j, ci, :-1], piece)
            for u in range(spec.n_actions(t)):
                kernel = spec.kernels[t - 1][:, u, :]
                pieces, boundary = pullback_affine(f, kernel)
                for j in range(2):
                    for g, pulled in zip(f.cell_pieces[j], pieces[j]):
                        assert np.array_equal(pulled[:-1], kernel @ g[:-1])
                raw = np.array([np.append(kernel @ h[:-1], h[-1]) for h in tri.boundary_functionals])
                assert np.array_equal(boundary, _dedup_loop(raw.reshape(-1, kernel.shape[0] + 1)))
                checked += 1
    assert checked > 0


def test_one_pullback_and_one_location_per_continuing_action(monkeypatch):
    # Both players' continuation values share one triangulation, so a stage
    # pulls back its cells, and locates a point, once for the pair.
    rng = np.random.default_rng(17)
    spec = GameSpec(
        horizon=2,
        states=(("a", "b", "c"),) * 2,
        actions=(("u0", "u1", "stop"),) * 2,
        terminating=(frozenset({2}),) * 2,
        kernels=(rng.dirichlet(np.ones(3), size=(3, 3)),),
        rewards_principal=tuple(rng.uniform(-1.0, 1.0, size=(3, 3)) for _ in range(2)),
        rewards_receiver=tuple(rng.uniform(-1.0, 1.0, size=(3, 3)) for _ in range(2)),
        prior=np.full(3, 1.0 / 3.0),
    )
    last = stage_backup(spec, 2)
    calls = []
    pullback, locate = solver.pullback_affine, Triangulation.locate_many
    monkeypatch.setattr(solver, "pullback_affine", lambda *a: calls.append("pullback") or pullback(*a))
    first = stage_backup(spec, 1, last)
    assert calls.count("pullback") == 2
    monkeypatch.setattr(Triangulation, "locate_many", lambda *a: calls.append("locate") or locate(*a))
    first.objective.q_many(rng.dirichlet(np.ones(3), size=7))
    assert calls.count("locate") == 2


def test_q_many_memory_stays_near_its_outputs():
    # continuation values on a 14-cell fan from the corner e0, reached
    # through two of three actions
    ts = np.linspace(0.0, 1.0, 15)
    verts = np.vstack([[1.0, 0.0, 0.0], np.column_stack([np.zeros(15), 1.0 - ts, ts])])
    tri = Triangulation(verts, tuple((0, k, k + 1) for k in range(1, 15)))
    rng = np.random.default_rng(7)
    kernels = rng.dirichlet(np.ones(3), size=(3, 3))
    objective = StageObjective(
        rng.normal(size=(3, 3)),
        rng.normal(size=(3, 3)),
        (kernels[:, 0, :], kernels[:, 1, :], None),
        VertexInterpolant(tri, rng.normal(size=(16, 2))),
        CellArrangement(3, np.empty((0, 4))),
    )
    pts = rng.dirichlet(np.ones(3), size=100_000)
    want = objective.q_many(pts)
    tracemalloc.start()
    try:
        got = objective.q_many(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (2, 100,000, 3) action values are 4.6 MiB and the next beliefs
    # 2.3 MiB; with a fresh product and location array per step the pass
    # holds 17.3 MiB, preallocated and in blocks 12.6 MiB
    assert peak < 14 * 2**20
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_value_functions_reject_a_belief_of_another_dimension():
    st = solve(spec_from_dict(GAME_3)).stage(1)
    with pytest.raises(GeometryDomainError, match=r"shape \(1, 2\) do not have 3 coordinates"):
        st.value_principal([0.5, 0.5])
    with pytest.raises(GeometryDomainError, match=r"shape \(1, 4\) do not have 3 coordinates"):
        st.value_receiver([0.25, 0.25, 0.25, 0.25])


def test_q_values_stage_t_oracle():
    spec = builtin_example("quickest_detection", 0.2, 0.1, 3)
    for p in (0.0, 0.3, 1.0 / 11.0, 1.0):
        q_a, q_b = q_values(spec, 3, [p, 1.0 - p])
        assert q_a == pytest.approx((1.0, 0.0))
        assert q_b[0] == pytest.approx(-0.1 * (1.0 - p))
        assert q_b[1] == pytest.approx(-p)


def test_q_values_stage_mismatch():
    spec = builtin_example("quickest_detection", 0.2, 0.1, 3)
    with pytest.raises(ValueError):
        q_values(spec, 2, [0.5, 0.5])  # missing the stage-3 solution
    nxt = stage_backup(spec, 3)
    with pytest.raises(ValueError):
        q_values(spec, 1, [0.5, 0.5], nxt)  # stage-3 solution is not stage 2


def test_q_values_checks_what_a_shared_next_solution_shows():
    # a stage solution can serve several stages, so it has no stage number:
    # the check reads its presence, its state count and whether it was
    # solved as the last stage
    spec = builtin_example("quickest_detection", 0.2, 0.1, 3)
    last = stage_backup(spec, 3)
    with pytest.raises(ValueError, match="exactly below the horizon"):
        q_values(spec, 3, [0.5, 0.5], last)
    with pytest.raises(ValueError, match="the stage-3 solution needs 2 states, not 3"):
        q_values(spec, 2, [0.5, 0.5], stage_backup(spec_from_dict(GAME_3), 4))
    middle = stage_backup(spec, 2, last)
    with pytest.raises(ValueError, match="stage 2 needs a next solution solved as the last stage"):
        q_values(spec, 2, [0.5, 0.5], middle)
    with pytest.raises(ValueError, match="stage 1 needs a next solution not solved as the last stage"):
        q_values(spec, 1, [0.5, 0.5], last)
    # a same-width solution of another stage below the horizon is accepted
    sol = solve(builtin_example("quickest_detection", 0.2, 0.1, 4))
    for got, want in zip(q_values(sol.spec, 1, [0.5, 0.5], sol.stage(3)),
                         q_values(sol.spec, 2, [0.5, 0.5], sol.stage(3))):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("t", [0, 4])
def test_solution_stage_out_of_range(t):
    sol = solve(builtin_example("quickest_detection", 0.2, 0.1, 3))
    with pytest.raises(ValueError, match=f"stage {t} outside 1..3"):
        sol.stage(t)


def test_q_values_rejects_a_belief_stamped_for_another_stage():
    spec = builtin_example("quickest_detection", 0.2, 0.1, 3)
    with pytest.raises(ValueError, match="belief is stamped for stage 2, not 3"):
        q_values(spec, 3, Belief(2, [0.5, 0.5]))
    assert q_values(spec, 3, Belief(3, [0.5, 0.5]))[0] == pytest.approx((1.0, 0.0))


def test_q_values_terminating_drops_continuation():
    spec = builtin_example("quickest_detection", 0.2, 0.1, 2)
    nxt = stage_backup(spec, 2)
    q_a, q_b = q_values(spec, 1, [0.0, 1.0], nxt)
    # declare_2 terminates: its q is the bare expected reward
    assert q_a[1] == pytest.approx(0.0)
    assert q_b[1] == pytest.approx(0.0)
    # declare_1 continues into stage 2
    assert q_a[0] == pytest.approx(1.0 + nxt.value_principal([0.0, 1.0]))
    assert q_b[0] == pytest.approx(-0.1 + nxt.value_receiver([0.0, 1.0]))


def test_receiver_best_threshold_tie():
    # at pi(1) = 1/11 the receiver is indifferent; the principal prefers declare_1
    p = 1.0 / 11.0
    action, psi, top_b = receiver_best([[1.0, 0.0]], [[-0.1 * (1.0 - p), -p]])
    assert action.tolist() == [0]
    assert top_b[0] == pytest.approx(-1.0 / 11.0)
    assert psi[0] == pytest.approx(1.0)


def test_receiver_best_dominant_and_full_tie():
    action, psi, top_b = receiver_best([[0.0, 5.0]], [[1.0, 0.0]])
    assert action.tolist() == [0] and psi.tolist() == [0.0] and top_b.tolist() == [1.0]
    action, psi, _ = receiver_best([[1.0, 3.0, 2.0]], [[0.5, 0.5, 0.5]])
    assert action.tolist() == [1] and psi.tolist() == [3.0]
    # principal ties break to the smallest action index; rows are independent
    action, psi, top_b = receiver_best([[2.0, 2.0], [0.0, 5.0]], [[0.5, 0.5], [1.0, 0.0]])
    assert action.tolist() == [0, 0]
    assert psi.tolist() == [2.0, 0.0] and top_b.tolist() == [0.5, 1.0]
    for q_a, q_b in (
        ([[1.0, 0.0]], [[1.0, 0.0, 0.0]]),
        ([1.0, 0.0], [1.0, 0.0]),
        (np.empty((0, 2)), np.empty((0, 2))),
    ):
        with pytest.raises(ValueError):
            receiver_best(q_a, q_b)


def test_stage_backup_reports_envelope_divergence(monkeypatch):
    spec = builtin_example("quickest_detection", 0.2, 0.1, 3)
    nxt = stage_backup(spec, 3)
    original = solver.argcav

    def shifted(psi, arrangement):
        envelope = original(psi, arrangement)
        values = envelope.values.copy()
        values[1] += 1e-6
        return VertexInterpolant(envelope.triangulation, values)

    monkeypatch.setattr(solver, "argcav", shifted)
    with pytest.raises(RuntimeError, match=r"^stage 2: .* at vertex 1 \(\S+ vs \S+\)$"):
        stage_backup(spec, 2, nxt)


def test_stage_backup_stage_t_closed_form():
    spec = builtin_example("quickest_detection", 0.2, 0.1, 5)
    st = stage_backup(spec, 5)
    assert np.allclose(st.triangulation.vertices[:, 0], [0.0, 1.0 / 11.0, 1.0], atol=1e-12)
    assert np.allclose(st.values_principal, [0.0, 1.0, 1.0], atol=1e-12)
    assert np.allclose(st.values_receiver, [0.0, -1.0 / 11.0, 0.0], atol=1e-12)
    assert st.vertex_actions == (1, 0, 0)


def test_stage_backup_one_step_before_horizon():
    spec = builtin_example("quickest_detection", 0.2, 0.1, 5)
    st5 = stage_backup(spec, 5)
    st4 = stage_backup(spec, 4, st5)
    assert np.allclose(st4.triangulation.vertices[:, 0], [0.0, 10.0 / 59.0, 1.0], atol=1e-12)
    assert np.allclose(st4.values_principal, [0.0, 2.0, 2.0], atol=1e-12)
    assert np.allclose(st4.values_receiver, [0.0, -10.0 / 59.0, -0.02], atol=1e-12)
    assert st4.vertex_actions == (1, 0, 0)


def test_aligned_interests_reduce_to_single_agent():
    sol = solve(_aligned_one_shot())
    st = sol.stage(1)
    assert np.allclose(st.values_principal, st.values_receiver, atol=1e-12)
    # v(p) = max(p, 2(1-p)) is convex: cav is the chord between the corners
    assert st.triangulation.n_vertices == 2
    assert st.value_principal([0.5, 0.5]) == pytest.approx(1.5)
    assert st.value_principal([2.0 / 3.0, 1.0 / 3.0]) == pytest.approx(4.0 / 3.0)


def test_zero_rewards_yield_zero_values_and_corner_triangulation():
    spec = GameSpec(
        horizon=2,
        states=(("a", "b"),) * 2,
        actions=(("u0", "u1"),) * 2,
        terminating=(frozenset(),) * 2,
        kernels=(np.full((2, 2, 2), 0.5),),
        rewards_principal=(np.zeros((2, 2)),) * 2,
        rewards_receiver=(np.zeros((2, 2)),) * 2,
        prior=[0.3, 0.7],
    )
    sol = solve(spec)
    for t in (1, 2):
        st = sol.stage(t)
        assert st.triangulation.n_vertices == 2
        assert np.allclose(st.triangulation.vertices, np.eye(2)[::-1], atol=1e-12)
        assert np.allclose(st.values_principal, 0.0)
        assert np.allclose(st.values_receiver, 0.0)


def test_all_terminating_first_stage_still_solves_later_stages():
    spec = builtin_example("detector", 0.2, 0.15, 3)
    everything = frozenset(range(3))
    spec = GameSpec(
        horizon=3,
        states=spec.states,
        actions=spec.actions,
        terminating=(everything, spec.terminating[1], spec.terminating[2]),
        kernels=spec.kernels,
        rewards_principal=spec.rewards_principal,
        rewards_receiver=spec.rewards_receiver,
        prior=spec.prior,
    )
    sol = solve(spec)
    assert len(sol.stages) == 3
    # stage 1 is a bare one-shot now: the receiver declares immediately and the
    # principal gets nothing; with a flat objective the canonical split is full
    # revelation, so the receiver declares correctly with probability one
    st = sol.stage(1)
    assert st.triangulation.n_vertices == 2
    assert np.allclose(st.values_principal, 0.0)
    v_a, v_b = sol.values_at_prior()
    assert v_a == pytest.approx(0.0, abs=1e-12)
    assert v_b == pytest.approx(1.0, abs=1e-12)


def test_solve_rejects_invalid_spec():
    spec = builtin_example("quickest_detection", 0.2, 0.1, 2)
    bad = GameSpec(
        horizon=2,
        states=spec.states,
        actions=spec.actions,
        terminating=spec.terminating,
        kernels=(np.array([[[0.9, 0.2], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]),),
        rewards_principal=spec.rewards_principal,
        rewards_receiver=spec.rewards_receiver,
        prior=spec.prior,
    )
    with pytest.raises(SpecValidationError):
        solve(bad)


def test_solve_is_deterministic():
    spec = builtin_example("detector", 0.2, 0.15, 9)
    a = solve(spec)
    b = solve(spec)
    for t in range(1, 10):
        assert np.array_equal(a.stage(t).triangulation.vertices, b.stage(t).triangulation.vertices)
        assert np.array_equal(a.stage(t).values_principal, b.stage(t).values_principal)
        assert np.array_equal(a.stage(t).values_receiver, b.stage(t).values_receiver)
        assert a.stage(t).vertex_actions == b.stage(t).vertex_actions


def test_values_at_prior_matches_interpolation():
    spec = builtin_example("detector", 0.2, 0.15, 6)
    sol = solve(spec)
    st1 = sol.stage(1)
    v_a, v_b = sol.values_at_prior()
    assert v_a == pytest.approx(st1.value_principal(spec.prior), abs=1e-12)
    assert v_b == pytest.approx(st1.value_receiver(spec.prior), abs=1e-12)


def _stage_value_invariants(spec, sol, rng):
    for t in range(1, spec.horizon + 1):
        st = sol.stage(t)
        n = spec.n_states(t)
        grid = rng.dirichlet(np.ones(n), size=1000)
        psi, top_b = st.objective.tie_broken_values(grid)
        v_a = st.interp.evaluate_many(grid)[:, 0]

        # majorization: the interpolated value dominates the stage objective
        assert np.all(v_a >= psi - 1e-9)

        # concavity along random chords
        a = rng.dirichlet(np.ones(n), size=1000)
        b = rng.dirichlet(np.ones(n), size=1000)
        lam = rng.random(1000)
        mix = lam[:, None] * a + (1 - lam[:, None]) * b
        lhs = st.interp.evaluate_many(mix)[:, 0]
        rhs = lam * st.interp.evaluate_many(a)[:, 0] + (1 - lam) * st.interp.evaluate_many(b)[:, 0]
        assert np.all(lhs >= rhs - 1e-9)

        # vertex touching for both players
        verts = st.triangulation.vertices
        psi_v, top_v = st.objective.tie_broken_values(verts)
        assert np.allclose(st.values_principal, psi_v, atol=1e-9)
        assert np.allclose(st.values_receiver, top_v, atol=1e-9)

        # interpolation linearity inside each simplex
        for cell in st.triangulation.simplices:
            pts = verts[list(cell)]
            w = rng.dirichlet(np.ones(len(cell)), size=20)
            mix = w @ pts
            direct = w @ st.values_principal[list(cell)]
            assert np.allclose(st.interp.evaluate_many(mix)[:, 0], direct, atol=1e-9)
            direct_b = w @ st.values_receiver[list(cell)]
            assert np.allclose(st.interp.evaluate_many(mix)[:, 1], direct_b, atol=1e-9)


def test_value_function_invariants_on_builtins():
    rng = np.random.default_rng(41)
    for name, c in (("quickest_detection", 0.1), ("detector", 0.15)):
        spec = builtin_example(name, 0.2, c, 8)
        sol = solve(spec)
        _stage_value_invariants(spec, sol, rng)


def test_value_function_invariants_on_random_games():
    rng = np.random.default_rng(43)
    for _ in range(10):
        spec = _random_game(rng)
        sol = solve(spec)
        _stage_value_invariants(spec, sol, rng)


def test_one_stage_envelope_matches_exact_tie_point_hull():
    # independent exact construction for binary states: the envelope of the
    # tie-broken objective is the upper hull of its graph over the corners
    # plus the receiver indifference points, all computable in closed form
    rng = np.random.default_rng(20260815)
    for _ in range(25):
        nu = int(rng.integers(2, 4))
        r_a = rng.uniform(-1.0, 1.0, size=(2, nu))
        r_b = rng.uniform(-1.0, 1.0, size=(2, nu))
        spec = GameSpec(
            horizon=1,
            states=(("s0", "s1"),),
            actions=(tuple(f"u{k}" for k in range(nu)),),
            terminating=(frozenset(),),
            kernels=(),
            rewards_principal=(r_a,),
            rewards_receiver=(r_b,),
            prior=rng.dirichlet(np.ones(2)),
        )
        cands = {0.0, 1.0}
        for u in range(nu):
            for v in range(u + 1, nu):
                d0 = r_b[0, u] - r_b[0, v]
                d1 = r_b[1, u] - r_b[1, v]
                if abs(d0 - d1) > 1e-12:
                    x = d1 / (d1 - d0)
                    if 0.0 < x < 1.0:
                        cands.add(float(x))
        graph = []
        for x in sorted(cands):
            pi = np.array([x, 1.0 - x])
            q_b = pi @ r_b
            q_a = pi @ r_a
            graph.append((x, float(q_a[q_b >= q_b.max() - 1e-9].max())))
        hull = []
        for x, y in graph:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1) >= 0.0:
                    hull.pop()
                else:
                    break
            hull.append((x, y))
        st = solve(spec).stage(1)
        xs = np.linspace(0.0, 1.0, 501)
        want = np.interp(xs, [p[0] for p in hull], [p[1] for p in hull])
        got = st.interp.evaluate_many(np.column_stack([xs, 1.0 - xs]))[:, 0]
        assert np.abs(got - want).max() <= 1e-12


def test_receiver_bellman_identity_on_grid():
    # recompute max_u [expected reward + interpolated continuation] by hand
    # and compare with the solved stage objective
    rng = np.random.default_rng(47)
    specs = [
        builtin_example("quickest_detection", 0.2, 0.1, 6),
        builtin_example("detector", 0.2, 0.15, 6),
        _random_game(np.random.default_rng(101)),
    ]
    for spec in specs:
        sol = solve(spec)
        for t in range(1, spec.horizon + 1):
            st = sol.stage(t)
            n = spec.n_states(t)
            grid = np.vstack([simplex_grid(n, 25), rng.dirichlet(np.ones(n), size=100)])
            _, top_b = st.objective.tie_broken_values(grid)
            rew = spec.rewards_receiver[t - 1]
            for pi, got in zip(grid, top_b):
                best = -np.inf
                for u in range(spec.n_actions(t)):
                    val = float(pi @ rew[:, u])
                    if t < spec.horizon and not spec.is_terminating(t, u):
                        nxt = pi @ spec.kernels[t - 1][:, u, :]
                        val += sol.stage(t + 1).value_receiver(nxt)
                    best = max(best, val)
                assert got == pytest.approx(best, abs=1e-9)


# The binary-long bench games: (name, p, c).
_BINARY_LONG = (("quickest_detection", 0.2, 0.1), ("detector", 0.2, 0.15))


def _reference_stages(spec):
    """The plain backward loop: one stage_backup per stage, no memo."""
    stages, nxt = [], None
    for t in range(spec.horizon, 0, -1):
        nxt = stage_backup(spec, t, nxt)
        stages.append(nxt)
    return stages[::-1]


def _assert_same_stages(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.vertex_actions == b.vertex_actions
        for x, y in (
            (a.triangulation.simplices, b.triangulation.simplices),
            (a.triangulation.vertices, b.triangulation.vertices),
            (a.values_principal, b.values_principal),
            (a.values_receiver, b.values_receiver),
        ):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _counted_backups(monkeypatch):
    """Stages passed to solver.stage_backup, in call order."""
    calls = []
    original = solver.stage_backup

    def counted(spec, stage, next_solution=None):
        calls.append(stage)
        return original(spec, stage, next_solution)

    monkeypatch.setattr(solver, "stage_backup", counted)
    return calls


def _distinct_solutions(sol):
    return len({
        (s.triangulation.vertices.tobytes(), s.values_principal.tobytes(),
         s.values_receiver.tobytes(), s.vertex_actions)
        for s in sol.stages
    })


@pytest.mark.parametrize("horizon", [14, 40, 100, 1000])
@pytest.mark.parametrize("name, p, c", _BINARY_LONG)
def test_stage_memo_matches_the_plain_backup_loop_on_builtins(name, p, c, horizon):
    spec = builtin_example(name, p, c, horizon)
    _assert_same_stages(solve(spec).stages, _reference_stages(spec))


def test_stage_memo_matches_the_plain_backup_loop_on_dense_games(monkeypatch):
    for spec in [*_simplex_dense_specs(monkeypatch), spec_from_dict(GAME_3)]:
        _assert_same_stages(solve(spec).stages, _reference_stages(spec))


def test_stage_memo_backs_up_each_distinct_stage_input_once(monkeypatch):
    calls = _counted_backups(monkeypatch)
    quickest, detector = (builtin_example(name, p, c, 100) for name, p, c in _BINARY_LONG)
    solve(quickest)
    assert calls == list(range(100, 0, -1))
    del calls[:]
    sol = solve(detector)
    # Period 4 from stage 99 down; stage 96 reproduces the horizon
    # stage's solution from other inputs, and stage 95 sees stage 99's.
    assert calls == [100, 99, 98, 97, 96]
    assert _distinct_solutions(sol) == 4
    # The memo lives for one solve: a second solve backs up again.
    del calls[:]
    solve(detector)
    assert calls == [100, 99, 98, 97, 96]


def test_stage_memo_hits_share_the_backup():
    sol = solve(builtin_example("detector", 0.2, 0.15, 100))
    for t in range(1, 96):
        assert sol.stage(t) is sol.stage(t + 4)
    # Stage 96 is backed up afresh, onto the horizon stage's geometry,
    # which argcav shares byte for byte.
    assert sol.stage(96) is not sol.stage(100)
    assert sol.stage(96).triangulation is sol.stage(100).triangulation


def _geometry_key(tri):
    return tuple((a.shape, a.tobytes()) for a in (tri.vertices, tri.simplices))


def test_shared_triangulations_one_object_per_distinct_geometry():
    sol = solve(builtin_example(*_BINARY_LONG[0], 100))
    tris = {id(s.triangulation): s.triangulation for s in sol.stages}
    geometries = {_geometry_key(tri) for tri in tris.values()}
    assert len(tris) == len(geometries) < len({id(s) for s in sol.stages})


def test_shared_triangulations_match_unshared_ones_bit_for_bit(monkeypatch):
    spec = builtin_example(*_BINARY_LONG[0], 100)
    sol = solve(spec)
    monkeypatch.setattr(geometry, "_shared_triangulation", Triangulation)
    ref = solve(spec)
    assert len({id(s.triangulation) for s in ref.stages}) > len({id(s.triangulation) for s in sol.stages})
    for t in range(1, spec.horizon + 1):
        got, want = sol.stage(t).triangulation, ref.stage(t).triangulation
        assert _geometry_key(got) == _geometry_key(want)
        for x, y in ((got.boundary_functionals, want.boundary_functionals), (got._cell_inverses, want._cell_inverses)):
            assert x.shape == y.shape and x.strides == y.strides and x.tobytes() == y.tobytes()
        if t == spec.horizon:
            continue
        for u in range(spec.n_actions(t)):
            if spec.is_terminating(t, u):
                continue
            kernel = spec.kernels[t - 1][:, u, :]
            cached = sol.stage(t + 1).triangulation._pulled_boundaries
            assert (kernel.shape, kernel.strides, kernel.tobytes()) in cached
            pulled = (pullback_affine(s.stage(t + 1).interp, kernel) for s in (sol, ref))
            for x, y in zip(*pulled):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_shared_triangulations_die_with_their_solution():
    gc.collect()
    table = geometry._ENVELOPE_TRIANGULATIONS
    sol = solve(builtin_example(*_BINARY_LONG[0], 100))
    assert {id(tri) for tri in table.values()} >= {id(s.triangulation) for s in sol.stages}
    del sol
    gc.collect()
    assert len(table) == 0


def test_shared_triangulations_are_read_only_and_user_ones_are_not_shared():
    tri = solve(builtin_example(*_BINARY_LONG[0], 10)).stage(1).triangulation
    with pytest.raises(ValueError, match="read-only"):
        tri.vertices[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        tri.simplices[0, 0] = 1
    mine = Triangulation(np.array(tri.vertices), np.array(tri.simplices))
    assert mine is not Triangulation(np.array(tri.vertices), np.array(tri.simplices))
    assert mine.vertices.flags.writeable and mine.simplices.flags.writeable


def test_shared_triangulation_keeps_no_failed_geometry():
    before = len(geometry._ENVELOPE_TRIANGULATIONS)
    with pytest.raises(GeometryDomainError, match="degenerate"):
        geometry._shared_triangulation(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0, 1]]))
    assert len(geometry._ENVELOPE_TRIANGULATIONS) == before


def test_shared_triangulation_pullback_cache_checks_every_kernel():
    spec = builtin_example(*_BINARY_LONG[0], 10)
    interp = solve(spec).stage(2).interp
    kernel = spec.kernels[0][:, 0, :]
    pulled = interp.triangulation._pulled_boundaries
    _, boundary = pullback_affine(interp, kernel)
    assert pullback_affine(interp, kernel)[1] is boundary
    assert not boundary.flags.writeable
    # A kernel that fails as_simplex_points raises on every call.
    for _ in range(2):
        with pytest.raises(GeometryDomainError, match="outside the target simplex"):
            pullback_affine(interp, 2.0 * kernel)
    # One ulp, or the same bytes in another layout, is another key.
    bumped = np.array(kernel)
    bumped[0, 0] = np.nextafter(bumped[0, 0], np.inf)
    count = len(pulled)
    for other in (bumped, np.array(kernel)):
        _, fresh = pullback_affine(interp, other)
        assert fresh is not boundary
        want = dedup_functionals(geometry._pull_rows(other, interp.triangulation.boundary_functionals))
        assert fresh.shape == want.shape and fresh.tobytes() == want.tobytes()
    assert len(pulled) == count + 2


def test_shared_triangulation_pullback_cache_checks_each_kernel_once(monkeypatch):
    # a triangulation of its own, so no earlier pull has filled its cache
    tri = Triangulation(np.array([[1.0, 0.0], [0.4, 0.6], [0.0, 1.0]]), np.array([[0, 1], [1, 2]]))
    interp = VertexInterpolant(tri, np.array([0.0, 1.0, 0.5]))
    kernel = np.array([[0.7, 0.3], [0.2, 0.8]])
    checked = []
    original = geometry.as_simplex_points

    def counted(rows):
        checked.append(np.asarray(rows).tobytes())
        return original(rows)

    monkeypatch.setattr(geometry, "as_simplex_points", counted)
    first = pullback_affine(interp, kernel)
    second = pullback_affine(interp, kernel.copy())
    assert checked == [kernel.tobytes()]
    assert second[1] is first[1] and second[0].tobytes() == first[0].tobytes()


def test_stage_memo_misses_on_a_one_ulp_reward_change(monkeypatch):
    spec = builtin_example("detector", 0.2, 0.15, 12)
    calls = _counted_backups(monkeypatch)
    solve(spec)
    assert 3 not in calls
    rewards = list(spec.rewards_principal)
    rewards[2] = rewards[2].copy()
    rewards[2][0, 1] = np.nextafter(rewards[2][0, 1], np.inf)
    bumped = dataclasses.replace(spec, rewards_principal=tuple(rewards))
    del calls[:]
    sol = solve(bumped)
    assert 3 in calls
    _assert_same_stages(sol.stages, _reference_stages(bumped))


def test_stage_memo_misses_on_a_different_kernel(monkeypatch):
    spec = builtin_example("detector", 0.2, 0.15, 12)
    other = builtin_example("detector", 0.3, 0.15, 12)
    kernels = list(spec.kernels)
    kernels[2] = other.kernels[2]
    changed = dataclasses.replace(spec, kernels=tuple(kernels))
    calls = _counted_backups(monkeypatch)
    sol = solve(changed)
    assert 3 in calls
    _assert_same_stages(sol.stages, _reference_stages(changed))


@pytest.mark.parametrize("name, p, c, backups", [(*_BINARY_LONG[0], 158), (*_BINARY_LONG[1], 5)])
def test_long_horizon_solve_backs_up_only_distinct_stage_inputs(monkeypatch, name, p, c, backups):
    calls = _counted_backups(monkeypatch)
    sol = solve(builtin_example(name, p, c, 10_000))
    assert len(sol.stages) == 10_000 and len({id(s) for s in sol.stages}) == backups
    # One backup per distinct stage solution, plus the one backup whose
    # input is the repeating solution itself: that input first closes
    # the cycle (quickest_detection's fixed point, detector's period 4).
    assert len(calls) == backups == _distinct_solutions(sol) + 1
