"""End-to-end acceptance gate.

Each test prints one verdict line (visible because pytest runs with -s)
and pins the advertised tolerance and runtime budget:

1. last-stage closed form of the quickest-detection game;
2. period-4 oscillation of the detector value functions at T=40;
3. monotone stage-to-stage convergence of quickest detection at T=40;
4. a single quit-inducing vertex per stage in quickest detection;
5. exact tree evaluation equals the backward-induction values;
6. Monte Carlo means within four standard errors of exact values;
7. concavification agrees with a brute-force grid upper hull;
8. structural property sweep (splitting, martingale, concavity,
   majorization, Bellman identity, no profitable one-shot deviations).
"""

import time

import numpy as np
from scipy.spatial import ConvexHull

from signalgame.cli import builtin_example
from signalgame.evaluator import exact_value, one_shot_deviation_check, simulate
from signalgame.game import GameSpec, induced_distribution, split_experiment
from signalgame.geometry import SupportMeasure, barycentric_indices, simplex_grid
from signalgame.solver import solve

GRID_1001 = np.linspace(0.0, 1.0, 1001)


def _verdict(number: int, label: str, problems: list, elapsed: float = None, budget: float = None):
    ok = not problems
    note = ""
    if elapsed is not None:
        ok = ok and elapsed < budget
        note = f" [{elapsed:.2f}s < {budget:.0f}s]"
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}{note}")
    assert ok, f"criterion {number} ({label}): {problems or f'runtime {elapsed:.2f}s over budget'}"


def _binary_grid():
    return np.column_stack([GRID_1001, 1.0 - GRID_1001])


def _grid_values(stage_solution):
    return stage_solution.interp.evaluate_many(_binary_grid())[:, 0]


def _random_small_game(rng):
    horizon = int(rng.integers(1, 4))
    nx = [int(rng.integers(2, 4)) for _ in range(horizon)]
    nu = [int(rng.integers(2, 4)) for _ in range(horizon)]
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


def test_criterion_1_last_stage_closed_form():
    start = time.perf_counter()
    problems = []
    sol = solve(builtin_example("quickest_detection", 0.2, 0.1, 14))
    st = sol.stage(14)
    coords = st.triangulation.vertices[:, 0]
    if not np.allclose(coords, [0.0, 1.0 / 11.0, 1.0], atol=1e-9):
        problems.append(f"vertices {coords.tolist()}")
    if not np.allclose(st.values_principal, [0.0, 1.0, 1.0], atol=1e-9):
        problems.append(f"principal values {st.values_principal.tolist()}")
    if not np.allclose(st.values_receiver, [0.0, -1.0 / 11.0, 0.0], atol=1e-9):
        problems.append(f"receiver values {st.values_receiver.tolist()}")
    for point, want in (([0.5, 0.5], 1.0), ([1.0 / 22.0, 21.0 / 22.0], 0.5)):
        got = st.value_principal(point)
        if abs(got - want) > 1e-9:
            problems.append(f"V_T^A({point[0]}) = {got}, want {want}")
    _verdict(1, "last-stage closed form", problems, time.perf_counter() - start, 1.0)


def test_criterion_2_detector_period_four():
    start = time.perf_counter()
    problems = []
    sol = solve(builtin_example("detector", 0.2, 0.15, 40))
    values = {t: _grid_values(sol.stage(t)) for t in range(1, 25)}
    for t in range(5, 21):
        gap = float(np.abs(values[t] - values[t - 4]).max())
        if gap > 1e-6:
            problems.append(f"stage {t}: grid gap {gap:.3e}")
        a = np.sort(sol.stage(t).triangulation.vertices[:, 0])
        b = np.sort(sol.stage(t - 4).triangulation.vertices[:, 0])
        if a.size != b.size or np.abs(a - b).max() > 1e-12:
            problems.append(f"stage {t}: vertex sets differ from stage {t - 4}")
    _verdict(2, "detector period-4 oscillation", problems, time.perf_counter() - start, 30.0)


def test_criterion_3_quickest_detection_convergence():
    start = time.perf_counter()
    problems = []
    horizon = 40
    sol = solve(builtin_example("quickest_detection", 0.2, 0.1, horizon))
    values = {t: _grid_values(sol.stage(t)) for t in range(1, horizon + 1)}
    d = [
        float(np.abs(values[horizon - k] - values[horizon - k - 1]).max())
        for k in range(horizon - 1)
    ]
    for k in range(10, len(d) - 1):
        if d[k + 1] > d[k] + 1e-9:
            problems.append(f"d_{k + 1} = {d[k + 1]:.3e} > d_{k} = {d[k]:.3e}")
    _verdict(3, "stage differences shrink", problems, time.perf_counter() - start, 30.0)


def test_criterion_4_single_quit_vertex():
    problems = []
    for horizon in (14, 40):
        sol = solve(builtin_example("quickest_detection", 0.2, 0.1, horizon))
        quit_action = sol.spec.actions[0].index("declare_2")
        for t in range(1, horizon + 1):
            count = sum(1 for a in sol.stage(t).vertex_actions if a == quit_action)
            if count != 1:
                problems.append(f"T={horizon} stage {t}: {count} quit vertices")
    _verdict(4, "one quit-inducing vertex per stage", problems)


def test_criterion_5_exact_evaluation_identity():
    start = time.perf_counter()
    problems = []
    cases = [
        ("quickest_detection", solve(builtin_example("quickest_detection", 0.2, 0.1, 14))),
        ("detector", solve(builtin_example("detector", 0.2, 0.15, 14))),
    ]
    rng = np.random.default_rng(np.random.SeedSequence(20260815))
    cases.extend((f"random[{i}]", solve(_random_small_game(rng))) for i in range(50))
    for name, sol in cases:
        got = exact_value(sol)
        want = sol.values_at_prior()
        gap = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
        if gap > 1e-9:
            problems.append(f"{name}: gap {gap:.3e}")
    _verdict(5, "exact evaluation identity", problems, time.perf_counter() - start, 60.0)


def test_criterion_6_monte_carlo_agreement():
    start = time.perf_counter()
    problems = []
    for name, c in (("quickest_detection", 0.1), ("detector", 0.15)):
        sol = solve(builtin_example(name, 0.2, c, 14))
        v_a, v_b = exact_value(sol)

        def within_four_se(seed):
            rep = simulate(sol, seed=seed, trajectories=100_000)
            # the absolute floor covers zero-variance games, where the only
            # admissible discrepancy is float summation noise
            return (
                abs(rep.mean_principal - v_a) <= 4 * rep.stderr_principal + 1e-12
                and abs(rep.mean_receiver - v_b) <= 4 * rep.stderr_receiver + 1e-12
            )

        if not (within_four_se(0) or within_four_se(1)):
            problems.append(f"{name}: means outside 4 standard errors twice")
        if simulate(sol, seed=7, trajectories=20_000) != simulate(sol, seed=7, trajectories=20_000):
            problems.append(f"{name}: not reproducible under a fixed seed")
    _verdict(6, "Monte Carlo agreement", problems, time.perf_counter() - start, 60.0)


def _upper_hull_values_1d(xs, ys):
    """Grid hull values and the hull's own Lipschitz bound.

    The stage objective jumps at receiver indifference points, so its
    piece slopes do not bound the envelope's steepness; the hull's
    steepest segment is the sound stand-in (a concave function's
    Lipschitz constant is its extreme boundary slope, and the hull of a
    point subset never out-steepens the full envelope).
    """
    hull = []
    for x, y in zip(xs, ys):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1) >= 0.0:
                hull.pop()
            else:
                break
        hull.append((float(x), float(y)))
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    slopes = np.abs(np.diff(hy) / np.diff(hx))
    return np.interp(xs, hx, hy), float(slopes.max())


def _upper_hull_values_2d(points, psi):
    # lift (first two coordinates, value); a floor well below the surface
    # keeps the hull full-dimensional even for affine objectives
    flat = points[:, :2]
    floor = float(psi.min() - (psi.max() - psi.min()) - 1.0)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    lifted = np.vstack(
        [np.column_stack([flat, psi]), np.column_stack([corners, np.full(3, floor)])]
    )
    hull = ConvexHull(lifted)
    eq = hull.equations[hull.equations[:, 2] > 1e-10]
    # drop facets that touch the artificial floor
    touches_floor = np.array(
        [np.any(hull.simplices[i] >= flat.shape[0]) for i in np.nonzero(hull.equations[:, 2] > 1e-10)[0]]
    )
    eq = eq[~touches_floor] if (~touches_floor).any() else eq
    planes = -(eq[:, 3][None, :] + flat @ eq[:, :2].T) / eq[:, 2][None, :]
    gradients = -eq[:, :2] / eq[:, 2][:, None]
    lipschitz = float(np.abs(gradients).sum(axis=1).max())
    return planes.min(axis=1), lipschitz


def test_criterion_7_concavification_grid_oracle():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(np.random.SeedSequence(7_2026))
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        nu = int(rng.integers(2, 4))
        spec = GameSpec(
            horizon=1,
            states=(tuple(f"s{k}" for k in range(n)),),
            actions=(tuple(f"u{k}" for k in range(nu)),),
            terminating=(frozenset(),),
            kernels=(),
            rewards_principal=(rng.uniform(-1.0, 1.0, size=(n, nu)),),
            rewards_receiver=(rng.uniform(-1.0, 1.0, size=(n, nu)),),
            prior=rng.dirichlet(np.ones(n)),
        )
        st = solve(spec).stage(1)
        grid = simplex_grid(n, 200)
        psi, _ = st.objective.tie_broken_values(grid)
        if n == 2:
            order = np.argsort(grid[:, 0])
            hull_sorted, lipschitz = _upper_hull_values_1d(grid[order, 0], psi[order])
            oracle = np.empty(grid.shape[0])
            oracle[order] = hull_sorted
        else:
            oracle, lipschitz = _upper_hull_values_2d(grid, psi)
        gap = float(np.abs(st.interp.evaluate_many(grid)[:, 0] - oracle).max())
        if gap > 2.0 * lipschitz / 200.0 + 1e-12:
            problems.append(f"game {i} (|X|={n}): gap {gap:.3e} > {2 * lipschitz / 200:.3e}")
    _verdict(7, "concavification vs grid hull", problems, time.perf_counter() - start, 60.0)


def test_criterion_8_property_sweep():
    problems = []
    rng = np.random.default_rng(np.random.SeedSequence(8_2026))
    corpus = [
        solve(builtin_example("quickest_detection", 0.2, 0.1, 6)),
        solve(builtin_example("detector", 0.2, 0.15, 6)),
    ]
    corpus.extend(solve(_random_small_game(rng)) for _ in range(10))
    for idx, sol in enumerate(corpus):
        spec = sol.spec
        for t in range(1, spec.horizon + 1):
            st = sol.stage(t)
            n = spec.n_states(t)
            tri = st.triangulation

            beliefs = rng.dirichlet(np.ones(n), size=50)
            ids, weights = zip(*(barycentric_indices(tri, pi) for pi in beliefs))
            for pi, i, w in zip(beliefs, ids, weights):
                if np.abs(w @ tri.vertices[i] - pi).max() > 1e-9:
                    problems.append(f"game {idx} stage {t}: barycentric mean broken")
                    break

            pi = rng.dirichlet(np.ones(n))
            i, w = barycentric_indices(tri, pi)
            exp = split_experiment(pi, SupportMeasure(tri.vertices[i], w))
            dist = induced_distribution(pi, exp)
            if np.abs(dist.weights @ dist.points - pi).max() > 1e-9:
                problems.append(f"game {idx} stage {t}: split round trip broken")

            grid = rng.dirichlet(np.ones(n), size=300)
            psi, top_b = st.objective.tie_broken_values(grid)
            v_a = st.interp.evaluate_many(grid)[:, 0]
            if (v_a - psi).min() < -1e-9:
                problems.append(f"game {idx} stage {t}: majorization broken")
            lam = rng.random(150)[:, None]
            a, b = grid[:150], grid[150:]
            mid = lam * a + (1 - lam) * b
            chord = lam[:, 0] * st.interp.evaluate_many(a)[:, 0] + (
                1 - lam[:, 0]
            ) * st.interp.evaluate_many(b)[:, 0]
            if (st.interp.evaluate_many(mid)[:, 0] - chord).min() < -1e-9:
                problems.append(f"game {idx} stage {t}: concavity broken")
            psi_v, top_v = st.objective.tie_broken_values(tri.vertices)
            if np.abs(st.values_principal - psi_v).max() > 1e-9:
                problems.append(f"game {idx} stage {t}: principal vertex values broken")
            if np.abs(st.values_receiver - top_v).max() > 1e-9:
                problems.append(f"game {idx} stage {t}: receiver vertex values broken")

            # receiver Bellman identity, recomputed without the stage objective
            rew = spec.rewards_receiver[t - 1]
            for pi, got in zip(grid[:40], top_b[:40]):
                best = -np.inf
                for u in range(spec.n_actions(t)):
                    val = float(pi @ rew[:, u])
                    if t < spec.horizon and not spec.is_terminating(t, u):
                        val += sol.stage(t + 1).value_receiver(pi @ spec.kernels[t - 1][:, u, :])
                    best = max(best, val)
                if abs(got - best) > 1e-9:
                    problems.append(f"game {idx} stage {t}: Bellman identity broken")
                    break

        report = one_shot_deviation_check(sol, seed=idx)
        if not report.ok:
            problems.append(f"game {idx}: {len(report.violations)} one-shot deviations")
    _verdict(8, "property sweep", problems)
