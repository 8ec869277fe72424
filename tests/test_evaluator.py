import bisect
import dataclasses
import tracemalloc

import numpy as np
import pytest

from signalgame import evaluator
from signalgame.cli import builtin_example
from signalgame.evaluator import (
    _PROBE_BLOCK,
    _SIM_BLOCK,
    SimulationReport,
    _sample_inducible,
    _stage_splits,
    exact_value,
    one_shot_deviation_check,
    reachable_tree,
    simulate,
)
from signalgame.game import GameSpec, _signal_kernel
from signalgame.geometry import (
    EPS_EQUILIBRIUM,
    EPS_GEOM,
    EPS_MEMBER,
    GeometryDomainError,
    Triangulation,
    as_simplex_point,
)
from signalgame.solver import EquilibriumSolution, solve


def _single_action_game():
    # one action per stage: play is forced, all randomness is in the chain
    return GameSpec(
        horizon=3,
        states=(("a", "b"),) * 3,
        actions=(("go",),) * 3,
        terminating=(frozenset(),) * 3,
        kernels=(
            np.array([[[0.7, 0.3]], [[0.2, 0.8]]]),
            np.array([[[0.5, 0.5]], [[0.9, 0.1]]]),
        ),
        rewards_principal=(np.array([[1.0], [0.0]]),) * 3,
        rewards_receiver=(np.array([[0.0], [2.0]]),) * 3,
        prior=[0.6, 0.4],
    )


def test_reachable_tree_quickest_detection_two_stages():
    sol = solve(builtin_example("quickest_detection", 0.2, 0.1, 2))
    root = reachable_tree(sol)
    # the prior (1, 0) is already a vertex: one uninformative message,
    # the receiver declares state 1 and the chain moves to (0.8, 0.2)
    assert root.stage == 1
    assert np.allclose(root.belief, [1.0, 0.0], atol=1e-12)
    assert root.reach_probability == pytest.approx(1.0)
    assert len(root.edges) == 1
    edge = root.edges[0]
    assert edge.probability == pytest.approx(1.0)
    assert edge.action == 0
    assert edge.reward_principal == pytest.approx(1.0)
    assert edge.reward_receiver == pytest.approx(0.0)
    child = edge.child
    assert child is not None and child.stage == 2
    assert np.allclose(child.belief, [0.8, 0.2], atol=1e-12)
    # last stage: split onto the threshold 1/11 and the certain-no-change corner
    probs = sorted((e.probability, e.posterior[0]) for e in child.edges)
    assert len(probs) == 2
    assert probs[0][0] == pytest.approx(0.22)
    assert probs[0][1] == pytest.approx(1.0 / 11.0)
    assert probs[1][0] == pytest.approx(0.78)
    assert probs[1][1] == pytest.approx(1.0)
    assert exact_value(sol) == pytest.approx((2.0, -0.02), abs=1e-12)


def test_reachable_posteriors_are_vertices_and_probabilities_sum():
    for name, c, horizon in (("quickest_detection", 0.1, 7), ("detector", 0.15, 9)):
        sol = solve(builtin_example(name, 0.2, c, horizon))
        stack = [reachable_tree(sol)]
        seen = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if not node.edges:
                continue
            assert sum(e.probability for e in node.edges) == pytest.approx(1.0, abs=1e-12)
            verts = sol.stage(node.stage).triangulation.vertices
            for e in node.edges:
                gaps = np.abs(verts - e.posterior).max(axis=1)
                assert gaps.min() <= 1e-9
                if e.child is not None:
                    stack.append(e.child)


def test_exact_value_matches_backward_induction():
    for name, c, horizon in (("quickest_detection", 0.1, 14), ("detector", 0.15, 14)):
        sol = solve(builtin_example(name, 0.2, c, horizon))
        v = exact_value(sol)
        want = sol.values_at_prior()
        assert v[0] == pytest.approx(want[0], abs=1e-9)
        assert v[1] == pytest.approx(want[1], abs=1e-9)


def _random_game(seed, n, nu, horizon):
    # stationary game; action u0 terminates at odd seeds
    rng = np.random.default_rng(seed)
    return GameSpec(
        horizon=horizon,
        states=(tuple(f"x{i}" for i in range(n)),) * horizon,
        actions=(tuple(f"u{i}" for i in range(nu)),) * horizon,
        terminating=(frozenset({0} if seed % 2 else ()),) * horizon,
        kernels=(rng.dirichlet(np.ones(n), size=(n, nu)),) * (horizon - 1),
        rewards_principal=(rng.uniform(-1, 1, (n, nu)),) * horizon,
        rewards_receiver=(rng.uniform(-1, 1, (n, nu)),) * horizon,
        prior=rng.dirichlet(np.ones(n)),
    )


@pytest.mark.parametrize(
    "spec",
    [
        builtin_example("quickest_detection", 0.2, 0.1, 12),
        builtin_example("detector", 0.2, 0.15, 12),
        _random_game(0, 2, 3, 10),
        _random_game(1, 2, 2, 10),
        _random_game(2, 3, 2, 3),
        _random_game(3, 3, 3, 3),
        _random_game(4, 4, 2, 2),
    ],
    ids=["quickest_detection", "detector", "random-2a", "random-2b", "random-3a", "random-3b",
         "random-4"],
)
def test_dag_stage_is_bounded_by_previous_stage_vertices(spec):
    sol = solve(spec)
    record = _stage_splits(sol)
    layers = [[reachable_tree(sol)]]
    while True:
        parents = {}  # child node id -> the stage-t vertex labels leading to it
        children = {}
        for node in layers[-1]:
            for e in node.edges:
                if e.child is not None:
                    parents.setdefault(id(e.child), set()).add(e.label)
                    children[id(e.child)] = e.child
        if not children:
            break
        t = layers[-1][0].stage
        # each child follows one vertex, and no vertex leads to two children
        assert all(len(labels) == 1 for labels in parents.values())
        assert len({min(labels) for labels in parents.values()}) == len(children)
        assert len(children) <= sol.stage(t).triangulation.n_vertices
        layers.append(list(children.values()))
    assert len(layers) == len(record)
    for rec, layer in zip(record, layers):
        want = sorted(map(tuple, rec.beliefs[rec.reached].tolist()))
        assert sorted(tuple(node.belief.tolist()) for node in layer) == want


def test_simulate_reproducible_and_seed_sensitive():
    sol = solve(builtin_example("quickest_detection", 0.2, 0.1, 6))
    a = simulate(sol, seed=5, trajectories=2000)
    b = simulate(sol, seed=5, trajectories=2000)
    c = simulate(sol, seed=6, trajectories=2000)
    assert a == b
    assert a.mean_principal != c.mean_principal or a.mean_receiver != c.mean_receiver


def test_simulate_single_action_game_matches_exact():
    sol = solve(_single_action_game())
    rep = simulate(sol, seed=1, trajectories=4000)
    v_a, v_b = exact_value(sol)
    # play is forced, so only chain noise remains; means land within 4 SEs
    assert abs(rep.mean_principal - v_a) <= 4 * rep.stderr_principal + 1e-12
    assert abs(rep.mean_receiver - v_b) <= 4 * rep.stderr_receiver + 1e-12
    assert rep.trajectories == 4000 and rep.seed == 1


def test_simulate_zero_variance_when_rewards_are_flat():
    spec = _single_action_game()
    flat = dataclasses.replace(
        spec,
        rewards_principal=(np.full((2, 1), 0.5),) * 3,
        rewards_receiver=(np.full((2, 1), -0.25),) * 3,
    )
    sol = solve(flat)
    rep = simulate(sol, seed=3, trajectories=500)
    assert rep.mean_principal == pytest.approx(1.5, abs=1e-12)
    assert rep.mean_receiver == pytest.approx(-0.75, abs=1e-12)
    assert rep.stderr_principal == pytest.approx(0.0, abs=1e-15)
    assert rep.stderr_receiver == pytest.approx(0.0, abs=1e-15)


def test_simulate_needs_two_trajectories():
    sol = solve(builtin_example("quickest_detection", 0.2, 0.1, 2))
    with pytest.raises(ValueError):
        simulate(sol, trajectories=1)


def test_simulate_agrees_with_exact_value():
    for name, c in (("quickest_detection", 0.1), ("detector", 0.15)):
        sol = solve(builtin_example(name, 0.2, c, 8))
        rep = simulate(sol, seed=12, trajectories=20_000)
        v_a, v_b = exact_value(sol)
        assert abs(rep.mean_principal - v_a) <= 4 * rep.stderr_principal + 1e-12
        assert abs(rep.mean_receiver - v_b) <= 4 * rep.stderr_receiver + 1e-12


def test_no_profitable_one_shot_deviations_on_builtins():
    for name, c in (("quickest_detection", 0.1), ("detector", 0.15)):
        sol = solve(builtin_example(name, 0.2, c, 10))
        report = one_shot_deviation_check(sol, seed=2)
        assert report.ok
        assert report.violations == ()
        assert report.max_receiver_gain <= 1e-9
        assert report.max_principal_gain <= 1e-9
        assert report.receiver_checked == sum(st.triangulation.n_vertices for st in sol.stages)
        assert report.principal_checked > 0


def test_deviation_check_flags_wrong_receiver_action():
    # corrupt the stored action at the absorbing corner of the last stage,
    # where declaring state 1 is strictly suboptimal for the receiver
    sol = solve(builtin_example("quickest_detection", 0.2, 0.1, 2))
    last = sol.stage(2)
    corner = int(np.argmax(last.triangulation.vertices[:, 0] > 0.5))
    assert last.vertex_actions[corner] == 0
    flipped = tuple(
        1 - a if i == corner else a for i, a in enumerate(last.vertex_actions)
    )
    bad_stage = dataclasses.replace(last, vertex_actions=flipped)
    bad = EquilibriumSolution(spec=sol.spec, stages=(sol.stages[0], bad_stage))
    report = one_shot_deviation_check(bad, seed=2)
    assert not report.ok
    kinds = {v["kind"] for v in report.violations}
    assert "receiver_action" in kinds
    flagged = [v for v in report.violations if v["kind"] == "receiver_action"]
    assert any(abs(v["belief"][0] - 1.0) <= 1e-9 and v["stage"] == 2 for v in flagged)
    assert report.max_receiver_gain == pytest.approx(1.0, abs=1e-9)


def test_split_record_names_the_stage_of_an_uncovered_belief():
    sol = solve(builtin_example("detector", 0.2, 0.15, 2))
    # stage 2 covers only the half x0 <= 1/2 of the simplex
    half = Triangulation(np.array([[0.0, 1.0], [0.5, 0.5]]), ((0, 1),))
    stages = (sol.stage(1), dataclasses.replace(sol.stage(2), triangulation=half))
    bad = EquilibriumSolution(spec=sol.spec, stages=stages)
    with pytest.raises(GeometryDomainError, match=r"^stage 2: point \[.*\] is not covered by any cell$"):
        exact_value(bad)


def test_deviation_check_flags_lowered_principal_value():
    # lower the principal's stored value at the interior vertex of stage 3:
    # near it, staying silent and the sampled splits now beat the stage value
    sol = solve(builtin_example("quickest_detection", 0.2, 0.1, 4))
    clean = one_shot_deviation_check(sol, seed=0)
    assert clean.ok and clean.max_principal_gain <= EPS_EQUILIBRIUM
    t, drop = 3, 0.5
    st = sol.stage(t)
    interior = np.flatnonzero(st.triangulation.vertices.min(axis=1) > 0)
    assert len(interior) == 1
    lowered = st.values_principal.copy()
    lowered[interior] -= drop
    planted = dataclasses.replace(st, values_principal=lowered)
    stages = tuple(planted if s.stage == t else s for s in sol.stages)
    report = one_shot_deviation_check(EquilibriumSolution(spec=sol.spec, stages=stages), seed=0)
    assert report.principal_checked == clean.principal_checked
    kinds = {(v["kind"], v["stage"]) for v in report.violations}
    assert kinds == {("principal_null_split", t), ("principal_experiment", t)}
    # no experiment is worth more than the stage's true value, which is at
    # most drop above the lowered one
    assert 0.0 < report.max_principal_gain <= drop + EPS_EQUILIBRIUM
    for v in report.violations:
        assert v["gain"] <= report.max_principal_gain
        if v["kind"] == "principal_null_split":
            belief = np.array(v["belief"])
            psi = st.objective.tie_broken_values(belief[None, :])[0][0]
            assert v["gain"] == pytest.approx(psi - planted.value_principal(belief), abs=1e-12)


def test_deviation_check_single_action_game_is_vacuously_clean():
    sol = solve(_single_action_game())
    report = one_shot_deviation_check(sol, seed=0)
    assert report.ok
    assert report.max_receiver_gain == pytest.approx(0.0, abs=1e-12)


@pytest.fixture(scope="module")
def long_detection():
    # 2000 stages: far past the interpreter's recursion limit
    return solve(builtin_example("quickest_detection", 0.2, 0.1, 2000))


def test_exact_value_at_long_horizon(long_detection):
    v = exact_value(long_detection)
    want = long_detection.values_at_prior()
    assert v[0] == pytest.approx(want[0], abs=1e-9)
    assert v[1] == pytest.approx(want[1], abs=1e-9)


def test_simulate_at_long_horizon(long_detection):
    rep = simulate(long_detection, seed=0, trajectories=200)
    assert rep.trajectories == 200
    v_a, v_b = exact_value(long_detection)
    assert abs(rep.mean_principal - v_a) <= 4 * rep.stderr_principal + 1e-12
    assert abs(rep.mean_receiver - v_b) <= 4 * rep.stderr_receiver + 1e-12


def _varying_states_game():
    # 2 -> 3 -> 2 states; "stop" ends play at stage 2 on the third state
    return GameSpec(
        horizon=3,
        states=(("a", "b"), ("a", "b", "c"), ("a", "b")),
        actions=(("l", "r"), ("l", "r", "stop"), ("l", "r")),
        terminating=(frozenset(), frozenset({2}), frozenset()),
        kernels=(
            np.array([[[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]], [[0.1, 0.5, 0.4], [0.3, 0.3, 0.4]]]),
            np.array([
                [[0.9, 0.1], [0.4, 0.6], [0.5, 0.5]],
                [[0.2, 0.8], [0.7, 0.3], [0.5, 0.5]],
                [[0.5, 0.5], [0.1, 0.9], [0.5, 0.5]],
            ]),
        ),
        rewards_principal=(
            np.array([[1.0, 0.0], [0.2, 0.8]]),
            np.array([[0.5, 1.0, 1.5], [0.0, 0.4, 1.5], [1.0, 0.2, 1.5]]),
            np.array([[1.0, -0.5], [0.0, 0.7]]),
        ),
        rewards_receiver=(
            np.array([[0.6, -0.2], [-0.3, 0.5]]),
            np.array([[0.4, -0.1, 0.0], [-0.2, 0.5, 0.0], [0.0, 0.0, 2.0]]),
            np.array([[0.8, 0.1], [-0.4, 0.6]]),
        ),
        prior=[0.55, 0.45],
    )


def _simulate_loop(solution, seed, trajectories):
    # per-trajectory bisect walk over the belief DAG, fed the same
    # per-block draws as simulate: the bit-exact reference for simulate
    spec = solution.spec
    root = reachable_tree(solution)
    prior_cum = tuple(np.cumsum(as_simplex_point(spec.prior)))
    plans = {}

    def plan(node):
        if id(node) not in plans:
            kernel = _signal_kernel(
                node.belief,
                np.array([e.probability for e in node.edges]),
                np.array([e.posterior for e in node.edges]),
            )
            trans = [
                None if e.child is None
                else [tuple(np.cumsum(row)) for row in spec.kernels[node.stage - 1][:, e.action, :]]
                for e in node.edges
            ]
            plans[id(node)] = ([tuple(np.cumsum(row)) for row in kernel], trans)
        return plans[id(node)]

    totals_a = np.empty(trajectories)
    totals_b = np.empty(trajectories)
    n_blocks = -(-trajectories // _SIM_BLOCK)
    for b, stream in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        rng = np.random.default_rng(stream)
        lo = b * _SIM_BLOCK
        size = min(_SIM_BLOCK, trajectories - lo)
        first = rng.random(size)
        draws = [rng.random((2, size)) for _ in range(spec.horizon)]
        for j in range(size):
            x = min(bisect.bisect_right(prior_cum, first[j]), len(prior_cum) - 1)
            node = root
            acc_a = acc_b = 0.0
            for u0, u1 in draws:
                message_cum, trans = plan(node)
                m = min(bisect.bisect_right(message_cum[x], u0[j]), len(node.edges) - 1)
                edge = node.edges[m]
                acc_a += spec.rewards_principal[node.stage - 1][x, edge.action]
                acc_b += spec.rewards_receiver[node.stage - 1][x, edge.action]
                if edge.child is None:
                    break
                x = min(bisect.bisect_right(trans[m][x], u1[j]), len(trans[m][x]) - 1)
                node = edge.child
            totals_a[lo + j] = acc_a
            totals_b[lo + j] = acc_b
    return SimulationReport(
        trajectories=trajectories,
        seed=seed,
        mean_principal=float(totals_a.mean()),
        mean_receiver=float(totals_b.mean()),
        stderr_principal=float(totals_a.std(ddof=1) / np.sqrt(trajectories)),
        stderr_receiver=float(totals_b.std(ddof=1) / np.sqrt(trajectories)),
    )


@pytest.mark.parametrize(
    "spec",
    [builtin_example("quickest_detection", 0.2, 0.1, 14), _varying_states_game()],
    ids=["quickest_detection", "varying_states"],
)
def test_simulate_matches_per_trajectory_loop(spec):
    sol = solve(spec)
    # two full blocks and a ragged last one
    trajectories = 2 * _SIM_BLOCK + 37
    assert simulate(sol, seed=3, trajectories=trajectories) == _simulate_loop(sol, 3, trajectories)


def test_simulate_agrees_with_exact_value_when_state_count_changes():
    # the next state is clamped to the next stage's state count, not this one's
    sol = solve(_varying_states_game())
    rep = simulate(sol, seed=0, trajectories=20_000)
    v_a, v_b = exact_value(sol)
    assert abs(rep.mean_principal - v_a) <= 4 * rep.stderr_principal + 1e-12
    assert abs(rep.mean_receiver - v_b) <= 4 * rep.stderr_receiver + 1e-12


def test_simulate_makes_one_generator_per_block(monkeypatch):
    sol = solve(builtin_example("detector", 0.2, 0.15, 6))
    made = []
    original = np.random.default_rng

    def counted(*args, **kwargs):
        made.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    simulate(sol, trajectories=2 * _SIM_BLOCK + 1)
    assert len(made) == 3


def test_simulate_memory_is_bounded():
    sol = solve(builtin_example("quickest_detection", 0.2, 0.1, 14))
    tracemalloc.start()
    try:
        simulate(sol, trajectories=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_deviation_check_at_long_horizon(long_detection):
    report = one_shot_deviation_check(long_detection)
    assert report.ok


def test_deviation_check_batches_objective_calls_per_stage(monkeypatch):
    sol = solve(builtin_example("detector", 0.2, 0.15, 10))
    objective = type(sol.stage(1).objective)
    calls = []
    original = objective.tie_broken_values

    def counted(self, points, *args, **kwargs):
        calls.append(len(points))
        return original(self, points, *args, **kwargs)

    monkeypatch.setattr(objective, "tie_broken_values", counted)
    report = one_shot_deviation_check(sol, seed=2)
    # per stage: one call on every sampled atom; the probe beliefs go
    # through receiver_best on the action values directly
    assert len(calls) == sol.spec.horizon
    assert report.principal_checked > len(calls)


def _sample_inducible_loop(probes, k, atoms, expo):
    # per-experiment shrink loop over the raw draws: the bit-exact
    # reference for _sample_inducible
    count = k.shape[1]
    kept = np.zeros(k.shape, dtype=bool)
    out_atoms, out_weights, owner = [], [], []
    for p, pi in enumerate(probes):
        for c in range(count):
            used = atoms[p, c, : k[p, c]]
            weights = expo[p, c, : k[p, c]] / expo[p, c, : k[p, c]].sum()
            delta = used - (weights[:, None] * used).sum(axis=0)
            shrink = 1.0
            for x in range(pi.size):
                worst = delta[:, x].min()
                if worst < -EPS_GEOM:
                    shrink = min(shrink, pi[x] / -worst)
            if shrink <= 0.0:
                continue
            shifted = np.clip(pi + shrink * delta, 0.0, None)
            shifted /= shifted.sum(axis=1, keepdims=True)
            kept[p, c] = True
            out_atoms.append(shifted)
            out_weights.append(weights)
            owner += [p * count + c] * len(shifted)
    return np.vstack(out_atoms), np.concatenate(out_weights), np.array(owner), kept


def test_sample_inducible_matches_per_state_loop():
    # n + 1 < 8 slots keeps numpy's slot sums sequential on both sides
    groups = [
        np.array([[0.3, 0.7], [0.0, 1.0], [0.5, 0.5]]),
        np.random.default_rng(4).dirichlet(np.ones(3), size=5),
        np.array([[0.2, 0.0, 0.5, 0.3], [0.25, 0.25, 0.25, 0.25]]),
    ]
    count = 12
    for seed, probes in enumerate(groups):
        n_probes, n = probes.shape
        got = _sample_inducible(np.random.default_rng(seed), probes, count)
        # the batch's raw draws: three calls on the same stream
        rng = np.random.default_rng(seed)
        k = rng.integers(2, n + 2, (n_probes, count))
        atoms = rng.dirichlet(np.ones(n), (n_probes, count, n + 1))
        expo = rng.standard_exponential((n_probes, count, n + 1))
        want = _sample_inducible_loop(probes, k, atoms, expo)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

        shifted, weights, owner, kept = got
        flat = kept.size
        assert np.array_equal(np.bincount(owner, minlength=flat) > 0, kept.ravel())
        assert np.abs(np.bincount(owner, weights, minlength=flat)[kept.ravel()] - 1.0).max() <= EPS_GEOM
        assert shifted.min() >= 0.0 and np.abs(shifted.sum(axis=1) - 1.0).max() <= EPS_GEOM
        means = np.column_stack(
            [np.bincount(owner, weights * shifted[:, x], minlength=flat) for x in range(n)]
        ).reshape(n_probes, count, n)
        assert np.abs(means - probes[:, None, :])[kept].max() <= EPS_MEMBER
    # a corner probe has no room to split: every draw is dropped there
    assert not _sample_inducible(np.random.default_rng(0), groups[0], count)[3][1].any()


def test_deviation_check_draws_experiments_in_probe_chunks(monkeypatch):
    sol = solve(builtin_example("detector", 0.2, 0.15, 4))
    sizes = []
    original = evaluator._sample_inducible

    def recorded(rng, probes, count):
        sizes.append(len(probes))
        return original(rng, probes, count)

    monkeypatch.setattr(evaluator, "_sample_inducible", recorded)
    report = one_shot_deviation_check(sol, probes_per_stage=2 * _PROBE_BLOCK + 3, experiments_per_belief=2)
    assert report.ok
    # every stage: two full chunks, then the rest with the reachable beliefs
    assert sizes[:3] == [_PROBE_BLOCK, _PROBE_BLOCK, sizes[2]] and 3 < sizes[2] < _PROBE_BLOCK
    assert len(sizes) == 3 * sol.spec.horizon
