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
    _inducible_splits,
    exact_value,
    one_shot_deviation_check,
    reachable_tree,
    simulate,
)
from signalgame.game import GameSpec, _signal_kernel, spec_from_dict
from signalgame.geometry import (
    EPS_EQUILIBRIUM,
    EPS_GEOM,
    EPS_MEMBER,
    GeometryDomainError,
    Triangulation,
    as_simplex_point,
)
from signalgame.solver import EquilibriumSolution, solve
from near_tie_corpus import near_tie_game
from test_goldens import GAME_3, GAME_3_2


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


@pytest.mark.parametrize(
    "spec",
    [
        builtin_example("quickest_detection", 0.2, 0.1, 14),
        builtin_example("detector", 0.2, 0.15, 14),
        spec_from_dict(GAME_3),
    ],
    ids=["quickest_detection", "detector", "game3"],
)
def test_reachable_tree_nodes_are_the_reached_split_rows(spec):
    # stage by stage, the DAG's nodes are the split record's reached rows,
    # in row order, and the edges that carry one label share one child
    sol = solve(spec)
    layer = {0: reachable_tree(sol)}
    for t, rec in enumerate(sol.split_record, start=1):
        rows = sorted(layer)
        assert rows == np.flatnonzero(rec.reached).tolist()
        assert [layer[row].stage for row in rows] == [t] * len(rows)
        assert np.array_equal(np.array([layer[row].belief for row in rows]), rec.beliefs[rec.reached])
        children = {}
        for row in rows:
            for edge in layer[row].edges:
                if edge.child is not None:
                    assert children.setdefault(edge.label, edge.child) is edge.child
        layer = children
    assert layer == {}


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
    record = sol.split_record
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
    stages = tuple(planted if i == t else s for i, s in enumerate(sol.stages, start=1))
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
    [
        builtin_example("quickest_detection", 0.2, 0.1, 14),
        # terminating actions: play ends with the split record, at stage 2 of 14
        builtin_example("detector", 0.2, 0.15, 14),
        _varying_states_game(),
        # bench/workloads.py's random_game(5, 3, 3, 4): stationary, 3 states, no terminating action
        dataclasses.replace(_random_game(5, 3, 3, 4), terminating=(frozenset(),) * 4),
    ],
    ids=["quickest_detection", "detector", "varying_states", "random-3"],
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


@pytest.mark.parametrize(
    ("name", "c", "horizon", "last_block_stages"),
    [
        # play ends with the split record, at stage 2 of 6
        ("detector", 0.15, 6, 2),
        # seed 0's lone trajectory in the last block raises the alarm at stage 10
        ("quickest_detection", 0.1, 40, 10),
    ],
)
def test_simulate_draws_one_uniform_then_one_pair_per_stage_played(
    monkeypatch, name, c, horizon, last_block_stages
):
    sol = solve(builtin_example(name, 0.2, c, horizon))
    stages = len(sol.split_record)
    shapes = []
    original = np.random.default_rng

    class Recorded:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            out = self.rng.random(size)
            shapes[-1].append(out.shape)
            return out

    def recorded(*args, **kwargs):
        shapes.append([])
        return Recorded(original(*args, **kwargs))

    monkeypatch.setattr(np.random, "default_rng", recorded)
    simulate(sol, seed=0, trajectories=2 * _SIM_BLOCK + 1)
    sizes, played = (_SIM_BLOCK, _SIM_BLOCK, 1), (stages, stages, last_block_stages)
    assert shapes == [[(size,)] + [(2, size)] * k for size, k in zip(sizes, played)]


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
    shared = list(sol.stages)
    # memo hits cycle with period 4, and the last stage stands alone
    assert [shared.index(s) for s in shared] == [0, 1, 2, 3, 0, 1, 2, 3, 0, 9]
    objective = type(sol.stage(1).objective)
    calls = []
    original = objective.q_many

    def counted(self, points):
        calls.append(len(points))
        return original(self, points)

    monkeypatch.setattr(objective, "q_many", counted)
    report = one_shot_deviation_check(sol, seed=2)
    # stages fill a batch in order up to _BATCH_PROBES probes, and each
    # batch makes one objective call per stage solution it holds
    record = sol.split_record
    batches, rows = [[]], 0
    for t in range(1, sol.spec.horizon + 1):
        width = evaluator._PROBES_PER_STAGE + (int(record[t - 1].reached.sum()) if t <= len(record) else 0)
        if rows + width > evaluator._BATCH_PROBES:
            batches.append([])
            rows = 0
        batches[-1].append(t)
        rows += width
    assert len(batches) > 1
    assert len(calls) == sum(len({shared[t - 1] for t in batch}) for batch in batches)
    assert len(calls) < sol.spec.horizon
    assert report.ok and report.receiver_checked == sum(st.triangulation.n_vertices for st in sol.stages)


@pytest.mark.parametrize(
    "spec",
    [builtin_example("detector", 0.2, 0.15, 10), spec_from_dict(GAME_3)],
    ids=["detector", "game3"],
)
def test_stacked_rows_score_like_separate_calls(spec):
    # a batch stacks several stages' rows into one q_many and one
    # evaluate_many call; each row must come out with the same bits as in
    # a call of its own rows (calls of more than one row: a single row
    # takes another BLAS path)
    sol = solve(spec)
    rng = np.random.default_rng(5)
    for st in (sol.stage(1), sol.stage(2)):
        n = st.triangulation.n_states
        parts = [st.triangulation.vertices, rng.dirichlet(np.ones(n), 21), np.eye(n),
                 rng.dirichlet(np.ones(n), 300)]
        stacked = st.objective.q_many(np.vstack(parts))
        alone = [st.objective.q_many(part) for part in parts]
        for j in range(2):
            assert np.array_equal(stacked[j], np.vstack([q[j] for q in alone]))
        values = st.interp.evaluate_many(np.vstack(parts))
        assert np.array_equal(values, np.vstack([st.interp.evaluate_many(part) for part in parts]))


def _report_fields(report):
    return (report.receiver_checked, report.principal_checked, report.max_receiver_gain,
            report.max_principal_gain, report.violations)


_BATCH_GAMES = {
    "quickest_detection": builtin_example("quickest_detection", 0.2, 0.1, 40),
    "game3_2": spec_from_dict(GAME_3_2),
    "near_tie_167": spec_from_dict(near_tie_game(3, 167)),
}


# With 20 probes a stage is one chunk; with 300 it spans two, and the
# last one is pooled with the next stages' chunks below the larger bounds.
@pytest.mark.parametrize(
    "spec, probes",
    [pytest.param(spec, 20, id=name) for name, spec in _BATCH_GAMES.items()]
    + [pytest.param(spec, 300, id=f"{name}-300_probes") for name, spec in _BATCH_GAMES.items()],
)
def test_deviation_report_does_not_depend_on_the_batch_bound(monkeypatch, spec, probes):
    monkeypatch.setattr(evaluator, "_PROBES_PER_STAGE", probes)
    sol = solve(spec)
    reports = []
    for bound in (1, evaluator._BATCH_PROBES, 10**9):
        monkeypatch.setattr(evaluator, "_BATCH_PROBES", bound)
        reports.append(_report_fields(one_shot_deviation_check(sol, seed=3)))
    assert reports[0] == reports[1] == reports[2]


def test_deviation_check_does_not_group_a_stage_rebuilt_by_hand():
    # stage 5 is the same object as stages 1 and 9; a wrong action at one
    # of its vertices must be found at stage 5 and nowhere else
    sol = solve(builtin_example("detector", 0.2, 0.15, 10))
    st = sol.stage(5)
    assert st is sol.stage(1) is sol.stage(9)
    q_b = st.objective.q_many(st.triangulation.vertices)[1]
    stored = np.take_along_axis(q_b, np.array(st.vertex_actions)[:, None], axis=1)[:, 0]
    runner_up = np.sort(q_b, axis=1)[:, -2]
    vertex = int(np.argmax(stored - runner_up))
    assert stored[vertex] - runner_up[vertex] > EPS_EQUILIBRIUM
    other = int(np.argsort(q_b[vertex])[-2])
    flipped = tuple(other if i == vertex else a for i, a in enumerate(st.vertex_actions))
    stages = tuple(
        dataclasses.replace(st, vertex_actions=flipped) if i == 5 else s for i, s in enumerate(sol.stages, start=1)
    )
    report = one_shot_deviation_check(EquilibriumSolution(spec=sol.spec, stages=stages), seed=2)
    flagged = [v for v in report.violations if v["kind"] == "receiver_action"]
    assert [v["stage"] for v in flagged] == [5]
    assert flagged[0]["belief"] == st.triangulation.vertices[vertex].tolist()


def test_deviation_check_memory_is_bounded():
    sol = solve(builtin_example("detector", 0.2, 0.15, 400))
    tracemalloc.start()
    try:
        one_shot_deviation_check(sol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_split_record_is_built_once_per_solution(monkeypatch):
    sol = solve(builtin_example("quickest_detection", 0.2, 0.1, 14))
    calls = []
    original = Triangulation.split_many

    def counted(self, points):
        calls.append(len(points))
        return original(self, points)

    monkeypatch.setattr(Triangulation, "split_many", counted)
    exact_value(sol)
    one_shot_deviation_check(sol)
    simulate(sol, trajectories=100)
    assert sol.split_record is sol.split_record
    assert len(calls) == len(sol.split_record)


def _sample_inducible_loop(probes, k, atoms, expo):
    # per-experiment shrink loop over the raw draws: the bit-exact
    # reference for _inducible_splits
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


def _experiment_draws(rng, n_probes, n, count):
    # one chunk's draws, in the deviation check's order and shapes
    return (
        rng.integers(2, n + 2, (n_probes, count)),
        rng.dirichlet(np.ones(n), (n_probes, count, n + 1)),
        rng.standard_exponential((n_probes, count, n + 1)),
    )


def test_sample_inducible_matches_per_state_loop():
    # n + 1 < 8 slots keeps numpy's slot sums sequential on both sides
    groups = [
        np.array([[0.3, 0.7], [0.0, 1.0], [0.5, 0.5]]),
        np.random.default_rng(4).dirichlet(np.ones(3), size=5),
        np.array([[0.2, 0.0, 0.5, 0.3], [0.25, 0.25, 0.25, 0.25]]),
        np.array([[0.1, 0.0, 0.9], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.0, 1.0]]),
    ]
    count = 12
    draws = []
    for seed, probes in enumerate(groups):
        n_probes, n = probes.shape
        draws.append(_experiment_draws(np.random.default_rng(seed), n_probes, n, count))
        got = _inducible_splits(probes, *draws[-1])
        want = _sample_inducible_loop(probes, *draws[-1])
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
    assert not _inducible_splits(groups[0], *draws[0])[3][1].any()

    # two stages' chunks pooled along the probe axis: the same rows as
    # the chunks alone, with the second chunk's owners shifted
    pooled = _inducible_splits(
        np.vstack([groups[1], groups[3]]), *(np.concatenate(pair) for pair in zip(draws[1], draws[3]))
    )
    want = _sample_inducible_loop(
        np.vstack([groups[1], groups[3]]), *(np.concatenate(pair) for pair in zip(draws[1], draws[3]))
    )
    for a, b in zip(pooled, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    first, second = _inducible_splits(groups[1], *draws[1]), _inducible_splits(groups[3], *draws[3])
    assert np.array_equal(pooled[0], np.vstack([first[0], second[0]]))
    assert np.array_equal(pooled[1], np.concatenate([first[1], second[1]]))
    assert np.array_equal(pooled[2], np.concatenate([first[2], second[2] + first[3].size]))
    assert np.array_equal(pooled[3], np.vstack([first[3], second[3]]))


def test_deviation_check_draws_experiments_in_probe_chunks(monkeypatch):
    sol = solve(builtin_example("detector", 0.2, 0.15, 4))
    calls = []
    original = np.random.default_rng

    class Recorded:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def recorded(*args, **kwargs):
                out = method(*args, **kwargs)
                calls.append((name, out.shape))
                return out

            return recorded

    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kw: Recorded(original(*args, **kw)))
    monkeypatch.setattr(evaluator, "_PROBES_PER_STAGE", 2 * _PROBE_BLOCK + 3)
    monkeypatch.setattr(evaluator, "_EXPERIMENTS_PER_BELIEF", 2)
    report = one_shot_deviation_check(sol)
    assert report.ok

    def chunk(size):
        return [("integers", (size, 2)), ("dirichlet", (size, 2, 3, 2)), ("standard_exponential", (size, 2, 3))]

    # every stage: its random probes, then two full chunks, then the rest
    # with the reachable beliefs
    per_stage = len(calls) // sol.spec.horizon
    assert len(calls) == 10 * sol.spec.horizon
    for t in range(sol.spec.horizon):
        stage = calls[t * per_stage : (t + 1) * per_stage]
        rest = stage[-1][1][0]
        assert 3 < rest < _PROBE_BLOCK
        assert stage == [("dirichlet", (2 * _PROBE_BLOCK + 3, 2))] + chunk(_PROBE_BLOCK) * 2 + chunk(rest)
