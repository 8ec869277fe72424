import numpy as np
import pytest

from signalgame.cli import builtin_example
from signalgame.game import Belief, induced_distribution
from signalgame.geometry import barycentric_indices
from signalgame.solver import solve
from signalgame.strategy import principal_action, receiver_action


@pytest.fixture(scope="module")
def qd_solution():
    return solve(builtin_example("quickest_detection", 0.2, 0.1, 3))


def test_principal_action_interior_split(qd_solution):
    # pi(1) = 0.05 sits between the vertices 0 and 1/11 of the last stage
    exp = principal_action(qd_solution, 3, [0.05, 0.95])
    assert exp.labels == (0, 1)
    assert np.allclose(exp.kernel, [[0.0, 1.0], [9.0 / 19.0, 10.0 / 19.0]], atol=1e-12)
    dist = induced_distribution([0.05, 0.95], exp)
    assert np.allclose(dist.weights, [0.45, 0.55], atol=1e-12)
    assert np.allclose(dist.points[:, 0], [0.0, 1.0 / 11.0], atol=1e-12)


def test_principal_action_at_vertex_is_uninformative(qd_solution):
    exp = principal_action(qd_solution, 3, [1.0 / 11.0, 10.0 / 11.0])
    assert exp.n_messages == 1
    assert exp.labels == (1,)
    assert np.allclose(exp.kernel, 1.0)


def test_principal_action_round_trip(qd_solution):
    rng = np.random.default_rng(7)
    for t in (1, 2, 3):
        st = qd_solution.stage(t)
        for pi in rng.dirichlet(np.ones(2), size=25):
            exp = principal_action(qd_solution, t, pi)
            dist = induced_distribution(pi, exp)
            ids, weights = barycentric_indices(st.triangulation, pi)
            # every induced posterior is a triangulation vertex and the
            # message weights are the barycentric weights
            order = np.argsort(dist.points[:, 0])
            want = st.triangulation.vertices[ids]
            want_order = np.argsort(want[:, 0])
            assert np.allclose(dist.points[order], want[want_order], atol=1e-9)
            assert np.allclose(dist.weights[order], weights[want_order], atol=1e-9)


def test_receiver_action_threshold(qd_solution):
    assert receiver_action(qd_solution, 3, [0.5, 0.5]) == 0
    assert receiver_action(qd_solution, 3, [0.0, 1.0]) == 1
    # exactly at the indifference point the tie breaks the principal's way
    assert receiver_action(qd_solution, 3, [1.0 / 11.0, 10.0 / 11.0]) == 0


def test_receiver_action_matches_vertex_actions():
    for name, c in (("quickest_detection", 0.1), ("detector", 0.15)):
        sol = solve(builtin_example(name, 0.2, c, 6))
        for t in range(1, 7):
            st = sol.stage(t)
            for i, vertex in enumerate(st.triangulation.vertices):
                assert receiver_action(sol, t, vertex) == st.vertex_actions[i]


def test_policy_value_consistency():
    # playing the recommended action achieves the stage objective
    rng = np.random.default_rng(11)
    sol = solve(builtin_example("detector", 0.2, 0.15, 5))
    for t in range(1, 6):
        st = sol.stage(t)
        for pi in rng.dirichlet(np.ones(2), size=30):
            u = receiver_action(sol, t, pi)
            q_a, q_b = st.objective.q_single(pi)
            psi, top_b = st.objective.tie_broken_values(pi[None, :])
            assert q_b[u] == pytest.approx(float(top_b[0]), abs=1e-9)
            assert q_a[u] == pytest.approx(float(psi[0]), abs=1e-9)


def test_stage_bounds_and_stamp_validation(qd_solution):
    with pytest.raises(ValueError):
        principal_action(qd_solution, 0, [0.5, 0.5])
    with pytest.raises(ValueError):
        receiver_action(qd_solution, 4, [0.5, 0.5])
    stamped = Belief(2, [0.5, 0.5])
    with pytest.raises(ValueError):
        principal_action(qd_solution, 3, stamped)
    # a belief stamped for the right stage is accepted
    exp = principal_action(qd_solution, 2, stamped)
    assert exp.n_messages >= 1

