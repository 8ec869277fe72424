"""Forward verification of a solved game.

Three independent routes confirm the backward-induction values:

* exact evaluation walks the reachable belief DAG (the principal's
  splits always land on triangulation vertices, so the DAG is finite)
  and accumulates expected payoffs exactly;
* Monte Carlo simulation plays the policies on sampled state paths
  with one child RNG stream per trajectory;
* one-shot deviation checks probe both players: the receiver against
  every alternative action at vertices and probe beliefs, the
  principal against sampled alternative experiments at reachable and
  random beliefs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .game import _signal_kernel
from .geometry import EPS_GEOM, as_simplex_point, barycentric_indices
from .solver import EquilibriumSolution, receiver_best

__all__ = [
    "BeliefEdge",
    "BeliefNode",
    "NodeBudgetExceeded",
    "SimulationReport",
    "DeviationReport",
    "reachable_tree",
    "exact_value",
    "simulate",
    "one_shot_deviation_check",
]


class NodeBudgetExceeded(RuntimeError):
    """The reachable belief DAG outgrew the node budget."""

    def __init__(self, nodes: int, stage: int):
        self.nodes = nodes
        self.stage = stage
        super().__init__(
            f"reachable belief DAG exceeded {nodes} nodes while expanding stage {stage}"
        )


@dataclass(eq=False)
class BeliefEdge:
    """One experiment message out of a belief node."""

    label: int
    probability: float
    posterior: np.ndarray
    action: int
    reward_principal: float
    reward_receiver: float
    child: "BeliefNode | None"


@dataclass(eq=False)
class BeliefNode:
    """Pre-experiment belief of the principal at some stage."""

    stage: int
    belief: np.ndarray
    edges: list[BeliefEdge] = field(default_factory=list)
    value_principal: float = 0.0
    value_receiver: float = 0.0
    reach_probability: float = 0.0


def _belief_key(stage: int, coords: np.ndarray) -> tuple:
    return (stage, tuple(np.round(coords, 9) + 0.0))


def reachable_tree(solution: EquilibriumSolution, node_cap: int = 1_000_000) -> BeliefNode:
    """Reachable belief DAG under the equilibrium policies.

    The DAG is built one stage at a time.  Nodes are memoized on
    (stage, belief rounded to 9 decimals), so recombining paths share
    children.  Values are exact expectations; reach_probability
    accumulates over all paths into a node.  Raises NodeBudgetExceeded
    when stage expansion would create more than node_cap nodes.
    """
    spec = solution.spec
    if node_cap < 1:
        raise NodeBudgetExceeded(0, 1)
    root = BeliefNode(stage=1, belief=as_simplex_point(spec.prior), reach_probability=1.0)
    layers = [[root]]
    created = 1
    for stage in range(1, spec.horizon + 1):
        st = solution.stage(stage)
        children: dict[tuple, BeliefNode] = {}
        for node in layers[-1]:
            ids, weights = barycentric_indices(st.triangulation, node.belief)
            for label, w in zip(ids, weights):
                vertex = st.triangulation.vertices[label]
                action = st.vertex_actions[label]
                r_a = float(vertex @ spec.rewards_principal[stage - 1][:, action])
                r_b = float(vertex @ spec.rewards_receiver[stage - 1][:, action])
                child = None
                if stage < spec.horizon and not spec.is_terminating(stage, action):
                    coords = vertex @ spec.kernels[stage - 1][:, action, :]
                    key = _belief_key(stage + 1, coords)
                    child = children.get(key)
                    if child is None:
                        if created >= node_cap:
                            raise NodeBudgetExceeded(created, stage + 1)
                        child = children[key] = BeliefNode(stage=stage + 1, belief=coords)
                        created += 1
                    child.reach_probability += node.reach_probability * float(w)
                node.edges.append(
                    BeliefEdge(int(label), float(w), vertex, int(action), r_a, r_b, child)
                )
        layers.append(list(children.values()))
    for layer in reversed(layers):
        for node in layer:
            for edge in node.edges:
                total_a, total_b = edge.reward_principal, edge.reward_receiver
                if edge.child is not None:
                    total_a += edge.child.value_principal
                    total_b += edge.child.value_receiver
                node.value_principal += edge.probability * total_a
                node.value_receiver += edge.probability * total_b
    return root


def _stage_layers(root: BeliefNode) -> list[list[BeliefNode]]:
    """The DAG's nodes, one list per stage from the root's stage on.

    Within a stage, nodes come in the order a stack-based depth-first
    walk first pops them: parents in the order of the previous stage,
    each parent's children in reverse edge order.  The deviation check
    hands out its random experiments in this order.
    """
    layers = [[root]]
    while True:
        children: dict[int, BeliefNode] = {}
        for node in layers[-1]:
            for edge in reversed(node.edges):
                if edge.child is not None:
                    children.setdefault(id(edge.child), edge.child)
        if not children:
            return layers
        layers.append(list(children.values()))


def exact_value(solution: EquilibriumSolution, node_cap: int = 1_000_000) -> tuple[float, float]:
    """Exact expected payoffs (principal, receiver) under the equilibrium."""
    root = reachable_tree(solution, node_cap)
    return root.value_principal, root.value_receiver


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo summary: sample means with standard errors."""

    trajectories: int
    seed: int
    mean_principal: float
    mean_receiver: float
    stderr_principal: float
    stderr_receiver: float


@dataclass(eq=False)
class _NodePlan:
    """Sampling tables for one belief node: cumulative message rows per
    state, then per message the realized reward columns and either a
    terminal marker or the next-state tables plus the child plan."""

    message_cum: list[tuple[float, ...]]
    entries: list[tuple]


def simulate(
    solution: EquilibriumSolution,
    seed: int = 0,
    trajectories: int = 100_000,
    node_cap: int = 1_000_000,
) -> SimulationReport:
    """Play the equilibrium policies on sampled state trajectories.

    Each trajectory draws from its own child stream of
    SeedSequence(seed), so results are reproducible and independent of
    scheduling.  Rewards are realized (true-state) stage rewards.
    Sampling tables are precomputed on the reachable belief DAG, so
    the same node_cap resource limit applies.
    """
    if trajectories < 2:
        raise ValueError("need at least 2 trajectories for a standard error")
    spec = solution.spec
    root = reachable_tree(solution, node_cap)
    plans: dict[int, _NodePlan] = {}
    for layer in reversed(_stage_layers(root)):
        for node in layer:
            n = node.belief.size
            kernel = _signal_kernel(
                node.belief,
                np.array([e.probability for e in node.edges]),
                np.array([e.posterior for e in node.edges]),
            )
            entries = []
            for edge in node.edges:
                rew_a = tuple(spec.rewards_principal[node.stage - 1][:, edge.action])
                rew_b = tuple(spec.rewards_receiver[node.stage - 1][:, edge.action])
                if edge.child is None:
                    entries.append((rew_a, rew_b, None, None))
                else:
                    trans = spec.kernels[node.stage - 1][:, edge.action, :]
                    trans_cum = [tuple(np.cumsum(trans[x])) for x in range(n)]
                    entries.append((rew_a, rew_b, trans_cum, plans[id(edge.child)]))
            plans[id(node)] = _NodePlan([tuple(np.cumsum(kernel[x])) for x in range(n)], entries)

    root_plan = plans[id(root)]
    prior_cum = tuple(np.cumsum(as_simplex_point(spec.prior)))
    streams = np.random.SeedSequence(seed).spawn(trajectories)
    totals_a = np.empty(trajectories)
    totals_b = np.empty(trajectories)
    draws_per_traj = 1 + 2 * spec.horizon
    for i in range(trajectories):
        rng = np.random.default_rng(streams[i])
        draws = rng.random(draws_per_traj)
        cursor = 0
        x = bisect.bisect_right(prior_cum, draws[cursor])
        cursor += 1
        if x >= len(prior_cum):
            x = len(prior_cum) - 1
        plan = root_plan
        acc_a = acc_b = 0.0
        while True:
            m = bisect.bisect_right(plan.message_cum[x], draws[cursor])
            cursor += 1
            if m >= len(plan.entries):
                m = len(plan.entries) - 1
            rew_a, rew_b, trans_cum, child = plan.entries[m]
            acc_a += rew_a[x]
            acc_b += rew_b[x]
            if child is None:
                break
            x = bisect.bisect_right(trans_cum[x], draws[cursor])
            cursor += 1
            if x >= len(rew_a):
                x = len(rew_a) - 1
            plan = child
        totals_a[i] = acc_a
        totals_b[i] = acc_b
    return SimulationReport(
        trajectories=trajectories,
        seed=seed,
        mean_principal=float(totals_a.mean()),
        mean_receiver=float(totals_b.mean()),
        stderr_principal=float(totals_a.std(ddof=1) / np.sqrt(trajectories)),
        stderr_receiver=float(totals_b.std(ddof=1) / np.sqrt(trajectories)),
    )


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Outcome of the one-shot deviation probes."""

    receiver_checked: int
    principal_checked: int
    max_receiver_gain: float
    max_principal_gain: float
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def one_shot_deviation_check(
    solution: EquilibriumSolution,
    probes_per_stage: int = 20,
    experiments_per_belief: int = 20,
    seed: int = 0,
    tol: float = 1e-9,
    node_cap: int = 1_000_000,
) -> DeviationReport:
    """Search for profitable one-shot deviations by either player.

    Receiver: at every triangulation vertex, every reachable belief,
    and every random probe belief, the prescribed action must attain
    the best action value; at vertices the stored stage value must
    equal it (Bellman consistency).  Principal: at every reachable
    belief and probe, no sampled alternative experiment
    (mean-preserving split, full revelation, or no split) may beat the
    stage value.  Gains above tol are reported as violations.
    """
    spec = solution.spec
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    violations: list[dict] = []
    receiver_checked = 0
    principal_checked = 0
    max_gain_r = 0.0
    max_gain_p = 0.0

    def flag(kind: str, t: int, belief: np.ndarray, gain: float) -> None:
        if gain > tol:
            violations.append(
                {"kind": kind, "stage": t, "belief": belief.tolist(), "gain": float(gain)}
            )

    layers = _stage_layers(reachable_tree(solution, node_cap))
    for t in range(1, spec.horizon + 1):
        st = solution.stage(t)
        tri = st.triangulation
        n = spec.n_states(t)

        _, q_b = st.objective.q_many(tri.vertices)
        top = q_b.max(axis=1)
        action_gain = top - q_b[np.arange(tri.n_vertices), list(st.vertex_actions)]
        bellman_gap = np.abs(np.asarray(st.values_receiver, dtype=float) - top)
        receiver_checked += tri.n_vertices
        max_gain_r = max([max_gain_r, *action_gain.tolist()])
        for i, vertex in enumerate(tri.vertices):
            flag("receiver_action", t, vertex, action_gain[i])
            flag("receiver_bellman", t, vertex, bellman_gap[i])

        reachable = [node.belief for node in layers[t - 1]] if t <= len(layers) else []
        probes = np.vstack(reachable + [rng.dirichlet(np.ones(n), size=probes_per_stage)])
        qp_a, qp_b = st.objective.q_many(probes)
        psi_probes, _ = st.objective.tie_broken_values(probes)
        v_probes = st.interp_principal.evaluate_many(probes)
        measures = [_sample_inducible(rng, pi, experiments_per_belief) for pi in probes]
        atoms = [a for per_probe in measures for a, _ in per_probe]
        dev_vals = st.objective.tie_broken_values(np.vstack(atoms))[0] if atoms else None
        null_gain = psi_probes - v_probes
        lo = 0
        for j, pi in enumerate(probes):
            receiver_checked += 1
            chosen = receiver_best(qp_a[j], qp_b[j])[3]
            gain = float(qp_b[j].max() - qp_b[j, chosen])
            max_gain_r = max(max_gain_r, gain)
            flag("receiver_action", t, pi, gain)
            principal_checked += 1
            max_gain_p = max(max_gain_p, float(null_gain[j]))
            flag("principal_null_split", t, pi, null_gain[j])
            for measure_atoms, weights in measures[j]:
                hi = lo + len(measure_atoms)
                principal_checked += 1
                gain = float(weights @ dev_vals[lo:hi] - v_probes[j])
                lo = hi
                max_gain_p = max(max_gain_p, gain)
                flag("principal_experiment", t, pi, gain)

    return DeviationReport(
        receiver_checked=receiver_checked,
        principal_checked=principal_checked,
        max_receiver_gain=max_gain_r,
        max_principal_gain=max_gain_p,
        violations=tuple(violations),
    )


def _sample_inducible(rng: np.random.Generator, pi: np.ndarray, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random mean-pi distributions over posteriors, plus full revelation.

    Random draws are recentered and shrunk toward pi so the mean is
    preserved exactly and all atoms stay in the simplex.
    """
    n = pi.size
    out: list[tuple[np.ndarray, np.ndarray]] = []
    support = pi > EPS_GEOM
    if support.sum() > 1:
        atoms = np.eye(n)[support]
        out.append((atoms, pi[support] / pi[support].sum()))
    for _ in range(count):
        k = int(rng.integers(2, n + 2))
        atoms = rng.dirichlet(np.ones(n), size=k)
        weights = rng.dirichlet(np.ones(k))
        mean = weights @ atoms
        delta = atoms - mean
        worst = delta.min(axis=0)
        deep = worst < -EPS_GEOM
        shrink = np.min(pi[deep] / -worst[deep], initial=1.0)
        if shrink <= 0.0:
            continue
        shifted = np.clip(pi + shrink * delta, 0.0, None)
        shifted /= shifted.sum(axis=1, keepdims=True)
        out.append((shifted, weights))
    return out
