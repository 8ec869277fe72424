"""Forward verification of a solved game.

Three independent routes confirm the backward-induction values:

* exact evaluation walks the reachable belief DAG (the principal's
  splits always land on triangulation vertices, so the DAG is finite)
  and accumulates expected payoffs exactly;
* Monte Carlo simulation plays the policies on sampled state paths,
  a block of trajectories at a time, stage by stage, with one child
  RNG stream per block;
* one-shot deviation checks probe both players: the receiver against
  every alternative action at the triangulation vertices, the
  principal against alternative experiments at reachable and random
  beliefs, sampled and scored for a stage's probes in array passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game import _signal_kernel
from .geometry import EPS_EQUILIBRIUM, EPS_GEOM, as_simplex_point, barycentric_indices
from .solver import EquilibriumSolution

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


# Defaults of the verifiers' resource and sample sizes, shared with the CLI.
NODE_CAP = 1_000_000
TRAJECTORIES = 100_000


def _belief_key(stage: int, coords: np.ndarray) -> tuple:
    return (stage, tuple(np.round(coords, 9) + 0.0))


def reachable_tree(solution: EquilibriumSolution, node_cap: int = NODE_CAP) -> BeliefNode:
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


def exact_value(solution: EquilibriumSolution, node_cap: int = NODE_CAP) -> tuple[float, float]:
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


# Trajectories per RNG stream and per vectorized step.  Fixed, because
# each block's stream decides its trajectories' draws: another size
# would give other results for the same seed.
_SIM_BLOCK = 8192


@dataclass(frozen=True)
class _LayerTable:
    """Sampling tables for one stage layer of k nodes with n states and
    at most M messages per node.  msg_cum (k, n, M) holds the
    cumulative signal rows padded with +inf, n_msg (k,) the message
    counts, action (k, M) the receiver's action after each message and
    child (k, M) the child's index in the next layer, or -1 where play
    ends."""

    msg_cum: np.ndarray
    n_msg: np.ndarray
    action: np.ndarray
    child: np.ndarray


def _layer_tables(layers: list[list[BeliefNode]]) -> list[_LayerTable]:
    tables = []
    for layer, next_layer in zip(layers, layers[1:] + [[]]):
        index = {id(node): i for i, node in enumerate(next_layer)}
        k, n = len(layer), layer[0].belief.size
        width = max(len(node.edges) for node in layer)
        msg_cum = np.full((k, n, width), np.inf)
        n_msg = np.empty(k, dtype=np.intp)
        action = np.zeros((k, width), dtype=np.intp)
        child = np.full((k, width), -1, dtype=np.intp)
        for i, node in enumerate(layer):
            edges = node.edges
            kernel = _signal_kernel(
                node.belief,
                np.array([e.probability for e in edges]),
                np.array([e.posterior for e in edges]),
            )
            msg_cum[i, :, : len(edges)] = np.cumsum(kernel, axis=1)
            n_msg[i] = len(edges)
            action[i, : len(edges)] = [e.action for e in edges]
            child[i, : len(edges)] = [-1 if e.child is None else index[id(e.child)] for e in edges]
        tables.append(_LayerTable(msg_cum, n_msg, action, child))
    return tables


def _bisect_rows(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise bisect_right of u[j] into the nondecreasing row cum[j];
    +inf padding never counts."""
    return (cum <= u[:, None]).sum(axis=1)


def simulate(
    solution: EquilibriumSolution,
    seed: int = 0,
    trajectories: int = TRAJECTORIES,
    node_cap: int = NODE_CAP,
) -> SimulationReport:
    """Play the equilibrium policies on sampled state trajectories.

    Trajectories run in fixed blocks of _SIM_BLOCK.  Block b draws from
    child stream b of SeedSequence(seed): first one uniform per
    trajectory for the initial state, then at every stage a (2, size)
    array of uniforms for the message and the next state, whether a
    trajectory is still in play or not.  A trajectory's draws thus
    depend only on its block and its position in it, so results are
    reproducible and independent of execution order.  All trajectories
    of a block advance together, stage by stage, over per-layer tables
    of the reachable belief DAG, so the same node_cap resource limit
    applies.  Rewards are realized (true-state) stage rewards.
    """
    if trajectories < 2:
        raise ValueError("need at least 2 trajectories for a standard error")
    spec = solution.spec
    root = reachable_tree(solution, node_cap)
    tables = _layer_tables(_stage_layers(root))
    prior_cum = np.cumsum(as_simplex_point(spec.prior))
    # stage t's transition rows cumulated over next states: (n, A, n')
    trans_cum = [np.cumsum(kernel, axis=2) for kernel in spec.kernels]
    totals_a = np.zeros(trajectories)
    totals_b = np.zeros(trajectories)
    n_blocks = -(-trajectories // _SIM_BLOCK)
    for b, stream in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        rng = np.random.default_rng(stream)
        lo = b * _SIM_BLOCK
        size = min(_SIM_BLOCK, trajectories - lo)
        live = np.arange(lo, lo + size)
        x = np.minimum(_bisect_rows(prior_cum[None, :], rng.random(size)), prior_cum.size - 1)
        node = np.zeros(size, dtype=np.intp)
        for stage, table in enumerate(tables, start=root.stage):
            u0, u1 = rng.random((2, size))[:, live - lo]
            m = np.minimum(_bisect_rows(table.msg_cum[node, x], u0), table.n_msg[node] - 1)
            action = table.action[node, m]
            totals_a[live] += spec.rewards_principal[stage - 1][x, action]
            totals_b[live] += spec.rewards_receiver[stage - 1][x, action]
            node = table.child[node, m]
            going = node >= 0
            if not going.any():
                break
            live, node, x, action, u1 = live[going], node[going], x[going], action[going], u1[going]
            cum = trans_cum[stage - 1]
            x = np.minimum(_bisect_rows(cum[x, action], u1), cum.shape[2] - 1)
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


# Probes per chunk of the deviation check's experiment draws; chunks keep
# the draw arrays bounded on wide layers.  Fixed, because the chunk
# decides the shape of each RNG call: another size would give other
# experiments for the same seed.
_PROBE_BLOCK = 256


def one_shot_deviation_check(
    solution: EquilibriumSolution,
    probes_per_stage: int = 20,
    experiments_per_belief: int = 20,
    seed: int = 0,
    node_cap: int = NODE_CAP,
) -> DeviationReport:
    """Search for profitable one-shot deviations by either player.

    Receiver: at every triangulation vertex the stored action must
    attain the best action value and the stored stage value must equal
    it (Bellman consistency); receiver_checked counts these vertices.
    Principal: at every reachable belief and random probe, no
    alternative experiment (no split, full revelation, or one of
    experiments_per_belief sampled mean-preserving splits) may beat the
    stage value.  Gains above EPS_EQUILIBRIUM are reported as
    violations, stage by stage: vertices first, then probes in order,
    each probe's no-split, full-revelation and sampled experiments in
    that order.
    """
    spec = solution.spec
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    violations: list[dict] = []
    receiver_checked = 0
    principal_checked = 0
    max_gain_r = 0.0
    max_gain_p = 0.0

    def flag(kinds: tuple[str, ...], t: int, beliefs: np.ndarray, gains: np.ndarray) -> None:
        # gains[i, j] is the gain of deviation kinds[j] at beliefs[i]
        for i, j in zip(*np.divmod(np.flatnonzero(gains > EPS_EQUILIBRIUM), len(kinds))):
            violations.append(
                {"kind": kinds[j], "stage": t, "belief": beliefs[i].tolist(), "gain": float(gains[i, j])}
            )

    layers = _stage_layers(reachable_tree(solution, node_cap))
    count = experiments_per_belief
    principal_kinds = ("principal_null_split",) + ("principal_experiment",) * (count + 1)
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
        flag(("receiver_action", "receiver_bellman"), t, tri.vertices,
             np.column_stack([action_gain, bellman_gap]))

        reachable = [node.belief for node in layers[t - 1]] if t <= len(layers) else []
        probes = np.vstack(reachable + [rng.dirichlet(np.ones(n), size=probes_per_stage)])
        for lo in range(0, len(probes), _PROBE_BLOCK):
            chunk = probes[lo : lo + _PROBE_BLOCK]
            atoms, weights, owner, kept = _sample_inducible(rng, chunk, count)
            psi = st.objective.tie_broken_values(np.vstack([chunk, np.eye(n), atoms]))[0]
            psi_probes, psi_corners, psi_atoms = np.split(psi, [len(chunk), len(chunk) + n])
            v = st.interp.evaluate_many(chunk)[:, 0]
            # full revelation: the corners of the probe's support, weighted by the probe
            support = chunk > EPS_GEOM
            revealing = support.sum(axis=1) > 1
            full = np.where(support, chunk, 0.0)
            full /= full.sum(axis=1, keepdims=True)
            sampled = np.bincount(owner, weights * psi_atoms, minlength=kept.size).reshape(kept.shape)
            gains = np.column_stack([
                psi_probes - v,
                np.where(revealing, full @ psi_corners - v, -np.inf),
                np.where(kept, sampled - v[:, None], -np.inf),
            ])
            principal_checked += len(chunk) + int(revealing.sum()) + int(kept.sum())
            max_gain_p = max(max_gain_p, float(gains.max()))
            flag(principal_kinds, t, chunk, gains)

    return DeviationReport(
        receiver_checked=receiver_checked,
        principal_checked=principal_checked,
        max_receiver_gain=max_gain_r,
        max_principal_gain=max_gain_p,
        violations=tuple(violations),
    )


def _sample_inducible(
    rng: np.random.Generator, probes: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """count random mean-preserving splits of each of P probe beliefs.

    Three RNG calls cover all probes: support sizes k from
    integers(2, n+2, (P, count)); atoms from dirichlet(ones(n),
    (P, count, n+1)), of which the first k are used; and
    standard_exponential((P, count, n+1)), whose first k slots,
    normalized, are the weights (the Dirichlet(1, ..., 1) law) and whose
    other slots get weight 0.  The atoms are recentered on the probe
    and shrunk toward it, so the weighted mean is the probe and every
    atom stays in the simplex; an experiment whose shrink factor is not
    positive is dropped.

    Returns (atoms, weights, owner, kept): the used atoms of the kept
    experiments as rows, in probe, experiment, slot order; their
    weights; the flat index p * count + c of the experiment each row
    belongs to; and the (P, count) mask of kept experiments.
    """
    n_probes, n = probes.shape
    k = rng.integers(2, n + 2, (n_probes, count))
    atoms = rng.dirichlet(np.ones(n), (n_probes, count, n + 1))
    weights = rng.standard_exponential((n_probes, count, n + 1))
    used = np.arange(n + 1) < k[..., None]
    weights = np.where(used, weights, 0.0)
    weights /= weights.sum(axis=2, keepdims=True)
    delta = atoms - (weights[..., None] * atoms).sum(axis=2)[:, :, None, :]
    worst = np.min(delta, axis=2, where=used[..., None], initial=np.inf)
    deep = worst < -EPS_GEOM
    ratio = np.divide(probes[:, None, :], -worst, out=np.full(worst.shape, np.inf), where=deep)
    shrink = np.minimum(ratio.min(axis=2), 1.0)
    kept = shrink > 0.0
    rows = used & kept[..., None]
    p, c, _ = np.nonzero(rows)
    shifted = np.clip(probes[p] + shrink[p, c, None] * delta[rows], 0.0, None)
    shifted /= shifted.sum(axis=1, keepdims=True)
    return shifted, weights[rows], p * count + c, kept
