"""Forward verification of a solved game.

Three independent routes confirm the backward-induction values:

* exact evaluation walks the reachable belief DAG (the principal's
  splits always land on triangulation vertices, so a stage has at most
  as many nodes as the previous stage has vertices) and accumulates
  expected payoffs exactly;
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
from .geometry import EPS_EQUILIBRIUM, EPS_GEOM, GeometryDomainError, as_simplex_point
from .solver import EquilibriumSolution

__all__ = [
    "BeliefEdge",
    "BeliefNode",
    "SimulationReport",
    "DeviationReport",
    "reachable_tree",
    "exact_value",
    "simulate",
    "one_shot_deviation_check",
]


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


# Default Monte Carlo sample size, shared with the CLI.
TRAJECTORIES = 100_000


@dataclass(frozen=True)
class _StageSplits:
    """The principal's splits of one stage's candidate beliefs.

    Stage 1 has one row, the prior; at a later stage, row v is the
    previous stage's vertex v pushed through its action's kernel.
    labels and weights (k, n) are the rows' Triangulation.split_many
    onto the stage's triangulation: weights <= EPS_GEOM are dropped and
    the rest renormalized, labels ascend, and dropped slots come last
    with weight 0.  reached (k,) marks the rows on the path of play.
    """

    beliefs: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    reached: np.ndarray


def _stage_splits(solution: EquilibriumSolution) -> list[_StageSplits]:
    """One record per stage, up to the last stage that play reaches.

    Every induced posterior is a triangulation vertex, so the next
    stage's beliefs are indexed by this stage's vertex labels: a stage
    has at most as many reached rows as the previous stage has vertices.
    """
    spec = solution.spec
    beliefs = as_simplex_point(spec.prior)[None, :]
    reached = np.ones(1, dtype=bool)
    record = []
    for t in range(1, spec.horizon + 1):
        st = solution.stage(t)
        tri = st.triangulation
        points = np.clip(beliefs, 0.0, None)
        points /= points.sum(axis=1, keepdims=True)
        try:
            labels, weights = tri.split_many(points)
        except GeometryDomainError as err:
            raise GeometryDomainError(f"stage {t}: {err}") from err
        record.append(_StageSplits(beliefs, labels, weights, reached))
        if t == spec.horizon:
            break
        sent = labels[reached][weights[reached] > 0.0]
        reached = np.zeros(tri.n_vertices, dtype=bool)
        reached[sent] = True
        reached &= [u not in spec.terminating[t - 1] for u in st.vertex_actions]
        if not reached.any():
            break
        # One stack of vector-matrix products per action against the
        # kernel[:, u, :] view rounds like vertex @ kernel[:, u, :] row by
        # row; a stack of gathered per-row kernels can differ in the last bit.
        kernel = spec.kernels[t - 1]
        actions = np.asarray(st.vertex_actions)
        beliefs = np.empty((tri.n_vertices, kernel.shape[2]))
        for u in set(st.vertex_actions):
            pick = actions == u
            beliefs[pick] = np.matmul(tri.vertices[pick, None, :], kernel[:, u, :])[:, 0, :]
    return record


def reachable_tree(solution: EquilibriumSolution) -> BeliefNode:
    """Reachable belief DAG under the equilibrium policies.

    A node is a (stage, vertex label) pair of _stage_splits: the child
    of an edge is the next stage's row with the edge's label, so paths
    that reach the same vertex share it.  Values are exact
    expectations; reach_probability accumulates over all paths into a
    node.
    """
    spec = solution.spec
    record = _stage_splits(solution)
    layers = [
        {int(v): BeliefNode(stage=t, belief=rec.beliefs[v]) for v in np.flatnonzero(rec.reached)}
        for t, rec in enumerate(record, start=1)
    ]
    root = layers[0][0]
    root.reach_probability = 1.0
    for t, (rec, layer) in enumerate(zip(record, layers), start=1):
        st = solution.stage(t)
        children = layers[t] if t < len(layers) else {}
        for row, node in layer.items():
            kept = rec.weights[row] > 0.0
            for label, w in zip(rec.labels[row, kept].tolist(), rec.weights[row, kept].tolist()):
                vertex = st.triangulation.vertices[label]
                action = st.vertex_actions[label]
                r_a = float(vertex @ spec.rewards_principal[t - 1][:, action])
                r_b = float(vertex @ spec.rewards_receiver[t - 1][:, action])
                child = children.get(label)
                if child is not None:
                    child.reach_probability += node.reach_probability * w
                node.edges.append(BeliefEdge(label, w, vertex, action, r_a, r_b, child))
    for layer in reversed(layers):
        for node in layer.values():
            for edge in node.edges:
                total_a, total_b = edge.reward_principal, edge.reward_receiver
                if edge.child is not None:
                    total_a += edge.child.value_principal
                    total_b += edge.child.value_receiver
                node.value_principal += edge.probability * total_a
                node.value_receiver += edge.probability * total_b
    return root


def exact_value(solution: EquilibriumSolution) -> tuple[float, float]:
    """Exact expected payoffs (principal, receiver) under the equilibrium."""
    root = reachable_tree(solution)
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


def _bisect_rows(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise bisect_right of u[j] into the nondecreasing row cum[j]."""
    return (cum <= u[:, None]).sum(axis=1)


def simulate(
    solution: EquilibriumSolution,
    seed: int = 0,
    trajectories: int = TRAJECTORIES,
) -> SimulationReport:
    """Play the equilibrium policies on sampled state trajectories.

    Trajectories run in fixed blocks of _SIM_BLOCK.  Block b draws from
    child stream b of SeedSequence(seed): first one uniform per
    trajectory for the initial state, then at every stage a (2, size)
    array of uniforms for the message and the next state, whether a
    trajectory is still in play or not.  A trajectory's draws thus
    depend only on its block and its position in it, so results are
    reproducible and independent of execution order.  All trajectories
    of a block advance together, stage by stage, over the rows of
    _stage_splits: the message sent is the label of the next row.
    Rewards are realized (true-state) stage rewards.
    """
    if trajectories < 2:
        raise ValueError("need at least 2 trajectories for a standard error")
    spec = solution.spec
    record = _stage_splits(solution)
    # Per stage: each row's signal rows cumulated over messages (k, n, M),
    # its message count (k,) and message labels (k, M); the vertex actions;
    # and, by label, whether play goes on to the next stage's row.
    tables = []
    for t, rec in enumerate(record, start=1):
        tri = solution.stage(t).triangulation
        kernel = _signal_kernel(rec.beliefs, rec.weights, tri.vertices[rec.labels])
        tables.append((
            np.cumsum(kernel, axis=2),
            (rec.weights > 0.0).sum(axis=1),
            rec.labels,
            np.asarray(solution.stage(t).vertex_actions, dtype=np.intp),
            record[t].reached if t < len(record) else np.zeros(tri.n_vertices, dtype=bool),
        ))
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
        row = np.zeros(size, dtype=np.intp)
        for stage, (msg_cum, n_msg, labels, actions, continues) in enumerate(tables, start=1):
            u0, u1 = rng.random((2, size))[:, live - lo]
            # zero-weight messages come last, so the clamp keeps them unsent
            m = np.minimum(_bisect_rows(msg_cum[row, x], u0), n_msg[row] - 1)
            label = labels[row, m]
            action = actions[label]
            totals_a[live] += spec.rewards_principal[stage - 1][x, action]
            totals_b[live] += spec.rewards_receiver[stage - 1][x, action]
            going = continues[label]
            if not going.any():
                break
            live, row, x, action, u1 = live[going], label[going], x[going], action[going], u1[going]
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
) -> DeviationReport:
    """Search for profitable one-shot deviations by either player.

    Receiver: at every triangulation vertex the stored action must
    attain the best action value and the stored stage value must equal
    it (Bellman consistency); receiver_checked counts these vertices.
    Principal: at every reachable belief and random probe, no
    alternative experiment (no split, full revelation, or one of
    experiments_per_belief sampled mean-preserving splits) may beat the
    stage value.  A stage's probes are its reachable beliefs in
    ascending label order, then probes_per_stage random beliefs.  Gains
    above EPS_EQUILIBRIUM are reported as violations, stage by stage:
    vertices first, then probes in order, each probe's no-split,
    full-revelation and sampled experiments in that order.
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

    record = _stage_splits(solution)
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

        reachable = [record[t - 1].beliefs[record[t - 1].reached]] if t <= len(record) else []
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
