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
from .geometry import EPS_EQUILIBRIUM, EPS_GEOM, GeometryDomainError, _renormalize, as_simplex_point
from .solver import EquilibriumSolution, _tie_set

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
        try:
            labels, weights = tri.split_many(_renormalize(beliefs))
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
    that reach the same vertex share it.  The DAG is built from the last
    stage back, so each edge adds its weighted reward plus its child's
    finished value to its node: values are exact expectations.
    """
    spec = solution.spec
    children: dict[int, BeliefNode] = {}
    for t, rec in reversed(list(enumerate(_stage_splits(solution), start=1))):
        st = solution.stage(t)
        layer = {}
        for row in np.flatnonzero(rec.reached).tolist():
            node = layer[row] = BeliefNode(stage=t, belief=rec.beliefs[row])
            kept = rec.weights[row] > 0.0
            for label, w in zip(rec.labels[row, kept].tolist(), rec.weights[row, kept].tolist()):
                vertex = st.triangulation.vertices[label]
                action = st.vertex_actions[label]
                r_a = float(vertex @ spec.rewards_principal[t - 1][:, action])
                r_b = float(vertex @ spec.rewards_receiver[t - 1][:, action])
                child = children.get(label)
                total_a, total_b = r_a, r_b
                if child is not None:
                    total_a += child.value_principal
                    total_b += child.value_receiver
                node.value_principal += w * total_a
                node.value_receiver += w * total_b
                node.edges.append(BeliefEdge(label, w, vertex, action, r_a, r_b, child))
        children = layer
    return children[0]


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


@dataclass(frozen=True)
class _StagePlay:
    """One stage of simulate's play, as flat tables.

    Before its message, a trajectory sits on the slot (row * n + x) *
    (M + 1) of its split-record row and true state x, with n states and
    M message columns per row; after it, on the slot (label * n + x) *
    (n' + 1) of the vertex label sent, with n' the next stage's state
    count (0 at the record's last stage).  Each key thus owns one slot
    per possible count of its CDF columns at or below a uniform (see
    _draw), and the tables read at slot + count fold in the clamp to the
    last message sent or the last state.  With k rows and V vertices:

    message (M, k*n*(M+1)): the rows' message CDF columns.
    pick (k*n*(M+1),): the post-message slot of the message drawn.
    reward_a, reward_b (V*n*(n'+1),): both players' stage rewards.
    going (V*n*(n'+1),): whether play goes on to the next stage.
    transition (n', V*n*(n'+1)) and step (V*n*(n'+1),): the CDF columns
        of kernel[x, action, :] and the next stage's pre-message slot of
        the state drawn; None at the record's last stage.
    """

    message: np.ndarray
    pick: np.ndarray
    reward_a: np.ndarray
    reward_b: np.ndarray
    going: np.ndarray
    transition: np.ndarray | None
    step: np.ndarray | None


def _stage_plays(solution: EquilibriumSolution, record: list[_StageSplits]) -> list[_StagePlay]:
    """simulate's tables, one per stage of the split record."""
    spec = solution.spec
    plays = []
    for t, rec in enumerate(record, start=1):
        st = solution.stage(t)
        tri = st.triangulation
        n = spec.n_states(t)
        rows, width = rec.labels.shape
        n_next = spec.n_states(t + 1) if t < len(record) else 0
        kernel = _signal_kernel(rec.beliefs, rec.weights, tri.vertices[rec.labels])
        message = np.cumsum(kernel, axis=2).reshape(rows * n, width).T.repeat(width + 1, axis=1)
        # zero-weight messages come last, so the clamp keeps them unsent
        sent = np.minimum(np.arange(width + 1), (rec.weights > 0.0).sum(axis=1)[:, None] - 1)
        labels = rec.labels[np.arange(rows)[:, None], sent]
        pick = (labels[:, None, :] * n + np.arange(n)[:, None]) * (n_next + 1)
        actions = np.asarray(st.vertex_actions, dtype=np.intp)
        reward_a = spec.rewards_principal[t - 1][:, actions].T.repeat(n_next + 1)
        reward_b = spec.rewards_receiver[t - 1][:, actions].T.repeat(n_next + 1)
        if t == len(record):
            going, transition, step = np.zeros(reward_a.size, dtype=bool), None, None
        else:
            going = record[t].reached.repeat(n * (n_next + 1))
            # kernel[x, action(label), :] cumulated over next states, by label * n + x
            cdf = np.cumsum(spec.kernels[t - 1], axis=2)[:, actions, :].transpose(2, 1, 0)
            transition = cdf.reshape(n_next, -1).repeat(n_next + 1, axis=1)
            state = np.minimum(np.arange(n_next + 1), n_next - 1)
            step = (np.arange(tri.n_vertices)[:, None] * n_next + state) * (record[t].labels.shape[1] + 1)
            step = step.repeat(n, axis=0).reshape(-1)
        plays.append(_StagePlay(message, pick.reshape(-1), reward_a, reward_b, going, transition, step))
    return plays


def _draw(cdf: np.ndarray, slot, u: np.ndarray) -> np.ndarray:
    """slot plus the number of the CDF columns cdf[:, slot] at or below u.

    Per draw, the count is bisect_right of u into its nondecreasing CDF
    row.  It is summed over columns as an exact integer, so it does not
    depend on the order of the comparisons.
    """
    out = slot + (cdf[0].take(slot) <= u)
    for column in cdf[1:]:
        out += column.take(slot) <= u
    return out


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
    trajectory is still in play or not, until play ends for the whole
    block.  A trajectory's draws thus depend only on its block and its
    position in it, so results are reproducible and independent of
    execution order.

    The receiver's action depends only on the vertex label sent, and the
    principal's experiment only on the split-record row, so a
    trajectory's state is the pair (row, true state) before the message
    and (label, true state) after it, and the message sent is the next
    stage's row.  Each stage's play is a set of flat tables keyed by
    these pairs, built once from _stage_splits (see _StagePlay): all
    trajectories of a block advance together, stage by stage, with one
    table lookup per draw, reward and step.  Trajectories whose play
    ends drop out of the block.  Rewards are realized (true-state) stage
    rewards.
    """
    if trajectories < 2:
        raise ValueError("need at least 2 trajectories for a standard error")
    record = _stage_splits(solution)
    plays = _stage_plays(solution, record)
    # the prior's CDF as columns of one row, and the first stage's slot of each state drawn
    prior = np.cumsum(as_simplex_point(solution.spec.prior))[:, None]
    start = np.minimum(np.arange(prior.size + 1), prior.size - 1) * (record[0].labels.shape[1] + 1)
    totals_a = np.zeros(trajectories)
    totals_b = np.zeros(trajectories)
    n_blocks = -(-trajectories // _SIM_BLOCK)
    for b, stream in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        rng = np.random.default_rng(stream)
        lo = b * _SIM_BLOCK
        size = min(_SIM_BLOCK, trajectories - lo)
        # views: the block's rewards accumulate in place in the totals
        acc_a = totals_a[lo : lo + size]
        acc_b = totals_b[lo : lo + size]
        live = None  # positions in the block still in play; None while all are
        slot = start.take(_draw(prior, 0, rng.random(size)))
        for play in plays:
            u0, u1 = rng.random((2, size))
            if live is not None:
                u0 = u0.take(live)
            slot = play.pick.take(_draw(play.message, slot, u0))
            if live is None:
                acc_a += play.reward_a.take(slot)
                acc_b += play.reward_b.take(slot)
            else:
                acc_a[live] += play.reward_a.take(slot)
                acc_b[live] += play.reward_b.take(slot)
            going = play.going.take(slot)
            if not going.all():
                live = np.flatnonzero(going) if live is None else live[going]
                if not live.size:
                    break
                slot = slot[going]
            if live is not None:
                u1 = u1.take(live)
            slot = play.step.take(_draw(play.transition, slot, u1))
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
# Random probe beliefs per stage, and sampled experiments per probe.
# Fixed like _PROBE_BLOCK: they decide the draws, and so the artifacts.
_PROBES_PER_STAGE = 20
_EXPERIMENTS_PER_BELIEF = 20


def one_shot_deviation_check(solution: EquilibriumSolution, seed: int = 0) -> DeviationReport:
    """Search for profitable one-shot deviations by either player.

    Receiver: at every triangulation vertex the stored action must lie
    in receiver_best's tie set (within EPS_TIE of the best action value)
    and the stored stage value must equal that best value (Bellman
    consistency); receiver_checked counts these vertices, and
    max_receiver_gain is the largest shortfall of a stored action.
    Principal: at every reachable belief and random probe, no
    alternative experiment (no split, full revelation, or one of
    _EXPERIMENTS_PER_BELIEF sampled mean-preserving splits) may beat the
    stage value.  A stage's probes are its reachable beliefs in
    ascending label order, then _PROBES_PER_STAGE random beliefs.  Gains
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

    def flag(kinds: tuple[str, ...], t: int, beliefs: np.ndarray, gains: np.ndarray, bad=None) -> None:
        # gains[i, j] is the gain of deviation kinds[j] at beliefs[i]; bad
        # marks the violations, by default the gains above EPS_EQUILIBRIUM
        if bad is None:
            bad = gains > EPS_EQUILIBRIUM
        for i, j in zip(*np.divmod(np.flatnonzero(bad), len(kinds))):
            violations.append(
                {"kind": kinds[j], "stage": t, "belief": beliefs[i].tolist(), "gain": float(gains[i, j])}
            )

    record = _stage_splits(solution)
    count = _EXPERIMENTS_PER_BELIEF
    principal_kinds = ("principal_null_split",) + ("principal_experiment",) * (count + 1)
    for t in range(1, spec.horizon + 1):
        st = solution.stage(t)
        tri = st.triangulation
        n = spec.n_states(t)

        _, q_b = st.objective.q_many(tri.vertices)
        top = q_b.max(axis=1)
        stored = (np.arange(tri.n_vertices), list(st.vertex_actions))
        action_gain = top - q_b[stored]
        bellman_gap = np.abs(np.asarray(st.values_receiver, dtype=float) - top)
        receiver_checked += tri.n_vertices
        max_gain_r = max([max_gain_r, *action_gain.tolist()])
        flag(("receiver_action", "receiver_bellman"), t, tri.vertices,
             np.column_stack([action_gain, bellman_gap]),
             np.column_stack([~_tie_set(q_b, top)[stored], bellman_gap > EPS_EQUILIBRIUM]))

        reachable = [record[t - 1].beliefs[record[t - 1].reached]] if t <= len(record) else []
        probes = np.vstack(reachable + [rng.dirichlet(np.ones(n), size=_PROBES_PER_STAGE)])
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
    shifted = _renormalize(probes[p] + shrink[p, c, None] * delta[rows])
    return shifted, weights[rows], p * count + c, kept
