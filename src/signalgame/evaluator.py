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
from .geometry import EPS_EQUILIBRIUM, EPS_GEOM, _renormalize, as_simplex_point
from .solver import EquilibriumSolution, StageSolution, _tie_set, receiver_best

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


def reachable_tree(solution: EquilibriumSolution) -> BeliefNode:
    """Reachable belief DAG under the equilibrium policies.

    A node is a (stage, vertex label) pair of solution.split_record: the
    child of an edge is the next stage's row with the edge's label, so
    paths that reach the same vertex share it.  The DAG is built from the
    last stage back, so each edge adds its weighted reward plus its
    child's finished value to its node: values are exact expectations.
    """
    spec = solution.spec
    children: dict[int, BeliefNode] = {}
    for t, rec in reversed(list(enumerate(solution.split_record, start=1))):
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


def _stage_plays(solution: EquilibriumSolution) -> list[_StagePlay]:
    """simulate's tables, one per stage of the split record."""
    spec = solution.spec
    record = solution.split_record
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
    these pairs, built once from the split record (see _StagePlay): all
    trajectories of a block advance together, stage by stage, with one
    table lookup per draw, reward and step.  Trajectories whose play
    ends drop out of the block.  Rewards are realized (true-state) stage
    rewards.
    """
    if trajectories < 2:
        raise ValueError("need at least 2 trajectories for a standard error")
    record = solution.split_record
    plays = _stage_plays(solution)
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
# Probe rows per scoring batch of the deviation check.  It bounds the
# batch's arrays and decides no draw, so it changes no result.  Below
# _PROBE_BLOCK, so a full chunk is scored alone.
_BATCH_PROBES = 128


@dataclass(frozen=True)
class _ProbeChunk:
    """One chunk of a stage's probes and the raw draws of its experiments.

    draws holds the (sizes, atoms, expo) arrays that _inducible_splits
    turns into experiments; first marks the stage's first chunk.
    """

    stage: int
    solution: StageSolution
    probes: np.ndarray
    draws: tuple[np.ndarray, np.ndarray, np.ndarray]
    first: bool


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

    The draws are made stage by stage: the random probes, then per
    chunk of _PROBE_BLOCK probes the experiments' support sizes, atoms
    and weights.  A chunk joins the pending batch unless its state
    count differs or it would take the batch past _BATCH_PROBES probes;
    then the batch is scored first.  Within a batch, the stages that
    share a StageSolution object are scored in one objective call, and
    a solution's vertices are checked once.
    """
    spec = solution.spec
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    record = solution.split_record
    count = _EXPERIMENTS_PER_BELIEF
    principal_kinds = ("principal_null_split",) + ("principal_experiment",) * (count + 1)
    violations: list[dict] = []
    receiver_checked = 0
    principal_checked = 0
    max_gain_r = 0.0
    max_gain_p = 0.0
    # id of each StageSolution met: its vertex checks (see _vertex_check)
    checked: dict[int, tuple[float, np.ndarray, np.ndarray]] = {}
    batch: list[_ProbeChunk] = []

    def flag(kinds: tuple[str, ...], t: int, beliefs: np.ndarray, gains: np.ndarray, bad: np.ndarray) -> None:
        # gains[i, j] is the gain of deviation kinds[j] at beliefs[i]; bad marks the violations
        for i, j in zip(*np.divmod(np.flatnonzero(bad), len(kinds))):
            violations.append(
                {"kind": kinds[j], "stage": t, "belief": beliefs[i].tolist(), "gain": float(gains[i, j])}
            )

    def score() -> None:
        nonlocal receiver_checked, principal_checked, max_gain_r, max_gain_p
        n = batch[0].probes.shape[1]
        probes = np.vstack([c.probes for c in batch])
        atoms, weights, owner, kept = _inducible_splits(
            probes, *(np.concatenate(arrays) for arrays in zip(*(c.draws for c in batch)))
        )
        # chunk i's probes are rows offsets[i]:offsets[i+1], its atoms bounds[i]:bounds[i+1]
        offsets = np.cumsum([0] + [len(c.probes) for c in batch])
        bounds = np.searchsorted(owner, offsets * count)
        # full revelation: the corners of the probe's support, weighted by the probe
        support = probes > EPS_GEOM
        revealing = support.sum(axis=1) > 1
        full = np.where(support, probes, 0.0)
        full /= full.sum(axis=1, keepdims=True)
        psi_probes, v, full_value = np.empty((3, len(probes)))
        psi_atoms = np.empty(len(atoms))
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(batch):
            groups.setdefault(id(c.solution), []).append(i)
        for key, members in groups.items():
            st = batch[members[0]].solution
            rows = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in members])
            used = np.concatenate([np.arange(bounds[i], bounds[i + 1]) for i in members])
            vertices = np.empty((0, n)) if key in checked else st.triangulation.vertices
            q_a, q_b = st.objective.q_many(np.vstack([vertices, probes[rows], np.eye(n), atoms[used]]))
            _, psi, top = receiver_best(q_a, q_b)
            nv = len(vertices)
            if key not in checked:
                checked[key] = _vertex_check(st, q_b[:nv], top[:nv])
            psi_probes[rows], psi_corners, psi_atoms[used] = np.split(psi[nv:], [len(rows), len(rows) + n])
            v[rows] = st.interp.evaluate_many(probes[rows])[:, 0]
            full_value[rows] = full[rows] @ psi_corners
        sampled = np.bincount(owner, weights * psi_atoms, minlength=kept.size).reshape(kept.shape)
        gains = np.column_stack([
            psi_probes - v,
            np.where(revealing, full_value - v, -np.inf),
            np.where(kept, sampled - v[:, None], -np.inf),
        ])
        principal_checked += len(probes) + int(revealing.sum()) + int(kept.sum())
        max_gain_p = max(max_gain_p, float(gains.max()))
        bad = gains > EPS_EQUILIBRIUM
        any_bad = bad.any()
        for i, c in enumerate(batch):
            if c.first:
                gain_r, gains_r, bad_r = checked[id(c.solution)]
                receiver_checked += len(gains_r)
                max_gain_r = max(max_gain_r, gain_r)
                flag(("receiver_action", "receiver_bellman"), c.stage, c.solution.triangulation.vertices,
                     gains_r, bad_r)
            if any_bad:
                lo, hi = offsets[i], offsets[i + 1]
                flag(principal_kinds, c.stage, c.probes, gains[lo:hi], bad[lo:hi])
        batch.clear()

    for t in range(1, spec.horizon + 1):
        st = solution.stage(t)
        n = spec.n_states(t)
        reachable = [record[t - 1].beliefs[record[t - 1].reached]] if t <= len(record) else []
        probes = np.vstack(reachable + [rng.dirichlet(np.ones(n), size=_PROBES_PER_STAGE)])
        for lo in range(0, len(probes), _PROBE_BLOCK):
            chunk = probes[lo : lo + _PROBE_BLOCK]
            if batch and (n != batch[0].probes.shape[1]
                          or sum(len(c.probes) for c in batch) + len(chunk) > _BATCH_PROBES):
                score()
            shape = (len(chunk), count)
            draws = (
                rng.integers(2, n + 2, shape),
                rng.dirichlet(np.ones(n), (*shape, n + 1)),
                rng.standard_exponential((*shape, n + 1)),
            )
            batch.append(_ProbeChunk(t, st, chunk, draws, lo == 0))
    if batch:
        score()

    return DeviationReport(
        receiver_checked=receiver_checked,
        principal_checked=principal_checked,
        max_receiver_gain=max_gain_r,
        max_principal_gain=max_gain_p,
        violations=tuple(violations),
    )


def _vertex_check(
    st: StageSolution, q_b: np.ndarray, top: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """The receiver's checks at a stage solution's vertices, from their action values.

    Returns the largest shortfall of a stored action, and per vertex
    (rows) the gains and violation marks of receiver_action and
    receiver_bellman (columns).
    """
    stored = (np.arange(len(q_b)), list(st.vertex_actions))
    action_gain = top - q_b[stored]
    bellman_gap = np.abs(np.asarray(st.values_receiver, dtype=float) - top)
    return (
        max(action_gain.tolist()),
        np.column_stack([action_gain, bellman_gap]),
        np.column_stack([~_tie_set(q_b, top)[stored], bellman_gap > EPS_EQUILIBRIUM]),
    )


def _inducible_splits(
    probes: np.ndarray, sizes: np.ndarray, atoms: np.ndarray, expo: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """count random mean-preserving splits of each of P probe beliefs, from raw draws.

    The draws are those of one chunk, or of several chunks stacked
    along the probe axis: support sizes k in 2..n+1, sizes (P, count),
    from integers(2, n+2, (P, count)); atoms (P, count, n+1, n) from
    dirichlet(ones(n), ...), of which the first k are used; and expo
    (P, count, n+1) from standard_exponential, whose first k slots,
    normalized, are the weights (the Dirichlet(1, ..., 1) law) and whose
    other slots get weight 0.  The atoms are recentered on the probe
    and shrunk toward it, so the weighted mean is the probe and every
    atom stays in the simplex; an experiment whose shrink factor is not
    positive is dropped.  The arithmetic runs slot by slot on (slot,
    state, experiment) copies of the draws, and sums over slots in slot
    order.

    Returns (atoms, weights, owner, kept): the used atoms of the kept
    experiments as rows, in probe, experiment, slot order; their
    weights; the flat index p * count + c of the experiment each row
    belongs to; and the (P, count) mask of kept experiments.
    """
    n_probes, count = sizes.shape
    slots = atoms.shape[2]
    # slot-major: atoms[s, x, e] and expo[s, e] for experiment e = p * count + c
    atoms = np.ascontiguousarray(atoms.reshape(n_probes * count, slots, -1).transpose(1, 2, 0))
    used = np.arange(slots)[:, None] < sizes.reshape(-1)
    weights = np.where(used, expo.reshape(-1, slots).T, 0.0)
    total = weights[0] + weights[1]
    for s in range(2, slots):
        total += weights[s]
    weights /= total
    mean = weights[0] * atoms[0]
    for s in range(1, slots):
        mean += weights[s] * atoms[s]
    delta = atoms - mean
    worst = np.where(used[:, None, :], delta, np.inf).min(axis=0)
    deep = worst < -EPS_GEOM
    home = np.repeat(probes, count, axis=0)
    ratio = np.divide(home.T, -worst, out=np.full(worst.shape, np.inf), where=deep)
    shrink = np.minimum(ratio.min(axis=0), 1.0)
    kept = shrink > 0.0
    # rows in experiment, slot order
    rows = (used & kept).T
    e, s = np.nonzero(rows)
    shifted = (home.T + shrink * delta).transpose(2, 0, 1)[rows]
    return _renormalize(shifted), weights[s, e], e, kept.reshape(n_probes, count)
