"""Backward induction over the belief simplex.

Each stage is solved by (i) assembling the stage objectives q(pi, u)
for both players, where the continuation values are the next stage's
piecewise-linear value functions pulled back through the transition
kernel, (ii) evaluating the principal's tie-broken objective Psi (the
receiver picks an action maximizing their own q, breaking near-ties in
the principal's favor), and (iii) concavifying Psi.  The triangulation
chosen by the concavification carries BOTH value functions, as the
columns (principal, receiver) of one interpolant: the receiver's value
lives on the same vertex set, because in equilibrium the principal
splits the belief onto those vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .game import GameSpec, SpecValidationError, _check_stamp, _coords, validate_spec
from .geometry import (
    EPS_EQUILIBRIUM,
    EPS_TIE,
    CandidateBudgetExceeded,
    CellArrangement,
    GeometryDomainError,
    Triangulation,
    VertexInterpolant,
    _column_passes,
    _renormalize,
    argcav,
    as_simplex_point,
    pullback_affine,
)

__all__ = [
    "EnvelopeDivergence",
    "StageObjective",
    "StageSolution",
    "EquilibriumSolution",
    "receiver_best",
    "q_values",
    "stage_backup",
    "solve",
]


class EnvelopeDivergence(RuntimeError):
    """A stage's concave envelope disagrees with its objective at a vertex."""


@dataclass(frozen=True, eq=False)
class StageObjective:
    """Stage payoff data: rewards plus continuation values through the kernels.

    kernels[u] is the (n_states, next n_states) transition matrix of
    action u, or None for terminating actions and at the final stage,
    where the game yields no further payoff.  next_values is the next
    stage's value function, columns (principal, receiver), or None at
    the final stage.
    """

    reward_principal: np.ndarray
    reward_receiver: np.ndarray
    kernels: tuple[np.ndarray | None, ...]
    next_values: VertexInterpolant | None
    arrangement: CellArrangement

    def q_many(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Action values for both players at each row of points.

        Returns (q_principal, q_receiver), each of shape (k, n_actions).
        Each product is one whole-array call (its bits may depend on the
        row count), written into preallocated arrays: the next beliefs
        of every action share one buffer, renormalized in place.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        q = np.empty((2, len(pts), len(self.kernels)))
        np.matmul(pts, self.reward_principal, out=q[0])
        np.matmul(pts, self.reward_receiver, out=q[1])
        beliefs = None
        for u, kernel in enumerate(self.kernels):
            if kernel is None:
                continue
            if beliefs is None:
                beliefs = np.empty((len(pts), kernel.shape[1]))
            _renormalize(np.matmul(pts, kernel, out=beliefs), out=beliefs)
            q[:, :, u] += self.next_values.evaluate_many(beliefs).T
        return q[0], q[1]

    def q_single(self, belief) -> tuple[np.ndarray, np.ndarray]:
        """Action values at one belief: two vectors of length n_actions."""
        pi = as_simplex_point(_coords(belief))
        q_a, q_b = self.q_many(pi[None, :])
        return q_a[0], q_b[0]

    def tie_broken_values(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(Psi, max q_receiver) rows: receiver_best on the action values."""
        _, psi, top_b = receiver_best(*self.q_many(points))
        return psi, top_b


def _tie_set(q_receiver: np.ndarray, top_b: np.ndarray) -> np.ndarray:
    """(k, n_actions) mask of the actions within EPS_TIE of each row's best value top_b."""
    return q_receiver >= top_b[:, None] - EPS_TIE


def receiver_best(q_principal, q_receiver) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The receiver's tie-broken best response, one row per belief.

    Takes (k, n_actions) action values for both players and returns
    (action, psi, top_b), each of length k.  The tie set of a row holds
    the actions within EPS_TIE of the receiver's best value top_b; the
    chosen action maximizes the principal's value psi over the tie set
    (smallest action index on exact principal ties).
    """
    q_a = np.asarray(q_principal, dtype=float)
    q_b = np.asarray(q_receiver, dtype=float)
    if q_a.shape != q_b.shape or q_a.ndim != 2 or q_a.size == 0:
        raise ValueError("need two nonempty action value arrays of the same (k, n_actions) shape")
    if not _column_passes(q_b):
        # + 0.0 turns -0.0 into 0.0: NumPy's baseline and dispatched max
        # kernels give zeros of either sign, and the column pass may differ
        top_b = q_b.max(axis=1) + 0.0
        tied = np.where(_tie_set(q_b, top_b), q_a, -np.inf)
        action = tied.argmax(axis=1)
        return action, tied[np.arange(len(action)), action], top_b
    # The same max, tie set and first argmax, one pass per action column.
    top_b = reduce(np.maximum, q_b.T) + 0.0
    tied = np.where(_tie_set(q_b, top_b), q_a, -np.inf).T
    action = np.zeros(len(q_b), dtype=np.intp)
    psi = tied[0].copy()
    for u in range(1, len(tied)):
        # argmax keeps the first maximum, and the first NaN over any number
        better = ~(tied[u] <= psi) & (psi == psi)
        action[better] = u
        psi[better] = tied[u][better]
    return action, psi, top_b


@dataclass(frozen=True, eq=False)
class StageSolution:
    """Solved stage: triangulation, vertex values, and vertex actions."""

    triangulation: Triangulation
    values_principal: np.ndarray
    values_receiver: np.ndarray
    vertex_actions: tuple[int, ...]
    objective: StageObjective

    @cached_property
    def interp(self) -> VertexInterpolant:
        """Both value functions as columns (principal, receiver)."""
        return VertexInterpolant(
            self.triangulation, np.column_stack([self.values_principal, self.values_receiver])
        )

    def value_principal(self, omega) -> float:
        return float(self.interp(omega)[0])

    def value_receiver(self, omega) -> float:
        return float(self.interp(omega)[1])


@dataclass(frozen=True)
class _StageSplits:
    """The principal's splits of one stage's candidate beliefs.

    Stage 1 has one row, the prior; at a later stage, row v is the
    previous stage's vertex v pushed through its action's kernel.
    labels and weights (k, n) are the rows' Triangulation.split_many
    onto the stage's triangulation: weights <= EPS_GEOM are dropped and
    the rest renormalized, labels ascend, and dropped slots come last
    with weight 0.  reached (k,) marks the rows on the path of play.
    Stages with equal rows share one object, whose arrays are read-only
    (see EquilibriumSolution.split_record).
    """

    beliefs: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    reached: np.ndarray


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """Stage solutions for t = 1..horizon, which stages may share, plus the underlying spec."""

    spec: GameSpec
    stages: tuple[StageSolution, ...]

    def stage(self, t: int) -> StageSolution:
        if not 1 <= t <= len(self.stages):
            raise ValueError(f"stage {t} outside 1..{len(self.stages)}")
        return self.stages[t - 1]

    def values_at_prior(self) -> tuple[float, float]:
        return tuple(float(v) for v in self.stages[0].interp(self.spec.prior))

    @cached_property
    def split_record(self) -> tuple[_StageSplits, ...]:
        """One record per stage, up to the last stage that play reaches.

        Built once per solution and shared by the evaluator's verifiers.
        Every induced posterior is a triangulation vertex, so the next
        stage's beliefs are indexed by this stage's vertex labels: a stage
        has at most as many reached rows as the previous stage has vertices.

        Stages whose beliefs, reached set and triangulation (vertices and
        cells) match byte for byte share one _StageSplits object, split
        once, with read-only arrays.  A stage whose row object, vertex
        actions, terminating set and kernel (shape, strides and bytes)
        match an earlier stage's takes that stage's push-forward.  Both
        memos live for one call, so the work grows with the distinct rows,
        not with the horizon.
        """
        spec = self.spec
        beliefs = as_simplex_point(spec.prior)[None, :]
        reached = np.ones(1, dtype=bool)
        rows: dict[tuple, _StageSplits] = {}
        # (id of a row in rows, actions, terminating, kernel) -> the next
        # stage's (beliefs, reached), or None where play ends
        moves: dict[tuple, tuple[np.ndarray, np.ndarray] | None] = {}
        record = []
        for t in range(1, spec.horizon + 1):
            st = self.stage(t)
            tri = st.triangulation
            key = tuple((a.shape, a.tobytes()) for a in (beliefs, reached, tri.vertices, tri.simplices))
            row = rows.get(key)
            if row is None:
                try:
                    labels, weights = tri.split_many(_renormalize(beliefs))
                except GeometryDomainError as err:
                    raise GeometryDomainError(f"stage {t}: {err}") from err
                for a in (beliefs, labels, weights, reached):
                    a.setflags(write=False)
                row = rows[key] = _StageSplits(beliefs, labels, weights, reached)
            record.append(row)
            if t == spec.horizon:
                break
            kernel = spec.kernels[t - 1]
            step = (id(row), st.vertex_actions, spec.terminating[t - 1], kernel.shape, kernel.strides, kernel.tobytes())
            if step not in moves:
                sent = row.labels[row.reached][row.weights[row.reached] > 0.0]
                reached = np.zeros(tri.n_vertices, dtype=bool)
                reached[sent] = True
                reached &= [u not in spec.terminating[t - 1] for u in st.vertex_actions]
                moves[step] = None
                if reached.any():
                    # One stack of vector-matrix products per action against the
                    # kernel[:, u, :] view rounds like vertex @ kernel[:, u, :] row by
                    # row; a stack of gathered per-row kernels can differ in the last bit.
                    actions = np.asarray(st.vertex_actions)
                    beliefs = np.empty((tri.n_vertices, kernel.shape[2]))
                    for u in set(st.vertex_actions):
                        pick = actions == u
                        beliefs[pick] = np.matmul(tri.vertices[pick, None, :], kernel[:, u, :])[:, 0, :]
                    moves[step] = (beliefs, reached)
            if moves[step] is None:
                break
            beliefs, reached = moves[step]
        return tuple(record)


def _build_objective(spec: GameSpec, stage: int, next_solution: StageSolution | None) -> StageObjective:
    n = spec.n_states(stage)
    n_act = spec.n_actions(stage)
    r_a = spec.rewards_principal[stage - 1]
    r_b = spec.rewards_receiver[stage - 1]
    kernels: list[np.ndarray | None] = [None] * n_act
    # Per action, (2, cells, n+1): the principal's and the receiver's piece rows.
    pieces: list[np.ndarray] = []
    functionals: list[np.ndarray] = [np.empty((0, n + 1))]
    for u in range(n_act):
        base = np.stack([np.append(r_a[:, u], 0.0), np.append(r_b[:, u], 0.0)])[:, None, :]
        if spec.is_terminating(stage, u) or stage == spec.horizon or next_solution is None:
            pieces.append(base)
            continue
        kernels[u] = spec.kernels[stage - 1][:, u, :]
        pull, boundary = pullback_affine(next_solution.interp, kernels[u])
        functionals.append(boundary)
        pieces.append(base + pull)
    # Kinks of the tie-broken objective: receiver indifference loci (B-piece
    # differences, each u-row minus each v-row) and, on tie regions,
    # principal indifference loci.
    for u in range(n_act):
        for v in range(u + 1, n_act):
            diffs = (pieces[u][:, :, None] - pieces[v][:, None]).reshape(2, -1, n + 1)
            functionals += [diffs[1], diffs[0]]
    return StageObjective(
        reward_principal=r_a,
        reward_receiver=r_b,
        kernels=tuple(kernels),
        next_values=None if next_solution is None else next_solution.interp,
        arrangement=CellArrangement(n, np.vstack(functionals)),
    )


def _check_next_solution(spec: GameSpec, stage: int, next_solution: StageSolution | None) -> None:
    """Stage in range, and next_solution fits stage t+1: given exactly below the horizon,
    with t+1's state count, and a last-stage backup (next_values None) only for t+1 = T."""
    spec._check_stage(stage)
    if (next_solution is None) != (stage == spec.horizon):
        raise ValueError(f"stage {stage} of {spec.horizon}: give a next solution exactly below the horizon")
    if next_solution is None:
        return
    n, m = spec.n_states(stage + 1), next_solution.triangulation.n_states
    if m != n:
        raise ValueError(f"the stage-{stage + 1} solution needs {n} states, not {m}")
    last = stage + 1 == spec.horizon
    if (next_solution.objective.next_values is None) != last:
        raise ValueError(f"stage {stage} needs a next solution {'' if last else 'not '}solved as the last stage")


def q_values(spec: GameSpec, stage: int, belief, next_solution: StageSolution | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stage action values at one belief.

    next_solution must be the solved stage t+1 (or None at the final
    stage); terminating actions contribute reward only.
    """
    _check_next_solution(spec, stage, next_solution)
    _check_stamp(belief, stage)
    objective = _build_objective(spec, stage, next_solution)
    return objective.q_single(belief)


def stage_backup(spec: GameSpec, stage: int, next_solution: StageSolution | None = None) -> StageSolution:
    """Solve one stage given the next stage's solution.

    Concavifies the tie-broken principal objective and reads both
    players' vertex values and the receiver's actions off the vertices.
    A CandidateBudgetExceeded or GeometryDomainError names the stage,
    and so does the EnvelopeDivergence raised when the envelope and the
    stage objective disagree at a vertex.
    """
    _check_next_solution(spec, stage, next_solution)
    try:
        objective = _build_objective(spec, stage, next_solution)
        envelope = argcav(lambda points: objective.tie_broken_values(points)[0], objective.arrangement)
        tri = envelope.triangulation
        actions, psi, values_b = receiver_best(*objective.q_many(tri.vertices))
    except CandidateBudgetExceeded as err:
        raise CandidateBudgetExceeded(err.functionals, err.n_states, err.subsets, err.cap, stage) from None
    except GeometryDomainError as err:
        raise GeometryDomainError(f"stage {stage}: {err}") from err
    diverged = np.abs(psi - envelope.values) > EPS_EQUILIBRIUM * np.maximum(1.0, np.abs(psi))
    if diverged.any():
        i = int(diverged.argmax())
        raise EnvelopeDivergence(
            f"stage {stage}: envelope value diverges from the stage objective "
            f"at vertex {i} ({float(envelope.values[i])!r} vs {float(psi[i])!r})"
        )
    return StageSolution(
        triangulation=tri,
        values_principal=envelope.values,
        values_receiver=values_b,
        vertex_actions=tuple(actions.tolist()),
        objective=objective,
    )


def _stage_key(spec: GameSpec, stage: int, next_solution: StageSolution | None) -> tuple:
    """The exact bytes of everything stage_backup reads for this stage."""
    arrays = [spec.rewards_principal[stage - 1], spec.rewards_receiver[stage - 1]]
    if stage < spec.horizon:
        arrays.append(spec.kernels[stage - 1])
    if next_solution is not None:
        tri = next_solution.triangulation
        arrays += [tri.simplices, tri.vertices, next_solution.values_principal, next_solution.values_receiver]
    return (
        stage == spec.horizon,
        spec.terminating[stage - 1],
        *((a.shape, a.tobytes()) for a in arrays),
    )


def solve(spec: GameSpec) -> EquilibriumSolution:
    """Backward induction over all stages.

    A stage whose inputs (terminal flag, terminating set, rewards,
    kernel, and the next stage's triangulation and values) match an
    already solved stage byte for byte shares that StageSolution object;
    anything short of an exact match is solved afresh.  The memo lives
    for one call, so a stationary game pays one backup per distinct
    stage input.  Envelope triangulations with equal bytes are one
    object, validated and inverted once, with their pull-backs cached
    per kernel, within and across calls; the table that shares them is
    weak, and no code may key on a triangulation's identity.

    Raises SpecValidationError when the specification fails its
    numeric invariants.
    """
    ok, problems = validate_spec(spec)
    if not ok:
        raise SpecValidationError(problems)
    memo: dict[tuple, StageSolution] = {}
    solved: list[StageSolution] = []
    nxt: StageSolution | None = None
    for t in range(spec.horizon, 0, -1):
        key = _stage_key(spec, t, nxt)
        if key not in memo:
            memo[key] = stage_backup(spec, t, nxt)
        nxt = memo[key]
        solved.append(nxt)
    return EquilibriumSolution(spec=spec, stages=tuple(reversed(solved)))
