"""Game primitives: specifications, beliefs, experiments, belief kinematics.

A specification fixes, for each stage t = 1..T, the state and action
labels, which actions terminate the interaction, the transition kernel
to the next stage, and the stage rewards of both players.  Beliefs are
simplex points over the stage's states; experiments are signal kernels
sigma(message | state).  The functions here implement the belief
updates that everything else is built on: Bayes posterior, kernel
push-forward, the distribution over posteriors induced by an
experiment, and the converse construction of an experiment from a
target distribution over posteriors.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import (
    EPS_GEOM,
    EPS_MEMBER,
    GeometryDomainError,
    SupportMeasure,
    _renormalize,
    as_simplex_point,
    as_simplex_points,
)

__all__ = [
    "SpecValidationError",
    "GameSpec",
    "Belief",
    "Experiment",
    "validate_spec",
    "bayes_update",
    "push_forward",
    "induced_distribution",
    "split_experiment",
    "spec_to_dict",
    "spec_from_dict",
    "load_spec",
    "save_spec",
]


class SpecValidationError(ValueError):
    """Raised when a game specification violates its invariants."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _coords(belief) -> np.ndarray:
    return belief.coords if isinstance(belief, Belief) else np.asarray(belief, dtype=float)


def _check_stamp(belief, stage: int) -> None:
    """Reject a Belief stamped for a stage other than stage."""
    if isinstance(belief, Belief) and belief.stage != stage:
        raise ValueError(f"belief is stamped for stage {belief.stage}, not {stage}")


def _whole(raw, what: str) -> int:
    """raw as an int no larger than sys.maxsize (an integral float is accepted).

    Larger values cannot size a tuple or an array.
    """
    whole = isinstance(raw, (int, np.integer)) or (isinstance(raw, float) and raw.is_integer())
    if not whole or isinstance(raw, bool):
        raise SpecValidationError(f"{what} must be a whole number, got {raw!r}")
    if raw > sys.maxsize:
        raise SpecValidationError(f"{what} {raw!r} exceeds the largest index, {sys.maxsize}")
    return int(raw)


def _horizon(raw) -> int:
    """raw as a whole horizon >= 1."""
    horizon = _whole(raw, "horizon")
    if horizon < 1:
        raise SpecValidationError(f"horizon must be a whole number >= 1, got {raw!r}")
    return horizon


def _once_each(raw, convert) -> tuple:
    """convert(x) for each entry x of raw, called once per distinct object."""
    raw = tuple(raw)  # holds every entry, so no two distinct entries share an id
    converted = {key: convert(x) for key, x in {id(x): x for x in raw}.items()}
    return tuple(converted[id(x)] for x in raw)


def _read_only(x) -> np.ndarray:
    a = np.array(x, dtype=float)  # a copy; order="K" keeps an F-ordered layout, which pull-backs key on
    a.setflags(write=False)
    return a


def _float_arrays(raw, what: str) -> tuple[np.ndarray, ...]:
    """Each distinct entry of raw as one read-only float array; SpecValidationError naming what otherwise."""
    try:
        return _once_each(raw, _read_only)
    except (TypeError, ValueError) as err:
        raise SpecValidationError(f"{what} must hold numeric arrays: {err}") from None


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Finite-horizon game data.  Stages are indexed 1..horizon.

    kernels[t-1] has shape (|X_t|, |U_t|, |X_{t+1}|) and is only
    needed for t < horizon, so the tuple has length horizon-1.
    Rewards have shape (|X_t|, |U_t|) per stage.  terminating[t-1]
    holds action indices that end the game at stage t.  A stage input
    object given for many stages is converted and held once; arrays are
    read-only copies, so no write through one stage reaches another, nor
    the caller's array.
    """

    horizon: int
    states: tuple[tuple[str, ...], ...]
    actions: tuple[tuple[str, ...], ...]
    terminating: tuple[frozenset[int], ...]
    kernels: tuple[np.ndarray, ...]
    rewards_principal: tuple[np.ndarray, ...]
    rewards_receiver: tuple[np.ndarray, ...]
    prior: np.ndarray

    def __post_init__(self):
        problems = []
        horizon = _horizon(self.horizon)
        object.__setattr__(self, "horizon", horizon)

        def _label_stages(raw, what):
            stages = _once_each(raw, lambda stage: tuple(str(x) for x in stage))
            if len(stages) != horizon:
                problems.append(f"{what} must list one label set per stage")
            return stages

        states = _label_stages(self.states, "states")
        actions = _label_stages(self.actions, "actions")
        term = _once_each(self.terminating, lambda s: frozenset(int(i) for i in s))
        if len(term) != horizon:
            problems.append("terminating must list one action set per stage")
        kernels = _float_arrays(self.kernels, "kernels")
        if len(kernels) != horizon - 1:
            problems.append(f"expected {horizon - 1} kernels, got {len(kernels)}")
        rew_a = _float_arrays(self.rewards_principal, "rewards_A")
        rew_b = _float_arrays(self.rewards_receiver, "rewards_B")
        if len(rew_a) != horizon or len(rew_b) != horizon:
            problems.append("rewards must list one matrix per stage for each player")
        (prior,) = _float_arrays((self.prior,), "prior")
        if problems:
            raise SpecValidationError(problems)

        for t in range(horizon):
            nx, nu = len(states[t]), len(actions[t])
            if rew_a[t].shape != (nx, nu) or rew_b[t].shape != (nx, nu):
                problems.append(f"stage {t + 1}: reward shapes must be ({nx}, {nu})")
            if t < horizon - 1:
                want = (nx, nu, len(states[t + 1]))
                if kernels[t].shape != want:
                    problems.append(f"stage {t + 1}: kernel shape must be {want}")
        if prior.shape != (len(states[0]),):
            problems.append("prior length must match the stage-1 state count")
        if problems:
            raise SpecValidationError(problems)

        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "terminating", term)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "rewards_principal", rew_a)
        object.__setattr__(self, "rewards_receiver", rew_b)
        object.__setattr__(self, "prior", prior)

    def n_states(self, stage: int) -> int:
        self._check_stage(stage)
        return len(self.states[stage - 1])

    def n_actions(self, stage: int) -> int:
        self._check_stage(stage)
        return len(self.actions[stage - 1])

    def kernel_at(self, stage: int) -> np.ndarray:
        self._check_stage(stage)
        if stage >= self.horizon:
            raise ValueError(f"stage {stage} has no transition kernel (horizon {self.horizon})")
        return self.kernels[stage - 1]

    def is_terminating(self, stage: int, action: int) -> bool:
        self._check_stage(stage)
        return int(action) in self.terminating[stage - 1]

    def _check_stage(self, stage: int):
        if not 1 <= stage <= self.horizon:
            raise ValueError(f"stage {stage} outside 1..{self.horizon}")


@dataclass(frozen=True, eq=False)
class Belief:
    """A stage-stamped point of the belief simplex."""

    stage: int
    coords: np.ndarray

    def __post_init__(self):
        stage = int(self.stage)
        if stage < 1:
            raise ValueError(f"belief stage must be >= 1, got {stage}")
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "coords", as_simplex_point(self.coords))


@dataclass(frozen=True, eq=False)
class Experiment:
    """Signal kernel sigma(message | state): rows are states.

    Each row must pass as_simplex_points (finite, nonnegative within
    EPS_GEOM, summing to one within EPS_GEOM per message) and is stored
    clipped and renormalized.  labels optionally names the messages,
    e.g. with the triangulation vertex indices they induce under an
    equilibrium policy.
    """

    kernel: np.ndarray
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        if k.ndim != 2 or k.size == 0:
            raise ValueError(f"experiment kernel must be a nonempty matrix, got shape {k.shape}")
        try:
            k = as_simplex_points(k)
        except GeometryDomainError as err:
            raise GeometryDomainError(f"experiment kernel {err}") from None
        object.__setattr__(self, "kernel", k)
        if self.labels is not None:
            labels = tuple(int(i) for i in self.labels)
            if len(labels) != k.shape[1]:
                raise ValueError("need one label per message")
            object.__setattr__(self, "labels", labels)

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    @property
    def n_messages(self) -> int:
        return self.kernel.shape[1]

    def message_probabilities(self, belief) -> np.ndarray:
        pi = as_simplex_point(_coords(belief))
        return pi @ self.kernel


def _kernel_fault(kernel: np.ndarray) -> str | None:
    if kernel.size:
        try:
            as_simplex_points(kernel)
        except GeometryDomainError as err:
            return f"kernel rows must be finite, nonnegative and sum to one: {err}"
    return None


def validate_spec(spec: GameSpec) -> tuple[bool, list[str]]:
    """Numeric invariants of a structurally well-formed specification.

    Checks label uniqueness, finite rewards, stochastic kernel slices
    (each row, indexed (state, action), passes as_simplex_points: finite,
    nonnegative within EPS_GEOM, summing to one within EPS_GEOM per next
    state), a prior on the simplex, and in-range terminating action
    indices.  A stage input the spec holds once, read-only, is checked
    once for all its stages.  Returns (ok, problems) without raising.
    """
    problems = []
    kernel_faults = _once_each(spec.kernels, _kernel_fault)
    finite = {
        name: _once_each(rewards, lambda r: bool(np.isfinite(r).all()))
        for name, rewards in (("principal", spec.rewards_principal), ("receiver", spec.rewards_receiver))
    }
    for t in range(1, spec.horizon + 1):
        states, acts = spec.states[t - 1], spec.actions[t - 1]
        if not states:
            problems.append(f"stage {t}: no states")
        if not acts:
            problems.append(f"stage {t}: no actions")
        if len(set(states)) != len(states):
            problems.append(f"stage {t}: duplicate state labels")
        if len(set(acts)) != len(acts):
            problems.append(f"stage {t}: duplicate action labels")
        for idx in spec.terminating[t - 1]:
            if not 0 <= idx < len(acts):
                problems.append(f"stage {t}: terminating action index {idx} out of range")
        for name, finite_at in finite.items():
            if not finite_at[t - 1]:
                problems.append(f"stage {t}: non-finite {name} reward")
        if t < spec.horizon and kernel_faults[t - 1]:
            problems.append(f"stage {t}: {kernel_faults[t - 1]}")
    try:
        as_simplex_point(spec.prior)
    except GeometryDomainError as err:
        problems.append(f"prior: {err}")
    return (len(problems) == 0), problems


def bayes_update(belief, experiment: Experiment, message: int) -> np.ndarray:
    """Posterior after observing one experiment message.

    Zero-probability messages (denominator <= EPS_GEOM) fall back to
    the uniform distribution by convention, so off-path updates are
    always defined.
    """
    pi = as_simplex_point(_coords(belief))
    if pi.size != experiment.n_states:
        raise ValueError("belief dimension does not match the experiment")
    m = int(message)
    if not 0 <= m < experiment.n_messages:
        raise ValueError(f"message {m} outside 0..{experiment.n_messages - 1}")
    joint = pi * experiment.kernel[:, m]
    total = joint.sum()
    if total <= EPS_GEOM:
        return np.full(pi.size, 1.0 / pi.size)
    return joint / total


def push_forward(spec: GameSpec, stage: int, belief, action: int) -> np.ndarray:
    """Next-stage belief after a non-terminating action: pi @ P(.|., u)."""
    spec._check_stage(stage)
    if stage >= spec.horizon:
        raise ValueError(f"stage {stage} has no successor (horizon {spec.horizon})")
    u = int(action)
    if not 0 <= u < spec.n_actions(stage):
        raise ValueError(f"action {u} outside 0..{spec.n_actions(stage) - 1}")
    if spec.is_terminating(stage, u):
        raise ValueError(f"action {u} terminates at stage {stage}; no continuation belief")
    pi = as_simplex_point(_coords(belief))
    if pi.size != spec.n_states(stage):
        raise ValueError("belief dimension does not match the stage")
    return pi @ spec.kernels[stage - 1][:, u, :]


def induced_distribution(belief, experiment: Experiment) -> SupportMeasure:
    """Distribution over posteriors induced by an experiment.

    Messages with probability <= EPS_GEOM are dropped; posteriors that
    agree after rounding to the decimals of EPS_GEOM are merged with their
    probability-weighted average (which preserves the mean exactly).
    Atoms come back lexicographically sorted.
    """
    pi = as_simplex_point(_coords(belief))
    if pi.size != experiment.n_states:
        raise ValueError("belief dimension does not match the experiment")
    probs = pi @ experiment.kernel
    merged: dict[tuple, list] = {}
    decimals = int(-math.log10(EPS_GEOM))
    for m in range(experiment.n_messages):
        if probs[m] <= EPS_GEOM:
            continue
        post = (pi * experiment.kernel[:, m]) / probs[m]
        key = tuple(np.round(post, decimals) + 0.0)
        slot = merged.setdefault(key, [0.0, np.zeros(pi.size)])
        slot[0] += probs[m]
        slot[1] += probs[m] * post
    atoms = np.vstack([slot[1] / slot[0] for slot in merged.values()])
    weights = np.asarray([slot[0] for slot in merged.values()])
    order = np.lexsort(atoms.T[::-1])
    return SupportMeasure(atoms[order], weights[order])


def split_experiment(belief, measure: SupportMeasure) -> Experiment:
    """Experiment inducing the given distribution over posteriors.

    The measure must average back to the belief (within EPS_MEMBER per
    coordinate), which is exactly the inducibility condition.  States
    with zero prior mass get uniform signal rows.
    """
    pi = as_simplex_point(_coords(belief))
    if pi.size != measure.n_states:
        raise ValueError("belief dimension does not match the measure")
    gap = np.max(np.abs(measure.mean() - pi))
    if gap > EPS_MEMBER:
        raise ValueError(f"measure mean differs from the belief by {gap:.3e}; not inducible")
    return Experiment(_signal_kernel(pi, measure.weights, measure.points))


def _signal_kernel(pi: np.ndarray, weights: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Signal rows sigma(m | x) = weights[m] * atoms[m, x] / pi[x] that
    split pi into the weighted atoms.

    Leading axes broadcast: pi (..., n), weights (..., M) and atoms
    (..., M, n) give kernels (..., n, M).  States with pi[x] <= EPS_GEOM
    get uniform rows over the messages of positive weight; messages of
    zero weight get no mass.  The result goes through _renormalize.
    """
    pi = pi[..., :, None]
    weights = weights[..., None, :]
    sent = weights > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.where(
            pi > EPS_GEOM,
            weights * np.swapaxes(atoms, -1, -2) / pi,
            sent / sent.sum(axis=-1, keepdims=True),
        )
    return _renormalize(kernel)


def _nesting_depth(obj) -> int:
    depth = 0
    while isinstance(obj, (list, tuple)):
        depth += 1
        if len(obj) == 0:
            break
        obj = obj[0]
    return depth


def spec_to_dict(spec: GameSpec) -> dict:
    """JSON-ready dictionary in the expanded per-stage form."""
    return {
        "horizon": spec.horizon,
        "states": [list(s) for s in spec.states],
        "actions": [list(a) for a in spec.actions],
        "terminating": [
            sorted(spec.actions[t][i] for i in spec.terminating[t])
            for t in range(spec.horizon)
        ],
        "kernels": [k.tolist() for k in spec.kernels],
        "rewards_A": [r.tolist() for r in spec.rewards_principal],
        "rewards_B": [r.tolist() for r in spec.rewards_receiver],
        "prior": spec.prior.tolist(),
    }


def spec_from_dict(data: dict) -> GameSpec:
    """Parse a specification dictionary.

    Shared (stage-independent) shorthand is accepted: a flat label list
    for states/actions, a flat label list for terminating actions, a
    single 3-d kernel under "kernel", and a single reward matrix under
    "rewards_A"/"rewards_B" (player A is the principal, B the
    receiver).  The expanded per-stage form written by spec_to_dict
    round-trips exactly.
    """
    horizon = _horizon(data.get("horizon"))

    def _per_stage_labels(key, default=None):
        raw = data.get(key, default)
        if raw is None:
            raise SpecValidationError(f"missing {key}")
        if not isinstance(raw, (list, tuple)):
            raise SpecValidationError(f"{key} must be a list, got {type(raw).__name__}")
        if _nesting_depth(raw) <= 1:
            return (tuple(raw),) * horizon
        if not all(isinstance(s, (list, tuple)) for s in raw):
            raise SpecValidationError(f"{key} must be one label list or one list per stage")
        return tuple(tuple(s) for s in raw)

    states = _per_stage_labels("states")
    actions = _per_stage_labels("actions")
    term_labels = _per_stage_labels("terminating", [])
    if len(term_labels) != horizon:
        raise SpecValidationError("terminating must give one action list per stage")
    terminating = []
    by_labels: dict[tuple[int, int], frozenset[int]] = {}  # keys: ids of label tuples that term_labels, actions hold
    for t, labels in enumerate(term_labels):
        key = (id(labels), id(actions[t]))
        if key not in by_labels:
            for lab in labels:
                if lab not in actions[t]:
                    raise SpecValidationError(f"stage {t + 1}: terminating action {lab!r} is not an action")
            by_labels[key] = frozenset(actions[t].index(lab) for lab in labels)
        terminating.append(by_labels[key])

    if "kernel" in data:
        kernels = (data["kernel"],) * (horizon - 1)
    else:
        kernels = data.get("kernels", [])
    if "rewards_A" in data and _nesting_depth(data["rewards_A"]) == 2:
        rew_a = (data["rewards_A"],) * horizon
    else:
        rew_a = data.get("rewards_A", [])
    if "rewards_B" in data and _nesting_depth(data["rewards_B"]) == 2:
        rew_b = (data["rewards_B"],) * horizon
    else:
        rew_b = data.get("rewards_B", [])
    prior = data.get("prior")
    if prior is None:
        raise SpecValidationError("missing prior")

    return GameSpec(
        horizon=horizon,
        states=states,
        actions=actions,
        terminating=tuple(terminating),
        kernels=kernels,
        rewards_principal=rew_a,
        rewards_receiver=rew_b,
        prior=prior,
    )


def load_spec(path) -> GameSpec:
    """Read a specification from a JSON file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecValidationError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(data, dict):
        raise SpecValidationError(f"{path}: expected a JSON object")
    return spec_from_dict(data)


def save_spec(spec: GameSpec, path) -> None:
    """Write a specification as JSON in the expanded per-stage form."""
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n")
