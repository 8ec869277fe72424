"""Command-line front end: built-in games, solving, and verification.

Subcommands:

* ``solve``: backward induction; writes the per-stage vertex tables
  (belief coordinates, both players' values, receiver action) as JSON.
* ``sweep``: the same tables for stages T down to T-depth as CSV, one
  row per triangulation vertex, for plotting value panels.
* ``evaluate``: exact tree evaluation plus one-shot deviation checks.
* ``simulate``: seeded Monte Carlo rollout of the solved policies.
* ``envelope``: concavification of a user-supplied piecewise-linear
  objective; writes the triangulation vertices and envelope values.

Game inputs come from a JSON file (``--input``) or a named builtin
(``--builtin``, with ``--p``, ``--c``, ``--horizon``).  Identical
configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .evaluator import TRAJECTORIES, exact_value, one_shot_deviation_check, simulate
from .game import GameSpec, SpecValidationError, _horizon, _whole, load_spec
from .game import validate_spec  # noqa: F401  (solve validates; bench/tracing.py wraps this name)
from .geometry import (
    EPS_EQUILIBRIUM,
    CandidateBudgetExceeded,
    CellArrangement,
    GeometryDomainError,
    argcav,
    dedup_functionals,
)
from .solver import EnvelopeDivergence, EquilibriumSolution, StageSolution, solve

__all__ = [
    "ConfigError",
    "RunConfig",
    "builtin_example",
    "run",
    "main",
]

SOLUTION_FORMAT = "signalgame-solution-v1"
SWEEP_FORMAT = "signalgame-sweep-v1"
ENVELOPE_FORMAT = "signalgame-envelope-v1"
SIMULATION_FORMAT = "signalgame-simulation-v2"
EVALUATION_FORMAT = "signalgame-evaluation-v4"

_COMMANDS = ("solve", "sweep", "evaluate", "simulate", "envelope")
_BUILTINS = ("quickest_detection", "detector")


class ConfigError(ValueError):
    """Raised for unusable run configurations or builtin parameters."""


# builtin_example's chain parameters and their defaults.
_BUILTIN_PARAMS = {"p": 0.2, "c": 0.1, "horizon": 14}


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: the command plus its inputs and knobs.

    p, c and horizon parameterize a builtin game: a builtin run fills
    in builtin_example's defaults for the ones left None, and a run on
    an input file refuses any of them.
    """

    command: str
    input_path: str | None = None
    builtin: str | None = None
    p: float | None = None
    c: float | None = None
    horizon: int | None = None
    seed: int = 0
    trajectories: int = TRAJECTORIES
    depth: int | None = None
    out: str | None = None

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.trajectories < 2:
            raise ConfigError("trajectories must be at least 2")
        if self.depth is not None and self.depth < 0:
            raise ConfigError("depth must be nonnegative")
        if self.command == "envelope":
            if self.input_path is None:
                raise ConfigError("envelope needs --input with a piecewise objective")
        elif (self.input_path is None) == (self.builtin is None):
            raise ConfigError("specify exactly one of --input or --builtin")
        given = [name for name in _BUILTIN_PARAMS if getattr(self, name) is not None]
        if self.input_path is not None and given:
            stray = ", ".join(f"--{name}" for name in given)
            raise ConfigError(f"builtin parameters do not apply to --input: {stray}")
        if self.builtin is not None:
            for name, default in _BUILTIN_PARAMS.items():
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)


def builtin_example(
    name: str,
    p: float = _BUILTIN_PARAMS["p"],
    c: float = _BUILTIN_PARAMS["c"],
    horizon: int = _BUILTIN_PARAMS["horizon"],
) -> GameSpec:
    """Construct one of the two built-in detection games.

    quickest_detection: uncontrolled binary chain that jumps from state
    1 to the absorbing state 2 with probability p each stage; the
    receiver stays (declare_1, paying c per stage spent in state 2) or
    stops (declare_2, terminating, paying 1 on a false alarm); the
    principal earns 1 per stage the receiver stays.  Prior: state 1.

    detector: symmetric binary chain that flips state with probability
    p each stage; the receiver waits (paying c, earning the principal
    1) or makes a terminating declaration earning 1 when it matches
    the state.  Prior: uniform.
    """
    if name not in _BUILTINS:
        raise ConfigError(f"unknown builtin {name!r}; choose from {', '.join(_BUILTINS)}")
    if not 0.0 < p < 1.0:
        raise ConfigError(f"p must lie in (0, 1), got {p!r}")
    if not 0.0 < c < 1.0:
        raise ConfigError(f"c must lie in (0, 1), got {c!r}")
    try:
        horizon = _horizon(horizon)
    except SpecValidationError as err:
        raise ConfigError(str(err)) from None
    if name == "quickest_detection":
        states = ("1", "2")
        actions = ("declare_1", "declare_2")
        terminating = frozenset({1})
        rows = np.array([[1.0 - p, p], [0.0, 1.0]])
        reward_a = [[1.0, 0.0], [1.0, 0.0]]
        reward_b = [[0.0, -1.0], [-c, 0.0]]
        prior = [1.0, 0.0]
    else:
        states = ("-1", "1")
        actions = ("declare_-1", "wait", "declare_1")
        terminating = frozenset({0, 2})
        rows = np.array([[1.0 - p, p], [p, 1.0 - p]])
        reward_a = [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
        reward_b = [[1.0, -c, 0.0], [0.0, -c, 1.0]]
        prior = [0.5, 0.5]
    kernel = np.repeat(rows[:, None, :], len(actions), axis=1)
    return GameSpec(
        horizon=horizon,
        states=(states,) * horizon,
        actions=(actions,) * horizon,
        terminating=(terminating,) * horizon,
        kernels=(kernel,) * (horizon - 1),
        rewards_principal=(reward_a,) * horizon,
        rewards_receiver=(reward_b,) * horizon,
        prior=prior,
    )


def _load_game(cfg: RunConfig) -> GameSpec:
    if cfg.builtin is not None:
        return builtin_example(cfg.builtin, cfg.p, cfg.c, cfg.horizon)
    try:
        return load_spec(cfg.input_path)
    except OSError as err:
        raise ConfigError(f"cannot read {cfg.input_path}: {err}") from err


def _vertex_columns(st: StageSolution):
    """(belief, value_principal, value_receiver, action) per triangulation vertex."""
    return zip(st.triangulation.vertices.tolist(), st.values_principal.tolist(),
               st.values_receiver.tolist(), st.vertex_actions)


def _stage_table(solution: EquilibriumSolution, t: int) -> dict:
    st = solution.stage(t)
    labels = solution.spec.actions[t - 1]
    return {
        "stage": t,
        "states": list(solution.spec.states[t - 1]),
        "actions": list(labels),
        "vertices": [
            {
                "belief": belief,
                "value_principal": value_a,
                "value_receiver": value_b,
                "action": action,
                "action_label": labels[action],
            }
            for belief, value_a, value_b, action in _vertex_columns(st)
        ],
        "simplices": st.triangulation.simplices.tolist(),
    }


def _solution_payload(solution: EquilibriumSolution) -> dict:
    value_a, value_b = solution.values_at_prior()
    return {
        "format": SOLUTION_FORMAT,
        "horizon": solution.spec.horizon,
        "prior": [float(x) for x in solution.spec.prior],
        "value_principal": value_a,
        "value_receiver": value_b,
        "stages": [_stage_table(solution, t) for t in range(1, solution.spec.horizon + 1)],
    }


def _sweep_text(solution: EquilibriumSolution, depth: int) -> str:
    """CSV stage tables for t = T down to max(1, T - depth).

    Binary-state stages export the single coordinate pi(first state);
    larger state spaces export every coordinate.  One row per
    triangulation vertex, vertices in ascending coordinate order.
    """
    spec = solution.spec
    top = spec.horizon
    bottom = max(1, top - depth)
    widest = max(spec.n_states(t) for t in range(bottom, top + 1))
    buf = io.StringIO()
    if widest <= 2:
        belief_cols = [f"pi({spec.states[top - 1][0]})"]
    else:
        belief_cols = [f"pi_{k}" for k in range(widest)]
    writer = csv.writer(buf, lineterminator="\n")
    buf.write(f"# {SWEEP_FORMAT} columns: stage, belief, value_principal, value_receiver, action\n")
    writer.writerow(["stage", *belief_cols, "value_principal", "value_receiver", "action"])
    for t in range(top, bottom - 1, -1):
        labels = spec.actions[t - 1]
        pad = [""] * (widest - spec.n_states(t))
        # csv writes a float as its repr
        for coords, value_a, value_b, action in _vertex_columns(solution.stage(t)):
            belief = coords[:1] if widest <= 2 else coords + pad
            writer.writerow([t, *belief, value_a, value_b, labels[action]])
    return buf.getvalue()


def _parse_affine(raw, where: str, n: int) -> np.ndarray:
    """One functional {"weights": [...], "offset": b} as the row [weights..., b]."""
    if not isinstance(raw, dict) or "weights" not in raw:
        raise ConfigError(f"{where}: expected an object with 'weights' and 'offset'")
    try:
        weights = np.atleast_1d(np.asarray(raw["weights"], dtype=float))
        offset = float(raw.get("offset", 0.0))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err
    if weights.ndim != 1 or not np.all(np.isfinite(weights)):
        raise ConfigError(f"{where}: weights must be a finite vector")
    if not math.isfinite(offset):
        raise ConfigError(f"{where}: offset must be finite, got {offset!r}")
    if weights.size != n:
        raise ConfigError(f"{where}: expected {n} weights, got {weights.size}")
    return np.append(weights, offset)


def _envelope_payload(data: dict) -> dict:
    """Concavify a piecewise-linear objective given as max over pieces,
    each piece either a single affine functional or a min of several
    (enough to express any continuous piecewise-linear function)."""
    if not isinstance(data, dict):
        raise ConfigError("envelope input must be a JSON object")
    try:
        n = _whole(data["states"], "states")
        raw_pieces = data["pieces"]
    except (KeyError, SpecValidationError) as err:
        raise ConfigError(f"envelope input needs 'states' and 'pieces': {err}") from err
    if n < 1 or not isinstance(raw_pieces, list) or not raw_pieces:
        raise ConfigError("envelope input needs states >= 1 and a nonempty piece list")
    pieces: list[np.ndarray] = []
    for k, raw in enumerate(raw_pieces):
        if isinstance(raw, dict) and "min_of" in raw:
            if not isinstance(raw["min_of"], list) or not raw["min_of"]:
                raise ConfigError(f"pieces[{k}]: min_of must be a nonempty list")
            group = [
                _parse_affine(g, f"pieces[{k}].min_of[{j}]", n)
                for j, g in enumerate(raw["min_of"])
            ]
        else:
            group = [_parse_affine(raw, f"pieces[{k}]", n)]
        pieces.append(np.vstack(group))

    def psi(points):
        best = np.full(points.shape[0], -np.inf)
        for group in pieces:
            np.maximum(best, np.min([points @ g[:-1] + g[-1] for g in group], axis=0), out=best)
        return best

    flat = np.vstack(pieces)
    first, second = np.triu_indices(len(flat), k=1)
    arrangement = CellArrangement(n, dedup_functionals(flat[first] - flat[second]))
    envelope = argcav(psi, arrangement)
    return {
        "format": ENVELOPE_FORMAT,
        "states": n,
        "vertices": [[float(x) for x in v] for v in envelope.triangulation.vertices],
        "values": [float(v) for v in envelope.values],
        "simplices": envelope.triangulation.simplices.tolist(),
    }


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise ConfigError(f"cannot write {out}: {err}") from err


def _to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run(cfg: RunConfig) -> int:
    """Execute one configuration; returns the process exit status."""
    if cfg.command == "envelope":
        try:
            with open(cfg.input_path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{cfg.input_path}:{err.lineno}:{err.colno}: {err.msg}") from err
        except OSError as err:
            raise ConfigError(f"cannot read {cfg.input_path}: {err}") from err
        _emit(_to_json(_envelope_payload(data)), cfg.out)
        return 0

    spec = _load_game(cfg)
    solution = solve(spec)

    if cfg.command == "solve":
        _emit(_to_json(_solution_payload(solution)), cfg.out)
        return 0

    if cfg.command == "sweep":
        depth = spec.horizon - 1 if cfg.depth is None else cfg.depth
        if depth > spec.horizon:
            raise ConfigError(f"depth {depth} exceeds horizon {spec.horizon}")
        _emit(_sweep_text(solution, depth), cfg.out)
        return 0

    if cfg.command == "simulate":
        report = simulate(solution, seed=cfg.seed, trajectories=cfg.trajectories)
        _emit(_to_json({"format": SIMULATION_FORMAT, **asdict(report)}), cfg.out)
        return 0

    value_a, value_b = solution.values_at_prior()
    exact_a, exact_b = exact_value(solution)
    report = one_shot_deviation_check(solution, seed=cfg.seed)
    gap = max(abs(exact_a - value_a), abs(exact_b - value_b))
    payload = {
        "format": EVALUATION_FORMAT,
        "value_principal": value_a,
        "value_receiver": value_b,
        "exact_principal": exact_a,
        "exact_receiver": exact_b,
        "value_gap": gap,
        **asdict(report),
    }
    _emit(_to_json(payload), cfg.out)
    return 0 if report.ok and gap <= EPS_EQUILIBRIUM else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signalgame",
        description="Solve and verify finite-horizon signal-picking games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("solve", "solve a game and write the per-stage vertex tables as JSON"),
        ("sweep", "export stage tables for t = T..T-depth as CSV"),
        ("evaluate", "exact evaluation plus one-shot deviation checks"),
        ("simulate", "Monte Carlo rollout of the solved policies"),
        ("envelope", "concavify a piecewise-linear objective from JSON"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--input", dest="input_path", metavar="INPUT",
                         help="game (or objective) description, JSON")
        if name != "envelope":
            cmd.add_argument("--builtin", choices=_BUILTINS, help="built-in example game")
            # no argparse defaults, so that RunConfig can tell these were given
            cmd.add_argument("--p", type=float,
                             help=f"chain jump/flip probability (default {_BUILTIN_PARAMS['p']})")
            cmd.add_argument("--c", type=float,
                             help=f"receiver stage cost (default {_BUILTIN_PARAMS['c']})")
            cmd.add_argument("--horizon", type=int,
                             help=f"number of stages (default {_BUILTIN_PARAMS['horizon']})")
        if name == "sweep":
            cmd.add_argument("--depth", type=int, help="stages below the horizon to export")
        if name in ("evaluate", "simulate"):
            cmd.add_argument("--seed", type=int, default=RunConfig.seed, help="master random seed")
        if name == "simulate":
            cmd.add_argument("--trajectories", type=int, default=RunConfig.trajectories,
                             help="Monte Carlo sample size")
        cmd.add_argument("--out", help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**{name: value for name, value in vars(args).items() if value is not None})
        return run(cfg)
    except (
        ConfigError,
        SpecValidationError,
        CandidateBudgetExceeded,
        GeometryDomainError,
        EnvelopeDivergence,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        # NumPy's _ArrayMemoryError names the allocation; a bare MemoryError says nothing
        detail = f": {err}" if str(err) else ""
        print(f"error: out of memory in {args.command}{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
