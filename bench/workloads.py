"""Workload table and the seeded random-game generator.

Each workload is a list of games; every game runs ``solve``,
``evaluate`` and ``simulate`` through ``signalgame.cli.main``.  The
builtins are passed as ``--builtin`` flags and the random games as
``--input`` JSON written by ``random_game``.

Generator, as a script::

    python3 bench/workloads.py game --seed 5 --states 3 --actions 3 --horizon 6 --sizes

prints the game's ``--input`` JSON, and with ``--sizes`` solves it once
under the tracer and prints each stage's deduped functionals,
candidates and envelope vertices to stderr.  ``python3 bench/workloads.py
goldens`` rewrites ``goldens.json`` from the current program.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"


@dataclass(frozen=True)
class Game:
    """One game: builtin flags, or the parameters of a generated game."""

    name: str
    builtin: tuple[str, ...] = ()
    generated: tuple[int, int, int, int] | None = None  # (seed, states, actions, horizon)

    def flags(self, workdir: Path) -> list[str]:
        if self.generated is None:
            return list(self.builtin)
        return ["--input", str(workdir / f"{self.name}.json")]


@dataclass(frozen=True)
class Workload:
    why: str
    games: tuple[Game, ...]
    trajectories: int
    # Back-to-back repeats per round of commands well under a second, so
    # their medians rest on as many samples as the long commands' do.
    repeats: dict[str, int] = field(default_factory=dict)


def _builtin(name: str, c: float, horizon: int) -> Game:
    return Game(
        f"{name}-T{horizon}",
        builtin=("--builtin", name, "--p", "0.2", "--c", str(c), "--horizon", str(horizon)),
    )


WORKLOADS = {
    "binary-long": Workload(
        why="two-state builtins at T=100: per-stage fixed costs and per-probe "
        "deviation checks, never candidate enumeration",
        games=(_builtin("quickest_detection", 0.1, 100), _builtin("detector", 0.15, 100)),
        trajectories=1_000,
        repeats={"solve": 2, "simulate": 2},
    ),
    "simplex-dense": Workload(
        why="random 3- and 4-state games: candidate enumeration and objective "
        "evaluation on candidates dominate",
        games=(
            Game("random-s5-n3-a3-T6", generated=(5, 3, 3, 6)),
            Game("random-s8-n4-a3-T2", generated=(8, 4, 3, 2)),
        ),
        trajectories=1_000,
    ),
    "rollout": Workload(
        why="100k-trajectory Monte Carlo on the builtins at T=40: the "
        "per-trajectory sampling loop dominates",
        games=(_builtin("quickest_detection", 0.1, 40), _builtin("detector", 0.15, 40)),
        trajectories=100_000,
        repeats={"solve": 8},
    ),
}

COMMANDS = ("solve", "evaluate", "simulate")


def random_game(seed: int, n: int, nu: int, horizon: int) -> dict:
    """A stationary game with no terminating actions, as ``--input`` JSON.

    The same kernel and rewards apply at every stage; the draw order is
    kernel, principal rewards, receiver rewards, prior.
    """
    rng = np.random.default_rng(seed)
    kernel = rng.dirichlet(np.ones(n), size=(n, nu))
    rewards_a = rng.uniform(-1, 1, (n, nu))
    rewards_b = rng.uniform(-1, 1, (n, nu))
    prior = rng.dirichlet(np.ones(n))
    return {
        "horizon": horizon,
        "states": [f"x{i}" for i in range(n)],
        "actions": [f"u{i}" for i in range(nu)],
        "terminating": [],
        "kernel": kernel.tolist(),
        "rewards_A": rewards_a.tolist(),
        "rewards_B": rewards_b.tolist(),
        "prior": prior.tolist(),
    }


def write_inputs(workload: Workload, workdir: Path) -> None:
    for game in workload.games:
        if game.generated is not None:
            path = workdir / f"{game.name}.json"
            path.write_text(json.dumps(random_game(*game.generated), sort_keys=True) + "\n")


def plan(workload_name: str, seed: int, workdir: Path) -> list[dict]:
    """One round: solve, evaluate, simulate on each game, in that order
    (the simulate check reads the exact value from the evaluate output),
    each step with its untraced repeat count."""
    workload = WORKLOADS[workload_name]
    seed_flag = ["--seed", str(seed % 2**32)]
    steps = []
    for game in workload.games:
        flags = game.flags(workdir)
        for command, argv in (
            ("solve", ["solve", *flags]),
            ("evaluate", ["evaluate", *flags, *seed_flag]),
            ("simulate", ["simulate", *flags, *seed_flag,
                          "--trajectories", str(workload.trajectories)]),
        ):
            steps.append({"game": game.name, "command": command, "argv": argv,
                          "repeat": workload.repeats.get(command, 1)})
    return steps


def _cli_main():
    sys.path.insert(0, str(ROOT / "src"))
    from signalgame.cli import main

    return main


def stage_sizes_of(game: dict) -> list[dict]:
    """Solve the game once under the tracer; per-stage size counts."""
    from tracing import Tracer, stage_sizes

    main = _cli_main()
    tracer = Tracer()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "game.json"
        path.write_text(json.dumps(game))
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["solve", "--input", str(path)])
        finally:
            tracer.uninstall()
    if rc != 0:
        raise RuntimeError(f"solve exited {rc}")
    return stage_sizes(tracer.spans)


def capture_goldens() -> dict:
    """sha256 and length of every workload's solve artifact."""
    main = _cli_main()
    goldens = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for workload in WORKLOADS.values():
            write_inputs(workload, workdir)
            for game in workload.games:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = main(["solve", *game.flags(workdir)])
                if rc != 0:
                    raise RuntimeError(f"{game.name}: solve exited {rc}")
                data = buf.getvalue().encode()
                goldens[game.name] = {"sha256": hashlib.sha256(data).hexdigest(),
                                      "bytes": len(data)}
    return goldens


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    gen = sub.add_parser("game", help="print a random game as --input JSON")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--states", type=int, required=True)
    gen.add_argument("--actions", type=int, required=True)
    gen.add_argument("--horizon", type=int, required=True)
    gen.add_argument("--sizes", action="store_true",
                     help="solve once and print per-stage sizes to stderr")
    sub.add_parser("goldens", help=f"rewrite {GOLDENS.name} from the current program")
    args = parser.parse_args(argv)
    if args.what == "goldens":
        GOLDENS.write_text(json.dumps(capture_goldens(), indent=2, sort_keys=True) + "\n")
        return 0
    game = random_game(args.seed, args.states, args.actions, args.horizon)
    print(json.dumps(game, sort_keys=True))
    if args.sizes:
        for row in stage_sizes_of(game):
            print(json.dumps(row), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
