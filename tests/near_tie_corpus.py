"""Near-tie corpus: random 3- and 4-state games whose rewards nearly tie.

Each game is built from ``numpy.random.default_rng(seed)``, with seeds
0-299 at 3 states and 0-59 at 4 states: 3 actions, T=3, a stationary
kernel and no terminating action.  Draw order: the kernel (a 0/1 kernel
when seed % 3 == 0, else Dirichlet(1) rows), then rewards_A, then
rewards_B (each on the lattice {-1, 0, 1} plus a perturbation from
{0, 1e-10, 1e-9, 2e-9, 1e-8} with a random sign), then a Dirichlet(1)
prior.  Each game goes through ``solve`` and then ``evaluate`` with
``--out``.

Run as ``PYTHONPATH=src python tests/near_tie_corpus.py [--states 3 4]``.
It prints one line per game, with each command's exit code and the
sha256 of its artifact, or the class of the stage error.  When solve
exits 0, every stage table of its artifact is rebuilt as
``Triangulation(beliefs, simplices)`` and checked by
``validate_triangulation``, and the line says ``oracle=ok`` or
``oracle=rejected``.  Then, per state count, it prints the number of
games that exit 0, 1 and 2 (a game's exit is the larger of its two), the
error classes of those that exit 2, and the number of games whose solve
artifact the oracle rejects.  The file has no ``test_`` prefix, so
pytest does not collect it.

``near_tie_corpus_table.txt`` holds the two summary lines of
``--states 3 4``; CI fails when the run prints others.  A change that
moves a game's exit updates the file and says why.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from signalgame.cli import main
from signalgame.geometry import Triangulation, validate_triangulation

SEEDS = {3: range(300), 4: range(60)}
ACTIONS = 3
HORIZON = 3
PERTURBATIONS = [0.0, 1e-10, 1e-9, 2e-9, 1e-8]
# substring of the error message -> class
ERROR_CLASSES = {
    "not covered by any cell": "uncovered",
    "failed to tile": "tiling",
    "over the cap": "cap",
    "diverges": "divergence",
    "affinely degenerate": "degenerate",
    "Initial simplex is flat": "flat",
}


def near_tie_game(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    if seed % 3 == 0:
        kernel = np.eye(n)[rng.integers(0, n, (n, ACTIONS))]
    else:
        kernel = rng.dirichlet(np.ones(n), size=(n, ACTIONS))

    def rewards():
        base = rng.integers(-1, 2, (n, ACTIONS))
        return base + rng.choice(PERTURBATIONS, (n, ACTIONS)) * rng.choice([-1, 1], (n, ACTIONS))

    rewards_a = rewards()
    rewards_b = rewards()
    return {
        "horizon": HORIZON,
        "states": [f"x{i}" for i in range(n)],
        "actions": [f"u{i}" for i in range(ACTIONS)],
        "terminating": [],
        "kernel": kernel.tolist(),
        "rewards_A": rewards_a.tolist(),
        "rewards_B": rewards_b.tolist(),
        "prior": rng.dirichlet(np.ones(n)).tolist(),
    }


def error_class(message: str) -> str:
    for key, name in ERROR_CLASSES.items():
        if key in message:
            return name
    return "other"


def oracle_accepts(solve_artifact: bytes) -> bool:
    """Whether validate_triangulation accepts every stage table of a solve artifact."""
    for table in json.loads(solve_artifact)["stages"]:
        tri = Triangulation([vertex["belief"] for vertex in table["vertices"]], table["simplices"])
        if not validate_triangulation(tri)[0]:
            return False
    return True


def run_game(game: dict, workdir: Path) -> tuple[int, str | None, bool | None, list[str]]:
    """The game's exit (the larger of its commands'), the class of its last
    stage error (None without one), the oracle's verdict on its solve
    artifact (None unless solve exits 0), and one field per command."""
    path = workdir / "game.json"
    path.write_text(json.dumps(game))
    worst, error, accepted, fields = 0, None, None, []
    for command in ("solve", "evaluate"):
        out = workdir / f"{command}.out"
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--input", str(path), "--out", str(out)])
        worst = max(worst, code)
        if code == 2:
            error = error_class(err.getvalue())
            fields.append(f"{command}=2 {error}")
            continue
        artifact = out.read_bytes()
        fields.append(f"{command}={code} {hashlib.sha256(artifact).hexdigest()}")
        if command == "solve" and code == 0:
            accepted = oracle_accepts(artifact)
            fields.append("oracle=ok" if accepted else "oracle=rejected")
    return worst, error, accepted, fields


def main_corpus(states: list[int]) -> None:
    summary = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in states:
            exits = collections.Counter()
            classes = collections.Counter()
            rejected = 0
            for seed in SEEDS[n]:
                code, error, accepted, fields = run_game(near_tie_game(n, seed), Path(tmp))
                exits[code] += 1
                if code == 2:
                    classes[error] += 1
                rejected += accepted is False
                print(f"n={n} seed={seed} " + " ".join(fields), flush=True)
            summary[n] = exits, classes, rejected
    for n, (exits, classes, rejected) in summary.items():
        detail = ", ".join(f"{count} {name}" for name, count in sorted(classes.items()))
        print(
            f"{n} states: {exits[0]}/{exits[1]}/{exits[2]} exit 0/1/2"
            + (f" ({detail})" if detail else "")
            + f"; the oracle rejects {rejected} solves"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, nargs="+", choices=sorted(SEEDS), default=sorted(SEEDS))
    main_corpus(parser.parse_args().states)
