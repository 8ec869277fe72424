"""Byte-level goldens for every CLI artifact kind.

Each case runs ``signalgame.cli.main`` with ``--out`` and pins the exit
status, the sha256 and the byte length of what it wrote.  A refactor
that keeps the outputs identical leaves this file untouched; a change
that alters an artifact on purpose must bump the artifact's format
version and re-pin the case.

Run as a script (``PYTHONPATH=src python tests/test_goldens.py``) to
print the ``GOLDENS`` dict for the current code in this file's layout.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from signalgame.cli import main

# A 3-state, 3-action game with one terminating action: small enough to
# solve in well under a second, large enough to exercise pulled-back
# continuation pieces on a 2-d simplex.
GAME_3 = {
    "horizon": 4,
    "states": ["a", "b", "c"],
    "actions": ["stay", "probe", "stop"],
    "terminating": ["stop"],
    "kernel": [
        [[0.7, 0.2, 0.1], [0.5, 0.25, 0.25], [0.7, 0.2, 0.1]],
        [[0.1, 0.8, 0.1], [0.2, 0.6, 0.2], [0.1, 0.8, 0.1]],
        [[0.0, 0.3, 0.7], [0.25, 0.25, 0.5], [0.0, 0.3, 0.7]],
    ],
    "rewards_A": [[1.0, 0.5, 0.0], [1.0, 0.25, 0.0], [0.5, 0.0, 0.2]],
    "rewards_B": [[0.3, -0.2, 0.6], [-0.1, 0.2, 0.0], [-0.4, 0.1, 0.5]],
    "prior": [0.5, 0.3, 0.2],
}

OBJECTIVE_2 = {
    "states": 2,
    "pieces": [
        {"weights": [0.3, 1.0], "offset": 0.0},
        {"min_of": [
            {"weights": [2.0, -0.5], "offset": 0.1},
            {"weights": [-1.0, 1.5], "offset": 0.4},
        ]},
        {"weights": [0.9, 0.2], "offset": -0.05},
    ],
}

OBJECTIVE_3 = {
    "states": 3,
    "pieces": [
        {"weights": [0.6, 0.3, 0.4], "offset": 0.0},
        {"min_of": [
            {"weights": [2.0, 0.0, 0.0], "offset": 0.2},
            {"weights": [0.0, 2.0, 0.0], "offset": 0.1},
            {"weights": [0.0, 0.0, 2.0], "offset": 0.15},
        ]},
        {"min_of": [
            {"weights": [1.5, -0.5, 0.2], "offset": 0.3},
            {"weights": [-0.7, 0.9, 0.4], "offset": 0.45},
        ]},
    ],
}

# A random stationary 2-state, 2-action game (``bench/workloads.py game
# --seed 3 --states 2 --actions 2 --horizon 12``).  Its evaluate artifact
# depends on the order in which the deviation check visits reachable
# beliefs, because that order decides which belief gets which random
# experiments.
GAME_RANDOM = {
    "horizon": 12,
    "states": ["x0", "x1"],
    "actions": ["u0", "u1"],
    "terminating": [],
    "kernel": [
        [[0.22017419778837014, 0.7798258022116299], [0.3887949589986662, 0.611205041001334]],
        [[0.5712241113807355, 0.4287758886192647], [0.8090007981653129, 0.1909992018346871]],
    ],
    "rewards_A": [[0.46915430281842907, -0.7726559601571932], [-0.21754361900867591, 0.03348036524272735]],
    "rewards_B": [[-0.1387439591716444, 0.17359714287628147], [0.4756755745843204, 0.9125345096721971]],
    "prior": [0.3793843178320563, 0.6206156821679437],
}

# One state: every belief is the corner, and the envelope is one vertex.
GAME_1 = {
    "horizon": 3,
    "states": ["s"],
    "actions": ["a", "b"],
    "terminating": ["b"],
    "kernel": [[[1.0], [1.0]]],
    "rewards_A": [[1.0, 0.5]],
    "rewards_B": [[0.2, 0.3]],
    "prior": [1.0],
}

INPUTS = {
    "game1": GAME_1,
    "game3": GAME_3,
    "game_random": GAME_RANDOM,
    "objective2": OBJECTIVE_2,
    "objective3": OBJECTIVE_3,
}


def _cases():
    cases = {}
    for game in ("quickest_detection", "detector"):
        base = ["--builtin", game, "--horizon", "14"]
        cases[f"{game}-solve"] = ["solve", *base]
        cases[f"{game}-sweep"] = ["sweep", *base]
        cases[f"{game}-evaluate"] = ["evaluate", *base]
        cases[f"{game}-simulate"] = ["simulate", *base, "--trajectories", "1000"]
    # the rollout benchmark's games: 13 blocks of Monte Carlo streams, a
    # ragged last one, and at T=40 blocks that shrink as play ends
    for game, c in (("quickest_detection", "0.1"), ("detector", "0.15")):
        cases[f"{game}-simulate-100k"] = [
            "simulate", "--builtin", game, "--c", c, "--horizon", "40",
            "--seed", "0", "--trajectories", "100000",
        ]
    cases["game1-solve"] = ["solve", "--input", "{game1}"]
    cases["game1-evaluate"] = ["evaluate", "--input", "{game1}"]
    cases["game1-simulate"] = ["simulate", "--input", "{game1}", "--trajectories", "1000"]
    cases["game3-solve"] = ["solve", "--input", "{game3}"]
    cases["game3-evaluate"] = ["evaluate", "--input", "{game3}"]
    cases["game3-simulate"] = ["simulate", "--input", "{game3}", "--trajectories", "1000"]
    cases["game_random-evaluate"] = ["evaluate", "--input", "{game_random}", "--seed", "0"]
    cases["objective2-envelope"] = ["envelope", "--input", "{objective2}"]
    cases["objective3-envelope"] = ["envelope", "--input", "{objective3}"]
    return cases


CASES = _cases()

# case -> (exit status, sha256 of the artifact, artifact length in bytes)
GOLDENS = {
    "detector-evaluate": (
        0, "6bf4dbcc80b28ecc8ec63d9a2dad4aaa987769b16b9d62ec32d62dd176aba2a4", 333,
    ),
    "detector-simulate": (
        0, "a52cc2853febbcb21686bb5952995aa0f54140449ced2fa7c888a2de8582fbb8", 215,
    ),
    "detector-simulate-100k": (
        0, "39f3489a2963d7d9d45bfbbfff6bd411c16a4b7ca12216823dc41a6540b5baa6", 217,
    ),
    "detector-solve": (
        0, "7747a4ff87bb1195b18a995a31c2e78dc7fc3cece8cda0e50b6bf1355ce104f6", 15959,
    ),
    "detector-sweep": (
        0, "92e8f07df42584ee7142d8dc48c5ed69d5945bc4d31761698fc6afcfc6d57f8c", 1693,
    ),
    "game1-evaluate": (
        0, "49e313d4c711ce26dc7f3583bb3a944dff872b932d3c4777b175f1be36d69899", 314,
    ),
    "game1-simulate": (
        0, "872f9135eb5c81ae7eaa798c48253dba4750b01db631dcec0dbdf4ba1ab45008", 215,
    ),
    "game1-solve": (
        0, "e82cbf3fc50223abfaa8a2a42e3490e523f3d66ea5ec5a15b592b91a0a18c245", 1364,
    ),
    "game3-evaluate": (
        0, "9a5288b0e09a66ffd77b47800fa84b765be15366dcbe8daea70f70a127031a9b", 411,
    ),
    "game3-simulate": (
        0, "2f479f25d3366897f4c456552378c806aa5029d00d5b5859dafd18d05d59dd39", 221,
    ),
    "game3-solve": (
        0, "70c3a084bee63390d155ac04744d01760bf09081b43fa289138038c46636000b", 17084,
    ),
    "game_random-evaluate": (
        0, "90b434c6250d77bc4e32bccc5649e5c4005bd2fd8d44a00efbb1da82292ba507", 393,
    ),
    "objective2-envelope": (
        0, "ceac697d3c45594c20f7cc9217d777e8fe56497bd997682d7b1ae7ea4197bc9b", 232,
    ),
    "objective3-envelope": (
        0, "20feb89de7f29605220759aaae7bf1c9bb61df3615ff2afb6a2ef1fa4d3229bd", 788,
    ),
    "quickest_detection-evaluate": (
        0, "ee9233e816687d28b5c63d776f6aac0e185e3c8d5d8e5d3f2911c7122d4772e6", 413,
    ),
    "quickest_detection-simulate": (
        0, "0e57b08fd07b7a8c5d1d1121a21f111464b771d6cac6668ce4d95dde254d3198", 221,
    ),
    "quickest_detection-simulate-100k": (
        0, "c4ed3189ca69820f769ccf78cc6909b9597bb4669817f726084ad9baa873a59d", 240,
    ),
    "quickest_detection-solve": (
        0, "51855e24b49a25e874aa5f28e08978046d04d50252f56a6e0d9843659ffaf068", 25866,
    ),
    "quickest_detection-sweep": (
        0, "6b95d3613f40ed8096095f1636313146f7461765a09261e4a608b0d877fd2c31", 4391,
    ),
}


def run_case(name: str, workdir) -> tuple[int, bytes]:
    paths = {}
    for key, data in INPUTS.items():
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(data))
        paths[key] = str(path)
    out = workdir / f"{name}.out"
    argv = [arg.format(**paths) for arg in CASES[name]]
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_golden(name, tmp_path):
    code, data = run_case(name, tmp_path)
    assert (code, hashlib.sha256(data).hexdigest(), len(data)) == GOLDENS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDENS = {")
        for name in sorted(CASES):
            code, data = run_case(name, Path(tmp))
            digest = hashlib.sha256(data).hexdigest()
            print(f'    "{name}": (\n        {code}, "{digest}", {len(data)},\n    ),')
        print("}")
