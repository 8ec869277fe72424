import collections
import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from near_tie_corpus import near_tie_game
from test_goldens import GAME_3

from signalgame.cli import (
    ConfigError,
    RunConfig,
    builtin_example,
    main,
    run,
)
from signalgame import cli, geometry, solver
from signalgame.evaluator import simulate
from signalgame.game import load_spec, save_spec, spec_from_dict, spec_to_dict
from signalgame.solver import solve


def test_builtin_quickest_detection_matrices():
    spec = builtin_example("quickest_detection", 0.2, 0.1, 4)
    assert spec.horizon == 4
    assert spec.states[0] == ("1", "2")
    assert spec.actions[0] == ("declare_1", "declare_2")
    assert spec.terminating[0] == frozenset({1})
    assert np.allclose(spec.kernels[0][:, 0, :], [[0.8, 0.2], [0.0, 1.0]])
    assert np.allclose(spec.kernels[0][:, 1, :], [[0.8, 0.2], [0.0, 1.0]])
    assert np.allclose(spec.rewards_principal[0], [[1.0, 0.0], [1.0, 0.0]])
    assert np.allclose(spec.rewards_receiver[0], [[0.0, -1.0], [-0.1, 0.0]])
    assert np.allclose(spec.prior, [1.0, 0.0])


def test_builtin_detector_matrices():
    spec = builtin_example("detector", 0.3, 0.15, 2)
    assert spec.states[0] == ("-1", "1")
    assert spec.actions[0] == ("declare_-1", "wait", "declare_1")
    assert spec.terminating[0] == frozenset({0, 2})
    for u in range(3):
        assert np.allclose(spec.kernels[0][:, u, :], [[0.7, 0.3], [0.3, 0.7]])
    assert np.allclose(spec.rewards_principal[0], [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(spec.rewards_receiver[0], [[1.0, -0.15, 0.0], [0.0, -0.15, 1.0]])
    assert np.allclose(spec.prior, [0.5, 0.5])


def test_builtin_parameter_errors():
    for bad in ({"p": 0.0}, {"p": 1.0}, {"c": -0.1}, {"c": 1.5}, {"horizon": 0},
                {"horizon": 2.5}, {"horizon": True}, {"horizon": "3"}):
        with pytest.raises(ConfigError):
            builtin_example("detector", **bad)
    assert builtin_example("detector", horizon=2.0).horizon == 2
    with pytest.raises(ConfigError):
        builtin_example("unknown_game")


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(command="optimize")
    with pytest.raises(ConfigError):
        RunConfig(command="solve")  # neither input nor builtin
    with pytest.raises(ConfigError):
        RunConfig(command="solve", input_path="a.json", builtin="detector")
    with pytest.raises(ConfigError):
        RunConfig(command="envelope")  # envelope requires an input file
    with pytest.raises(ConfigError):
        RunConfig(command="evaluate", builtin="detector", seed=-1)
    with pytest.raises(ConfigError):
        RunConfig(command="simulate", builtin="detector", trajectories=1)
    with pytest.raises(ConfigError):
        RunConfig(command="sweep", builtin="detector", depth=-1)
    cfg = RunConfig(command="solve", builtin="detector")
    assert cfg.horizon == 14 and cfg.p == 0.2


def test_run_config_refuses_builtin_parameters_with_an_input(tmp_path):
    path = tmp_path / "game.json"
    save_spec(builtin_example("detector", 0.2, 0.15, 2), path)
    out = tmp_path / "solution.json"
    with pytest.raises(ConfigError, match=r"do not apply to --input: --p, --horizon$"):
        run(RunConfig(command="solve", input_path=str(path), horizon=7, p=0.9, out=str(out)))
    assert not out.exists()
    for name, value in (("p", 0.9), ("c", 0.3), ("horizon", 7)):
        with pytest.raises(ConfigError, match=f"--{name}"):
            RunConfig(command="evaluate", input_path=str(path), **{name: value})
    # the builtin defaults fill in only for a builtin game
    cfg = RunConfig(command="solve", input_path=str(path))
    assert (cfg.p, cfg.c, cfg.horizon) == (None, None, None)
    assert run(RunConfig(command="solve", input_path=str(path), out=str(out))) == 0
    cfg = RunConfig(command="solve", builtin="quickest_detection", c=0.3)
    assert (cfg.p, cfg.c, cfg.horizon) == (0.2, 0.3, 14)


def test_main_reports_config_errors(capsys):
    code = main(["solve", "--builtin", "quickest_detection", "--p", "1.5"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    code = main(["sweep", "--builtin", "detector", "--horizon", "3", "--depth", "9"])
    assert code == 2
    assert "depth" in capsys.readouterr().err
    # the reachable belief DAG is bounded by the vertex counts; no node budget
    for command in ("solve", "sweep", "evaluate", "simulate"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--builtin", "detector", "--node-cap", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --node-cap" in capsys.readouterr().err
    # builtin parameters do not apply to a game file
    for flag, value in (("--p", "0.9"), ("--c", "0.3"), ("--horizon", "7")):
        code = main(["solve", "--input", "game.json", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
    code = main(["evaluate", "--builtin", "detector", "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    # the receiver's indifference tolerance is EPS_TIE, not an option
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--builtin", "detector", "--tie-tol", "1e-6"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tie-tol" in capsys.readouterr().err


def test_main_validates_an_input_game_once(tmp_path, capsys, monkeypatch):
    calls = []
    for module in (cli, solver):
        original = module.validate_spec
        monkeypatch.setattr(module, "validate_spec", lambda spec, f=original: calls.append(1) or f(spec))
    spec = builtin_example("detector", 0.2, 0.15, 3)
    good = tmp_path / "game.json"
    save_spec(spec, good)
    for command in ("solve", "evaluate", "simulate"):
        calls.clear()
        assert main([command, "--input", str(good), "--out", str(tmp_path / "out.json")]) == 0
        assert len(calls) == 1, command
    data = json.loads(good.read_text())
    data["prior"] = [0.7, 0.7]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["solve", "--input", str(bad)]) == 2
    assert capsys.readouterr().err == "error: prior: row 0: coordinates sum to 1.4, expected 1\n"


def test_main_reports_candidate_budget(tmp_path, capsys, monkeypatch):
    game = tmp_path / "game.json"
    game.write_text(json.dumps({
        "horizon": 2,
        "states": ["a", "b", "c"],
        "actions": ["u", "v"],
        "terminating": [],
        "kernel": [[[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]], [[0.1, 0.8, 0.1], [0.3, 0.3, 0.4]],
                   [[0.2, 0.2, 0.6], [0.5, 0.1, 0.4]]],
        "rewards_A": [[1.0, 0.2], [0.0, 0.7], [0.4, 0.9]],
        "rewards_B": [[0.6, -0.2], [-0.3, 0.5], [0.1, 0.2]],
        "prior": [0.4, 0.35, 0.25],
    }))
    assert main(["solve", "--input", str(game)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(geometry, "CANDIDATE_CAP", 1)
    for command in ("solve", "evaluate"):
        assert main([command, "--input", str(game)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stage 2: candidate enumeration over ")
        assert " functionals in 3 states needs " in err
        assert err.endswith(" subsets, over the cap of 1\n")


def test_main_solves_a_game_with_near_corner_candidates(tmp_path):
    # A near-tie game whose stage-2 candidates hold near copies of the
    # corner [0, 1, 0].  Kept in its place, such a copy left the corner
    # outside a neighbouring 8e-9-wide cell (weight -1.6e-8), and stage 1
    # could not locate it; candidate_vertices snaps it to the corner.
    game = tmp_path / "game.json"
    game.write_text(json.dumps({
        "horizon": 3,
        "states": ["x0", "x1", "x2"],
        "actions": ["u0", "u1"],
        "terminating": [],
        "kernel": [[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
                   [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]],
        "rewards_A": [[-0.999999999, 0.0], [1e-09, 1.000000002], [-0.9999999999, 1e-08]],
        "rewards_B": [[-0.999999999, 2e-09], [1e-08, 1.00000001], [1.00000001, 1.000000002]],
        "prior": [0.12017222434295911, 0.6999616207688908, 0.1798661548881502],
    }))
    for command in ("solve", "evaluate", "simulate"):
        assert main([command, "--input", str(game), "--out", str(tmp_path / command)]) == 0
    payload = json.loads((tmp_path / "evaluate").read_text())
    assert payload["violations"] == [] and payload["value_gap"] == 0.0


# A near-tie game with a stage-2 upper-hull face whose candidates are
# collinear within 2e-17 in its own plane (Qhull's QH6154).
FLAT_FACE_GAME = {
    "horizon": 3,
    "states": ["x0", "x1", "x2"],
    "actions": ["u0", "u1", "u2"],
    "terminating": [],
    "kernel": [[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
               [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
               [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]],
    "rewards_A": [[1.000000001, -0.999999999, 1.000000002], [1.00000001, 0.0, 1e-09],
                  [1e-08, 1e-10, 0.0]],
    "rewards_B": [[1e-08, 1e-10, -0.9999999999], [-0.99999999, 1e-08, 1.0],
                  [1e-09, -0.999999999, 1.0]],
    "prior": [0.1730801624849889, 0.4461758819705392, 0.38074395554447193],
}


def test_main_solves_a_game_with_a_flat_hull_face(tmp_path):
    # The monotone chain walks the flat face as a segment, which adds no
    # cell.  Stage 2 then evaluates stage 3 at [0.75, 0, 0.25] on the
    # simplex's edge, which stage 3's cell 4 misses by a weight of -1.6e-9
    # but by a distance of 2e-17: located by distance, the game solves.
    game = tmp_path / "game.json"
    game.write_text(json.dumps(FLAT_FACE_GAME))
    for command in ("solve", "evaluate", "simulate"):
        assert main([command, "--input", str(game), "--out", str(tmp_path / command)]) == 0
    tri = solve(spec_from_dict(FLAT_FACE_GAME)).stage(3).triangulation
    assert geometry.validate_triangulation(tri) == (True, [])
    cells, lam = tri.locate_many(np.array([[0.75, 0.0, 0.25]]))
    # its weight -1.6e-9 is clipped to zero
    assert cells.tolist() == [4] and lam[0, 1] == 0.0 and np.abs(lam[0] - [0.5, 0.0, 0.5]).max() < 1e-8


def test_main_reports_an_uncovered_point_with_the_stage(tmp_path, capsys):
    # Near-tie corpus game (3 states, seed 60): stage 1 evaluates stage 2
    # at a point 1.3e-9 from its nearest cell, beyond EPS_MEMBER.
    game = tmp_path / "game.json"
    game.write_text(json.dumps(near_tie_game(3, 60)))
    for command in ("solve", "evaluate", "simulate"):
        assert main([command, "--input", str(game)]) == 2
        assert capsys.readouterr().err == (
            "error: stage 1: point [1.22433629e-08 4.73008981e-09 9.99999983e-01] is not covered by any cell\n"
        )


def test_a_four_state_near_tie_game_solves_or_names_the_stage(tmp_path, capsys):
    # A one-shot 4-state near-tie game whose upper hull has 3-faces; it
    # exits 2 when those faces fail to tile the simplex.
    game = tmp_path / "game.json"
    game.write_text(json.dumps({
        "horizon": 1,
        "states": ["x0", "x1", "x2", "x3"],
        "actions": ["u0", "u1", "u2"],
        "terminating": [],
        "rewards_A": [[0.0, -0.999999998, 1.000000001], [1.000000002, 2e-09, 1e-08],
                      [1e-09, -0.999999999, 2e-09], [1.0, -0.999999998, 1e-10]],
        "rewards_B": [[1e-10, 1.0000000001, -1.0], [-0.999999999, 1e-09, -0.999999998],
                      [1e-09, -0.9999999999, -1.0], [-0.999999999, -0.9999999999, 0.0]],
        "prior": [0.25, 0.25, 0.25, 0.25],
    }))
    for command in ("solve", "evaluate", "simulate"):
        code = main([command, "--input", str(game), "--out", str(tmp_path / command)])
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and err.startswith("error: stage 1: ")), (command, code, err)


# Stage 1 of this near-tie game has the vertex (1e-8, 0.99999999, 0) on the
# edge from e1 to e0, and a nearly vertical lifted hull facet over it
# projects to the flat cell (1, 2, 4).
FLAT_CELL_GAME = {
    "horizon": 1,
    "states": ["x0", "x1", "x2"],
    "actions": ["u0", "u1", "u2"],
    "terminating": [],
    "rewards_A": [[0.99999999, 1e-09, -1.000000001], [-1.0, -1.0000000001, -1e-08],
                  [1e-08, 0.0, 0.999999999]],
    "rewards_B": [[1.00000001, -1e-10, -1.00000001], [-1e-08, 0.0, -1e-08],
                  [0.0, 0.9999999999, -0.999999999]],
    "prior": [0.3333333333333333, 0.3333333333333333, 0.3333333333333333],
}


@pytest.mark.parametrize("horizon", [1, 3])
def test_evaluate_drops_a_flat_cell_of_the_lifted_hull(tmp_path, horizon):
    # At horizon 3 the flat cell lands in stage 2, whose pieces stage 1 reads.
    spec = dict(FLAT_CELL_GAME, horizon=horizon)
    if horizon > 1:
        spec["kernel"] = [[[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                          [[1, 0, 0], [0, 1, 0], [0, 1, 0]]]
    game = tmp_path / "game.json"
    game.write_text(json.dumps(spec))
    assert main(["evaluate", "--input", str(game), "--out", str(tmp_path / "eval.json")]) == 0


# Rewards on the lattice {-1, 0, 1}, each moved by a near-tie perturbation.
_NEAR_TIE_REWARD = st.builds(
    lambda base, size, sign: base + sign * size,
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([0.0, 1e-10, 1e-9, 2e-9, 1e-8]),
    st.sampled_from([-1, 1]),
)


@st.composite
def _near_tie_games(draw):
    n, nu, horizon = draw(st.integers(2, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 3))
    rewards = st.lists(st.lists(_NEAR_TIE_REWARD, min_size=nu, max_size=nu), min_size=n, max_size=n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    game = {
        "horizon": horizon,
        "states": [f"x{i}" for i in range(n)],
        "actions": [f"u{i}" for i in range(nu)],
        "terminating": [],
        "rewards_A": draw(rewards),
        "rewards_B": draw(rewards),
        "prior": rng.dirichlet(np.ones(n)).tolist(),
    }
    if horizon > 1:
        deterministic = draw(st.booleans())
        kernel = np.eye(n)[rng.integers(0, n, (n, nu))] if deterministic else rng.dirichlet(np.ones(n), (n, nu))
        game["kernel"] = kernel.tolist()
    return game


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_near_tie_games())
def test_near_tie_games_solve_or_fail_with_a_typed_stage_error(game):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "game.json"
        path.write_text(json.dumps(game))
        for command in ("solve", "evaluate"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--input", str(path), "--out", str(Path(tmp) / command)])
            assert code in (0, 1) or (code == 2 and re.fullmatch(r"error: stage \d+: [^\n]+\n", err.getvalue()))


def test_evaluate_accepts_a_stored_action_on_the_tie_set_edge(tmp_path):
    # At belief [1, 0] the receiver's u1 is 1.000000082740371e-09 below u0:
    # receiver_best admits it (q >= top - EPS_TIE), so the deviation check
    # must not flag it, although the shortfall rounds above EPS_EQUILIBRIUM.
    game = tmp_path / "game.json"
    game.write_text(json.dumps({
        "horizon": 1,
        "states": ["x0", "x1"],
        "actions": ["u0", "u1"],
        "terminating": [],
        "rewards_A": [[0.0, 1.0], [0.0, 0.0]],
        "rewards_B": [[1.000000001, 1.0], [0.0, 1.0]],
        "prior": [0.5, 0.5],
    }))
    out = tmp_path / "eval.json"
    assert main(["evaluate", "--input", str(game), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["violations"] == []
    assert payload["max_receiver_gain"] == 1.000000082740371e-09
    assert payload["value_gap"] < 1e-9


def test_main_reports_envelope_divergence(monkeypatch, capsys):
    original = solver.argcav

    def shifted(psi, arrangement):
        envelope = original(psi, arrangement)
        return geometry.VertexInterpolant(envelope.triangulation, envelope.values + 1e-6)

    monkeypatch.setattr(solver, "argcav", shifted)
    assert main(["solve", "--builtin", "detector", "--horizon", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 3: envelope value diverges from the stage objective at vertex 0 (")


def test_solve_payload_contains_last_stage_table(tmp_path):
    out = tmp_path / "sol.json"
    code = main([
        "solve", "--builtin", "quickest_detection", "--p", "0.2", "--c", "0.1",
        "--horizon", "3", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["format"] == "signalgame-solution-v1"
    assert payload["horizon"] == 3
    assert payload["prior"] == [1.0, 0.0]
    last = payload["stages"][-1]
    assert last["stage"] == 3
    coords = [v["belief"][0] for v in last["vertices"]]
    assert coords[0] == pytest.approx(0.0)
    assert coords[1] == pytest.approx(1.0 / 11.0)
    assert coords[2] == pytest.approx(1.0)
    assert [v["value_principal"] for v in last["vertices"]] == [0.0, 1.0, 1.0]
    assert last["vertices"][1]["action_label"] == "declare_1"
    assert last["vertices"][0]["action_label"] == "declare_2"


def test_sweep_layout(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--builtin", "quickest_detection", "--horizon", "14",
        "--depth", "13", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# signalgame-sweep-v1")
    assert lines[1] == "stage,pi(1),value_principal,value_receiver,action"
    stages = [int(row.split(",")[0]) for row in lines[2:]]
    assert sorted(set(stages)) == list(range(1, 15))
    assert stages[0] == 14 and stages[-1] == 1
    # vertex rows parse back to floats exactly
    first = lines[2].split(",")
    assert float(first[1]) == 0.0
    assert first[4] in ("declare_1", "declare_2")


def test_sweep_default_depth_reaches_stage_one(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--builtin", "detector", "--horizon", "5", "--out", str(out)]) == 0
    stages = {int(r.split(",")[0]) for r in out.read_text().splitlines()[2:]}
    assert stages == {1, 2, 3, 4, 5}


def test_artifacts_are_byte_identical(tmp_path):
    pairs = []
    for name in ("a", "b"):
        sol = tmp_path / f"sol_{name}.json"
        swp = tmp_path / f"swp_{name}.csv"
        sim = tmp_path / f"sim_{name}.json"
        ev = tmp_path / f"ev_{name}.json"
        base = ["--builtin", "detector", "--p", "0.2", "--c", "0.15", "--horizon", "6"]
        assert main(["solve", *base, "--out", str(sol)]) == 0
        assert main(["sweep", *base, "--depth", "5", "--out", str(swp)]) == 0
        assert main(["simulate", *base, "--seed", "9", "--trajectories", "2000",
                     "--out", str(sim)]) == 0
        assert main(["evaluate", *base, "--seed", "9", "--out", str(ev)]) == 0
        pairs.append((sol.read_bytes(), swp.read_bytes(), sim.read_bytes(), ev.read_bytes()))
    assert pairs[0] == pairs[1]


def _reference_payload(solution):
    """The solve artifact's payload as one dict: the artifact is
    json.dumps(payload, indent=2, sort_keys=True) plus a newline."""
    spec = solution.spec

    def table(t):
        st = solution.stage(t)
        labels = spec.actions[t - 1]
        return {
            "stage": t,
            "states": list(spec.states[t - 1]),
            "actions": list(labels),
            "vertices": [
                {
                    "belief": belief,
                    "value_principal": value_a,
                    "value_receiver": value_b,
                    "action": action,
                    "action_label": labels[action],
                }
                for belief, value_a, value_b, action in zip(
                    st.triangulation.vertices.tolist(), st.values_principal.tolist(),
                    st.values_receiver.tolist(), st.vertex_actions)
            ],
            "simplices": st.triangulation.simplices.tolist(),
        }

    value_a, value_b = solution.values_at_prior()
    return {
        "format": "signalgame-solution-v1",
        "horizon": spec.horizon,
        "prior": [float(x) for x in spec.prior],
        "value_principal": value_a,
        "value_receiver": value_b,
        "stages": [table(t) for t in range(1, spec.horizon + 1)],
    }


def _reference_sweep(solution, depth):
    """The sweep artifact, one csv.writer row per vertex of every exported stage."""
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
    buf.write("# signalgame-sweep-v1 columns: stage, belief, value_principal, value_receiver, action\n")
    writer.writerow(["stage", *belief_cols, "value_principal", "value_receiver", "action"])
    for t in range(top, bottom - 1, -1):
        st = solution.stage(t)
        labels = spec.actions[t - 1]
        pad = [""] * (widest - spec.n_states(t))
        for coords, value_a, value_b, action in zip(
            st.triangulation.vertices.tolist(), st.values_principal.tolist(),
            st.values_receiver.tolist(), st.vertex_actions,
        ):
            belief = coords[:1] if widest <= 2 else coords + pad
            writer.writerow([t, *belief, value_a, value_b, labels[action]])
    return buf.getvalue()


def _random_game_4(seed=1):
    # 4 states, 2 actions, T=3: 28, 21 and 8 envelope vertices at seed 1
    rng = np.random.default_rng(seed)
    n, nu = 4, 2
    return {
        "horizon": 3,
        "states": [f"x{i}" for i in range(n)],
        "actions": [f"u{i}" for i in range(nu)],
        "terminating": ["u0"],
        "kernel": rng.dirichlet(np.ones(n), size=(n, nu)).tolist(),
        "rewards_A": rng.uniform(-1, 1, (n, nu)).tolist(),
        "rewards_B": rng.uniform(-1, 1, (n, nu)).tolist(),
        "prior": rng.dirichlet(np.ones(n)).tolist(),
    }


def _labelled_detector():
    # detector's numbers under labels that JSON escapes and CSV quotes: non-ASCII,
    # a quote, a comma, a backslash, a NUL, a line separator and a newline
    data = spec_to_dict(builtin_example("detector", 0.2, 0.15, 6))
    states = ["état\u2028\"à\"", "状態,\\\x00"]
    actions = ["déclarer_-1", "attendre\n\U0001f600", "déclarer\u2028_1"]
    data["states"] = [states] * data["horizon"]
    data["actions"] = [actions] * data["horizon"]
    data["terminating"] = [[actions[0], actions[2]]] * data["horizon"]
    return data


_ONE_STATE = {
    "horizon": 3, "states": ["only"], "actions": ["a", "b"], "terminating": ["b"],
    "kernel": [[[1.0], [1.0]]], "rewards_A": [[1.0, 0.5]], "rewards_B": [[0.2, 0.3]], "prior": [1.0],
}


def _artifact_games():
    games = {
        f"{name}-{horizon}": builtin_example(name, 0.2, 0.1, horizon)
        for name in ("quickest_detection", "detector") for horizon in (1, 2, 14, 100)
    }
    games["game3"] = spec_from_dict(GAME_3)
    games["random4"] = spec_from_dict(_random_game_4())
    # one kernel, reward and label object per stage, byte-equal to the shorthand's
    games["quickest_detection-100-per-stage"] = spec_from_dict(
        json.loads(json.dumps(spec_to_dict(builtin_example("quickest_detection", 0.2, 0.1, 100)))))
    games["labels"] = spec_from_dict(_labelled_detector())
    # equal numbers under other labels at each stage: the stages share
    # their solutions, and each table must still carry its own labels
    data = spec_to_dict(builtin_example("detector", 0.2, 0.1, 8))
    data["states"] = [[f"low{t}", f"high{t}"] for t in range(8)]
    data["actions"] = [[f"down{t}", f"wait{t}", f"up{t}"] for t in range(8)]
    data["terminating"] = [[f"down{t}", f"up{t}"] for t in range(8)]
    games["relabelled"] = spec_from_dict(data)
    games["one-state"] = spec_from_dict(_ONE_STATE)
    return games


_ARTIFACT_GAMES = _artifact_games()


@pytest.mark.parametrize("name", list(_ARTIFACT_GAMES))
def test_solve_artifact_is_json_dumps_of_the_reference_payload(tmp_path, name):
    path = tmp_path / "game.json"
    save_spec(_ARTIFACT_GAMES[name], path)
    out = tmp_path / "solution.json"
    assert main(["solve", "--input", str(path), "--out", str(out)]) == 0
    want = json.dumps(_reference_payload(solve(load_spec(path))), indent=2, sort_keys=True) + "\n"
    assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("name", list(_ARTIFACT_GAMES))
def test_sweep_artifact_is_the_csv_writer_reference(tmp_path, name):
    path = tmp_path / "game.json"
    save_spec(_ARTIFACT_GAMES[name], path)
    sol = solve(load_spec(path))
    for depth in sorted({0, 1, sol.spec.horizon - 1, sol.spec.horizon}):
        out = tmp_path / f"sweep_{depth}.csv"
        assert main(["sweep", "--input", str(path), "--depth", str(depth), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            assert fh.read() == _reference_sweep(sol, depth), depth


@pytest.mark.parametrize("name", ["detector-100", "quickest_detection-100", "quickest_detection-100-per-stage"])
def test_solve_formats_each_distinct_table_and_geometry_once(monkeypatch, name):
    sol = solve(_ARTIFACT_GAMES[name])
    calls = collections.Counter()
    for helper in ("_json_array", "_json_object"):
        original = getattr(cli, helper)
        monkeypatch.setattr(cli, helper, lambda items, pad, f=original, h=helper: calls.update([(h, pad)]) or f(items, pad))
    text = "".join(cli._solution_chunks(sol, *sol.values_at_prior()))
    assert text == json.dumps(_reference_payload(sol), indent=2, sort_keys=True) + "\n"
    # the per-stage copy holds a label tuple per stage: tables key on the labels' values
    tables = {(id(st), sol.spec.states[t], sol.spec.actions[t]) for t, st in enumerate(sol.stages)}
    assert calls["_json_object", " " * 4] == len({id(st) for st in sol.stages}) == len(tables)
    vertices = {tri.vertices.tobytes(): tri.n_vertices for tri in (st.triangulation for st in sol.stages)}
    cells = {tri.simplices.tobytes(): len(tri.simplices) for tri in (st.triangulation for st in sol.stages)}
    assert calls["_json_array", " " * 10] == sum(vertices.values())
    assert calls["_json_array", " " * 8] == sum(cells.values())
    if name.startswith("quickest_detection"):
        # 100 distinct stage solutions on 10 triangulations
        assert len(tables) == 100 and len(vertices) == 10


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_stdout_and_out_write_the_same_bytes(tmp_path, command):
    argv = [command, "--builtin", "quickest_detection", "--horizon", "20"]
    out = tmp_path / "artifact"
    assert main([*argv, "--out", str(out)]) == 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    assert buf.getvalue().encode() == out.read_bytes()


def test_writing_a_long_solve_artifact_holds_little_memory(tmp_path, monkeypatch):
    # the artifact is 23 MB, and its text is streamed in per-stage chunks
    sol = solve(builtin_example("detector", 0.2, 0.1, 20_000))
    monkeypatch.setattr(cli, "_load_game", lambda cfg: sol.spec)
    monkeypatch.setattr(cli, "solve", lambda spec: sol)
    out = tmp_path / "long.json"
    tracemalloc.start()
    try:
        assert run(RunConfig(command="solve", builtin="detector", horizon=20_000, out=str(out))) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    with open(out, "rb") as fh:
        fh.seek(-200_000, os.SEEK_END)
        tail = fh.read().decode()
    assert tail.endswith('\n    }\n  ],\n  "value_principal": %r,\n  "value_receiver": %r\n}\n' % sol.values_at_prior())
    assert '"stage": 20000,' in tail


def test_main_builds_its_parser_once_and_keeps_each_artifact(tmp_path):
    cli._build_parser.cache_clear()
    commands = {
        "solve": ["solve", "--builtin", "detector", "--horizon", "6"],
        "simulate": ["simulate", "--builtin", "detector", "--horizon", "6", "--seed", "4", "--trajectories", "500"],
    }
    written = {name: [] for name in commands}
    for name in ("solve", "simulate", "solve", "simulate"):
        out = tmp_path / "artifact"
        assert main([*commands[name], "--out", str(out)]) == 0
        written[name].append(out.read_bytes())
    assert cli._build_parser.cache_info().misses == 1
    sol = solve(builtin_example("detector", 0.2, 0.1, 6))
    assert written["solve"] == [(json.dumps(_reference_payload(sol), indent=2, sort_keys=True) + "\n").encode()] * 2
    report = simulate(sol, seed=4, trajectories=500)
    want = json.dumps({"format": "signalgame-simulation-v2", **dataclasses.asdict(report)}, indent=2, sort_keys=True)
    assert written["simulate"] == [(want + "\n").encode()] * 2


def test_evaluate_payload_and_exit_code(tmp_path):
    out = tmp_path / "eval.json"
    code = main([
        "evaluate", "--builtin", "quickest_detection", "--horizon", "8",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["format"] == "signalgame-evaluation-v4"
    assert payload["violations"] == []
    assert payload["value_gap"] <= 1e-9
    assert payload["max_receiver_gain"] <= 1e-9
    assert payload["max_principal_gain"] <= 1e-9
    assert payload["receiver_checked"] > 0
    assert payload["value_principal"] == pytest.approx(payload["exact_principal"], abs=1e-9)


def test_evaluate_at_a_long_stationary_horizon(tmp_path):
    # 10^5 stages hold 5 distinct stage solutions: the deviation check
    # draws random probes for those 5 and replays their verdicts
    out = tmp_path / "eval.json"
    code = main(["evaluate", "--builtin", "detector", "--horizon", "100000", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["violations"] == [] and payload["value_gap"] <= 1e-9
    assert payload["receiver_checked"] > 100000


def test_simulate_payload_matches_library_call(tmp_path):
    out = tmp_path / "sim.json"
    code = main([
        "simulate", "--builtin", "detector", "--horizon", "5", "--seed", "21",
        "--trajectories", "3000", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    report = simulate(solve(builtin_example("detector", 0.2, 0.1, 5)), seed=21, trajectories=3000)
    assert payload["mean_principal"] == report.mean_principal
    assert payload["mean_receiver"] == report.mean_receiver
    assert payload["stderr_principal"] == report.stderr_principal
    assert payload["seed"] == 21 and payload["trajectories"] == 3000


def test_envelope_two_state_oracle(tmp_path):
    src = tmp_path / "objective.json"
    src.write_text(json.dumps({
        "states": 2,
        "pieces": [{"min_of": [
            {"weights": [1.0, 0.0], "offset": 0.0},
            {"weights": [0.0, 1.0], "offset": 0.0},
        ]}],
    }))
    out = tmp_path / "envelope.json"
    assert main(["envelope", "--input", str(src), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["format"] == "signalgame-envelope-v1"
    assert payload["states"] == 2
    order = np.argsort([v[0] for v in payload["vertices"]])
    verts = np.asarray(payload["vertices"])[order]
    vals = np.asarray(payload["values"])[order]
    assert np.allclose(verts, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]], atol=1e-12)
    assert np.allclose(vals, [0.0, 0.5, 0.0], atol=1e-12)


def test_envelope_input_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["envelope", "--input", str(missing)]) == 2
    assert "cannot read" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{\n  \"states\": 2,\n")
    assert main(["envelope", "--input", str(broken)]) == 2
    assert ":3:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"states": 2, "pieces": [{"weights": [1.0]}]}))
    assert main(["envelope", "--input", str(bad)]) == 2
    assert "pieces[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--builtin", "detector", "--horizon", "3"],
        ["sweep", "--builtin", "detector", "--horizon", "3", "--depth", "1"],
        ["evaluate", "--builtin", "detector", "--horizon", "3"],
        ["simulate", "--builtin", "detector", "--horizon", "3", "--trajectories", "10"],
        ["envelope"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_a_typed_error(tmp_path, capsys, argv):
    if argv == ["envelope"]:
        src = tmp_path / "objective.json"
        src.write_text(json.dumps({"states": 2, "pieces": [{"weights": [1.0, 0.0], "offset": 0.0}]}))
        argv = argv + ["--input", str(src)]
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_game_input_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["solve", "--input", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}:")

    broken = tmp_path / "bad.json"
    broken.write_text("{\n  \"horizon\": 2,\n")
    assert main(["solve", "--input", str(broken)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {broken}: not valid JSON (")

    game = {
        "horizon": 2,
        "states": ["a", "b"],
        "actions": ["go", "stop"],
        "terminating": ["stop"],
        "kernel": [[[0.8, 0.2], [0.4, 0.6]], [[0.0, 1.0], [0.0, 1.0]]],
        "rewards_A": [[1.0, 0.0], [0.0, 1.0]],
        "rewards_B": [[0.0, 1.0], [1.0, 0.0]],
        "prior": [0.5, 0.5],
    }
    malformed = [
        ("states", 5),
        ("actions", "go"),
        ("terminating", 3),
        ("terminating", [["stop"], 3]),
        ("kernel", "abc"),
        ("rewards_A", [[1.0, 0.0], [0.0]]),
        ("prior", "x"),
        ("horizon", 2.5),
        ("horizon", "2"),
    ]
    path = tmp_path / "malformed.json"
    for field, value in malformed:
        path.write_text(json.dumps({**game, field: value}))
        assert main(["solve", "--input", str(path)]) == 2, field
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, (field, err)
    path.write_text(json.dumps({**game, "horizon": 2.0}))
    assert main(["solve", "--input", str(path)]) == 0
    capsys.readouterr()

    for min_of in (5, None, []):
        path.write_text(json.dumps({"states": 2, "pieces": [{"min_of": min_of}]}))
        assert main(["envelope", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pieces[0]: min_of must be a nonempty list"), err


def test_envelope_rejects_non_finite_offset(tmp_path, capsys):
    for offset in (float("nan"), float("inf")):
        bad = tmp_path / "offset.json"
        bad.write_text(json.dumps({
            "states": 2,
            "pieces": [
                {"weights": [0.0, 1.0], "offset": 0.0},
                {"min_of": [{"weights": [1.0, 0.0], "offset": offset}]},
            ],
        }))
        assert main(["envelope", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "pieces[1].min_of[0]" in err and "offset" in err


def test_oversized_horizon_exits_2_naming_the_value(tmp_path, capsys):
    # a horizon above sys.maxsize cannot size the per-stage tuples
    path = tmp_path / "huge.json"
    save_spec(builtin_example("detector", horizon=2), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "horizon": 1e300}))
    for argv, value in (
        (["solve", "--builtin", "detector", "--horizon", str(10**20)], str(10**20)),
        (["solve", "--input", str(path)], "1e+300"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: horizon {value} exceeds the largest index") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--builtin", "detector", "--horizon", "1000000000"],
        ["simulate", "--builtin", "detector", "--horizon", "5", "--trajectories", "1000000000000"],
    ],
    ids=["solve-horizon", "simulate-trajectories"],
)
def test_out_of_memory_exits_2_with_one_error_line(argv):
    # a bare MemoryError (the per-stage tuples) and NumPy's _ArrayMemoryError
    # (the trajectory arrays), in a child whose address space is capped at 2 GiB
    resource = pytest.importorskip("resource")
    cap = 2 << 30
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys; from signalgame.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    (line,) = out.stderr.splitlines()
    assert line.startswith(f"error: out of memory in {argv[0]}"), line


def test_module_form_runs_the_command_line():
    argv = ["solve", "--builtin", "detector", "--horizon", "3"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "signalgame", *argv], env=env, capture_output=True, timeout=120
    )
    assert out.returncode == 0 and out.stderr == b""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    assert out.stdout == buf.getvalue().encode()


@pytest.mark.parametrize("states", [2.7, "2", True])
def test_envelope_rejects_states_that_are_not_whole(tmp_path, capsys, states):
    path = tmp_path / "envelope.json"
    path.write_text(json.dumps({"states": states, "pieces": [{"weights": [1.0, 0.0]}]}))
    assert main(["envelope", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: envelope input needs 'states' and 'pieces': states must be a whole number, got {states!r}\n"


def test_envelope_accepts_an_integral_float_states(tmp_path):
    outputs = []
    for states in (2, 2.0):
        path = tmp_path / f"envelope_{states}.json"
        out = tmp_path / f"out_{states}.json"
        path.write_text(json.dumps({"states": states, "pieces": [{"weights": [1.0, 0.0]}, {"weights": [0.0, 1.0]}]}))
        assert main(["envelope", "--input", str(path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_saved_builtin_solves_identically(tmp_path):
    spec = builtin_example("detector", 0.2, 0.15, 5)
    path = tmp_path / "game.json"
    save_spec(spec, path)
    from_builtin = tmp_path / "builtin.json"
    from_file = tmp_path / "file.json"
    base = ["--p", "0.2", "--c", "0.15", "--horizon", "5"]
    assert main(["solve", "--builtin", "detector", *base, "--out", str(from_builtin)]) == 0
    assert main(["solve", "--input", str(path), "--out", str(from_file)]) == 0
    assert from_builtin.read_bytes() == from_file.read_bytes()


def test_run_writes_to_stdout_without_out(capsys):
    cfg = RunConfig(command="solve", builtin="quickest_detection", horizon=2)
    assert run(cfg) == 0
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert payload["format"] == "signalgame-solution-v1"


@pytest.mark.parametrize(
    "data, fragment",
    [
        ([1, 2], "envelope input must be a JSON object"),
        ({"pieces": [{"weights": [1.0, 0.0]}]}, "envelope input needs 'states' and 'pieces'"),
        ({"states": "two", "pieces": [{"weights": [1.0, 0.0]}]}, "envelope input needs 'states' and 'pieces'"),
        ({"states": 0, "pieces": [{"weights": []}]}, "states >= 1 and a nonempty piece list"),
        ({"states": 2, "pieces": []}, "states >= 1 and a nonempty piece list"),
        ({"states": 2, "pieces": {"weights": [1.0, 0.0]}}, "states >= 1 and a nonempty piece list"),
        ({"states": 2, "pieces": [{"min_of": []}]}, r"pieces\[0\]: min_of must be a nonempty list"),
        ({"states": 2, "pieces": [[1.0, 0.0]]}, r"pieces\[0\]: expected an object with 'weights' and 'offset'"),
        ({"states": 2, "pieces": [{"offset": 1.0}]}, r"pieces\[0\]: expected an object with 'weights' and 'offset'"),
        ({"states": 2, "pieces": [{"min_of": [{"weights": ["a", 0.0]}]}]}, r"pieces\[0\]\.min_of\[0\]: could not convert"),
        ({"states": 2, "pieces": [{"weights": [1.0, 0.0], "offset": "b"}]}, r"pieces\[0\]: could not convert"),
        ({"states": 2, "pieces": [{"weights": [[1.0, 0.0]]}]}, r"pieces\[0\]: weights must be a finite vector"),
        ({"states": 2, "pieces": [{"weights": [1.0, float("nan")]}]}, r"pieces\[0\]: weights must be a finite vector"),
        ({"states": 2, "pieces": [{"weights": [1.0, 0.0, 0.0]}]}, r"pieces\[0\]: expected 2 weights, got 3"),
    ],
    ids=[
        "array", "no-states", "states-not-int", "no-states-count", "no-pieces", "pieces-not-list",
        "empty-min-of", "piece-not-object", "no-weights", "weights-not-numbers", "offset-not-number",
        "weights-matrix", "weights-nan", "weights-count",
    ],
)
def test_envelope_payload_names_each_input_problem(data, fragment):
    with pytest.raises(ConfigError, match=fragment):
        cli._envelope_payload(data)
