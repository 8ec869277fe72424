import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalgame.cli import (
    ConfigError,
    RunConfig,
    builtin_example,
    main,
    run,
)
from signalgame import cli, geometry, solver
from signalgame.evaluator import simulate
from signalgame.game import save_spec
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


def test_main_reports_flat_hull_faces_with_the_stage(tmp_path, capsys):
    # A near-tie game with a stage-2 upper-hull face whose candidates are
    # collinear within 2e-17 in its own plane (Qhull's QH6154).  The
    # monotone chain walks that face as a segment, which adds no cell;
    # the game then stops with a typed coverage error.
    game = tmp_path / "game.json"
    game.write_text(json.dumps({
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
    }))
    for command in ("solve", "evaluate", "simulate"):
        assert main([command, "--input", str(game)]) == 2
        assert capsys.readouterr().err == "error: stage 2: point [0.75 0.   0.25] is not covered by any cell\n"


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


def test_evaluate_payload_and_exit_code(tmp_path):
    out = tmp_path / "eval.json"
    code = main([
        "evaluate", "--builtin", "quickest_detection", "--horizon", "8",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["format"] == "signalgame-evaluation-v3"
    assert payload["violations"] == []
    assert payload["value_gap"] <= 1e-9
    assert payload["max_receiver_gain"] <= 1e-9
    assert payload["max_principal_gain"] <= 1e-9
    assert payload["receiver_checked"] > 0
    assert payload["value_principal"] == pytest.approx(payload["exact_principal"], abs=1e-9)


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
