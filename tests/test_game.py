import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from signalgame import game
from signalgame.cli import builtin_example, main
from signalgame.game import (
    Belief,
    Experiment,
    GameSpec,
    SpecValidationError,
    bayes_update,
    induced_distribution,
    load_spec,
    push_forward,
    save_spec,
    spec_from_dict,
    spec_to_dict,
    split_experiment,
    validate_spec,
)
from signalgame.game import _signal_kernel
from signalgame.geometry import EPS_GEOM, SupportMeasure
from signalgame.solver import solve


def _tiny_spec(horizon=2):
    kernel = np.array([[[0.8, 0.2], [0.4, 0.6]], [[0.0, 1.0], [0.0, 1.0]]])
    return GameSpec(
        horizon=horizon,
        states=(("a", "b"),) * horizon,
        actions=(("u0", "u1"),) * horizon,
        terminating=(frozenset(),) * horizon,
        kernels=(kernel,) * (horizon - 1),
        rewards_principal=(np.array([[1.0, 0.0], [0.0, 1.0]]),) * horizon,
        rewards_receiver=(np.array([[0.0, 1.0], [1.0, 0.0]]),) * horizon,
        prior=np.array([0.5, 0.5]),
    )


def test_gamespec_structural_errors():
    with pytest.raises(SpecValidationError):
        _tiny_spec(horizon=0)
    with pytest.raises(SpecValidationError):
        GameSpec(
            horizon=2,
            states=(("a", "b"),),  # one stage missing
            actions=(("u0",),) * 2,
            terminating=(frozenset(),) * 2,
            kernels=(np.ones((2, 1, 2)) / 2,),
            rewards_principal=(np.zeros((2, 1)),) * 2,
            rewards_receiver=(np.zeros((2, 1)),) * 2,
            prior=[0.5, 0.5],
        )
    with pytest.raises(SpecValidationError):
        GameSpec(
            horizon=1,
            states=(("a", "b"),),
            actions=(("u0",),),
            terminating=(frozenset(),),
            kernels=(),
            rewards_principal=(np.zeros((3, 1)),),  # wrong shape
            rewards_receiver=(np.zeros((2, 1)),),
            prior=[0.5, 0.5],
        )
    with pytest.raises(SpecValidationError):
        GameSpec(
            horizon=1,
            states=(("a", "b"),),
            actions=(("u0",),),
            terminating=(frozenset(),),
            kernels=(),
            rewards_principal=(np.zeros((2, 1)),),
            rewards_receiver=(np.zeros((2, 1)),),
            prior=[0.5, 0.5, 0.0],  # wrong length
        )


def test_gamespec_accessors():
    spec = _tiny_spec()
    assert spec.n_states(1) == 2
    assert spec.n_actions(2) == 2
    assert spec.kernel_at(1).shape == (2, 2, 2)
    with pytest.raises(ValueError):
        spec.kernel_at(2)
    assert not spec.is_terminating(1, 0)
    with pytest.raises(ValueError):
        spec.n_states(3)


def test_validate_spec_diagnostics():
    spec = _tiny_spec()
    ok, problems = validate_spec(spec)
    assert ok and not problems

    bad_kernel = np.array([[[0.8, 0.1], [0.4, 0.6]], [[0.0, 1.0], [0.0, 1.0]]])
    spec2 = GameSpec(
        horizon=2,
        states=spec.states,
        actions=spec.actions,
        terminating=spec.terminating,
        kernels=(bad_kernel,),
        rewards_principal=spec.rewards_principal,
        rewards_receiver=spec.rewards_receiver,
        prior=spec.prior,
    )
    ok, problems = validate_spec(spec2)
    assert not ok
    assert any("sum to one" in p for p in problems)

    spec3 = GameSpec(
        horizon=1,
        states=(("a", "a"),),  # duplicate label
        actions=(("u0", "u1"),),
        terminating=(frozenset({5}),),  # out of range
        kernels=(),
        rewards_principal=(np.array([[1.0, np.inf], [0.0, 0.0]]),),
        rewards_receiver=(np.zeros((2, 2)),),
        prior=[0.5, 0.5],
    )
    ok, problems = validate_spec(spec3)
    assert not ok
    assert len(problems) >= 3


def _counting(monkeypatch, name):
    calls = []
    original = getattr(game, name)
    monkeypatch.setattr(game, name, lambda *a: calls.append(a) or original(*a))
    return calls


def test_validate_spec_checks_each_distinct_kernel_once(monkeypatch):
    spec = builtin_example("detector", 0.2, 0.15, 20_000)
    kernels = list(spec.kernels)
    bad = kernels[12_344].copy()
    bad[1, 0] = [0.8, 0.3]
    kernels[12_344] = bad
    bad_spec = dataclasses.replace(spec, kernels=tuple(kernels))
    checks = _counting(monkeypatch, "as_simplex_points")
    assert validate_spec(spec) == (True, [])
    assert len(checks) == 1
    checks.clear()
    # the shared kernel and the replaced one
    assert validate_spec(bad_spec) == (False, [
        "stage 12345: kernel rows must be finite, nonnegative and sum to one: "
        "row (1, 0): coordinates sum to 1.1, expected 1"
    ])
    assert len(checks) == 2


def test_validate_spec_reports_each_stage_of_a_shared_bad_kernel(monkeypatch):
    spec = _tiny_spec(horizon=4)
    bad = np.array([[[0.8, 0.1], [0.4, 0.6]], [[0.0, 1.0], [0.0, 1.0]]])
    checks = _counting(monkeypatch, "as_simplex_points")
    ok, problems = validate_spec(dataclasses.replace(spec, kernels=(bad, spec.kernels[0], bad)))
    rows = "kernel rows must be finite, nonnegative and sum to one: row (0, 0): coordinates sum to 0.9, expected 1"
    assert (ok, problems) == (False, [f"stage 1: {rows}", f"stage 3: {rows}"])
    assert len(checks) == 2


def test_validate_spec_reports_problems_stage_by_stage():
    sizes = [2, 3, 3, 2, 3, 2]
    horizon = len(sizes)
    rng = np.random.default_rng(3)
    kernels = [rng.dirichlet(np.ones(sizes[t + 1]), size=(sizes[t], 2)) for t in range(horizon - 1)]
    kernels[3][1, 0] = [0.5, 0.25, 0.5]
    kernels[1][2, 1] = [1.5, -0.5, 0.0]
    kernels[4][0, 1] = [np.nan, 1.0]
    rewards_b = [np.zeros((s, 2)) for s in sizes]
    rewards_b[2][1, 1] = np.inf
    actions = [("u", "v")] * horizon
    actions[1] = ("u", "u")
    spec = GameSpec(
        horizon=horizon,
        states=tuple(tuple(f"x{i}" for i in range(s)) for s in sizes),
        actions=tuple(actions),
        terminating=(frozenset(),) * horizon,
        kernels=tuple(kernels),
        rewards_principal=tuple(np.zeros((s, 2)) for s in sizes),
        rewards_receiver=tuple(rewards_b),
        prior=[0.5, 0.5],
    )
    rows = "kernel rows must be finite, nonnegative and sum to one"
    assert validate_spec(spec) == (False, [
        "stage 2: duplicate action labels",
        f"stage 2: {rows}: row (2, 1): negative coordinate -5.000e-01 below tolerance -1.0e-12",
        "stage 3: non-finite receiver reward",
        f"stage 4: {rows}: row (1, 0): coordinates sum to 1.25, expected 1",
        f"stage 5: {rows}: row (0, 1): coordinates must be finite",
    ])


def test_validate_spec_row_sum_tolerance_is_tight():
    kernel = np.array([[[0.8, 0.2 + 5e-11], [0.4, 0.6]], [[0.0, 1.0], [0.0, 1.0]]])
    spec = _tiny_spec()
    loose = GameSpec(
        horizon=2,
        states=spec.states,
        actions=spec.actions,
        terminating=spec.terminating,
        kernels=(kernel,),
        rewards_principal=spec.rewards_principal,
        rewards_receiver=spec.rewards_receiver,
        prior=spec.prior,
    )
    ok, problems = validate_spec(loose)
    assert not ok


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_rows_sum_to_one_within_eps_geom_per_coordinate(n):
    # One rule for experiment and transition kernel rows: within EPS_GEOM
    # per coordinate, so EPS_GEOM * n for a row of length n.
    def spec_with(kernel):
        return GameSpec(
            horizon=2,
            states=(tuple(f"x{i}" for i in range(n)),) * 2,
            actions=(("u",),) * 2,
            terminating=(frozenset(),) * 2,
            kernels=(kernel,),
            rewards_principal=(np.zeros((n, 1)),) * 2,
            rewards_receiver=(np.zeros((n, 1)),) * 2,
            prior=np.full(n, 1.0 / n),
        )

    rows = np.full((n, n), 1.0 / n)
    rows[-1, -1] += 0.5 * n * EPS_GEOM
    assert Experiment(rows).kernel.shape == (n, n)
    assert validate_spec(spec_with(rows[:, None, :])) == (True, [])
    rows[-1, -1] += 1.5 * n * EPS_GEOM
    with pytest.raises(ValueError, match=rf"^experiment kernel row {n - 1}: coordinates sum to "):
        Experiment(rows)
    ok, problems = validate_spec(spec_with(rows[:, None, :]))
    assert not ok and len(problems) == 1
    assert "sum to one" in problems[0] and f"row ({n - 1}, 0): coordinates sum to " in problems[0]


def test_experiment_validation():
    e = Experiment([[0.8, 0.2], [0.4, 0.6]])
    assert e.kernel.shape == (2, 2)
    assert np.allclose(e.kernel.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        Experiment([[0.8, 0.1], [0.4, 0.6]])
    with pytest.raises(ValueError):
        Experiment([[1.2, -0.2], [0.4, 0.6]])
    with pytest.raises(ValueError):
        Experiment([[0.5, 0.5 + 1e-10], [0.4, 0.6]])
    labeled = Experiment([[1.0], [1.0]], labels=(4,))
    assert labeled.labels == (4,)


def test_belief_stamping():
    b = Belief(2, [0.3, 0.7])
    assert b.stage == 2
    assert np.allclose(b.coords, [0.3, 0.7])
    with pytest.raises(ValueError):
        Belief(0, [0.3, 0.7])


def test_bayes_update_oracle():
    e = Experiment([[0.8, 0.2], [0.4, 0.6]])
    post0 = bayes_update([0.5, 0.5], e, 0)
    assert np.allclose(post0, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    post1 = bayes_update([0.5, 0.5], e, 1)
    assert np.allclose(post1, [0.25, 0.75], atol=1e-12)
    with pytest.raises(ValueError):
        bayes_update([0.5, 0.5], e, 2)


def test_bayes_update_zero_probability_message_is_uniform():
    e = Experiment([[1.0, 0.0], [1.0, 0.0]])
    post = bayes_update([0.3, 0.7], e, 1)
    assert np.allclose(post, [0.5, 0.5])


def test_bayes_consistency_property():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n, m = int(rng.integers(2, 4)), int(rng.integers(1, 5))
        pi = rng.dirichlet(np.ones(n))
        e = Experiment(rng.dirichlet(np.ones(m), size=n))
        probs = pi @ e.kernel
        total = np.zeros(n)
        for msg in range(m):
            if probs[msg] > 0:
                total += probs[msg] * bayes_update(pi, e, msg)
        assert np.allclose(total, pi, atol=1e-9)


def test_push_forward_oracle_and_errors():
    spec = _tiny_spec()
    out = push_forward(spec, 1, [1.0, 0.0], 0)
    assert np.allclose(out, [0.8, 0.2])
    out = push_forward(spec, 1, [0.5, 0.5], 1)
    assert np.allclose(out, [0.2, 0.8])
    with pytest.raises(ValueError):
        push_forward(spec, 2, [0.5, 0.5], 0)  # last stage
    term = GameSpec(
        horizon=2,
        states=spec.states,
        actions=spec.actions,
        terminating=(frozenset({0}), frozenset()),
        kernels=spec.kernels,
        rewards_principal=spec.rewards_principal,
        rewards_receiver=spec.rewards_receiver,
        prior=spec.prior,
    )
    with pytest.raises(ValueError):
        push_forward(term, 1, [0.5, 0.5], 0)


def test_induced_distribution_oracle():
    e = Experiment([[0.8, 0.2], [0.4, 0.6]])
    mu = induced_distribution([0.5, 0.5], e)
    assert mu.n_atoms == 2
    assert np.allclose(mu.points[0], [0.25, 0.75], atol=1e-12)
    assert np.allclose(mu.points[1], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert np.allclose(mu.weights, [0.4, 0.6], atol=1e-12)


def test_induced_distribution_merges_duplicate_posteriors():
    e = Experiment([[0.25, 0.25, 0.5], [0.25, 0.25, 0.5]])  # all messages uninformative
    mu = induced_distribution([0.3, 0.7], e)
    assert mu.n_atoms == 1
    assert np.allclose(mu.points[0], [0.3, 0.7])
    assert np.allclose(mu.weights, [1.0])


def test_induced_distribution_martingale_property():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n, m = int(rng.integers(2, 4)), int(rng.integers(1, 6))
        pi = rng.dirichlet(np.ones(n))
        e = Experiment(rng.dirichlet(np.ones(m), size=n))
        mu = induced_distribution(pi, e)
        assert np.allclose(mu.mean(), pi, atol=1e-9)


def test_split_experiment_oracle():
    # splitting pi(a)=0.05 between the posteriors pi(a)=0 and pi(a)=1/11
    measure = SupportMeasure([[0.0, 1.0], [1.0 / 11.0, 10.0 / 11.0]], [0.45, 0.55])
    e = split_experiment([0.05, 0.95], measure)
    assert np.allclose(e.kernel, [[0.0, 1.0], [9.0 / 19.0, 10.0 / 19.0]], atol=1e-12)


def test_split_experiment_zero_mass_state_uniform_row():
    measure = SupportMeasure([[0.0, 1.0]], [1.0])
    e = split_experiment([0.0, 1.0], measure)
    assert np.allclose(e.kernel[0], [1.0])
    mu = induced_distribution([0.0, 1.0], e)
    assert np.allclose(mu.points[0], [0.0, 1.0])


def test_signal_kernel_matches_per_state_loop():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        atoms = rng.dirichlet(np.ones(n), size=k)
        atoms[:, rng.random(n) < 0.3] = 0.0  # some states carry no mass
        weights = rng.dirichlet(np.ones(k))
        pi = weights @ atoms
        want = np.empty((n, k))
        for x in range(n):
            if pi[x] > EPS_GEOM:
                want[x] = weights * atoms[:, x] / pi[x]
            else:
                want[x] = 1.0 / k
        want = np.clip(want, 0.0, None)
        want /= want.sum(axis=1, keepdims=True)
        assert np.array_equal(_signal_kernel(pi, weights, atoms), want)


def test_signal_kernel_broadcasts_over_zero_padded_rows():
    # rows padded with zero-weight messages, stacked: each row's kernel is
    # the unpadded call's, and the padding messages get no mass
    rng = np.random.default_rng(11)
    n, width, rows = 3, 4, 40
    pis = np.empty((rows, n))
    weights = np.zeros((rows, width))
    atoms = rng.dirichlet(np.ones(n), size=(rows, width))
    want = np.zeros((rows, n, width))
    for i in range(rows):
        k = int(rng.integers(1, width + 1))
        atoms[i, :k, rng.random(n) < 0.3] = 0.0  # some states carry no mass
        weights[i, :k] = rng.dirichlet(np.ones(k))
        pis[i] = weights[i, :k] @ atoms[i, :k]
        want[i, :, :k] = _signal_kernel(pis[i], weights[i, :k], atoms[i, :k])
    assert np.array_equal(_signal_kernel(pis, weights, atoms), want)


def test_split_experiment_rejects_non_inducible():
    measure = SupportMeasure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        split_experiment([0.8, 0.2], measure)


def test_split_round_trip_property():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        atoms = rng.dirichlet(np.ones(n), size=k)
        weights = rng.dirichlet(np.ones(k))
        pi = weights @ atoms
        e = split_experiment(pi, SupportMeasure(atoms, weights))
        mu = induced_distribution(pi, e)
        # round trip returns the same measure up to atom merging and order
        assert np.allclose(mu.mean(), pi, atol=1e-9)
        order = np.lexsort(atoms.T[::-1])
        if mu.n_atoms == k:
            assert np.allclose(mu.points, atoms[order], atol=1e-9)
            assert np.allclose(mu.weights, weights[order], atol=1e-9)


def test_spec_dict_round_trip():
    spec = _tiny_spec()
    data = spec_to_dict(spec)
    back = spec_from_dict(data)
    assert back.horizon == spec.horizon
    assert back.states == spec.states
    assert back.actions == spec.actions
    assert back.terminating == spec.terminating
    for a, b in zip(back.kernels, spec.kernels):
        assert np.allclose(a, b)
    for a, b in zip(back.rewards_principal, spec.rewards_principal):
        assert np.allclose(a, b)
    for a, b in zip(back.rewards_receiver, spec.rewards_receiver):
        assert np.allclose(a, b)
    assert np.allclose(back.prior, spec.prior)


def test_spec_from_dict_stage_constant_shorthand():
    data = {
        "horizon": 3,
        "states": ["a", "b"],
        "actions": ["u0", "u1"],
        "terminating": ["u1"],
        "kernel": [[[0.8, 0.2], [0.4, 0.6]], [[0.0, 1.0], [0.0, 1.0]]],
        "rewards_A": [[1.0, 0.0], [0.0, 1.0]],
        "rewards_B": [[0.0, 1.0], [1.0, 0.0]],
        "prior": [0.5, 0.5],
    }
    spec = spec_from_dict(data)
    assert spec.horizon == 3
    assert spec.states == (("a", "b"),) * 3
    assert spec.terminating == (frozenset({1}),) * 3
    assert len(spec.kernels) == 2
    assert np.allclose(spec.kernels[0], spec.kernels[1])


def _distinct_stage_inputs(spec):
    fields = (spec.states, spec.actions, spec.terminating, spec.kernels, spec.rewards_principal, spec.rewards_receiver)
    return [len({id(x) for x in field}) for field in fields]


def _shorthand_game(horizon, n=3, nu=3, seed=5):
    """A stationary game in the JSON shorthand, drawn as the benchmark's random games are."""
    rng = np.random.default_rng(seed)
    return {
        "horizon": horizon,
        "states": [f"x{i}" for i in range(n)],
        "actions": [f"u{i}" for i in range(nu)],
        "terminating": [],
        "kernel": rng.dirichlet(np.ones(n), size=(n, nu)).tolist(),
        "rewards_A": rng.uniform(-1, 1, (n, nu)).tolist(),
        "rewards_B": rng.uniform(-1, 1, (n, nu)).tolist(),
        "prior": rng.dirichlet(np.ones(n)).tolist(),
    }


@pytest.mark.parametrize("horizon", [2, 20_000])
def test_a_stationary_spec_holds_each_stage_input_once(horizon):
    specs = [builtin_example(name, 0.2, 0.15, horizon) for name in ("quickest_detection", "detector")]
    specs.append(spec_from_dict(_shorthand_game(horizon)))
    for spec in specs:
        assert _distinct_stage_inputs(spec) == [1] * 6
        assert len(spec.kernels) == horizon - 1


def test_per_stage_copies_stay_per_stage_and_solve_like_the_shorthand(tmp_path):
    expanded = json.loads(json.dumps(spec_to_dict(builtin_example("detector", 0.2, 0.1, 20))))
    shorthand = {key: value if key in ("horizon", "prior") else value[0] for key, value in expanded.items()}
    shorthand["kernel"] = shorthand.pop("kernels")
    assert _distinct_stage_inputs(spec_from_dict(expanded)) == [20, 20, 20, 19, 20, 20]
    outputs = []
    for name, data in (("shorthand", shorthand), ("expanded", expanded)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--input", str(path), "--out", str(tmp_path / f"{name}.out")]) == 0
        outputs.append((tmp_path / f"{name}.out").read_bytes())
    # the solve memo matches stages by content, not by the identity of their arrays
    assert outputs[0] == outputs[1]
    distinct = [len({id(st) for st in solve(spec_from_dict(d)).stages}) for d in (shorthand, expanded)]
    assert distinct[0] == distinct[1] < 20


def test_spec_arrays_are_read_only_copies():
    kernel = np.asfortranarray(_tiny_spec().kernels[0])
    reward = np.array([[1.0, 0.0], [0.0, 1.0]])
    spec = GameSpec(**_tiny_fields(kernels=(kernel,), rewards_principal=(reward, reward)))
    with pytest.raises(ValueError, match="read-only"):
        spec.kernels[0][0, 0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        spec.rewards_principal[0][0, 0] = 0.5
    # the caller's arrays stay writable and the spec's own
    reward[0, 0] = 2.0
    kernel[0, 0] = [0.5, 0.5]
    assert spec.rewards_principal[1][0, 0] == 1.0 and spec.kernels[0][0, 0, 0] == 0.8
    # the copy keeps the input's layout, which pull-backs key on
    assert spec.kernels[0].flags.f_contiguous and not spec.kernels[0].flags.c_contiguous


def test_stationary_spec_memory_does_not_grow_with_the_horizon():
    peaks = []
    tracemalloc.start()
    try:
        for build in (
            lambda: builtin_example("detector", 0.2, 0.15, 20_000),
            lambda: spec_from_dict(_shorthand_game(20_000)),
        ):
            tracemalloc.reset_peak()
            assert validate_spec(build()) == (True, [])
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 4 * 2**20, peaks


def test_save_load_round_trip(tmp_path):
    spec = _tiny_spec()
    path = tmp_path / "game.json"
    save_spec(spec, path)
    back = load_spec(path)
    assert back.horizon == spec.horizon
    assert back.states == spec.states
    for a, b in zip(back.kernels, spec.kernels):
        assert np.array_equal(a, b)
    assert np.array_equal(back.prior, spec.prior)


def _tiny_fields(**changes):
    """The GameSpec fields of _tiny_spec(), with some replaced."""
    spec = _tiny_spec()
    return {**{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}, **changes}


@pytest.mark.parametrize(
    "changes, fragment",
    [
        ({"states": (("a", "b"),)}, "states must list one label set per stage"),
        ({"actions": (("u0", "u1"),) * 3}, "actions must list one label set per stage"),
        ({"terminating": (frozenset(),)}, "terminating must list one action set per stage"),
        ({"kernels": ()}, "expected 1 kernels, got 0"),
        ({"rewards_receiver": (np.zeros((2, 2)),)}, "rewards must list one matrix per stage for each player"),
        ({"kernels": (np.full((2, 2, 3), 1 / 3),)}, "stage 1: kernel shape must be (2, 2, 2)"),
        ({"kernels": ([[1.0], "x"],)}, "kernels must hold numeric arrays"),
    ],
    ids=["states", "actions", "terminating", "kernel-count", "reward-count", "kernel-shape", "kernel-values"],
)
def test_gamespec_names_each_count_and_shape_problem(changes, fragment):
    with pytest.raises(SpecValidationError, match=re.escape(fragment)):
        GameSpec(**_tiny_fields(**changes))


@pytest.mark.parametrize("empty, fragment", [("states", "stage 1: no states"), ("actions", "stage 1: no actions")])
def test_validate_spec_names_a_stage_without_states_or_actions(empty, fragment):
    nx, nu = (0, 2) if empty == "states" else (2, 0)
    spec = GameSpec(
        horizon=1,
        states=(("a", "b")[:nx],),
        actions=(("u0", "u1")[:nu],),
        terminating=(frozenset(),),
        kernels=(),
        rewards_principal=(np.zeros((nx, nu)),),
        rewards_receiver=(np.zeros((nx, nu)),),
        prior=np.full(nx, 1 / 2),
    )
    ok, problems = validate_spec(spec)
    assert not ok and fragment in problems


_GAME = {
    "horizon": 2,
    "states": ["a", "b"],
    "actions": ["go", "stop"],
    "terminating": ["stop"],
    "kernel": [[[0.8, 0.2], [0.4, 0.6]], [[0.0, 1.0], [0.0, 1.0]]],
    "rewards_A": [[1.0, 0.0], [0.0, 1.0]],
    "rewards_B": [[0.0, 1.0], [1.0, 0.0]],
    "prior": [0.5, 0.5],
}


@pytest.mark.parametrize(
    "changes, fragment",
    [
        ({"states": None}, "missing states"),
        ({"prior": None}, "missing prior"),
        ({"terminating": [["stop"], [], []]}, "terminating must give one action list per stage"),
        ({"terminating": ["halt"]}, "stage 1: terminating action 'halt' is not an action"),
    ],
    ids=["states", "prior", "terminating-count", "terminating-label"],
)
def test_spec_from_dict_names_each_problem(changes, fragment):
    data = {key: value for key, value in {**_GAME, **changes}.items() if value is not None}
    with pytest.raises(SpecValidationError, match=re.escape(fragment)):
        spec_from_dict(data)


def test_load_spec_rejects_a_file_that_is_not_a_json_object(tmp_path):
    path = tmp_path / "game.json"
    path.write_text("[1, 2]")
    with pytest.raises(SpecValidationError, match="expected a JSON object"):
        load_spec(path)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: bayes_update([0.2, 0.3, 0.5], Experiment([[0.8, 0.2], [0.4, 0.6]]), 0), "belief dimension"),
        (lambda: push_forward(_tiny_spec(), 1, [0.5, 0.5], 2), "action 2 outside 0..1"),
        (lambda: push_forward(_tiny_spec(), 1, [0.2, 0.3, 0.5], 0), "belief dimension"),
        (lambda: induced_distribution([0.2, 0.3, 0.5], Experiment([[0.8, 0.2], [0.4, 0.6]])), "belief dimension"),
        (lambda: split_experiment([0.2, 0.3, 0.5], SupportMeasure([[1.0, 0.0]], [1.0])), "belief dimension"),
        (lambda: Experiment([0.5, 0.5]), "nonempty matrix"),
        (lambda: Experiment(np.empty((2, 0))), "nonempty matrix"),
        (lambda: Experiment([[0.8, 0.2], [0.4, 0.6]], labels=(1,)), "one label per message"),
    ],
    ids=["bayes", "push-action", "push-dimension", "induced", "split", "experiment-1d", "experiment-empty", "labels"],
)
def test_game_functions_reject_mismatched_inputs(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


def test_experiment_message_probabilities():
    e = Experiment([[0.8, 0.2], [0.4, 0.6]])
    assert np.allclose(e.message_probabilities([0.5, 0.5]), [0.6, 0.4])
    assert np.allclose(e.message_probabilities(Belief(3, [0.25, 0.75])), [0.5, 0.5])


def test_induced_distribution_skips_a_message_of_zero_probability():
    # message 1 is never sent from the support of the belief
    mu = induced_distribution([1.0, 0.0], Experiment([[1.0, 0.0], [0.5, 0.5]]))
    assert mu.points.tolist() == [[1.0, 0.0]] and mu.weights.tolist() == [1.0]
