"""Tests of the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, aggregate, self_times, subset_count  # noqa: E402


def _span(i, name, parent, start, end):
    return Span(i, name, parent, 0, start, end)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "leaf", 1, 2.0, 3.0),
        _span(3, "b", 0, 5.0, 7.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})
    assert sum(own.values()) == pytest.approx(spans[0].duration)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 5.0),
        _span(2, "b", 0, 3.0, 6.0),
        _span(3, "c", 0, 9.0, 12.0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_aggregate_counts_recursive_spans_once():
    spans = [
        _span(0, "f", None, 0.0, 4.0),
        _span(1, "g", 0, 1.0, 3.0),
        _span(2, "f", 1, 1.5, 2.5),
    ]
    spans[2].counts["rows"] = 7
    rows = aggregate(spans)
    assert rows["f"]["s"] == pytest.approx(4.0)
    assert rows["f"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert rows["f"]["calls"] == 2
    assert rows["f"]["rows"] == 7
    assert rows["g"]["self_s"] == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
def test_subset_formula_matches_enumeration(m, n):
    # candidate_vertices solves each (n-1)-subset of m functionals plus n facets
    assert subset_count(m, n) == len(list(itertools.combinations(range(m + n), n - 1)))


def test_generator_is_deterministic_and_seeded():
    a = workloads.random_game(5, 3, 3, 6)
    assert a == workloads.random_game(5, 3, 3, 6)
    assert a != workloads.random_game(6, 3, 3, 6)
    assert json.loads(json.dumps(a)) == a


def test_default_seeds_land_in_the_documented_size_regime():
    sizes = {row["stage"]: row for row in workloads.stage_sizes_of(workloads.random_game(5, 3, 3, 6))}
    assert (sizes[1]["functionals"], sizes[1]["candidates"], sizes[1]["vertices"]) == (1224, 128818, 21)
    sizes = {row["stage"]: row for row in workloads.stage_sizes_of(workloads.random_game(8, 4, 3, 2))}
    assert (sizes[1]["functionals"], sizes[1]["candidates"], sizes[1]["vertices"]) == (99, 9539, 8)


def test_tracer_restores_every_wrapped_attribute():
    targets = tracing._targets(Tracer())

    def current():
        out = []
        for module, attr, _, _ in targets:
            owner = importlib.import_module(f"signalgame.{module}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            out.append(owner)
        return out

    before = current()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(hasattr(f, "__wrapped__") for f in current())
        from signalgame.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["solve", "--builtin", "detector", "--horizon", "3"]) == 0
    finally:
        tracer.uninstall()
    assert current() == before
    names = {s.name: s for s in tracer.spans}
    by_id = {s.id: s for s in tracer.spans}
    chain = []
    span = names["geometry.candidate_vertices"]
    while span is not None:
        chain.append(span.name)
        span = by_id.get(span.parent)
    assert chain == ["geometry.candidate_vertices", "geometry.argcav", "solver.stage_backup",
                     "solver.solve", "cli.run"]
    assert names["solver.stage_backup"].counts["stage"] in (1, 2, 3)


def test_simulate_check_uses_the_absolute_floor():
    step = {"game": "g", "command": "simulate"}
    exact = {"g": (1.0, -0.5)}

    def out(mean_a, se_a):
        return json.dumps({"mean_principal": mean_a, "stderr_principal": se_a,
                           "mean_receiver": -0.5, "stderr_receiver": 0.0}).encode()

    # zero-variance game: summation noise far above a vanishing SE
    assert worker.check(step, 0, out(1.0 + 2e-16, 3.5e-19), {}, exact) is None
    assert worker.check(step, 0, out(1.0 + 5e-3, 1e-3), {}, exact) is not None
    assert worker.check(step, 0, out(1.0 + 3e-3, 1e-3), {}, exact) is None
    assert worker.check(step, 0, out(1.0, 1e-3), {}, {}) is not None


def _envelope_step(tmp_path, states):
    path = tmp_path / "objective.json"
    path.write_text(json.dumps({"states": states, "pieces": [{"weights": [0.0] * states}]}))
    return {"game": "wide", "command": "envelope", "argv": ["envelope", "--input", str(path)],
            "repeat": 1}


def test_allocation_over_the_memory_cap_is_a_failed_command(tmp_path):
    # The envelope of a 16384-state objective starts with a 2 GiB identity
    # matrix; under a 1.5 GiB address-space cap the allocation is refused at
    # once, without touching memory, and the worker carries on.
    step = _envelope_step(tmp_path, 16384)
    records, summary = run.run_worker([step], 0, False, tmp_path, memory_cap=3 << 29)
    assert summary is not None
    assert len(records) == 1
    assert "MemoryError" in records[0]["error"]


def test_worker_that_cannot_start_is_a_failed_command(tmp_path):
    step = _envelope_step(tmp_path, 2)
    records, summary = run.run_worker([step], 0, False, tmp_path, memory_cap=64 << 20)
    assert summary is None
    assert len(records) == 1
    assert records[0]["error"].startswith("worker exit status")


def test_plan_feeds_the_seed_to_evaluate_and_simulate(tmp_path):
    steps = workloads.plan("rollout", 7, tmp_path)
    assert [s["command"] for s in steps] == list(workloads.COMMANDS) * 2
    assert [s["repeat"] for s in steps] == [8, 1, 1] * 2
    for s in steps:
        assert ("--seed" in s["argv"]) == (s["command"] != "solve")
        if s["command"] != "solve":
            assert s["argv"][s["argv"].index("--seed") + 1] == "7"


def test_result_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    records = [{"game": g, "command": c, "traced": t, "seconds": 1.0, "scale": 1.0, "bytes": 10, "error": None}
               for g in ("a", "b") for c in workloads.COMMANDS for t in (False, True)]
    summary = {"peak_rss_mb": 1.0, "rounds": 1, "layers": {}}
    plain = run.end_to_end([r for r in records if not r["traced"]], summary, [0.5])
    traced = run.per_layer(records, summary)
    for names, got in ((spec["end_to_end"], plain), (spec["per_layer"], traced)):
        assert {m["name"]: m["unit"] for m in names} == {k: unit for k, (_, unit) in got.items()}


def test_timings_are_scaled_by_the_probes_around_them():
    ref = hostspeed.REFERENCE
    # a host running at half the reference speed halves the wall time
    assert hostspeed.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert hostspeed.scale(ref, 3 * ref) == pytest.approx(0.5)
    assert hostspeed.probe_seconds(0.2, 0.0) == hostspeed.MIN_PROBE
    assert hostspeed.probe_seconds(0.3, 3.0) == pytest.approx(0.3)
    assert hostspeed.probe_seconds(60.0) == hostspeed.MAX_PROBE
    records = [{"game": "g", "command": "solve", "traced": False, "seconds": s, "scale": k,
                "bytes": 1, "error": None} for s, k in ((2.0, 0.5), (4.0, 0.25), (1.0, 1.0))]
    assert run.samples(records)["g", "solve"] == [1.0, 1.0, 1.0]
    assert run.samples(records, scaled=False)["g", "solve"] == [2.0, 4.0, 1.0]
