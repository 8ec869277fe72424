"""Benchmark of the signalgame CLI: end-to-end timings and per-layer spans.

Run from the root of a checkout::

    python3 bench/run.py --workload binary-long --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it describe the samples.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
from workloads import COMMANDS, GOLDENS, WORKLOADS, plan, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

# Guard on every child process.  The address-space cap turns a runaway
# allocation into a MemoryError (a failed command) long before the
# machine runs out; the largest workload peaks below 1 GiB of it.
MEMORY_CAP = 3 << 30
SETUP_PROBES = 5
SETUP_TIMEOUT = 60.0
WORKER_SLACK = 120.0


def child_env() -> dict:
    """Environment for every child: the checkout's ``src`` first on the
    path, and BLAS/OpenMP thread pools at most the usable core count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cores):
            env[var] = str(cores)
    return env


def guarded(argv: list[str], timeout: float, memory_cap: int = MEMORY_CAP) -> subprocess.CompletedProcess | None:
    """Run a child under the memory cap and a wall-clock timeout.

    Returns None when the child had to be killed; ``subprocess.run``
    kills it and waits for it to end before returning.
    """
    try:
        return subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
            preexec_fn=functools.partial(resource.setrlimit, resource.RLIMIT_AS, (memory_cap, memory_cap)),
        )
    except subprocess.TimeoutExpired:
        return None


def setup_seconds() -> list[float]:
    """Fresh interpreter until ``import signalgame`` returns, timed on the
    system-wide monotonic clock shared by parent and child, and scaled to
    the reference host speed by probes on either side."""
    probe = ("import time, signalgame; "
             "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    samples = []
    before = hostspeed.probe()
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = guarded([sys.executable, "-c", probe], SETUP_TIMEOUT)
        if done is None or done.returncode != 0:
            raise RuntimeError(f"import signalgame failed: {done and done.stderr.strip()}")
        seconds = float(done.stdout.split()[-1]) - t0
        after = hostspeed.probe()
        samples.append(seconds * hostspeed.scale(before, after))
        before = after
    return samples


def run_worker(steps: list[dict], seconds: float, trace: bool, workdir: Path,
               spans_out: Path | None = None, memory_cap: int = MEMORY_CAP):
    """Run the worker on one round of steps; (command records, summary).

    A worker that crashes, runs out of memory or times out keeps the
    records of the commands it finished, and the command it was running
    is recorded as failed; the summary is then None.
    """
    plan_path = workdir / "plan.json"
    results_path = workdir / "results.jsonl"
    results_path.write_text("")
    plan_path.write_text(json.dumps({
        "round": steps,
        "seconds": seconds,
        "trace": trace,
        "goldens": json.loads(GOLDENS.read_text()),
        "spans_out": str(spans_out) if spans_out else None,
    }))
    done = guarded([sys.executable, str(HERE / "worker.py"), str(plan_path), str(results_path)],
                   timeout=seconds + WORKER_SLACK, memory_cap=memory_cap)
    records, summary, running = [], None, None
    for line in results_path.read_text().splitlines():
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:  # a line cut short by a kill
            continue
        if "running" in entry:
            running = entry["running"]
        elif entry.get("summary"):
            summary = entry
        else:
            records.append(entry)
            running = None
    if done is None or done.returncode != 0 or summary is None:
        reason = "timed out" if done is None else (
            f"exit status {done.returncode}: {done.stderr.strip()[-2000:]}")
        game, command = running or (steps[0]["game"], steps[0]["command"])
        records.append({"game": game, "command": command, "traced": False,
                        "seconds": math.nan, "scale": 1.0, "bytes": 0, "error": f"worker {reason}"})
        summary = None
    return records, summary


def samples(records: list[dict], scaled: bool = True) -> dict[tuple[str, str], list[float]]:
    """Untraced times of the commands that passed, by (game, command):
    scaled to the reference host speed, or as wall times."""
    out: dict[tuple[str, str], list[float]] = {}
    for r in records:
        if not r["traced"] and r["error"] is None:
            value = r["seconds"] * r["scale"] if scaled else r["seconds"]
            out.setdefault((r["game"], r["command"]), []).append(value)
    return out


def end_to_end(records: list[dict], summary: dict | None, setup: list[float]) -> dict:
    """Each command's time is the mean over the workload's games of the
    per-game median, so games of different cost never share a median."""
    metrics = {"setup_s": (statistics.median(setup), "s")}
    by_game = samples(records)
    for command in COMMANDS:
        medians = [statistics.median(v) for (_, c), v in by_game.items() if c == command]
        if medians:
            metrics[f"{command}_s"] = (statistics.fmean(medians), "s")
    if summary is not None:
        metrics["peak_rss_mb"] = (summary["peak_rss_mb"], "MB")
    failed = sum(r["error"] is not None for r in records)
    metrics["ok_ratio"] = ((len(records) - failed) / len(records), "1")
    return metrics


# Per-layer metrics read straight off the span totals: "<span name>.<field>",
# where the field is "s" (inclusive), "self_s", "calls" or a count.
LAYER_FIELDS = (
    "geometry.candidate_vertices.self_s",
    "geometry.candidate_vertices.calls",
    "geometry.candidate_vertices.rows",
    "geometry.candidate_vertices.subsets",
    "geometry.argcav.self_s",
    "geometry.argcav.vertices",
    "geometry.ConvexHull.s",
    "geometry.ConvexHull.points",
    "geometry.dedup_functionals.self_s",
    "geometry.dedup_functionals.in",
    "geometry.dedup_functionals.out",
    "geometry.pullback_affine.self_s",
    "geometry.pullback_affine.calls",
    "geometry.Triangulation.locate_many.s",
    "geometry.Triangulation.locate_many.calls",
    "geometry.Triangulation.locate_many.points",
    "solver.solve.s",
    "solver.stage_backup.self_s",
    "solver.stage_backup.calls",
    "solver.StageObjective.tie_broken_values.self_s",
    "solver.StageObjective.tie_broken_values.calls",
    "solver.StageObjective.tie_broken_values.rows",
    "evaluator.exact_value.s",
    "evaluator.one_shot_deviation_check.s",
    "evaluator.one_shot_deviation_check.self_s",
    "evaluator.one_shot_deviation_check.probes",
    "evaluator.reachable_tree.s",
    "evaluator.reachable_tree.nodes",
    "evaluator.simulate.s",
    "evaluator.simulate.self_s",
    "evaluator.simulate.trajectories",
    "game.load_spec.s",
    "game.validate_spec.s",
    "cli.run.s",
    "cli.run.self_s",
)


def per_layer(records: list[dict], summary: dict) -> dict:
    """Per-layer metrics of one round: totals over the run's traced
    commands divided by the number of rounds."""
    layers = summary["layers"]
    metrics = {}
    for name in LAYER_FIELDS:
        span, _, key = name.rpartition(".")
        unit = "s" if key in ("s", "self_s") else "count"
        metrics[name] = (layers.get(span, {}).get(key, 0), unit)
    rows = metrics["geometry.candidate_vertices.rows"][0]
    metrics["geometry.candidate_yield"] = (
        metrics["geometry.argcav.vertices"][0] / rows if rows else 0.0, "1")
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n_rounds = summary["rounds"]
    for command in COMMANDS:
        total = sum(r["seconds"] for r in traced if r["command"] == command)
        metrics[f"cmd.{command}.s"] = (total / n_rounds, "s")
    metrics["cli.artifact_bytes"] = (sum(r["bytes"] for r in traced) / n_rounds, "B")
    overhead = sum(r["seconds"] for r in traced) - sum(r["seconds"] for r in plain)
    metrics["trace.overhead_s"] = (overhead / n_rounds, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "signalgame" / "__init__.py").is_file():
        print(f"error: no signalgame sources under {SRC}", file=sys.stderr)
        return 2

    # One core for this process and every child: the host-speed probes
    # then measure the core the commands run on (the vCPUs of a shared
    # host drift independently), and BLAS/OpenMP get one thread.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        write_inputs(WORKLOADS[args.workload], workdir)
        steps = plan(args.workload, args.seed, workdir)
        setup = [] if args.trace else setup_seconds()
        spans_out = WORK / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
        records, summary = run_worker(steps, args.seconds, bool(args.trace), workdir, spans_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r["error"] is not None]
    for r in failed:
        print(f"FAILED {r['game']} {r['command']}: {r['error']}")
    if summary is not None:
        print(f"rounds {summary['rounds']}")
        for game, stages in summary.get("stage_sizes", {}).items():
            print(f"stage sizes {game} [stage, functionals, candidates, vertices]: "
                  f"{json.dumps(stages)}")
    wall = samples(records, scaled=False)
    for (game, command), values in samples(records).items():
        print(f"samples {game} {command} n={len(values)} median={statistics.median(values):.4f} "
              f"(wall {statistics.median(wall[game, command]):.4f}) "
              f"{json.dumps([round(v, 4) for v in values])}")
    if not args.trace:
        metrics = end_to_end(records, summary, setup)
    elif summary is not None:
        metrics = per_layer(records, summary)
    else:
        metrics = {}  # the traced worker died; the result reports it failed
    result = {
        "correct": not failed and summary is not None,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
