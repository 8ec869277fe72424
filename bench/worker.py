"""One workload run inside a guarded child process.

Usage (started by ``run.py``, never by hand)::

    python3 bench/worker.py PLAN.json RESULTS.jsonl

PLAN.json holds the round of CLI commands, the goldens, the run length
and whether to trace.  The worker repeats the round as many times as
ends nearest the run length, and at least once.  An untraced run repeats
each step its ``repeat`` count of times in a row, between host-speed
probes (see ``hostspeed.py``); a traced run runs it twice in a row,
untraced and then traced, without probes.  Each command is one
in-process call of ``signalgame.cli.main(argv)`` with stdout captured;
only that call is timed.  Correctness checks run after the clock
stops.  Before each command a ``running`` line, and after it its record,
is appended and flushed to RESULTS.jsonl, so a killed worker still leaves
a record of what it finished and of the command it was running.  The
last line is a summary with the peak RSS and, in traced runs, the
per-layer totals per round.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Same absolute floor as the package's Monte Carlo acceptance check: a
# zero-variance game has a standard error far below summation noise.
SE_FLOOR = 1e-12
SE_MULTIPLE = 4.0
VALUE_GAP = 1e-9


def check(step: dict, rc: int, out: bytes, goldens: dict, exact: dict) -> str | None:
    """Why the command's output is wrong, or None when it is right."""
    game, command = step["game"], step["command"]
    if rc != 0:
        return f"exit status {rc}"
    if command == "solve":
        want = goldens.get(game)
        if want is None:
            return "no golden solve artifact"
        got = hashlib.sha256(out).hexdigest()
        if got != want["sha256"] or len(out) != want["bytes"]:
            return f"solve artifact differs from golden ({len(out)} bytes, sha256 {got[:12]})"
        return None
    payload = json.loads(out)
    if command == "evaluate":
        if payload["value_gap"] > VALUE_GAP or payload["violations"]:
            return f"value_gap {payload['value_gap']!r}, {len(payload['violations'])} violations"
        exact[game] = (payload["exact_principal"], payload["exact_receiver"])
        return None
    if game not in exact:
        return "no exact value to compare against (evaluate failed)"
    for mean, se, value in zip(
        (payload["mean_principal"], payload["mean_receiver"]),
        (payload["stderr_principal"], payload["stderr_receiver"]),
        exact[game],
    ):
        if not abs(mean - value) <= SE_MULTIPLE * se + SE_FLOOR:
            return f"Monte Carlo mean {mean!r} is not within {SE_MULTIPLE:g} SE ({se!r}) of {value!r}"
    return None


def main(plan_path: str, results_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import signalgame
    from signalgame.cli import main as cli_main

    if Path(signalgame.__file__).resolve().parent != src / "signalgame":
        raise SystemExit(f"imported signalgame from {signalgame.__file__}, not {src}")
    import hostspeed
    from tracing import Tracer, aggregate, stage_sizes

    tracer = Tracer() if plan["trace"] else None
    exact: dict = {}
    solve_runs: dict[int, str] = {}

    def run_step(step: dict, traced: bool) -> tuple[dict, int | None, bytes]:
        """Time one command; its record (error only if it raised), exit
        status and stdout."""
        gc.collect()
        buf = io.StringIO()
        error = rc = None
        if traced:
            tracer.run += 1
            if step["command"] == "solve" and step["game"] not in solve_runs.values():
                solve_runs[tracer.run] = step["game"]
            tracer.install()
        try:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli_main(step["argv"])
            except (Exception, SystemExit) as err:  # recorded as a failed command
                rc, error = None, "".join(traceback.format_exception_only(err)).strip()
            seconds = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        out = buf.getvalue().encode()
        record = {"game": step["game"], "command": step["command"], "traced": traced,
                  "seconds": seconds, "scale": 1.0, "bytes": len(out), "error": error}
        return record, rc, out

    # A traced run pairs each traced command with an untraced one just
    # before it, so the overhead is not host drift.
    sequence = [(step, traced) for step in plan["round"]
                for traced in ((False, True) if tracer else (False,) * step["repeat"])]
    # Untraced runs scale each command to the reference host speed with
    # the probes on either side of it; a probe between two commands
    # serves both.  Traced runs keep wall times.
    last_seconds: dict[tuple[str, str], float] = {}
    speed = None if tracer else hostspeed.probe()

    rounds = 0
    with open(results_path, "a") as results:
        start = time.perf_counter()
        while True:
            for i, (step, traced) in enumerate(sequence):
                key = (step["game"], step["command"])
                results.write(json.dumps({"running": list(key)}) + "\n")
                results.flush()
                record, rc, out = run_step(step, traced)
                if speed is not None:
                    following = sequence[(i + 1) % len(sequence)][0]
                    length = hostspeed.probe_seconds(
                        record["seconds"], last_seconds.get((following["game"], following["command"]), 0.0))
                    after = hostspeed.probe(length)
                    record["scale"] = hostspeed.scale(speed, after)
                    speed = after
                last_seconds[key] = record["seconds"]
                if record["error"] is None:
                    try:
                        record["error"] = check(step, rc, out, plan["goldens"], exact)
                    except (ValueError, KeyError, TypeError) as err:
                        record["error"] = f"unreadable output: {err!r}"
                results.write(json.dumps(record) + "\n")
                results.flush()
            rounds += 1
            # Stop at the round count that ends nearest the run length.
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / rounds >= plan["seconds"]:
                break

        summary: dict = {
            "summary": True,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rounds": rounds,
        }
        if tracer is not None:
            summary["layers"] = {
                name: {k: v / rounds for k, v in row.items()}
                for name, row in aggregate(tracer.spans).items()
            }
            sizes: dict[str, list] = {}
            for row in stage_sizes(tracer.spans):
                if row["run"] in solve_runs:
                    sizes.setdefault(solve_runs[row["run"]], []).append(
                        [row["stage"], row["functionals"], row["candidates"], row["vertices"]])
            summary["stage_sizes"] = sizes
            spans_out = plan.get("spans_out")
            if spans_out:
                rows = [[s.id, s.name, s.parent, s.run, s.start, s.end, s.counts]
                        for s in tracer.spans]
                Path(spans_out).write_text(json.dumps(rows, separators=(",", ":")))
        results.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
