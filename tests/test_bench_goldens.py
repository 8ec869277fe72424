"""The benchmark's solve artifacts match bench/goldens.json.

bench/workloads.py is loaded as it stands, without writing to bench/,
so a drift in the solve bytes of any bench game fails here and not
only in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_solve_artifacts_match_goldens(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))  # capture_goldens puts src/ on it
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.capture_goldens() == json.loads((BENCH / "goldens.json").read_text())
