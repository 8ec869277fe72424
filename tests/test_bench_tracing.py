"""The benchmark's tracer still fits the program.

bench/tracing.py wraps layer functions of signalgame by their names,
from outside.  A refactor that drops or renames a traced name would
otherwise break only traced benchmark runs.  The module is loaded as it
stands, without writing to bench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from signalgame import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_wraps_and_restores_the_program(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)

    tracer = tracing.Tracer()
    originals = []
    for module_name, attr, _, _ in tracing._targets(tracer):
        owner = importlib.import_module(f"signalgame.{module_name}")
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
        assert hasattr(owner, member), f"signalgame.{module_name}.{attr} is gone"
        originals.append((owner, member, getattr(owner, member)))

    tracer.install()
    try:
        out = tmp_path / "eval.json"
        code = cli.main(["evaluate", "--builtin", "detector", "--horizon", "6", "--out", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    trees = [s for s in tracer.spans if s.name == "evaluator.reachable_tree"]
    assert trees and all(s.counts["nodes"] > 0 for s in trees)
    for owner, member, original in originals:
        assert getattr(owner, member) is original
