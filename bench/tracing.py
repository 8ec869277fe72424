"""Spans recorded from outside the program, around calls into each layer.

The tracer wraps public functions of ``signalgame`` at their module
attributes (and two class methods), records one span per call, and
puts every original back on ``uninstall``.  No program file changes.

A span holds its name, start, end, the id of the span that was open
when it started (its parent), the id of the CLI command it belongs to
(the run id) and a few counts taken from the call's arguments and
result.  Spans stay in memory; ``aggregate`` turns them into per-layer
totals and the worker writes them out when the benchmark ends.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def subset_count(m: int, n: int) -> int:
    """Subsets ``candidate_vertices`` solves for m deduped functionals in
    n states: every (n-1)-subset of the functionals plus the n facets."""
    return math.comb(m + n, n - 1)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


class Tracer:
    """Records spans; wraps and unwraps the program's layer functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name: str, count=None, listify: bool = False):
        """fn wrapped in a span; count(span, args, result) runs after
        the span has ended, so bookkeeping is not charged to the layer.
        listify materializes an iterable first argument so it can be
        counted (the call still consumes it inside the span)."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            if listify:
                args = (tuple(args[0]),) + args[1:]
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                count(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, count in _targets(self):
            owner_name, _, member = attr.rpartition(".")
            owner = importlib.import_module(f"signalgame.{module_name}")
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, member)
            self._saved.append((owner, member, original))
            listify = name == "geometry.dedup_functionals"
            setattr(owner, member, self.wrap(original, name, count, listify))

    def uninstall(self) -> None:
        while self._saved:
            owner, member, original = self._saved.pop()
            setattr(owner, member, original)


def _targets(tracer: Tracer):
    """(module, attribute, span name, counter) for every traced call site.

    Functions are wrapped where their callers look them up: ``cli``
    imports ``solve`` and the evaluator entry points by name, ``solver``
    imports ``argcav``/``pullback_affine``/``validate_spec``, and
    ``geometry`` calls its own module globals.
    """

    def dedup(span, args, result):
        span.counts["in"] = len(args[0])
        span.counts["out"] = len(result)

    def candidates(span, args, result):
        n = args[0].n_states
        m = 0
        for s in reversed(tracer.spans):
            if s.id <= span.id:
                break
            if s.parent == span.id and s.name == "geometry.dedup_functionals":
                m = s.counts["out"]
        span.counts["rows"] = len(result)
        span.counts["subsets"] = subset_count(m, n)
        span.counts["functionals"] = m

    def hull(span, args, result):
        span.counts["points"] = len(args[0])

    def envelope(span, args, result):
        span.counts["vertices"] = result.triangulation.n_vertices

    def points(span, args, result):
        key = "points" if span.name.endswith("locate_many") else "rows"
        span.counts[key] = np.atleast_2d(np.asarray(args[1])).shape[0]

    def stage(span, args, result):
        span.counts["stage"] = args[1]

    def probes(span, args, result):
        span.counts["probes"] = result.receiver_checked + result.principal_checked

    def nodes(span, args, result):
        seen = set()
        stack = [result]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(e.child for e in node.edges if e.child is not None)
        span.counts["nodes"] = len(seen)

    def trajectories(span, args, result):
        span.counts["trajectories"] = result.trajectories

    return [
        ("cli", "run", "cli.run", None),
        ("cli", "load_spec", "game.load_spec", None),
        ("cli", "validate_spec", "game.validate_spec", None),
        ("solver", "validate_spec", "game.validate_spec", None),
        ("cli", "solve", "solver.solve", None),
        ("solver", "stage_backup", "solver.stage_backup", stage),
        ("solver", "StageObjective.tie_broken_values",
         "solver.StageObjective.tie_broken_values", points),
        ("solver", "argcav", "geometry.argcav", envelope),
        ("solver", "pullback_affine", "geometry.pullback_affine", None),
        ("geometry", "candidate_vertices", "geometry.candidate_vertices", candidates),
        ("geometry", "dedup_functionals", "geometry.dedup_functionals", dedup),
        ("geometry", "ConvexHull", "geometry.ConvexHull", hull),
        ("geometry", "Triangulation.locate_many", "geometry.Triangulation.locate_many", points),
        ("cli", "exact_value", "evaluator.exact_value", None),
        ("cli", "one_shot_deviation_check", "evaluator.one_shot_deviation_check", probes),
        ("cli", "simulate", "evaluator.simulate", trajectories),
        ("evaluator", "reachable_tree", "evaluator.reachable_tree", nodes),
    ]


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds ``s`` (outermost spans of that
    name only, so recursion is not counted twice), ``self_s``, ``calls``
    and the sum of each count."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += own[s.id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            row["s"] += s.duration
        for key, value in s.counts.items():
            if key != "stage":
                row[key] = row.get(key, 0) + value
    return out


def stage_sizes(spans: list[Span]) -> list[dict]:
    """Per solved stage: deduped functionals, candidate rows and envelope
    vertices, read off the spans under each ``solver.stage_backup``."""
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    rows = []
    for s in spans:
        if s.name != "solver.stage_backup":
            continue
        row = {"run": s.run, "stage": s.counts.get("stage")}
        for env in kids.get(s.id, ()):
            if env.name != "geometry.argcav":
                continue
            row["vertices"] = env.counts["vertices"]
            for cand in kids.get(env.id, ()):
                if cand.name == "geometry.candidate_vertices":
                    row["functionals"] = cand.counts["functionals"]
                    row["candidates"] = cand.counts["rows"]
        rows.append(row)
    return rows
