"""In-memory spans recorded at the lipcut layer boundaries, from outside the
library: timing wrappers around public calls, an oracle proxy, and
expression evaluators swapped into a built ``Problem``.

Expression calls are the hot leaves (one per branch-and-bound wave, or one
per probe on the scalar path), so they are not kept one by one: each adds
its count and duration to the innermost open span.  A span's self time is
its duration minus its child spans and minus those expression totals.

No layer has queues or threads, so no span ever waits: wait time is zero
by construction and is not reported.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

from lipcut import InfeasibleStartError, OracleStatus


class Span:
    __slots__ = (
        "id", "parent", "op", "name", "start", "end", "children_s",
        "batch_calls", "batch_points", "batch_s", "scalar_calls", "scalar_s",
    )

    def __init__(self, span_id, parent, op, name, start):
        self.id, self.parent, self.op, self.name, self.start = span_id, parent, op, name, start
        self.end = start
        self.children_s = 0.0
        self.batch_calls = self.batch_points = self.scalar_calls = 0
        self.batch_s = self.scalar_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def expr_s(self) -> float:
        return self.batch_s + self.scalar_s

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s - self.expr_s


class Tracer:
    """Spans of one benchmark run; ``op`` tags the spans of the op in flight."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = -1
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else -1
        s = Span(len(self.spans), parent, self.op, name, perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].children_s += s.duration

    def add_batch(self, points: int, seconds: float) -> None:
        s = self._stack[-1]
        s.batch_calls += 1
        s.batch_points += points
        s.batch_s += seconds

    def add_scalar(self, seconds: float) -> None:
        s = self._stack[-1]
        s.scalar_calls += 1
        s.scalar_s += seconds

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def violations(self) -> list[str]:
        """Self-check: children never exceed their parent, self times >= 0."""
        bad = []
        for s in self.spans:
            if s.children_s + s.expr_s > s.duration:
                bad.append(f"span {s.id} {s.name}: children {s.children_s + s.expr_s:.9f} s > {s.duration:.9f} s")
        return bad

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            out = csv.writer(handle)
            out.writerow(["id", "parent", "op", "name", "start", "end", "self_s",
                          "expr_batch_calls", "expr_batch_points", "expr_batch_s",
                          "expr_scalar_calls", "expr_scalar_s"])
            for s in self.spans:
                out.writerow([s.id, s.parent, s.op, s.name, repr(s.start), repr(s.end), repr(s.self_s),
                              s.batch_calls, s.batch_points, repr(s.batch_s), s.scalar_calls, repr(s.scalar_s)])


def spanned(tracer: Tracer | None, name: str, fn, *args):
    """fn(*args), inside a span called ``name`` when tracing."""
    if tracer is None:
        return fn(*args)
    with tracer.span(name):
        return fn(*args)


class ClockedOracle:
    """Oracle proxy: keeps the inner oracle's behaviour and records, per
    call, its start and return times, ``OracleResult.nodes`` and whether it
    returned Solved.  With a tracer it also opens an ``oracle.solve`` span
    around each call.  With a host speed gauge it lets the gauge take a
    sample, if one is due, before each call."""

    def __init__(self, inner, tracer: Tracer | None = None, host=None):
        self.inner = inner
        self.tracer = tracer
        self.host = host
        self.starts: list[float] = []
        self.returns: list[float] = []
        self.nodes: list[int] = []
        self.solved: list[bool] = []
        self.infeasible_start = 0

    def solve(self, objective, region, start=None):
        if self.host is not None:
            self.host.tick()  # before the call's start, so it falls between ops
        self.starts.append(perf_counter())
        try:
            result = spanned(self.tracer, "oracle.solve", self.inner.solve, objective, region, start)
        except InfeasibleStartError:
            self.infeasible_start += 1
            raise
        self.returns.append(perf_counter())
        self.nodes.append(result.nodes)
        self.solved.append(result.status is OracleStatus.Solved)
        return result


def traced_problem(problem, tracer: Tracer):
    """The problem with its objective and constraint evaluators, batch and
    scalar, wrapped so each call is counted into the innermost span."""

    def batch(fn):
        def wrapped(points):
            t = perf_counter()
            out = fn(points)
            tracer.add_batch(len(points), perf_counter() - t)
            return out
        return wrapped

    def scalar(fn):
        def wrapped(x):
            t = perf_counter()
            out = fn(x)
            tracer.add_scalar(perf_counter() - t)
            return out
        return wrapped

    objective, constraint = problem.objective, problem.constraint
    objective = replace(
        objective,
        evaluator=scalar(objective.evaluator),
        batch_evaluator=batch(objective.batch_evaluator) if objective.batch_evaluator else None,
    )
    constraint = replace(
        constraint,
        components=tuple(scalar(c) for c in constraint.components),
        batch_components=tuple(batch(c) for c in constraint.batch_components)
        if constraint.batch_components else None,
    )
    return replace(problem, objective=objective, constraint=constraint)
