"""Per-layer tracing for the cutoffwave benchmark.

Wrappers are installed from here around the public functions each module
exposes, as the calling module binds them (``solver.trace_until_alpha``
is the integrator as the solver sees it).  Each wrapped call becomes a
span with a parent and an operation id; spans stay in memory and are
written out when the run ends.  ``Trajectory.sample`` and ``find_alpha``
run hundreds of thousands of times per profile, so they are only counted
and timed, with their time charged to the enclosing span as child time.
``_Integration.advance_to_alpha`` is wrapped to add each leg's steps,
rejects and stored segments to its integrator span, turned shots included.

A layer's self time is its spans' durations minus the time covered by
their child spans.  Busy times include the wrappers' own cost, which the
run reports as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
from collections import defaultdict
from dataclasses import replace
from time import perf_counter

from cutoffwave import cli, integrator, reaction, reference, solver

from hostspeed import HostClock
from workloads import Context, OpResult

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("integrator.calls", "count"),
    ("integrator.busy_s", "s"),
    ("integrator.steps", "count"),
    ("integrator.rejects", "count"),
    ("integrator.accept_ratio", "ratio"),
    ("integrator.us_per_step", "us"),
    ("integrator.rhs_evals", "count"),
    ("reaction.f_evals", "count"),
    ("integrator.span_exceeded", "count"),
    ("integrator.segments_stored", "count"),
    ("integrator.segment_bytes", "bytes"),
    ("integrator.sample.calls", "count"),
    ("integrator.sample.busy_s", "s"),
    ("integrator.find_alpha.calls", "count"),
    ("integrator.find_alpha.busy_s", "s"),
    ("solver.solves", "count"),
    ("solver.busy_s", "s"),
    ("solver.self_s", "s"),
    ("solver.shots", "count"),
    ("solver.shots_per_solve", "count"),
    ("solver.bisections", "count"),
    ("solver.bracket_shots", "count"),
    ("solver.turned_ratio", "ratio"),
    ("solver.assemble_profile.busy_s", "s"),
    ("solver.assemble_profile.samples", "count"),
    ("solver.rel_residual_max", "ratio"),
    ("reference.busy_s", "s"),
    ("reference.steps", "count"),
    ("reference.fit.busy_s", "s"),
    ("asymptotics.calls", "count"),
    ("asymptotics.busy_s", "s"),
    ("cli.commands", "count"),
    ("cli.busy_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("cli.nonzero_exits", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Span:
    __slots__ = ("id", "parent", "op", "name", "t0", "t1", "child_s",
                 "calibration_s", "info")

    def __init__(self, sid, parent, op, name, t0):
        self.id, self.parent, self.op, self.name = sid, parent, op, name
        self.t0, self.t1, self.child_s, self.info = t0, t0, 0.0, {}
        self.calibration_s = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        """Time in the span, less the benchmark's calibration inside it."""
        return self.t1 - self.t0 - self.calibration_s


class SpanClock(HostClock):
    """A HostClock whose calibration loops do not count in any span.

    ``sweep-warm`` calibrates between the rows of one ``sweep()`` call,
    inside its span; that time is taken out of every open span.
    """

    def __init__(self, stack: list[Span]) -> None:
        self._stack = stack
        super().__init__()

    def spin_time(self) -> float:
        t0 = perf_counter()
        try:
            return super().spin_time()
        finally:
            spent = perf_counter() - t0
            for span in self._stack:
                span.calibration_s += spent


def _deep_size(obj, seen: set) -> int:
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(_deep_size(k, seen) + _deep_size(v, seen)
                    for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        size += sum(_deep_size(item, seen) for item in obj)
    elif hasattr(obj, "__dict__"):
        size += _deep_size(vars(obj), seen)
    return size


class Tracer:
    """Span recorder for one traced round; installed() patches the modules."""

    def __init__(self, op_span: str) -> None:
        self.op_span = op_span
        self.spans: list[Span] = []
        self.f_evals = 0
        #: bytes one stored trajectory segment takes, measured on the first
        #: trajectory returned (computed, not observed per call)
        self.bytes_per_segment = 0.0
        self._ids = itertools.count()
        self._stack: list[Span] = []
        self._fine: dict[str, list] = {}
        self._patches: list[tuple] = []
        self._on = True
        self._clock0 = perf_counter()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, info=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            op = sid if parent is None or name == self.op_span else parent.op
            span = Span(sid, parent.id if parent else None, op, name,
                        perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.t1 = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                spans.append(span)
            if info is not None:
                span.info.update(info(result))
            return result

        return wrapper

    def fine(self, name: str, fn):
        """Wrap a hot function: count and time calls without spans."""
        agg = self._fine.setdefault(name, [0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    stack[-1].child_s += dt

        return wrapper

    def counting(self, spec):
        """The same reaction with every evaluation of f counted.

        The integrator calls f only above the threshold; the zero-rate leg
        below u_c never does, so only those evaluations are counted.
        """
        f = spec.f

        def f_counted(u):
            self.f_evals += 1
            return f(u)

        return replace(spec, f=f_counted)

    def leg(self, fn):
        """Wrap ``_Integration.advance_to_alpha``: add each leg's steps,
        rejects and stored segments to the enclosing integrator span.

        Counted in a finally block, so a leg that runs out of span (a
        turned shot, raising SpanExceeded) is counted as well.
        """
        stack = self._stack

        def wrapper(run, rate, alpha_stop):
            if not self._on:
                return fn(run, rate, alpha_stop)
            steps, rejects = run.n_steps, run.n_rejects
            segments = len(run.trajectory)
            try:
                return fn(run, rate, alpha_stop)
            finally:
                info = stack[-1].info
                for key, n in (("steps", run.n_steps - steps),
                               ("rejects", run.n_rejects - rejects),
                               ("segments", len(run.trajectory) - segments),
                               ("legs", 1)):
                    info[key] = info.get(key, 0) + n
                if not self.bytes_per_segment and len(run.trajectory):
                    self.bytes_per_segment = (
                        _deep_size(run.trajectory, set()) / len(run.trajectory))

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    @contextlib.contextmanager
    def installed(self):
        solved = lambda sol: {"bisections": sol.n_iterations}  # noqa: E731
        for owner, attr, name, info in (
                (solver, "trace_until_alpha", "integrator.shoot", None),
                (reference, "trace_field_until_alpha", "integrator.field",
                 None),
                (solver, "solve_speed", "solver.solve_speed", solved),
                (cli, "solve_speed", "solver.solve_speed", solved),
                (solver, "sweep", "solver.sweep", None),
                (cli, "sweep", "solver.sweep", None),
                (solver, "assemble_profile", "solver.assemble_profile",
                 lambda prof: {"samples": len(prof.y)}),
                (cli, "solve_reference", "reference.solve", None),
                (cli, "fit_edge_constants", "reference.fit", None),
                (cli, "small_uc_speed", "asymptotics.small_uc_speed", None),
                (cli, "large_uc_speed", "asymptotics.large_uc_speed", None)):
            self._patch(owner, attr, self.span(name, getattr(owner, attr), info))
        by_name = cli.by_name
        self._patch(cli, "by_name", lambda name: self.counting(by_name(name)))
        self._patch(integrator._Integration, "advance_to_alpha",
                    self.leg(integrator._Integration.advance_to_alpha))
        for attr in ("sample", "find_alpha"):
            self._patch(integrator.Trajectory, attr,
                        self.fine(f"integrator.{attr}",
                                  getattr(integrator.Trajectory, attr)))
        try:
            yield
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        self._on = False
        try:
            yield
        finally:
            self._on = True

    def context(self, workdir: str) -> Context:
        return Context(workdir=workdir,
                       spec=lambda name: self.counting(reaction.by_name(name)),
                       cli_main=self.span("cli.main", cli.main,
                                          lambda code: {"exit_code": code}),
                       checking=self.paused, clock=SpanClock(self._stack))

    # -- results -----------------------------------------------------------

    def metrics(self, results: list[OpResult], plain_s: float,
                traced_s: float) -> dict[str, float]:
        named = defaultdict(list)
        by_layer = defaultdict(list)
        for s in self.spans:
            named[s.name].append(s)
            by_layer[s.layer].append(s)
        layer_of = {s.id: s.layer for s in self.spans}

        def busy(layer: str) -> float:
            return sum(s.duration for s in by_layer[layer]
                       if layer_of.get(s.parent) != layer)

        def self_time(layer: str) -> float:
            return sum(s.duration - s.child_s for s in by_layer[layer])

        def total(spans, key) -> int:
            return sum(s.info.get(key, 0) for s in spans)

        shots = named["integrator.shoot"]
        integ = shots + named["integrator.field"]
        steps, rejects = total(integ, "steps"), total(integ, "rejects")
        segments = total(integ, "segments")
        turned = sum(s.info.get("error") == "SpanExceeded" for s in integ)
        solves = named["solver.solve_speed"]
        bisections = total(solves, "bisections")
        assembled = named["solver.assemble_profile"]
        asym = by_layer["asymptotics"]
        commands = named["cli.main"]
        sample_calls, sample_s = self._fine.get("integrator.sample", (0, 0.0))
        find_calls, find_s = self._fine.get("integrator.find_alpha", (0, 0.0))
        rel = [abs(r) / (v * u) for res in results for u, v, r in res.speeds
               if math.isfinite(v) and v > 0.0]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "integrator.calls": len(integ),
            "integrator.busy_s": sum(s.duration for s in integ),
            "integrator.steps": steps,
            "integrator.rejects": rejects,
            "integrator.accept_ratio": ratio(steps, steps + rejects),
            "integrator.us_per_step": ratio(
                1e6 * sum(s.duration for s in integ), steps),
            # computed: six new stages per attempted step (FSAL reuses the
            # first) plus the first stage of each leg
            "integrator.rhs_evals": 6 * (steps + rejects) + total(integ, "legs"),
            "reaction.f_evals": self.f_evals,
            "integrator.span_exceeded": turned,
            "integrator.segments_stored": segments,
            "integrator.segment_bytes": round(segments * self.bytes_per_segment),
            "integrator.sample.calls": sample_calls,
            "integrator.sample.busy_s": sample_s,
            "integrator.find_alpha.calls": find_calls,
            "integrator.find_alpha.busy_s": find_s,
            "solver.solves": len(solves),
            "solver.busy_s": busy("solver"),
            "solver.self_s": self_time("solver"),
            "solver.shots": len(shots),
            "solver.shots_per_solve": ratio(len(shots), len(solves)),
            "solver.bisections": bisections,
            # every solve ends with one verifying shot at its midpoint
            "solver.bracket_shots": len(shots) - bisections - len(solves),
            "solver.turned_ratio": ratio(
                sum(s.info.get("error") == "SpanExceeded" for s in shots),
                len(shots)),
            "solver.assemble_profile.busy_s": sum(s.duration for s in assembled),
            "solver.assemble_profile.samples": total(assembled, "samples"),
            "solver.rel_residual_max": max(rel, default=0.0),
            "reference.busy_s": busy("reference"),
            "reference.steps": total(named["integrator.field"], "steps"),
            "reference.fit.busy_s": sum(s.duration
                                        for s in named["reference.fit"]),
            "asymptotics.calls": len(asym),
            "asymptotics.busy_s": sum(s.duration for s in asym),
            "cli.commands": len(commands),
            "cli.busy_s": busy("cli"),
            "cli.self_s": self_time("cli"),
            "cli.bytes_out": sum(r.bytes_out for r in results),
            "cli.nonzero_exits": sum(r.exit_code != 0 for r in results),
            "trace.overhead_ratio": ratio(traced_s, plain_s),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                    "start_s": s.t0 - self._clock0, "end_s": s.t1 - self._clock0,
                    "calibration_s": s.calibration_s,
                    "self_s": s.duration - s.child_s, **s.info}) + "\n")
