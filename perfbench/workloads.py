"""Workloads of the cutoffwave benchmark.

Each workload draws rounds from a seeded generator.  A round is a fixed
mix of operations; a run executes whole rounds, so the mix is the same
however many rounds fit in the measured time.  Every operation is timed
on its own and checked by the correctness gates below; checking is not
part of its latency.  The cyclic garbage collector is run to completion
before each timed call, so every call starts from the same collector
state: the collections inside it are set by its own allocations, not by
how much garbage earlier operations left.  Each latency is the wall time
scaled to a nominal host speed by a calibration loop timed around the
operation (hostspeed.py).

Operations reach the program only through its public API and in-process
``cli.main``, looked up on the module at call time so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from cutoffwave import cli, reaction, solver
from cutoffwave.errors import CutoffWaveError

from hostspeed import HostClock

REACTIONS = ("fisher", "cubic")

#: the residual criterion, fixed here rather than read from the program so
#: that loosening the program's default makes operations fail; 1e-8 is the
#: default of ShootingConfig and of the CLI's --tol-shoot
RESIDUAL_TOL = 1e-8
FISHER_V_HALF = 0.5600136810
FISHER_V_HALF_TOL = 1e-9
#: leading-edge constants of the Fisher wave, as fitted at the commit that
#: introduced the benchmark, to the precision they were quoted with
FISHER_A, FISHER_B, FIT_TOL = 3.55, -11.41, 0.01


@dataclass
class OpResult:
    """One timed operation and the outcome of its gates."""

    label: str
    #: seconds at the nominal host speed
    latency_s: float
    failure: str | None = None
    #: (u_c, v*, residual) for every speed the operation computed
    speeds: list[tuple[float, float, float]] = field(default_factory=list)
    bytes_out: int = 0
    exit_code: int = 0


@dataclass
class Context:
    """How a round reaches the program: plain, or through the tracer."""

    workdir: str
    spec: Callable[[str], reaction.ReactionSpec] = reaction.by_name
    cli_main: Callable[[list[str]], int] | None = None
    #: entered around gate checks, so that their own solver calls are not
    #: attributed to the operation
    checking: Callable[[], contextlib.AbstractContextManager] = (
        contextlib.nullcontext)
    clock: HostClock = field(default_factory=HostClock)

    def run_cli(self, argv: list[str]) -> int:
        return (self.cli_main or cli.main)(argv)


def check_speed(u_c: float, v: float, residual: float) -> str | None:
    """Gate shared by every computed speed; returns the failure or None."""
    if not (math.isfinite(v) and math.isfinite(residual)):
        return f"u_c={u_c:g}: no speed"
    if not 0.0 < v < 2.0:
        return f"u_c={u_c:g}: v*={v!r} outside (0, 2)"
    if abs(residual) > RESIDUAL_TOL:
        return f"u_c={u_c:g}: |residual|={abs(residual):.3e} > {RESIDUAL_TOL:g}"
    return None


def check_fisher_half(name: str, u_c: float, v: float) -> str | None:
    if name == "fisher" and u_c == 0.5 and abs(v - FISHER_V_HALF) > FISHER_V_HALF_TOL:
        return f"fisher v*(0.5)={v!r}, expected {FISHER_V_HALF} +- {FISHER_V_HALF_TOL:g}"
    return None


def log_strata(lo: float, hi: float, offsets: list[float]) -> list[float]:
    """One threshold in each of len(offsets) equal log strata of [lo, hi].

    ``offsets`` in [0, 1] place each draw inside its stratum; uniform
    offsets give log-uniform draws.  Stratifying keeps every run's mix of
    cheap and expensive thresholds the same, which a plain draw of a few
    dozen would not.
    """
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / len(offsets)
    return [math.exp(a + (i + o) * width) for i, o in enumerate(offsets)]


class Workload:
    """A named set of rounds; subclasses define how ops run and are gated."""

    name: str
    #: span name that starts an operation in the trace
    op_span: str
    #: fixed, so that runs with different round counts compare the same
    #: statistic; see each subclass for how it was chosen
    tail_percentile: int

    def make_round(self, rng) -> list:
        raise NotImplementedError

    def run_ops(self, ops: list, ctx: Context) -> list[OpResult]:
        """Time and gate each operation on its own."""
        raise NotImplementedError

    def check_round(self, ops: list, results: list[OpResult]) -> None:
        """Gates that span operations; marks the offending results failed."""

    def run_round(self, ops: list, ctx: Context) -> list[OpResult]:
        results = self.run_ops(ops, ctx)
        self.check_round(ops, results)
        return results


class SweepWarm(Workload):
    """Continuation sweeps over the acceptance-suite grid, both reactions.

    The grid is fixed, so the seed only orders the two reactions; every
    row is a warm-bracket solve, so integrator stepping and bisection do
    nearly all the work.
    """

    name = "sweep-warm"
    op_span = "solver.solve_speed"
    #: 120 rows per round: the highest percentile with ten rows beyond it
    tail_percentile = 91
    grid = sorted((float(u) for u in np.logspace(-10.0, math.log10(0.99), 60)),
                  reverse=True)

    def make_round(self, rng) -> list:
        return rng.sample(REACTIONS, len(REACTIONS))

    def run_ops(self, ops: list, ctx: Context) -> list[OpResult]:
        results: list[OpResult] = []
        for name in ops:
            spec = ctx.spec(name)
            # the rows of a single sweep() call are timed by a hook that
            # reads the clock as each row's solve returns; a row's time runs
            # from the end of the calibration after the row before it
            latencies: list[float] = []
            mark = [0.0]
            solve = solver.solve_speed

            def stamped(*args, **kwargs):
                try:
                    return solve(*args, **kwargs)
                finally:
                    latencies.append(ctx.clock.scale(perf_counter() - mark[0]))
                    mark[0] = perf_counter()

            ctx.clock.start()
            gc.collect()
            solver.solve_speed = stamped
            try:
                mark[0] = perf_counter()
                curve = solver.sweep(spec, self.grid)
            finally:
                solver.solve_speed = solve
            rows = curve.rows
            if len(latencies) != len(rows):
                raise RuntimeError(
                    f"sweep() returned {len(rows)} rows from {len(latencies)} "
                    "solve_speed calls; its rows cannot be timed one by one")
            prev_v = 0.0
            for row, latency in zip(rows, latencies):
                failure = (curve.failures.get(row.u_c)
                           or check_speed(row.u_c, row.v_star, row.residual))
                if failure is None and not row.v_star > prev_v:
                    failure = (f"u_c={row.u_c:g}: v*={row.v_star!r} not above "
                               f"the next larger threshold's {prev_v!r}")
                if failure is None:
                    prev_v = row.v_star
                results.append(OpResult(
                    f"{name} row u_c={row.u_c:.6g}", latency, failure,
                    [(row.u_c, row.v_star, row.residual)]))
        return results


class SolveCold(Workload):
    """Independent solve_speed calls with no guess, both reactions.

    Thresholds are drawn log-uniformly in [1e-5, 0.99] as a systematic
    sample, plus the anchors 0.99, 0.5 (the Fisher v*(0.5) gate) and 1e-5
    (the most expensive end, which fixes the run's peak memory).  One
    seeded offset places Fisher's draw at the same position in each of
    equal log strata, so each draw is log-uniform; cubic's offset is one
    minus Fisher's.  Cost rises steeply as u_c falls, so the tail solve's
    cost depends on where the draws fall inside the low strata; a shared
    offset keeps their spacing fixed and makes that vary less between
    seeds than independent offsets per stratum do.
    """

    name = "solve-cold"
    op_span = "solver.solve_speed"
    lo, hi = 1e-5, 0.99
    anchors = (0.99, 0.5, 1e-5)
    #: strata per reaction
    draws = 24
    #: 54 solves per round: the highest percentile with ten solves beyond it
    tail_percentile = 81

    def make_round(self, rng) -> list:
        offset = rng.random()
        ops = [(name, u_c) for name, o in zip(REACTIONS, (offset, 1.0 - offset))
               for u_c in (*self.anchors,
                           *log_strata(self.lo, self.hi, [o] * self.draws))]
        rng.shuffle(ops)
        return ops

    def run_ops(self, ops: list, ctx: Context) -> list[OpResult]:
        specs = {name: ctx.spec(name) for name in REACTIONS}
        results: list[OpResult] = []
        for name, u_c in ops:
            label = f"{name} u_c={u_c:.6g}"
            ctx.clock.start()
            gc.collect()
            t0 = perf_counter()
            try:
                sol = solver.solve_speed(reaction.make_cutoff(specs[name], u_c))
            except CutoffWaveError as exc:
                results.append(OpResult(
                    label, ctx.clock.scale(perf_counter() - t0),
                    f"{type(exc).__name__}: {exc}"))
                continue
            latency = ctx.clock.scale(perf_counter() - t0)
            failure = (check_speed(u_c, sol.v_star, sol.residual)
                       or check_fisher_half(name, u_c, sol.v_star))
            results.append(OpResult(label, latency, failure,
                                    [(u_c, sol.v_star, sol.residual)]))
        return results

    def check_round(self, ops: list, results: list[OpResult]) -> None:
        # speeds must fall strictly as the threshold rises, per reaction
        for name in REACTIONS:
            mine = sorted((r for r, (n, _) in zip(results, ops)
                           if n == name and r.speeds),
                          key=lambda r: r.speeds[0][0])
            for below, above in zip(mine, mine[1:]):
                if not above.speeds[0][1] < below.speeds[0][1] and not above.failure:
                    above.failure = f"v* not below that of {below.label}"


class ProfileDense(Workload):
    """In-process CLI runs that write dense profiles, constants and a chart.

    Per round: four 100 001-sample profiles over y in [-20, 5] at one
    seeded threshold, each reaction in each frame; the reference
    constants of both reactions; and a Fisher compare over 0.5 plus three
    stratified log-uniform thresholds, with an SVG chart.  Reading
    trajectories and formatting CSV dominate.  The window lies inside the
    computed rear for every threshold drawn, so each profile reads the
    same number of trajectory samples.
    """

    name = "profile-dense"
    op_span = "cli.main"
    samples = 100_001
    #: the four profiles are the slowest commands of a round of seven, so
    #: both p50 and p64 fall among them; p64 has ten commands beyond it
    #: from four rounds on, the fewest a 20 s run has held
    tail_percentile = 64

    def make_round(self, rng) -> list:
        u_c = math.exp(rng.uniform(math.log(0.05), math.log(0.45)))
        ucs = [0.5] + log_strata(1e-3, 0.9, [rng.random() for _ in range(3)])
        return [*(("profile", name, u_c, frame) for name in REACTIONS
                  for frame in ("origin-at-uc", "origin-at-half")),
                *(("reference", name) for name in REACTIONS),
                ("compare", "fisher", ucs)]

    def run_ops(self, ops: list, ctx: Context) -> list[OpResult]:
        results = []
        for i, op in enumerate(ops):
            kind, name = op[0], op[1]
            out = os.path.join(ctx.workdir, f"{i}-{kind}-{name}")
            argv = [kind, "--reaction", name, "--output", out]
            paths = [out]
            if kind == "profile":
                argv += ["--uc", repr(op[2]), "--frame", op[3],
                         "--samples", str(self.samples),
                         "--y-min", "-20", "--y-max", "5"]
                label = f"profile {name} {op[3]} u_c={op[2]:.6g}"
            elif kind == "compare":
                svg = out + ".svg"
                argv += ["--uc", ",".join(repr(u) for u in op[2]), "--svg", svg]
                paths.append(svg)
                label = f"compare {name} " + ",".join(f"{u:.3g}" for u in op[2])
            else:
                label = f"reference {name}"
            stdout = io.StringIO()
            ctx.clock.start()
            gc.collect()
            t0 = perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = ctx.run_cli(argv)
            latency = ctx.clock.scale(perf_counter() - t0)
            result = OpResult(label, latency, exit_code=code,
                              bytes_out=len(stdout.getvalue().encode()) + sum(
                                  os.path.getsize(p) for p in paths
                                  if os.path.exists(p)))
            if code != 0:
                result.failure = f"exit code {code}"
            else:
                try:
                    with ctx.checking():
                        result.failure = self._check(op, out, result)
                except (OSError, ValueError, KeyError) as exc:
                    result.failure = f"unreadable output: {exc!r}"
            for p in paths:
                if os.path.exists(p):
                    os.remove(p)
            results.append(result)
        return results

    def _check(self, op, out: str, result: OpResult) -> str | None:
        kind, name = op[0], op[1]
        if kind == "profile":
            with open(out, encoding="utf-8") as fh:
                if fh.readline() != "y,U,Uprime\n":
                    return "profile: bad header"
            data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            if data.shape != (self.samples, 3):
                return f"profile: shape {data.shape}"
            y, u = data[:, 0], data[:, 1]
            if not np.all(np.diff(y) > 0.0):
                return "profile: y not increasing"
            if not np.all(np.diff(u) <= 0.0):
                return "profile: U increases"
            if not (u.min() >= 0.0 and u.max() <= 1.0):
                return "profile: U outside [0, 1]"
            return None
        if kind == "reference":
            with open(out, encoding="utf-8") as fh:
                fit = json.load(fh)
            a, b = float(fit["a_inf"]), float(fit["b_inf"])
            if name == "fisher" and (abs(a - FISHER_A) > FIT_TOL
                                     or abs(b - FISHER_B) > FIT_TOL):
                return f"fisher fit A={a!r}, B={b!r}; expected {FISHER_A}, {FISHER_B}"
            if not (a > 0.0 and math.isfinite(b)):
                return f"{name} fit A={a!r}, B={b!r}"
            return None
        # compare: rows in descending u_c, so v* must rise down the table;
        # the CSV carries no residual, so it is recomputed at each speed
        with open(out + ".svg", encoding="utf-8") as fh:
            chart = fh.read()
        if not (chart.startswith("<?xml") and chart.endswith("</svg>\n")):
            return "compare: malformed SVG"
        with open(out, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            rows = [dict(zip(header, map(float, line.split(",")))) for line in fh]
        if sorted(r["u_c"] for r in rows) != sorted(set(op[2])):
            return "compare: rows do not match the requested thresholds"
        spec = reaction.by_name(name)
        prev_v = 0.0
        for r in rows:
            u_c, v = r["u_c"], r["v_numeric"]
            res = solver.shoot_residual(reaction.make_cutoff(spec, u_c), v)
            result.speeds.append((u_c, v, res))
            failure = check_speed(u_c, v, res) or check_fisher_half(name, u_c, v)
            if failure is None and not v > prev_v:
                failure = f"compare: v*({u_c:g}) not above the next larger threshold's"
            if failure:
                return failure
            prev_v = v
        return None


WORKLOADS = {w.name: w for w in (SweepWarm(), SolveCold(), ProfileDense())}
