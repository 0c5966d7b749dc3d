"""Benchmark for cutoffwave.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py and described in NOTES.md.  With
``--trace 0`` the run sets up the workload in fresh interpreters, then
executes whole rounds of operations until ``--seconds`` of operation time
have passed, and reports the end-to-end metrics.  With ``--trace 1`` it
executes one round, each operation plain and then traced, and reports the
per-layer metrics of the traced operations, whose counts repeat exactly
for a given seed.  The last line of standard output is a JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile

#: the thread pools numpy's BLAS may start; pinned so each run is one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 9
HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = (("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def prepare() -> str:
    """Make the process hermetic and import cutoffwave from ./src.

    Returns the checkout root.  The CLI reads tolerances from PTW_CONFIG,
    so it is removed; thread pools are pinned before numpy loads.
    """
    os.environ.pop("PTW_CONFIG", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cutoffwave", "__init__.py")):
        raise SystemExit(f"error: no cutoffwave package under {src}; "
                         "run from the root of a cutoffwave checkout")
    sys.path.insert(0, src)
    import cutoffwave
    if not os.path.abspath(cutoffwave.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported cutoffwave from {cutoffwave.__file__}, "
                         f"not from {src}")
    return root


def seed_key(workload: str, seed) -> str:
    return f"{workload}/{seed}"


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median seconds, over fresh interpreters, to import and draw inputs:
    (at the nominal host speed, as wall time)."""
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             str(seed)], capture_output=True, text=True, check=True,
            timeout=120)
        w, s = map(float, out.stdout.split()[-2:])
        wall.append(w)
        scaled.append(s)
    return statistics.median(scaled), statistics.median(wall)


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def plain_run(wl, rng, seconds: float, workdir: str, seed: int) -> dict:
    from workloads import Context

    setup_s, setup_wall = measure_setup(wl.name, seed)
    ctx = Context(workdir=workdir)
    results, rounds = [], 0
    # the run lasts --seconds of wall operation time; what it reports is
    # scaled to the nominal host speed
    while ctx.clock.wall_s < seconds:
        results += wl.run_round(wl.make_round(rng), ctx)
        rounds += 1
    busy = ctx.clock.scaled_s

    failed = [r for r in results if r.failure]
    # a failed operation misses any latency limit
    latencies = [math.inf if r.failure else r.latency_s for r in results]
    rel = [abs(res) / (v * u) for r in results for u, v, res in r.speeds
           if math.isfinite(v) and v > 0.0]
    n = len(results)
    tail = percentile(latencies, wl.tail_percentile)
    beyond = sum(x > tail for x in latencies)
    metrics = {
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
        "ops_per_s": (n - len(failed)) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    print(f"{wl.name} seed {seed}: {n} operations in {rounds} round(s), "
          f"{busy:.3f} s of operation time at the nominal host speed, "
          f"{ctx.clock.wall_s:.3f} s of wall time (set-up {setup_wall:.4f} s)")
    for name, unit in END_TO_END:
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{wl.tail_percentile} of {n} samples, {beyond} beyond it)"
        print(f"  {name:<18} {metrics[name]:.6g} {unit}{note}")
    print(f"  {'failed_ratio':<18} {len(failed) / n:.6g}  ({len(failed)}/{n})")
    print(f"  {'rel_residual_max':<18} {max(rel, default=math.nan):.6g}  "
          f"(max |residual| / (v* u_c) over {len(rel)} speeds)")
    for r in failed[:20]:
        print(f"  FAILED {r.label}: {r.failure}")
    return _result(results, {name: {"value": metrics[name], "unit": unit}
                             for name, unit in END_TO_END})


def traced_run(wl, rng, workdir: str, trace_path: str) -> dict:
    from tracer import PER_LAYER, Tracer
    from workloads import Context

    # each operation runs plain and then traced, back to back, so that
    # drift over the run does not enter the overhead ratio
    ops = wl.make_round(rng)
    plain = Context(workdir)
    tracer = Tracer(wl.op_span)
    traced_ctx = tracer.context(workdir)
    plain_s, results = 0.0, []
    for op in ops:
        plain_s += sum(r.latency_s for r in wl.run_ops([op], plain))
        with tracer.installed():
            results += wl.run_ops([op], traced_ctx)
    wl.check_round(ops, results)
    traced_s = sum(r.latency_s for r in results)
    tracer.write(trace_path)
    values = tracer.metrics(results, plain_s, traced_s)
    print(f"{wl.name}: traced {len(results)} operations, {len(tracer.spans)} "
          f"spans written to {os.path.relpath(trace_path)}")
    for name, unit in PER_LAYER:
        print(f"  {name:<32} {values[name]:.6g} {unit}")
    for r in results:
        if r.failure:
            print(f"  FAILED {r.label}: {r.failure}")
    return _result(results, {name: {"value": values[name], "unit": unit}
                             for name, unit in PER_LAYER})


def _result(results, metrics: dict) -> dict:
    failed = sum(1 for r in results if r.failure)
    # a failed operation's infinite latency can reach a percentile; JSON
    # has no infinity, so such a value is written as null
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = None
    return {"correct": failed == 0, "attempted": len(results),
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = prepare()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"available: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    rng = random.Random(seed_key(wl.name, args.seed))
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        if args.trace:
            trace_path = os.path.join(out_dir,
                                      f"trace-{wl.name}-seed{args.seed}.jsonl")
            result = traced_run(wl, rng, workdir, trace_path)
        else:
            result = plain_run(wl, rng, args.seconds, workdir, args.seed)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
