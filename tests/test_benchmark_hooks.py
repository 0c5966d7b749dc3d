"""The benchmark's tracer wraps program functions by name; a rename that
drops one of them must fail here, not only in a traced benchmark run.
One seeded round of each workload must also pass the benchmark's own
correctness gates."""

import pathlib
import random
import sys

import pytest

from cutoffwave import fisher, make_cutoff, solver

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    # perfbench/run.py puts its own directory on the path the same way
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # a config file would change what the CLI operations compute
    monkeypatch.delenv("PTW_CONFIG", raising=False)
    yield
    for name in ("tracer", "workloads", "hostspeed"):
        sys.modules.pop(name, None)


@pytest.fixture
def tracer(perfbench):
    import tracer
    return tracer


def test_tracer_patches_and_restores_its_targets(tracer):
    trace = tracer.Tracer("solver.solve_speed")
    with trace.installed():
        patched = list(trace._patches)
        solver.solve_speed(make_cutoff(fisher(), 0.5)).trajectory
    names = {(owner.__name__, attr) for owner, attr, _ in patched}
    assert {("cutoffwave.solver", "trace_until_alpha"),
            ("cutoffwave.reference", "trace_field_until_alpha"),
            ("_Integration", "advance_to_alpha"), ("Trajectory", "sample"),
            ("Trajectory", "find_alpha")} <= names
    shots = [s for s in trace.spans if s.name == "integrator.shoot"]
    assert len(shots) == 1
    assert shots[0].info["steps"] > 0 and shots[0].info["legs"] == 1
    assert all(getattr(owner, attr) is original
               for owner, attr, original in patched)


@pytest.mark.parametrize("name", ["sweep-warm", "solve-cold",
                                  "profile-dense"])
def test_seeded_round_passes_the_benchmark_gates(perfbench, tmp_path, name):
    import workloads
    wl = workloads.WORKLOADS[name]
    results = wl.run_round(wl.make_round(random.Random(1)),
                           workloads.Context(workdir=str(tmp_path)))
    assert results
    assert [(r.label, r.failure) for r in results if r.failure] == []
