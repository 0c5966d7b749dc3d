import concurrent.futures
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import cutoffwave
from cutoffwave import (ShootingConfig, SpanExceeded, assemble_profile, cli,
                        fisher, make_cutoff, solve_speed, solver)
from cutoffwave.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def reemit_csv(text):
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                int(cell)
                cells.append(cell)
            except ValueError:
                cells.append(format(float(cell), ".17g"))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _cli_env():
    """Environment for a child that imports the same package as the tests,
    installed or not."""
    package_root = os.path.dirname(os.path.dirname(cutoffwave.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def test_solve_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "--uc", "0.9")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"u_c", "v_star", "residual", "n_iterations",
                            "bracket"}
    assert abs(payload["v_star"] - (0.1 + 0.01 / 6.0)) < 1e-3
    assert abs(payload["residual"]) <= 1e-8
    assert len(payload["bracket"]) == 2


def test_solve_skips_the_dense_shot(capsys, monkeypatch):
    # solve prints only the speed and its bracket: no profile is built
    # and no dense path is shot
    profiles, traced = [], []
    blocks, trace = solver.profile_blocks, solver.trace_until_alpha

    def sampled(*args, **kwargs):
        profiles.append(args)
        return blocks(*args, **kwargs)

    def tracing(*args, **kwargs):
        traced.append(args)
        return trace(*args, **kwargs)

    # the command's own name, and the one the default profile reads through
    monkeypatch.setattr(solver, "profile_blocks", sampled)
    monkeypatch.setattr(cli, "profile_blocks", sampled)
    monkeypatch.setattr(solver, "trace_until_alpha", tracing)
    code, out, _ = run_cli(capsys, "solve", "--uc", "1e-5")
    assert code == 0 and profiles == [] and traced == []
    monkeypatch.undo()
    sol = solve_speed(make_cutoff(fisher(), 1e-5))
    assert out == json.dumps(
        {"u_c": sol.u_c, "v_star": sol.v_star, "residual": sol.residual,
         "n_iterations": sol.n_iterations, "bracket": list(sol.bracket)},
        indent=2) + "\n"


def test_solve_rejects_out_of_range(capsys):
    code, _, err = run_cli(capsys, "solve", "--uc", "1.5")
    assert code == 2
    assert "(0, 1)" in err


def test_solve_threshold_above_manifold_start(capsys):
    # above 1 - 1e-10 every shot starts on the threshold itself
    code, out, _ = run_cli(capsys, "solve", "--uc", "0.99999999999")
    assert code == 0
    delta = 1.0 - 0.99999999999
    assert json.loads(out)["v_star"] == pytest.approx(delta + delta ** 2 / 2,
                                                      rel=1e-9)


@pytest.mark.parametrize("argv,config", [
    (["--epsilon-manifold", "1e-12"], None),
    ([], "epsilon_manifold=1e-12\n")])
def test_removed_manifold_offset_setting_refused(capsys, tmp_path,
                                                 monkeypatch, argv, config):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        monkeypatch.setenv("PTW_CONFIG", str(cfg))
    code, out, err = run_cli(capsys, "solve", "--uc", "0.5", *argv)
    assert code == 2 and out == ""
    assert ("--epsilon-manifold" if argv else "'epsilon_manifold'") in err


@pytest.mark.parametrize("config", [None, "tol_ode=1e-22\n"])
def test_tolerance_below_double_epsilon_refused(capsys, tmp_path,
                                                monkeypatch, config):
    # below the double precision epsilon the error test measures rounding,
    # and a solve at 1e-22 ran for over a minute before it was refused
    argv = ["solve", "--uc", "0.5"]
    if config is None:
        argv += ["--tol-ode", "1e-22"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        monkeypatch.setenv("PTW_CONFIG", str(cfg))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert repr(sys.float_info.epsilon) in err


def test_solve_numerical_failure_exit(capsys):
    # an unmeetable residual criterion surfaces as a numerical failure
    code, _, err = run_cli(capsys, "solve", "--uc", "0.5", "--tol-shoot",
                           "1e-18")
    assert code == 3
    assert "MaxIterations" in err


@pytest.mark.parametrize("flag", ["--tol-shoot", "--tol-ode"])
def test_solve_rejects_nan_tolerance(capsys, flag):
    # NaN would switch the residual check off (--tol-shoot) or fail the
    # shots as a numerical error (--tol-ode): it is a usage error
    code, out, err = run_cli(capsys, "solve", "--uc", "0.5", flag, "nan")
    assert code == 2 and out == ""
    assert "positive" in err


def test_config_rejects_nan_tolerance(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol_shoot=nan\n")
    monkeypatch.setenv("PTW_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "solve", "--uc", "0.5")
    assert code == 2 and out == ""


def test_solve_csv_format(capsys):
    code, out, _ = run_cli(capsys, "solve", "--uc", "0.5", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["u_c", "v_star", "residual", "n_iterations",
                      "bracket_lo", "bracket_hi"]
    assert len(rows) == 1


def test_solve_svg_rejected(capsys):
    code, _, err = run_cli(capsys, "solve", "--uc", "0.5", "--format", "svg")
    assert code == 2


def test_sweep_two_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--uc-min", "0.3", "--uc-max",
                           "0.6", "--count", "2", "--spacing", "linear")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["u_c", "v_star", "residual", "n_iterations"]
    assert len(rows) == 2
    # continuation order: descending u_c
    assert float(rows[0][0]) == 0.6 and float(rows[1][0]) == 0.3
    assert float(rows[1][1]) > float(rows[0][1])


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_failed_rows_are_valid_json(capsys):
    # a residual tolerance no shot meets fails every row; JSON writes its
    # missing speed and residual as null, CSV as nan
    argv = ["sweep", "--uc-min", "0.3", "--uc-max", "0.5", "--count", "2",
            "--tol-shoot", "1e-30"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 3
    rows = json.loads(out, parse_constant=_refuse_constant)
    assert [(r["v_star"], r["residual"]) for r in rows] == [(None, None)] * 2
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    assert [r[1:3] for r in parse_csv(out)[1]] == [["nan", "nan"]] * 2


def test_json_pair_cell_writes_null(capsys):
    cli._write(["a", "b", "n"], [(math.inf, (0.5, math.nan), 3)], "json",
               None, one=True)
    out = capsys.readouterr().out
    assert json.loads(out, parse_constant=_refuse_constant) == {
        "a": None, "b": [0.5, None], "n": 3}


def test_blocks_write_as_one_table(capsys):
    # a table written a block at a time, from row tuples or from float
    # arrays, is byte for byte the table written whole: one row template
    # for CSV, one json.dumps of every record with a non-finite float as
    # null for JSON
    table = np.random.default_rng(0).standard_normal((2 * 4096 + 3, 3))
    table[[5, 4096, -1], [1, 0, 2]] = math.nan, math.inf, -math.inf

    def dumps(header, rows):
        return json.dumps([
            {name: x if isinstance(x, int) or math.isfinite(x) else None
             for name, x in zip(header, row)} for row in rows], indent=2)

    rows = [(y, np.float64(u), k)
            for k, (y, u, _) in enumerate(table.tolist())]
    cli._write(["y", "U", "n"], rows, "json", None)
    assert capsys.readouterr().out == dumps(["y", "U", "n"], rows) + "\n"
    cli._write(["y", "U", "n"], rows, "csv", None)
    assert capsys.readouterr().out == "y,U,n\n" + "".join(
        "%.17g,%.17g,%d\n" % row for row in rows)
    blocks = (table[k:k + 4096] for k in range(0, len(table), 4096))
    cli._write(["y", "U", "Uprime"], blocks, "json", None)
    assert capsys.readouterr().out == dumps(["y", "U", "Uprime"],
                                            table.tolist()) + "\n"


def test_sweep_count_validation(capsys):
    code, _, err = run_cli(capsys, "sweep", "--uc-min", "0.3", "--uc-max",
                           "0.6", "--count", "1")
    assert code == 2


def test_sweep_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--uc-min", "0.2", "--uc-max",
                           "0.8", "--count", "4", "--spacing", "log")
    assert code == 0
    assert out == reemit_csv(out)
    assert not any(line != line.rstrip() for line in out.splitlines())
    assert "\r" not in out


def test_sweep_deterministic(capsys):
    args = ("sweep", "--uc-min", "0.4", "--uc-max", "0.7", "--count", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 and out1 == out2


@pytest.mark.parametrize("extra, message", [
    (["--jobs", "0"], "--jobs must be at least 1"),
    (["--jobs", "-3"], "--jobs must be at least 1"),
    # removed flags: one job warm-starts rows, more solve them in a pool,
    # and output is always deterministic
    (["--no-continuation"], "unrecognized arguments: --no-continuation"),
    (["--seedless"], "unrecognized arguments: --seedless")],
    ids=["jobs-0", "jobs-negative", "no-continuation", "seedless"])
def test_sweep_jobs_validation(capsys, extra, message):
    code, out, err = run_cli(capsys, "sweep", "--uc-min", "0.3", "--uc-max",
                             "0.6", "--count", "2", *extra)
    assert code == 2
    assert out == ""
    assert message in err


def test_compare_rejects_bad_jobs_and_removed_flag(capsys):
    code, _, err = run_cli(capsys, "compare", "--uc", "0.5", "--jobs", "0")
    assert code == 2 and "--jobs must be at least 1" in err
    code, _, err = run_cli(capsys, "compare", "--uc", "0.5",
                           "--no-continuation")
    assert code == 2 and "unrecognized arguments" in err


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_degenerate_grid_names_its_flags(capsys, monkeypatch, command, jobs):
    # equal bounds give one threshold three times; both row paths refuse
    # the grid before solving and name the flags that made it
    sizes = _recording_pool(monkeypatch)
    code, out, err = run_cli(capsys, command, "--uc-min", "0.1", "--uc-max",
                             "0.1", "--count", "3", "--jobs", jobs)
    assert code == 2 and out == "" and sizes == []
    assert all(flag in err for flag in ("--uc-min", "--uc-max", "--count"))
    assert "repeated thresholds" in err


def _recording_pool(monkeypatch) -> list:
    """Replace the process pool by an in-process one; returns its sizes."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes


@pytest.mark.parametrize("jobs, count, workers", [(64, 2, 2), (3, 4, 3)])
def test_jobs_pool_capped_at_row_count(capsys, monkeypatch, jobs, count,
                                       workers):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    sizes = _recording_pool(monkeypatch)
    code, out, _ = run_cli(capsys, "sweep", "--uc-min", "0.4", "--uc-max",
                           "0.6", "--count", str(count), "--jobs", str(jobs))
    assert code == 0
    assert sizes == [workers]
    assert len(parse_csv(out)[1]) == count


@pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1)])
def test_jobs_pool_capped_at_cpu_count(capsys, monkeypatch, cpus, workers):
    # a pool of N workers forks N interpreters at once; more than the CPUs
    # only queue for them
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    sizes = _recording_pool(monkeypatch)
    code, out, _ = run_cli(capsys, "sweep", "--uc-min", "0.4", "--uc-max",
                           "0.6", "--count", "10", "--jobs", "64")
    assert code == 0
    assert sizes == [workers]
    assert len(parse_csv(out)[1]) == 10


def test_one_job_never_starts_a_pool(capsys, monkeypatch):
    sizes = _recording_pool(monkeypatch)
    code, _, _ = run_cli(capsys, "sweep", "--uc-min", "0.4", "--uc-max",
                         "0.6", "--count", "2")
    assert code == 0
    assert sizes == []


def test_cli_import_loads_no_process_pool():
    # only a --jobs run above 1 imports the pool
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cutoffwave.cli; "
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=300, env=_cli_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_sweep_independent_rows_match_continuation(capsys):
    base = ("sweep", "--uc-min", "0.35", "--uc-max", "0.65", "--count", "3")
    _, warm, _ = run_cli(capsys, *base)
    code, cold, _ = run_cli(capsys, *base, "--jobs", "2")
    assert code == 0
    wrows = [float(r[1]) for r in parse_csv(warm)[1]]
    crows = [float(r[1]) for r in parse_csv(cold)[1]]
    assert wrows == pytest.approx(crows, abs=1e-9)


def test_profile_threshold_frame(capsys):
    code, out, _ = run_cli(capsys, "profile", "--uc", "0.5", "--y-min", "-5",
                           "--y-max", "1", "--samples", "601")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["y", "U", "Uprime"]
    ys = [float(r[0]) for r in rows]
    us = [float(r[1]) for r in rows]
    at_zero = us[ys.index(0.0)]
    assert at_zero == pytest.approx(0.5, abs=1e-12)
    assert all(b < a for a, b in zip(us, us[1:]))
    # analytic tail at y = 1
    v_star = 0.560013681007
    assert us[-1] == pytest.approx(0.5 * math.exp(-v_star), abs=1e-9)


def test_profile_half_frame(capsys):
    code, out, _ = run_cli(capsys, "profile", "--uc", "0.2", "--y-min", "-8",
                           "--y-max", "8", "--samples", "401", "--frame",
                           "origin-at-half")
    assert code == 0
    _, rows = parse_csv(out)
    ys = [float(r[0]) for r in rows]
    us = [float(r[1]) for r in rows]
    i0 = ys.index(0.0)
    assert us[i0] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("frame", ["origin-at-uc", "origin-at-half"])
def test_profile_builds_no_default_profile(capsys, monkeypatch, frame):
    # the command assembles its own window once: the solution's default
    # profile of 1,201 samples is never read, so it is never assembled
    calls = []
    blocks = solver.profile_blocks

    def sampled(sol, y_min, y_max, n_samples=1201, **kwargs):
        calls.append(n_samples)
        return blocks(sol, y_min, y_max, n_samples, **kwargs)

    # the command's own name, and the one the default profile reads through
    monkeypatch.setattr(cli, "profile_blocks", sampled)
    monkeypatch.setattr(solver, "profile_blocks", sampled)
    code, out, _ = run_cli(capsys, "profile", "--uc", "0.2", "--samples",
                           "101", "--frame", frame)
    assert code == 0 and len(parse_csv(out)[1]) == 101
    assert calls == [101]


def test_profile_dense_path_failure_exit(capsys, monkeypatch):
    # the dense path is shot when profile first reads it; a path that
    # turns fails that read, which is a numerical failure
    def turned(*args):
        raise SpanExceeded("trajectory turned")

    monkeypatch.setattr(solver, "trace_until_alpha", turned)
    code, out, err = run_cli(capsys, "profile", "--uc", "0.3")
    assert code == 3 and out == ""
    assert "MaxIterations" in err and "dense path" in err


def test_failed_row_same_from_sweep_and_worker():
    # a failed row keeps its place with NaN speed and residual and no
    # shots, whether the warm sweep or a --jobs worker solved it
    config = ShootingConfig(residual_tol=1e-18)
    row, err = cli._solve_row(("fisher", 0.5, config))
    assert err.startswith("MaxIterations")
    rows, failures = cli._solve_rows("fisher", fisher(), config, [0.5], 1)
    assert failures == {0.5: err}
    assert repr(rows) == repr([row]) == repr([(0.5, math.nan, math.nan, 0)])


def test_profile_validation(capsys):
    code, _, _ = run_cli(capsys, "profile", "--uc", "0.5", "--y-min", "3",
                         "--y-max", "1")
    assert code == 2


@pytest.mark.parametrize("flag,value", [("--y-min", "nan"), ("--y-max", "nan"),
                                        ("--y-max", "inf")])
def test_profile_refuses_non_finite_window(capsys, flag, value):
    # these used to print NaN or inf rows with exit code 0
    code, out, err = run_cli(capsys, "profile", "--uc", "0.5",
                             f"{flag}={value}")
    assert code == 2 and out == ""
    assert flag in err


def test_profile_minus_inf_clamps_to_computed_rear(capsys):
    minus_inf, deep = (run_cli(capsys, "profile", "--uc", "0.9",
                               f"--y-min={y}", "--y-max", "2", "--samples",
                               "31") for y in ("-inf", "-1000"))
    assert minus_inf == deep and deep[0] == 0


def test_profile_clamps_to_computed_rear(capsys):
    # the rear only extends to the saddle approach; a deeper request is
    # clamped, keeping the requested sample count
    code, out, _ = run_cli(capsys, "profile", "--uc", "0.9", "--y-min",
                           "-1000", "--y-max", "2", "--samples", "301")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 301
    ys = [float(r[0]) for r in rows]
    us = [float(r[1]) for r in rows]
    assert ys[0] > -50.0
    assert us[0] > 1.0 - 1e-8
    assert all(b < a for a, b in zip(us, us[1:]))


def test_profile_wholly_ahead_is_exponential_tail(capsys):
    code, out, _ = run_cli(capsys, "profile", "--uc", "0.3", "--y-min", "1",
                           "--y-max", "3", "--samples", "51")
    assert code == 0
    _, rows = parse_csv(out)
    _, solved, _ = run_cli(capsys, "solve", "--uc", "0.3")
    v = json.loads(solved)["v_star"]
    assert len(rows) == 51
    for y, u, up in ((float(c) for c in row) for row in rows):
        decay = math.exp(-v * y)
        assert (u, up) == (0.3 * decay, -v * 0.3 * decay)


def test_profile_wholly_behind(capsys):
    code, out, _ = run_cli(capsys, "profile", "--uc", "0.3", "--y-max", "-1",
                           "--samples", "51")
    assert code == 0
    _, rows = parse_csv(out)
    ys = [float(r[0]) for r in rows]
    us = [float(r[1]) for r in rows]
    assert len(rows) == 51 and ys[-1] == -1.0
    assert all(0.3 < b < a < 1.0 for a, b in zip(us, us[1:]))


def test_profile_prints_assembled_profile(capsys):
    # the command and the library share one evaluator for the wave
    code, out, _ = run_cli(capsys, "profile", "--uc", "0.5", "--y-min", "-5",
                           "--y-max", "2", "--samples", "101")
    assert code == 0
    sol = solve_speed(make_cutoff(fisher(), 0.5))
    prof = assemble_profile(sol, -5.0, 2.0, 101)
    expected = [[format(x, ".17g") for x in row]
                for row in zip(prof.y.tolist(), prof.u.tolist(),
                               prof.uprime.tolist())]
    assert parse_csv(out)[1] == expected


#: SHA-256 of the stdout of these commands, recorded before the command
#: sampled its window through assemble_profile (the first five), before
#: CSV tables were written in blocks of rows (the next eight: profiles on
#: either side of a row-block edge, a pair cell, an int column and a
#: compare table), before the command sampled its window a block at a
#: time (the next five: profiles on either side of a sampling-block edge)
#: and before JSON was written a block at a time (the last seven)
OUTPUT_PINS = {
    ("profile", "--uc", "0.2", "--samples", "201", "--frame", "origin-at-uc"):
        "4a8c60e60e544d0e02d2dfa632e89225277c29e4e8564c7716d3eb8513634be1",
    ("profile", "--uc", "0.2", "--samples", "201", "--frame",
     "origin-at-half"):
        "0f906ef986797cedb9c0c12b82d2325b9dc7aea9aad4e83330a5c712206b9f0b",
    ("profile", "--reaction", "cubic", "--uc", "1e-3", "--samples", "201",
     "--frame", "origin-at-uc"):
        "26a0cf8a95b0c9841504546e0bc331c81e9da0379913f233cbce1f8f8d7888de",
    ("profile", "--reaction", "cubic", "--uc", "1e-3", "--samples", "201",
     "--frame", "origin-at-half"):
        "76ab4c892961a67aadacacb227b6f241bab15b69e9a2ed86c45b8198b4778635",
    ("reference",):
        "a49b9f4a173a4e18b3759a82262ed9eae757a2eee893c50473ac36a13af0f2bc",
    ("profile", "--uc", "0.5", "--samples", "1023"):
        "1eebd235bdfba483658060aba8d9ee9f49164eb7288ae13a8a4d1dad09e2727b",
    ("profile", "--uc", "0.5", "--samples", "1024"):
        "fca435686750e5507fb3f9717900c2281489f5bc5196b438d4b097208a4a95ff",
    ("profile", "--uc", "0.5", "--samples", "1025"):
        "96f16d6a67165bed23b882209ece386306f586d4be450d676dc7b1a345400a49",
    ("profile", "--uc", "0.5", "--samples", "2049"):
        "696732b277ca28529f4383ca7ae88430913c3f6e8fa5495b0f0fa7a25d8013f9",
    ("profile", "--uc", "0.5", "--samples", "100001"):
        "84d8032347d3c2913ede59bbd3de9d3f34a3c57090648aef972c02ecca82aed7",
    ("solve", "--uc", "0.5", "--format", "csv"):
        "6b51df39b97f78ad19bb8543385c667f85b4df8416c4eb4fe93c731720359b20",
    ("sweep", "--uc-min", "0.3", "--uc-max", "0.6", "--count", "5"):
        "08ea7a6a028f140570aa0581c60000ca0b87cc190b1a060450a6698134b7750b",
    ("compare", "--uc", "0.5,0.1,1e-3"):
        "bbdbb652e63ba27257c908d095fba10ae7338c386a7edc1b7dabf4bdf46b6b21",
    ("profile", "--uc", "0.5", "--samples", "4095"):
        "26c33365325aec37125dadc90466b36edee24cd7b89f1d6a40cbe7774c5d81de",
    ("profile", "--uc", "0.5", "--samples", "4096"):
        "2d3f3cf1cddc5dee568dfded2a14df84fb400aafbd0cf3aae59f1786bf2a57e1",
    ("profile", "--uc", "0.5", "--samples", "4097"):
        "76ece1f5ac027569216f7c4dda9c83546f264104cc6253edf65d3506f78b088d",
    ("profile", "--uc", "0.5", "--samples", "8193"):
        "c4583f711153280d85a9299ef6c5c5a8c3b1c11fe6081eb74e4c420de539453e",
    ("profile", "--uc", "0.2", "--samples", "4097", "--frame",
     "origin-at-half"):
        "39394d72074f2db2b001fd352c5b288361e4692a27b55a38462856b2f94e60cb",
    ("profile", "--uc", "0.5", "--samples", "4095", "--format", "json"):
        "0853d8deedc594b91b735105ad84707baabd5d1592a280c63adb9aa06ab500de",
    ("profile", "--uc", "0.5", "--samples", "4096", "--format", "json"):
        "28bdbd99f63b1b5ff91e862ca18917e0801ff470f49d0aaaeb65b8a5366b6688",
    ("profile", "--uc", "0.5", "--samples", "4097", "--format", "json"):
        "38841566c3be2c8367f7af3de97ac86861a0f964788fd47b4194834fe5d602ac",
    ("profile", "--uc", "0.2", "--samples", "4097", "--frame",
     "origin-at-half", "--format", "json"):
        "445c2206248c3f1fe7bad919356484fb37d06eb74a8bda4a9f3a7a2f5922fe32",
    ("sweep", "--uc-min", "0.3", "--uc-max", "0.6", "--count", "5",
     "--format", "json"):
        "70ff772513ad7139637b5498e979535db79138675a9ae8b01b1f801396b738af",
    ("compare", "--uc", "0.5,0.1,1e-3", "--format", "json"):
        "c7daa5691cc9e55ee9deae801d6f8579132c714ea3004b03afd1e735ca8aff7c",
    ("solve", "--uc", "0.5"):
        "105f049c6577a0cf22421f54be84d3bb189613c923085f2342fe7f452152923d",
}


@pytest.mark.parametrize("argv", list(OUTPUT_PINS))
def test_output_bits(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_PINS[argv]


def test_profile_writer_memory_is_bounded(tmp_path):
    # a CSV table is formatted and written a block of rows at a time, so
    # the writer never holds the whole 6 MB text of a dense profile
    sol = solve_speed(make_cutoff(fisher(), 0.5))
    prof = assemble_profile(sol, -30.0, 10.0, 100_001)
    table = np.column_stack((prof.y, prof.u, prof.uprime))
    blocks = (table[k:k + 4096] for k in range(0, len(table), 4096))
    target = tmp_path / "profile.csv"
    tracemalloc.start()
    try:
        cli._write(["y", "U", "Uprime"], blocks, "csv", str(target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert target.stat().st_size > 6_000_000


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_profile_command_memory_is_per_block(tmp_path, fmt):
    # the window is sampled and formatted a block at a time: past the
    # grid itself (8 bytes a sample), the command holds one block
    n = 200_001
    argv = ["profile", "--uc", "0.5", "--samples", str(n), "--format", fmt,
            "--output", str(tmp_path / f"profile.{fmt}")]
    assert main(argv) == 0  # warm: imports and first-call caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n


def test_profile_behind_the_rear_writes_no_output(capsys, tmp_path):
    # the window is checked before the output file is opened
    target = tmp_path / "profile.csv"
    code, out, err = run_cli(capsys, "profile", "--uc", "0.3", "--y-min",
                             "-1000", "--y-max", "-500", "--output",
                             str(target))
    assert code == 2 and out == ""
    assert "behind" in err
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_stdout_ends_quietly(fmt):
    # the reader stops after the first line, with far more than a pipe
    # buffer of rows still to come; the command still exits 0 and says
    # nothing
    proc = subprocess.Popen(
        [sys.executable, "-m", "cutoffwave.cli", "profile", "--uc", "0.5",
         "--samples", "20001", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    assert proc.stdout.readline() == {"csv": b"y,U,Uprime\n",
                                      "json": b"[\n"}[fmt]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0
    assert err == b""


@pytest.mark.parametrize("frame,window", [
    ("origin-at-half", ("-8", "8")), ("origin-at-half", ("2", "6")),
    ("origin-at-uc", ("1", "3")), ("origin-at-half", ("-1000", "-1"))])
def test_profile_frames_print_assembled_profile(capsys, frame, window):
    # every frame and window, wholly ahead of y = 0 or behind it, is read
    # through assemble_profile, y measured from its origin
    code, out, _ = run_cli(capsys, "profile", "--uc", "0.2", "--y-min",
                           window[0], "--y-max", window[1], "--samples", "201",
                           "--frame", frame)
    assert code == 0
    sol = solve_speed(make_cutoff(fisher(), 0.2))
    origin = sol.y_half if frame == "origin-at-half" else 0.0
    prof = assemble_profile(sol, float(window[0]), float(window[1]), 201,
                            origin=origin)
    assert out == "y,U,Uprime\n" + "".join(
        "%.17g,%.17g,%.17g\n" % row
        for row in zip(prof.y.tolist(), prof.u.tolist(), prof.uprime.tolist()))


def test_reference_json(capsys):
    code, out, _ = run_cli(capsys, "reference")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"a_inf", "b_inf", "gamma", "window", "residual"}
    assert 3.3 <= payload["a_inf"] <= 3.7
    assert -11.8 <= payload["b_inf"] <= -10.8
    assert payload["gamma"] == pytest.approx(math.sqrt(2) - 1.0, abs=1e-12)
    assert payload["window"] == [10.0, 25.0]


def test_reference_malformed_window(capsys):
    code, _, _ = run_cli(capsys, "reference", "--window", "25", "10")
    assert code == 2


@pytest.mark.parametrize("flag,value", [("--tol-shoot", "1e-30"),
                                        ("--epsilon-manifold", "1e-8")])
def test_reference_refuses_shooting_flags(capsys, flag, value):
    # the reference wave forms no residual and starts at a fixed offset
    code, out, err = run_cli(capsys, "reference", flag, value)
    assert code == 2 and out == ""
    assert flag in err


def test_compare_single_point(capsys, tmp_path):
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"a_inf": 3.5, "b_inf": -11.3}))
    code, out, _ = run_cli(capsys, "compare", "--uc", "0.9",
                           "--constants-source", str(constants))
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["u_c", "v_numeric", "v_two_term_small",
                      "v_three_term_small", "v_one_term_large",
                      "v_two_term_large", "err_two_small", "err_three_small",
                      "err_two_large"]
    assert len(rows) == 1
    row = dict(zip(header, map(float, rows[0])))
    assert abs(row["err_two_large"]) < 0.01
    assert row["v_two_term_large"] == pytest.approx(0.1 + 0.01 / 6.0,
                                                    abs=1e-12)
    assert out == reemit_csv(out)


@pytest.mark.parametrize("extra", [{"window": [10]}, {"window": 5},
                                   {"gamma": [1]}, {"residual": "x"}])
def test_compare_reads_only_a_and_b(capsys, tmp_path, extra):
    # compare uses A and B alone, so malformed optional keys change nothing
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"a_inf": 3.5, "b_inf": -11.3}))
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"a_inf": 3.5, "b_inf": -11.3, **extra}))
    outs = []
    for path in (plain, odd):
        code, out, _ = run_cli(capsys, "compare", "--uc", "0.5,0.01",
                               "--constants-source", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("text", ['{"a_inf": NaN, "b_inf": -11.3}',
                                  '{"a_inf": 3.5, "b_inf": Infinity}',
                                  '{"a_inf": -Infinity, "b_inf": NaN}'])
def test_compare_rejects_non_finite_constants(capsys, tmp_path, text):
    # json reads the NaN and Infinity tokens as floats
    path = tmp_path / "constants.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "compare", "--uc", "0.5",
                             "--constants-source", str(path))
    assert code == 2 and out == ""
    assert str(path) in err and "finite" in err


def test_compare_rejects_empty_threshold_list(capsys):
    code, out, err = run_cli(capsys, "compare", "--uc", ",")
    assert code == 2 and out == ""
    assert "comma-separated" in err


def test_compare_large_threshold_accuracy(capsys, tmp_path):
    # the two-term estimate tracks the speed closely on the upper range;
    # at u_c = 0.4 the true gap is 0.036 (5% relative), shrinking fast
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"a_inf": 3.5, "b_inf": -11.3}))
    code, out, _ = run_cli(capsys, "compare", "--uc", "0.4,0.6,0.8,0.95",
                           "--constants-source", str(constants))
    assert code == 0
    header, rows = parse_csv(out)
    for cells in rows:
        row = dict(zip(header, map(float, cells)))
        assert abs(row["err_two_large"]) / row["v_numeric"] < 0.055
        if row["u_c"] >= 0.6:
            assert abs(row["err_two_large"]) < 0.01


def test_compare_svg(capsys, tmp_path):
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"a_inf": 3.5, "b_inf": -11.3}))
    svg_path = tmp_path / "chart.svg"
    code, out, _ = run_cli(capsys, "compare", "--uc", "0.3,0.5,0.7",
                           "--constants-source", str(constants),
                           "--svg", str(svg_path))
    assert code == 0
    text = svg_path.read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert root.attrib["viewBox"] == "0 0 800 600"
    assert root.attrib["version"] == "1.1"
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 5
    # self-contained: no external references
    assert "href" not in text and "url(" not in text
    # y scale follows the computed speeds, not the diverging extrapolated
    # expansion columns (which run off-chart)
    ticks = [float(el.text) for el in root.iter()
             if el.tag.endswith("text") and el.attrib.get("text-anchor") == "end"]
    assert ticks and all(-0.5 < t < 2.5 for t in ticks)


def test_compare_constants_fit_source(capsys):
    code, out, _ = run_cli(capsys, "compare", "--uc", "0.5",
                           "--constants-source", "fit")
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 1


def test_config_file_sets_reaction(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for published runs\nreaction=cubic\n")
    monkeypatch.setenv("PTW_CONFIG", str(cfg))
    _, out_cfg, _ = run_cli(capsys, "solve", "--uc", "0.9")
    monkeypatch.delenv("PTW_CONFIG")
    _, out_fisher, _ = run_cli(capsys, "solve", "--uc", "0.9")
    v_cfg = json.loads(out_cfg)["v_star"]
    v_fisher = json.loads(out_fisher)["v_star"]
    assert v_cfg == pytest.approx(0.1 * math.sqrt(2.0), abs=1e-3)
    assert v_fisher == pytest.approx(0.1 + 0.01 / 6.0, abs=1e-3)


def test_cli_flag_wins_over_config(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reaction=cubic\n")
    monkeypatch.setenv("PTW_CONFIG", str(cfg))
    _, out, _ = run_cli(capsys, "solve", "--uc", "0.9", "--reaction",
                        "fisher")
    assert json.loads(out)["v_star"] == pytest.approx(0.1 + 0.01 / 6.0,
                                                      abs=1e-3)


def test_config_rejects_unknown_key(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol_oed=1e-10\n")
    monkeypatch.setenv("PTW_CONFIG", str(cfg))
    code, _, err = run_cli(capsys, "solve", "--uc", "0.5")
    assert code == 2
    assert "tol_oed" in err


def test_config_rejects_unknown_reaction(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reaction=nope\n")
    monkeypatch.setenv("PTW_CONFIG", str(cfg))
    code, _, err = run_cli(capsys, "solve", "--uc", "0.5")
    assert code == 2
    assert "unknown reaction" in err


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "solve", "--uc", "0.5", "--output",
                           str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["u_c"] == 0.5


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cutoffwave.cli", "solve", "--uc", "0.7"],
        capture_output=True, text=True, timeout=300, env=_cli_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["v_star"] == pytest.approx(0.318272119164,
                                                              abs=1e-6)


def test_parallel_jobs(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--uc-min", "0.4", "--uc-max",
                           "0.6", "--count", "2", "--jobs", "2")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2


def test_compare_cubic_past_three_term_bound(capsys):
    # the cubic three-term speed passes 2 above u_c ~ 0.19, where the
    # scaled front location has no square root; the row is still written
    code, out, err = run_cli(capsys, "compare", "--reaction", "cubic",
                             "--uc", "0.5,0.1")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert [float(r[0]) for r in rows] == [0.5, 0.1]
    three = header.index("v_three_term_small")
    assert float(rows[0][three]) > 2.0


def test_output_in_missing_directory(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "solve", "--uc", "0.5",
                             "--output", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and str(path) in err
    assert not path.exists()
