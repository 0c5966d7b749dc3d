"""Command-line front end.

Commands: solve, sweep, profile, reference, compare.  Exit codes form a
stable scripting contract: 0 success, 2 usage error, 3 numerical
failure.  All floats in CSV output are printed with 17 significant
digits so that parse/re-emit round-trips are byte identical; the whole
pipeline is deterministic (there is no randomness to seed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .asymptotics import large_uc_speed, small_uc_speed
from .errors import CutoffWaveError
from .integrator import IntegrationControl
from .reaction import BUILTIN_REACTIONS, ReactionSpec, by_name, make_cutoff
from .reference import AsymptoticConstants, fit_edge_constants, solve_reference
from .solver import ShootingConfig, SpeedPoint, solve_speed, sweep

_CONFIG_ENV = "PTW_CONFIG"
_CONFIG_KEYS = ("reaction", "tol_ode", "tol_shoot", "epsilon_manifold")

_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """One command invocation: reaction, solver knobs and output routing.

    Built by merging CLI flags over the optional PTW_CONFIG key=value
    file over the defaults; flags always win.
    """

    reaction_name: str
    reaction: ReactionSpec
    solver: ShootingConfig
    output_format: str | None
    output_path: str | None
    constants_source: str = "fit"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows: Iterable[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# configuration

def _load_file_config() -> dict[str, str]:
    path = os.environ.get(_CONFIG_ENV)
    if not path:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"{_CONFIG_ENV} points to a missing file: {path}")
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(
                    f"{path}:{lineno}: unknown key {key!r}; "
                    f"recognized: {', '.join(_CONFIG_KEYS)}")
            out[key] = value.strip()
    return out


def _resolve(args, filecfg: dict[str, str]) -> RunConfig:
    """Merge flag > config file > default into a RunConfig."""
    name = args.reaction or filecfg.get("reaction") or "fisher"
    if name not in BUILTIN_REACTIONS:
        raise UsageError(f"unknown reaction {name!r}; "
                         f"available: {', '.join(sorted(BUILTIN_REACTIONS))}")

    def pick(flag_value, key: str, default: float) -> float:
        if flag_value is not None:
            return flag_value
        if key in filecfg:
            try:
                return float(filecfg[key])
            except ValueError:
                raise UsageError(f"config key {key} is not a number: "
                                 f"{filecfg[key]!r}") from None
        return default

    tol_ode = pick(args.tol_ode, "tol_ode", 1e-12)
    tol_shoot = pick(args.tol_shoot, "tol_shoot", 1e-8)
    eps = pick(args.epsilon_manifold, "epsilon_manifold", 1e-10)
    try:
        control = IntegrationControl(abs_tol=tol_ode, rel_tol=tol_ode)
        solver = ShootingConfig(residual_tol=tol_shoot, epsilon_manifold=eps,
                                control=control)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return RunConfig(reaction_name=name, reaction=by_name(name),
                     solver=solver, output_format=args.format,
                     output_path=args.output,
                     constants_source=getattr(args, "constants_source",
                                              "fit"))


def _check_uc(u_c: float, flag: str = "--uc") -> float:
    if not 0.0 < u_c < 1.0:
        raise UsageError(
            f"{flag} must lie in the open interval (0, 1), got {u_c:g}")
    return u_c


def _make_grid(uc_min: float, uc_max: float, count: int,
               spacing: str) -> list[float]:
    _check_uc(uc_min, "--uc-min")
    _check_uc(uc_max, "--uc-max")
    if uc_min > uc_max:
        raise UsageError("--uc-min must not exceed --uc-max")
    if count == 1:
        return [uc_min]
    if spacing == "log":
        grid = np.logspace(math.log10(uc_min), math.log10(uc_max), count)
    else:
        grid = np.linspace(uc_min, uc_max, count)
    return sorted((float(u) for u in grid), reverse=True)


# ---------------------------------------------------------------------------
# independent (non-continuation) solving, optionally in worker processes

def _solve_row_task(payload: tuple) -> tuple[float, float, float, int, str | None]:
    name, u_c, config = payload
    try:
        sol = solve_speed(make_cutoff(by_name(name), u_c), None, config)
    except CutoffWaveError as exc:
        return (u_c, math.nan, math.nan, 0, f"{type(exc).__name__}: {exc}")
    return (u_c, sol.v_star, sol.residual, sol.n_iterations, None)


def _solve_rows(run: RunConfig, values: list[float], jobs: int,
                continuation: bool) -> tuple[list[SpeedPoint], dict[float, str]]:
    config = run.solver
    if continuation:
        curve = sweep(run.reaction, values, config)
        return curve.rows, curve.failures
    payloads = [(run.reaction_name, u, config) for u in values]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_solve_row_task, payloads))
    else:
        results = [_solve_row_task(p) for p in payloads]
    rows, failures = [], {}
    for u_c, v, r, n, err in results:
        rows.append(SpeedPoint(u_c, v, r, n))
        if err is not None:
            failures[u_c] = err
    return rows, failures


# ---------------------------------------------------------------------------
# commands

def _cmd_solve(args, filecfg) -> int:
    run = _resolve(args, filecfg)
    u_c = _check_uc(args.uc)
    sol = solve_speed(make_cutoff(run.reaction, u_c), None, run.solver)
    payload = {"u_c": sol.u_c, "v_star": sol.v_star,
               "residual": sol.residual, "n_iterations": sol.n_iterations,
               "bracket": [sol.bracket[0], sol.bracket[1]]}
    fmt = run.output_format or "json"
    if fmt == "json":
        _emit(_json_text(payload), run.output_path)
    elif fmt == "csv":
        _emit(_csv(["u_c", "v_star", "residual", "n_iterations",
                    "bracket_lo", "bracket_hi"],
                   [[_fmt(sol.u_c), _fmt(sol.v_star), _fmt(sol.residual),
                     str(sol.n_iterations), _fmt(sol.bracket[0]),
                     _fmt(sol.bracket[1])]]), run.output_path)
    else:
        raise UsageError("solve supports --format json or csv")
    return 0


def _rows_to_speed_csv(rows: list[SpeedPoint]) -> str:
    return _csv(["u_c", "v_star", "residual", "n_iterations"],
                [[_fmt(r.u_c), _fmt(r.v_star), _fmt(r.residual),
                  str(r.n_iterations)] for r in rows])


def _cmd_sweep(args, filecfg) -> int:
    run = _resolve(args, filecfg)
    if args.count < 2:
        raise UsageError("--count must be at least 2")
    if args.jobs > 1 and not args.no_continuation:
        raise UsageError("--jobs requires --no-continuation: warm-started "
                         "rows depend on their predecessors")
    values = _make_grid(args.uc_min, args.uc_max, args.count, args.spacing)
    rows, failures = _solve_rows(run, values, args.jobs,
                                 continuation=not args.no_continuation)
    fmt = run.output_format or "csv"
    if fmt == "csv":
        _emit(_rows_to_speed_csv(rows), run.output_path)
    elif fmt == "json":
        _emit(_json_text([{"u_c": r.u_c, "v_star": r.v_star,
                           "residual": r.residual,
                           "n_iterations": r.n_iterations} for r in rows]),
              run.output_path)
    else:
        raise UsageError("sweep supports --format csv or json")
    if failures:
        for u_c, msg in failures.items():
            print(f"u_c={u_c:g}: {msg}", file=sys.stderr)
        return 3
    return 0


def _cmd_profile(args, filecfg) -> int:
    run = _resolve(args, filecfg)
    u_c = _check_uc(args.uc)
    if args.y_min >= args.y_max:
        raise UsageError("--y-min must be below --y-max")
    if args.samples < 2:
        raise UsageError("--samples must be at least 2")
    sol = solve_speed(make_cutoff(run.reaction, u_c), None, run.solver)

    shift = sol.y_half if args.frame == "origin-at-half" else 0.0
    lo = max(args.y_min, -sol.y_event - shift)  # rear ends at the saddle
    hi = args.y_max
    if lo >= hi:
        raise UsageError("requested window lies entirely behind the "
                         f"computed rear (which starts at y = {lo:.3f})")
    grid = np.linspace(lo, hi, args.samples)
    if lo < 0.0 < hi:
        grid[np.argmin(np.abs(grid))] = 0.0
    u, up = sol.sample(grid + shift)
    fmt = run.output_format or "csv"
    if fmt == "csv":
        # one template per row; numpy floats format exactly as Python
        # floats do, and "%.17g" exactly as _fmt
        rows = map("%.17g,%.17g,%.17g".__mod__, zip(grid, u, up))
        _emit("\n".join(["y,U,Uprime", *rows]) + "\n", run.output_path)
    elif fmt == "json":
        _emit(_json_text([{"y": y, "U": a, "Uprime": b} for y, a, b in
                          zip(grid.tolist(), u.tolist(), up.tolist())]),
              run.output_path)
    else:
        raise UsageError("profile supports --format csv or json")
    return 0


def _cmd_reference(args, filecfg) -> int:
    run = _resolve(args, filecfg)
    lo, hi = args.window
    if lo >= hi:
        raise UsageError("--window needs lo < hi")
    wave = solve_reference(run.reaction, run.solver.control)
    constants = fit_edge_constants(wave, (lo, hi))
    fmt = run.output_format or "json"
    if fmt == "json":
        _emit(_json_text(constants.to_json_dict()), run.output_path)
    elif fmt == "csv":
        _emit(_csv(["a_inf", "b_inf", "gamma", "window_lo", "window_hi",
                    "residual"],
                   [[_fmt(constants.a_inf), _fmt(constants.b_inf),
                     _fmt(constants.gamma), _fmt(lo), _fmt(hi),
                     _fmt(constants.fit_residual)]]), run.output_path)
    else:
        raise UsageError("reference supports --format json or csv")
    return 0


def _load_constants(source: str, reaction: ReactionSpec,
                    control: IntegrationControl) -> AsymptoticConstants:
    if source == "fit":
        wave = solve_reference(reaction, control)
        return fit_edge_constants(wave)
    if not os.path.exists(source):
        raise UsageError(f"--constants-source file not found: {source}")
    with open(source, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        a, b = float(data["a_inf"]), float(data["b_inf"])
    except (KeyError, TypeError, ValueError):
        raise UsageError(
            f"{source}: expected JSON with numeric a_inf and b_inf") from None
    window = tuple(data.get("window", (math.nan, math.nan)))
    return AsymptoticConstants(a_inf=a, b_inf=b,
                               gamma=float(data.get("gamma", math.nan)),
                               fit_window=(window[0], window[1]),
                               fit_residual=float(data.get("residual",
                                                           math.nan)))


_COMPARE_HEADER = ["u_c", "v_numeric", "v_two_term_small",
                   "v_three_term_small", "v_one_term_large",
                   "v_two_term_large", "err_two_small", "err_three_small",
                   "err_two_large"]


def _cmd_compare(args, filecfg) -> int:
    run = _resolve(args, filecfg)
    if args.uc:
        try:
            values = [float(tok) for tok in args.uc.split(",") if tok]
        except ValueError:
            raise UsageError("--uc expects a comma-separated list of numbers")
        for u in values:
            _check_uc(u)
        values = sorted(set(values), reverse=True)
    else:
        if args.count < 1:
            raise UsageError("--count must be at least 1")
        values = _make_grid(args.uc_min, args.uc_max, args.count,
                            args.spacing)
    if args.jobs > 1 and not args.no_continuation:
        raise UsageError("--jobs requires --no-continuation: warm-started "
                         "rows depend on their predecessors")
    constants = _load_constants(run.constants_source, run.reaction,
                                run.solver.control)
    rows, failures = _solve_rows(run, values, args.jobs,
                                 continuation=not args.no_continuation)

    table: list[dict[str, float]] = []
    for row in rows:
        small = small_uc_speed(row.u_c, constants)
        large = large_uc_speed(row.u_c, run.reaction)
        table.append({
            "u_c": row.u_c,
            "v_numeric": row.v_star,
            "v_two_term_small": small.two_term,
            "v_three_term_small": small.three_term,
            "v_one_term_large": large.one_term,
            "v_two_term_large": large.two_term,
            "err_two_small": row.v_star - small.two_term,
            "err_three_small": row.v_star - small.three_term,
            "err_two_large": row.v_star - large.two_term,
        })

    fmt = run.output_format or "csv"
    if fmt == "csv":
        _emit(_csv(_COMPARE_HEADER,
                   [[_fmt(r[k]) for k in _COMPARE_HEADER] for r in table]),
              run.output_path)
    elif fmt == "json":
        _emit(_json_text(table), run.output_path)
    elif fmt == "svg":
        _emit(render_speed_chart(table), run.output_path)
    else:
        raise UsageError("compare supports --format csv, json or svg")
    if args.svg:
        _emit(render_speed_chart(table), args.svg)
    if failures:
        for u_c, msg in failures.items():
            print(f"u_c={u_c:g}: {msg}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# SVG chart (no plotting dependency: fixed 800x600 viewBox, log-x mapping)

def render_speed_chart(table: list[dict[str, float]]) -> str:
    series = _COMPARE_HEADER[1:6]
    width, height = 800.0, 600.0
    ml, mr, mt, mb = 80.0, 20.0, 20.0, 60.0
    px0, px1 = ml, width - mr
    py0, py1 = height - mb, mt

    xs = [math.log10(r["u_c"]) for r in table]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    # scale the y axis to the computed speeds only: the expansion columns
    # are extrapolated across the whole range and run off the chart
    ys = [r["v_numeric"] for r in table if math.isfinite(r["v_numeric"])]
    if not ys:
        y_lo, y_hi = 0.0, 1.0
    else:
        y_lo, y_hi = min(ys), max(ys)
        pad = 0.08 * (y_hi - y_lo or 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return px0 + (x - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(y: float) -> float:
        raw = py0 - (y - y_lo) / (y_hi - y_lo) * (py0 - py1)
        return min(max(raw, -1e4), 1e4)  # keep off-chart points tidy

    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             'viewBox="0 0 800 600">',
             '<rect x="0" y="0" width="800" height="600" fill="white"/>',
             f'<line x1="{px0:.2f}" y1="{py0:.2f}" x2="{px1:.2f}" '
             f'y2="{py0:.2f}" stroke="black" stroke-width="1"/>',
             f'<line x1="{px0:.2f}" y1="{py0:.2f}" x2="{px0:.2f}" '
             f'y2="{py1:.2f}" stroke="black" stroke-width="1"/>']

    for d in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        x = sx(float(d))
        parts.append(f'<line x1="{x:.2f}" y1="{py0:.2f}" x2="{x:.2f}" '
                     f'y2="{py0 + 6:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{py0 + 22:.2f}" font-size="13" '
                     f'text-anchor="middle">1e{d}</text>')
    for i in range(6):
        yv = y_lo + i * (y_hi - y_lo) / 5.0
        y = sy(yv)
        parts.append(f'<line x1="{px0 - 6:.2f}" y1="{y:.2f}" x2="{px0:.2f}" '
                     f'y2="{y:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px0 - 10:.2f}" y="{y + 4:.2f}" font-size="13" '
                     f'text-anchor="end">{yv:.4g}</text>')
    parts.append(f'<text x="{(px0 + px1) / 2:.2f}" y="{height - 14:.2f}" '
                 'font-size="15" text-anchor="middle">cut-off u_c</text>')
    parts.append(f'<text x="22" y="{(py0 + py1) / 2:.2f}" font-size="15" '
                 f'text-anchor="middle" transform="rotate(-90 22 '
                 f'{(py0 + py1) / 2:.2f})">wave speed v</text>')

    for idx, key in enumerate(series):
        color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
        pts = [f"{sx(math.log10(r['u_c'])):.2f},{sy(r[key]):.2f}"
               for r in table if math.isfinite(r[key])]
        if pts:
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.5" points="{" ".join(pts)}"/>')
        ly = py1 + 16 + 18 * idx
        parts.append(f'<line x1="{px1 - 190:.2f}" y1="{ly:.2f}" '
                     f'x2="{px1 - 160:.2f}" y2="{ly:.2f}" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{px1 - 154:.2f}" y="{ly + 4:.2f}" '
                     f'font-size="13">{key}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reaction", choices=sorted(BUILTIN_REACTIONS),
                   default=None, help="reaction function (default fisher)")
    p.add_argument("--tol-ode", type=float, default=None,
                   help="absolute and relative integration tolerance "
                        "(default 1e-12)")
    p.add_argument("--tol-shoot", type=float, default=None,
                   help="shooting residual tolerance (default 1e-8)")
    p.add_argument("--epsilon-manifold", type=float, default=None,
                   help="unstable-manifold offset (default 1e-10)")
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.add_argument("--format", default=None, choices=["csv", "json", "svg"],
                   help="output format (per-command default)")
    p.add_argument("--seedless", action="store_true",
                   help="assert deterministic output (always on: the "
                        "pipeline has no randomness)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutoffwave",
        description="Travelling-wave speeds and profiles for cut-off "
                    "KPP reaction-diffusion problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="wave speed for one threshold")
    p.add_argument("--uc", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("sweep", help="speed curve over a threshold range")
    p.add_argument("--uc-min", type=float, required=True)
    p.add_argument("--uc-max", type=float, required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--spacing", choices=["linear", "log"], default="log")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-continuation", action="store_true",
                   help="solve rows independently (enables --jobs)")
    _add_common(p)

    p = sub.add_parser("profile", help="sampled wave profile")
    p.add_argument("--uc", type=float, required=True)
    p.add_argument("--y-min", type=float, default=-30.0)
    p.add_argument("--y-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=601)
    p.add_argument("--frame", choices=["origin-at-uc", "origin-at-half"],
                   default="origin-at-uc")
    _add_common(p)

    p = sub.add_parser("reference",
                       help="leading-edge constants of the wave without cut-off")
    p.add_argument("--window", type=float, nargs=2, default=[10.0, 25.0],
                   metavar=("LO", "HI"))
    _add_common(p)

    p = sub.add_parser("compare", help="numeric speeds against the expansions")
    p.add_argument("--uc", default=None,
                   help="comma-separated thresholds (overrides the range flags)")
    p.add_argument("--uc-min", type=float, default=1e-8)
    p.add_argument("--uc-max", type=float, default=0.99)
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--spacing", choices=["linear", "log"], default="log")
    p.add_argument("--constants-source", default="fit",
                   help='"fit" or a JSON file with a_inf and b_inf')
    p.add_argument("--svg", default=None,
                   help="also write an SVG chart to this path")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-continuation", action="store_true")
    _add_common(p)

    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "profile": _cmd_profile,
    "reference": _cmd_reference,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        filecfg = _load_file_config()
        return _COMMANDS[args.command](args, filecfg)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CutoffWaveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
