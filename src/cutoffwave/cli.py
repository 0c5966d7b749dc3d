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
from itertools import chain, islice
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .asymptotics import large_uc_speed, small_uc_speed
from .errors import CutoffWaveError
from .integrator import IntegrationControl
from .reaction import BUILTIN_REACTIONS, ReactionSpec, by_name, make_cutoff
from .reference import AsymptoticConstants, fit_edge_constants, solve_reference
from .solver import ShootingConfig, profile_blocks, solve_speed, sweep

_CONFIG_ENV = "PTW_CONFIG"
_CONFIG_KEYS = ("reaction", "tol_ode", "tol_shoot")
#: the library's settings, which a flag or config key overrides
_DEFAULTS = ShootingConfig()

_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")

#: CSV rows formatted by one ``%`` and written together
_BLOCK_ROWS = 1024

#: a speed row: these fields of a solution, which are also its columns
_SPEED_COLUMNS = ("u_c", "v_star", "residual", "n_iterations")
_speed_row = attrgetter(*_SPEED_COLUMNS)


class UsageError(Exception):
    pass


def _flat(row: tuple) -> tuple:
    """The row with each (lo, hi) pair spread over two cells."""
    return tuple(x for cell in row
                 for x in (cell if isinstance(cell, tuple) else (cell,)))


def _json_cell(cell):
    """The cell as JSON writes it: a non-finite float, which JSON cannot
    hold, as null, and a (lo, hi) pair as an array."""
    if isinstance(cell, tuple):
        return [_json_cell(x) for x in cell]
    if isinstance(cell, float) and not math.isfinite(cell):
        return None
    return cell


def _csv_blocks(header: Sequence[str], rows: Iterable[tuple]) -> Iterator[str]:
    """The CSV text of a table: the header line, then blocks of up to
    ``_BLOCK_ROWS`` rows, each formatted by one ``%``."""
    rows = iter(rows)
    first = next(rows)  # every command writes at least one row
    names = []
    for name, cell in zip(header, first):
        names += ([f"{name}_lo", f"{name}_hi"] if isinstance(cell, tuple)
                  else [name])
    if len(names) > len(header):
        first, rows = _flat(first), map(_flat, rows)
    # numpy floats format exactly as Python floats under "%.17g"
    template = ",".join("%d" if isinstance(c, int) else "%.17g"
                        for c in first) + "\n"
    yield ",".join(names) + "\n"
    block = [first, *islice(rows, _BLOCK_ROWS - 1)]
    while block:
        yield (template * len(block)) % tuple(chain.from_iterable(block))
        block = list(islice(rows, _BLOCK_ROWS))


def _write(header: Sequence[str], rows: Iterable[tuple], fmt: str,
           path: str | None, one: bool = False) -> None:
    """Write a table to ``path``, or to stdout when it is None.

    csv: the header line, then every row through one template, floats
    with 17 significant digits; a (lo, hi) cell becomes the two columns
    name_lo and name_hi.  Rows are formatted and written a block at a
    time, so the whole text is never held.  json: a list of objects, or
    the single row's object when ``one`` is set; a pair becomes an array
    and a non-finite float null.  svg: the speed chart of compare's rows.

    A reader that closes stdout early ends the output quietly: the rest,
    and the interpreter's final flush, go to the null device.
    """
    if fmt == "csv":
        chunks = _csv_blocks(header, rows)
    elif fmt == "svg":
        chunks = [render_speed_chart([dict(zip(header, r)) for r in rows])]
    else:
        records = [{name: _json_cell(cell) for name, cell in zip(header, row)}
                   for row in rows]
        chunks = [json.dumps(records[0] if one else records, indent=2) + "\n"]
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    else:
        try:
            sys.stdout.writelines(chunks)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


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


def _resolve(args) -> tuple[str, ReactionSpec, ShootingConfig]:
    """Reaction name, reaction and solver settings of one invocation.

    Each is merged from flag > PTW_CONFIG key=value file > default.
    """
    filecfg = _load_file_config()
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

    tol_ode = pick(args.tol_ode, "tol_ode", _DEFAULTS.control.tol)
    tol_shoot = pick(args.tol_shoot, "tol_shoot", _DEFAULTS.residual_tol)
    try:
        config = ShootingConfig(residual_tol=tol_shoot,
                                control=IntegrationControl(tol_ode))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return name, by_name(name), config


def _check_uc(u_c: float, flag: str = "--uc") -> float:
    if not 0.0 < u_c < 1.0:
        raise UsageError(
            f"{flag} must lie in the open interval (0, 1), got {u_c:g}")
    return u_c


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")


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
    values = sorted((float(u) for u in grid), reverse=True)
    if len(set(values)) < len(values):
        raise UsageError(f"--uc-min {uc_min!r}, --uc-max {uc_max!r} and "
                         f"--count {count} give repeated thresholds; widen "
                         "the range or lower the count")
    return values


# ---------------------------------------------------------------------------
# speed rows: a continuation sweep, or independent solves in worker processes

def _solve_row(payload: tuple) -> tuple[tuple, str | None]:
    name, u_c, config = payload
    try:
        return _speed_row(solve_speed(make_cutoff(by_name(name), u_c), None,
                                      config)), None
    except CutoffWaveError as exc:
        return (u_c, math.nan, math.nan, 0), f"{type(exc).__name__}: {exc}"


def _solve_rows(name: str, reaction: ReactionSpec, config: ShootingConfig,
                values: list[float], jobs: int,
                ) -> tuple[list[tuple], dict[float, str]]:
    """Speed rows for descending thresholds, failures kept alongside.

    One job runs the warm-started ``sweep``; more solve every row cold
    in a pool of at most one worker per row and per CPU (reactions travel
    by name and rows as tuples, since neither a reaction nor a solution
    pickles).
    """
    if jobs == 1:
        curve = sweep(reaction, values, config)
        return list(map(_speed_row, curve.rows)), curve.failures
    # imported here, so that a run without a pool does not load it
    from concurrent.futures import ProcessPoolExecutor
    workers = min(jobs, len(values), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_solve_row,
                                [(name, u, config) for u in values]))
    return ([row for row, _ in results],
            {row[0]: err for row, err in results if err is not None})


def _report(failures: dict[float, str]) -> int:
    for u_c, msg in failures.items():
        print(f"u_c={u_c:g}: {msg}", file=sys.stderr)
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# commands

def _cmd_solve(args, name, reaction, config) -> int:
    u_c = _check_uc(args.uc)
    sol = solve_speed(make_cutoff(reaction, u_c), None, config)
    _write([*_SPEED_COLUMNS, "bracket"], [(*_speed_row(sol), sol.bracket)],
           args.format, args.output, one=True)
    return 0


def _cmd_sweep(args, name, reaction, config) -> int:
    if args.count < 2:
        raise UsageError("--count must be at least 2")
    _check_jobs(args.jobs)
    values = _make_grid(args.uc_min, args.uc_max, args.count, args.spacing)
    rows, failures = _solve_rows(name, reaction, config, values, args.jobs)
    _write(_SPEED_COLUMNS, rows, args.format, args.output)
    return _report(failures)


def _cmd_profile(args, name, reaction, config) -> int:
    u_c = _check_uc(args.uc)
    if args.y_min >= args.y_max:
        raise UsageError("--y-min must be below --y-max")
    # NaN passes the test above; profile_blocks clamps -inf to the rear
    if math.isnan(args.y_min):
        raise UsageError("--y-min must be a number, got nan")
    if not math.isfinite(args.y_max):
        raise UsageError(f"--y-max must be finite, got {args.y_max}")
    if args.samples < 2:
        raise UsageError("--samples must be at least 2")
    sol = solve_speed(make_cutoff(reaction, u_c), None, config)
    blocks = profile_blocks(
        sol, args.y_min, args.y_max, args.samples,
        origin=sol.y_half if args.frame == "origin-at-half" else 0.0)
    # each block is formatted before the next is sampled; Python floats
    # print as numpy's do
    rows = chain.from_iterable(zip(*(c.tolist() for c in block))
                               for block in blocks)
    _write(["y", "U", "Uprime"], rows, args.format, args.output)
    return 0


def _cmd_reference(args, name, reaction, config) -> int:
    lo, hi = args.window
    if lo >= hi:
        raise UsageError("--window needs lo < hi")
    wave = solve_reference(reaction, config.control)
    c = fit_edge_constants(wave, (lo, hi))
    _write(["a_inf", "b_inf", "gamma", "window", "residual"],
           [(c.a_inf, c.b_inf, c.gamma, c.fit_window, c.fit_residual)],
           args.format, args.output, one=True)
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
    # JSON's NaN and Infinity tokens parse as floats
    if not (math.isfinite(a) and math.isfinite(b)):
        raise UsageError(f"{source}: a_inf and b_inf must be finite, got "
                         f"{a!r} and {b!r}")
    # compare reads A and B alone; the file's other keys are not parsed
    return AsymptoticConstants(a_inf=a, b_inf=b, gamma=math.nan,
                               fit_window=(math.nan, math.nan),
                               fit_residual=math.nan)


_COMPARE_HEADER = ["u_c", "v_numeric", "v_two_term_small",
                   "v_three_term_small", "v_one_term_large",
                   "v_two_term_large", "err_two_small", "err_three_small",
                   "err_two_large"]


def _cmd_compare(args, name, reaction, config) -> int:
    if args.uc:
        try:
            values = [float(tok) for tok in args.uc.split(",") if tok]
        except ValueError:
            values = []
        if not values:
            raise UsageError("--uc expects a comma-separated list of numbers")
        values = sorted({_check_uc(u) for u in values}, reverse=True)
    else:
        if args.count < 1:
            raise UsageError("--count must be at least 1")
        values = _make_grid(args.uc_min, args.uc_max, args.count,
                            args.spacing)
    _check_jobs(args.jobs)
    constants = _load_constants(args.constants_source, reaction,
                                config.control)
    rows, failures = _solve_rows(name, reaction, config, values, args.jobs)

    table = []
    for u_c, v, *_ in rows:
        small = small_uc_speed(u_c, constants)
        large = large_uc_speed(u_c, reaction)
        table.append((u_c, v, small.two_term, small.three_term,
                      large.one_term, large.two_term, v - small.two_term,
                      v - small.three_term, v - large.two_term))
    _write(_COMPARE_HEADER, table, args.format, args.output)
    if args.svg:
        _write(_COMPARE_HEADER, table, "svg", args.svg)
    return _report(failures)


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

def _add_common(p: argparse.ArgumentParser, formats: list[str]) -> None:
    p.add_argument("--reaction", choices=sorted(BUILTIN_REACTIONS),
                   default=None, help="reaction function (default fisher)")
    p.add_argument("--tol-ode", type=float, default=None,
                   help="absolute and relative integration tolerance "
                        f"(default {_DEFAULTS.control.tol:g})")
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.add_argument("--format", default=formats[0], choices=formats,
                   help=f"output format (default {formats[0]})")


def _add_shooting(p: argparse.ArgumentParser, formats: list[str]) -> None:
    """The common flags and the one that only a shooting command reads."""
    _add_common(p, formats)
    p.add_argument("--tol-shoot", type=float, default=None,
                   help="shooting residual tolerance "
                        f"(default {_DEFAULTS.residual_tol:g})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutoffwave",
        description="Travelling-wave speeds and profiles for cut-off "
                    "KPP reaction-diffusion problems")
    sub = parser.add_subparsers(dest="command", required=True)
    jobs_help = ("1 (default) warm-starts each row from the last; N > 1 "
                 "solves rows independently in up to N processes, at most "
                 "one per row and per CPU")

    p = sub.add_parser("solve", help="wave speed for one threshold")
    p.set_defaults(run=_cmd_solve)
    p.add_argument("--uc", type=float, required=True)
    _add_shooting(p, ["json", "csv"])

    p = sub.add_parser("sweep", help="speed curve over a threshold range")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--uc-min", type=float, required=True)
    p.add_argument("--uc-max", type=float, required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--spacing", choices=["linear", "log"], default="log")
    p.add_argument("--jobs", type=int, default=1, help=jobs_help)
    _add_shooting(p, ["csv", "json"])

    p = sub.add_parser("profile", help="sampled wave profile")
    p.set_defaults(run=_cmd_profile)
    p.add_argument("--uc", type=float, required=True)
    p.add_argument("--y-min", type=float, default=-30.0)
    p.add_argument("--y-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=601)
    p.add_argument("--frame", choices=["origin-at-uc", "origin-at-half"],
                   default="origin-at-uc")
    _add_shooting(p, ["csv", "json"])

    p = sub.add_parser("reference",
                       help="leading-edge constants of the wave without cut-off")
    # the reference wave is not shot against a threshold: no --tol-shoot,
    # and _resolve keeps its default
    p.set_defaults(run=_cmd_reference, tol_shoot=None)
    p.add_argument("--window", type=float, nargs=2, default=[10.0, 25.0],
                   metavar=("LO", "HI"))
    _add_common(p, ["json", "csv"])

    p = sub.add_parser("compare", help="numeric speeds against the expansions")
    p.set_defaults(run=_cmd_compare)
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
    p.add_argument("--jobs", type=int, default=1, help=jobs_help)
    _add_shooting(p, ["csv", "json", "svg"])

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args, *_resolve(args))
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CutoffWaveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
