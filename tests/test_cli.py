import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from cutoffwave import assemble_profile, fisher, make_cutoff, solve_speed
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


def test_solve_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "--uc", "0.9")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"u_c", "v_star", "residual", "n_iterations",
                            "bracket"}
    assert abs(payload["v_star"] - (0.1 + 0.01 / 6.0)) < 1e-3
    assert abs(payload["residual"]) <= 1e-8
    assert len(payload["bracket"]) == 2


def test_solve_rejects_out_of_range(capsys):
    code, _, err = run_cli(capsys, "solve", "--uc", "1.5")
    assert code == 2
    assert "(0, 1)" in err


def test_solve_threshold_above_manifold_start(capsys):
    code, _, err = run_cli(capsys, "solve", "--uc", "0.99999999999")
    assert code == 2
    assert "epsilon_manifold" in err and "--epsilon-manifold" in err


def test_solve_numerical_failure_exit(capsys):
    # an unmeetable residual criterion surfaces as a numerical failure
    code, _, err = run_cli(capsys, "solve", "--uc", "0.5", "--tol-shoot",
                           "1e-18")
    assert code == 3
    assert "MaxIterations" in err


def test_solve_csv_format(capsys):
    code, out, _ = run_cli(capsys, "solve", "--uc", "0.5", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:2] == ["u_c", "v_star"]
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
    args = ("sweep", "--uc-min", "0.4", "--uc-max", "0.7", "--count", "3",
            "--seedless")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_sweep_jobs_requires_no_continuation(capsys):
    code, _, err = run_cli(capsys, "sweep", "--uc-min", "0.3", "--uc-max",
                           "0.6", "--count", "2", "--jobs", "2")
    assert code == 2
    assert "no-continuation" in err


def test_sweep_independent_rows_match_continuation(capsys):
    base = ("sweep", "--uc-min", "0.35", "--uc-max", "0.65", "--count", "3")
    _, warm, _ = run_cli(capsys, *base)
    _, cold, _ = run_cli(capsys, *base, "--no-continuation")
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


def test_profile_validation(capsys):
    code, _, _ = run_cli(capsys, "profile", "--uc", "0.5", "--y-min", "3",
                         "--y-max", "1")
    assert code == 2


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


def test_reference_json(capsys):
    code, out, _ = run_cli(capsys, "reference")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"a_inf", "b_inf", "gamma", "window", "residual"}
    assert 3.3 <= payload["a_inf"] <= 3.7
    assert -11.8 <= payload["b_inf"] <= -10.8
    assert payload["gamma"] == pytest.approx(math.sqrt(2) - 1.0, abs=1e-12)


def test_reference_malformed_window(capsys):
    code, _, _ = run_cli(capsys, "reference", "--window", "25", "10")
    assert code == 2


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
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["v_star"] == pytest.approx(0.318272119164,
                                                              abs=1e-6)


def test_parallel_jobs(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--uc-min", "0.4", "--uc-max",
                           "0.6", "--count", "2", "--no-continuation",
                           "--jobs", "2")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2
