import dataclasses
import math
import sys

import numpy as np
import pytest

from cutoffwave import (CutoffWaveError, MaxIterations, NoSignChange,
                        ReactionSpec, ShootingConfig, WaveSolution,
                        assemble_profile, by_name, cubic_kpp, fisher,
                        fit_rear_constant, lambda_plus, large_uc_speed,
                        make_cutoff,
                        shoot_residual, small_uc_speed, solve_speed, sweep,
                        v_upper_bound)
from cutoffwave import SpanExceeded, integrator, solver
from cutoffwave.integrator import (IntegrationControl, PhaseState,
                                   manifold_series_start, shoot_slope,
                                   trace_until_alpha, unstable_manifold_start)

# Independent high-accuracy speeds, frozen from a phase-plane formulation
# d(beta)/d(alpha) = -v - f/beta solved with an eighth-order method at
# tolerance 1e-13 and 60 bisections.
REFERENCE_SPEEDS = {
    0.1: 1.251941173109,
    0.3: 0.847019024972,
    0.5: 0.560013681007,
    0.7: 0.318272119164,
    0.9: 0.101770620901,
    0.99: 0.010016764518,
    1e-2: 1.647745350920,
    1e-4: 1.882240121884,
}


def test_residual_at_rest_matches_quadrature():
    cut = make_cutoff(fisher(), 0.5)
    assert shoot_residual(cut, 0.0) == pytest.approx(-math.sqrt(1 / 6),
                                                     abs=1e-9)


def test_residual_positive_at_upper_bound():
    cut = make_cutoff(fisher(), 0.5)
    assert shoot_residual(cut, v_upper_bound(cut)) > 0.0


def test_residual_small_at_converged_speed(fisher_half):
    cut = make_cutoff(fisher(), 0.5)
    assert abs(shoot_residual(cut, fisher_half.v_star)) <= 1e-8


def test_residual_monotone_over_bracket():
    cut = make_cutoff(fisher(), 0.5)
    grid = np.linspace(0.0, v_upper_bound(cut), 20)
    vals = [shoot_residual(cut, float(v)) for v in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# same oracle, cubic reaction
CUBIC_REFERENCE_SPEEDS = {
    0.2: 1.206624816331,
    0.5: 0.718492318060,
    0.9: 0.141484534754,
}


@pytest.mark.parametrize("u_c,expected", sorted(REFERENCE_SPEEDS.items()))
def test_speed_against_phase_plane_oracle(u_c, expected):
    sol = solve_speed(make_cutoff(fisher(), u_c))
    assert sol.v_star == pytest.approx(expected, abs=5e-9)
    assert abs(sol.residual) <= 1e-8
    assert 0.0 < sol.v_star < 2.0
    assert sol.v_star < v_upper_bound(make_cutoff(fisher(), u_c))


@pytest.mark.parametrize("u_c,expected", sorted(CUBIC_REFERENCE_SPEEDS.items()))
def test_cubic_speed_against_phase_plane_oracle(u_c, expected):
    from cutoffwave import cubic_kpp

    sol = solve_speed(make_cutoff(cubic_kpp(), u_c))
    assert sol.v_star == pytest.approx(expected, abs=5e-9)
    # the quadratic term of the large-threshold expansion vanishes for
    # the cubic reaction, so the linear term alone is accurate early
    assert abs(sol.v_star - (1.0 - u_c) * math.sqrt(2.0)) < 0.08


def test_half_location_in_tail():
    # for thresholds above 1/2 the half-height point sits on the exact
    # exponential tail
    sol = solve_speed(make_cutoff(fisher(), 0.7))
    assert sol.y_half == pytest.approx(math.log(1.4) / sol.v_star,
                                       rel=1e-12)


def test_speed_near_one_leading_order():
    sol = solve_speed(make_cutoff(fisher(), 0.99))
    assert abs(sol.v_star - 0.01) < 2e-4


def test_speed_small_threshold_two_term():
    sol = solve_speed(make_cutoff(fisher(), 1e-6), guess=2.0)
    assert 1.8 < sol.v_star < 2.0
    two_term = 2.0 - math.pi ** 2 / math.log(1e-6) ** 2
    assert abs(sol.v_star - two_term) < 0.05


@pytest.mark.parametrize("u_c", [1e-20, 1e-50])
def test_tiny_threshold_speed_follows_three_term(u_c, fisher_constants):
    # the lower bracket shot meets u_c within y's resolution of U = 0
    sol = solve_speed(make_cutoff(fisher(), u_c), guess=2.0)
    pred = small_uc_speed(u_c, fisher_constants)
    assert abs(sol.v_star - pred.three_term) < 5.0 / abs(math.log(u_c)) ** 3


@pytest.mark.parametrize("u_c", [0.4, 1e-8, 1e-10])
def test_warm_start_matches_cold_start(u_c):
    # the cold bracket tops out at the KPP bound 2, not at the stiff
    # sqrt(sup f / u_c) (5e4 at u_c = 1e-10)
    cut = make_cutoff(fisher(), u_c)
    cold = solve_speed(cut)
    warm = solve_speed(cut, guess=cold.v_star)
    assert warm.v_star == pytest.approx(cold.v_star, abs=1e-12)
    assert cold.bracket[1] <= 2.0 and warm.bracket[1] <= 2.0


def test_threshold_at_manifold_start_solved():
    # above 1 - 1e-10 every shot starts on the threshold, at 1 - U = 1 - u_c
    cut = make_cutoff(fisher(), 1.0 - 1e-11)
    two_term = large_uc_speed(cut.u_c, cut.base).two_term
    assert solve_speed(cut).v_star == pytest.approx(two_term, rel=1e-9)
    assert shoot_residual(cut, 0.5) > 0.0 > shoot_residual(cut, 0.0)
    cut = make_cutoff(fisher(), 1.0 - 1e-10)
    two_term = large_uc_speed(cut.u_c, cut.base).two_term
    assert solve_speed(cut).v_star == pytest.approx(two_term, rel=1e-9)


@pytest.mark.parametrize("name", ["fisher", "cubic"])
def test_thresholds_next_to_one_follow_the_two_term_speed(name):
    # v* = delta*V0 + delta^2*V1 + O(delta^3), delta = 1 - u_c; a start
    # on the threshold leaves the linear start's O(delta) relative error
    spec = by_name(name)
    for delta in np.geomspace(1e-14, 1e-10, 9)[:-1].tolist():
        u_c = 1.0 - delta
        v = solve_speed(make_cutoff(spec, u_c)).v_star
        assert v / large_uc_speed(u_c, spec).two_term - 1.0 == pytest.approx(
            0.0, abs=1e-9)
    # below about 1e-14 the bracket floor 1e-14 exceeds v* itself
    for k in range(47, 54):
        u_c = 1.0 - 2.0 ** -k
        v = solve_speed(make_cutoff(spec, u_c)).v_star
        assert v == pytest.approx(large_uc_speed(u_c, spec).two_term,
                                  abs=1e-14)


@pytest.mark.parametrize("name", ["fisher", "cubic"])
def test_sweep_next_to_one_reads_cleanly(name):
    curve = sweep(by_name(name), [1 - 1e-12, 1 - 1e-11, 1 - 1e-10, 1 - 1e-9])
    assert not curve.failures
    speeds = [row.v_star for row in curve.rows]
    assert speeds == sorted(speeds) and len(set(speeds)) == 4
    for row in curve.rows:
        delta = 1.0 - row.u_c
        prof = row.profile
        assert prof.u[0] == pytest.approx(1.0, abs=2.0 * delta)
        assert np.all(np.diff(prof.u) <= 0.0)
        assert row.y_half == pytest.approx(math.log(2.0 * row.u_c)
                                           / row.v_star)
        if delta < 1e-10:  # the path starts on the threshold
            assert len(row.trajectory) == 0 and row.y_event == 0.0
            assert fit_rear_constant(row) == delta
        else:
            assert fit_rear_constant(row) == pytest.approx(delta, rel=1e-3)


def test_only_final_shot_keeps_path(monkeypatch):
    shots = _spy_controls(monkeypatch)
    sol = solve_speed(make_cutoff(fisher(), 0.3))
    path = sol.trajectory  # the dense shot runs on this first read
    kept = [n for _, n in shots]
    assert len(kept) == sol.n_iterations + 3  # two bracket shots
    assert kept[-1] == len(path) > 0
    assert not any(kept[:-1])


@pytest.mark.parametrize("name,u_c", [("fisher", 0.3), ("fisher", 1e-3),
                                      ("cubic", 0.5), ("cubic", 0.3),
                                      ("cubic", 1e-3)])
def test_find_alpha_meets_the_traced_threshold(name, u_c):
    # the dense shot's last segment is cut at the threshold, where its
    # interpolant ends a rounding above ln u_c at these thresholds
    sol = solve_speed(make_cutoff(by_name(name), u_c))
    y, a, _ = sol.trajectory.find_alpha(u_c)
    assert abs(y - sol.y_event) <= 1e-9
    assert a == pytest.approx(u_c, rel=1e-13, abs=0.0)


def test_find_alpha_lands_on_the_event():
    # the threshold is the dense path's last t-node: no search, no rounding
    for name, u_c in (("fisher", 0.3), ("cubic", 1e-3), ("fisher", 0.9)):
        sol = solve_speed(make_cutoff(by_name(name), u_c))
        y, a, b = sol.trajectory.find_alpha(u_c)
        assert (y, a) == (sol.y_event, u_c)
        assert b == pytest.approx(sol.trajectory.sample(sol.y_event)[1],
                                  rel=1e-14)


@pytest.mark.parametrize("name", ["fisher", "cubic"])
@pytest.mark.parametrize("delta", [1e-10, 3e-11, 1e-11])
def test_find_alpha_at_the_level_of_a_path_without_steps(name, delta):
    # at or above 1 - 1e-10 the path starts on the threshold and takes no
    # step; the level it was traced to is still read at its end
    u_c = 1.0 - delta
    sol = solve_speed(make_cutoff(by_name(name), u_c))
    assert len(sol.trajectory) == 0
    y, a, b = sol.trajectory.find_alpha(u_c)
    assert (y, a, b) == (sol.y_event, u_c, u_c * sol.trajectory._end[2])
    assert sol.trajectory.find_alpha(0.5) is None


@pytest.mark.parametrize("name", ["fisher", "cubic"])
@pytest.mark.parametrize("u_c", [0.9, 0.5, 1e-3, 1e-8])
def test_dense_path_steps_as_a_cold_slope_shot(name, u_c):
    # the dense path is the slope loop at v* with the solve's control, so
    # it takes no more steps than a cold slope shot there
    cut = make_cutoff(by_name(name), u_c)
    sol = solve_speed(cut)
    start = unstable_manifold_start(cut, sol.v_star)
    _, steps, rejects = shoot_slope(cut, sol.v_star, start)
    record, path = solver.trace_until_alpha(cut, sol.v_star, start, u_c)
    assert record.n_steps + record.n_rejects <= steps + rejects
    assert len(path) == record.n_steps <= steps


def test_failed_row_reads_raise():
    # a failed sweep row has no speed: reading its path says so
    row = sweep(fisher(), [0.5], ShootingConfig(residual_tol=1e-18)).rows[0]
    assert math.isnan(row.v_star)
    reads = {"trajectory": lambda: row.trajectory,
             "y_event": lambda: row.y_event,
             "profile": lambda: row.profile,
             "sample": lambda: row.sample(np.array([-1.0, 0.0, 1.0])),
             "y_half": lambda: row.y_half}
    for read in reads.values():
        with pytest.raises(CutoffWaveError, match="no solved speed"):
            read()


def test_solution_contract(fisher_half):
    sol = fisher_half
    lo, hi = sol.bracket
    assert lo <= sol.v_star <= hi
    assert sol.n_iterations > 0
    # threshold sits at y = 0 and the profile is strictly decreasing
    at_zero = sol.profile.u[sol.profile.y == 0.0]
    assert at_zero.size == 1 and at_zero[0] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(sol.profile.u) < 0.0)
    assert np.all(sol.profile.uprime < 0.0)
    assert sol.y_half == pytest.approx(0.0, abs=1e-12)


def test_front_matching_and_tail(fisher_half):
    sol = fisher_half
    v, u_c = sol.v_star, sol.u_c
    # C1 matching at the threshold is the shooting criterion
    y_rear = sol.profile.y[sol.profile.y < 0.0]
    b_left = sol.trajectory.sample(sol.y_event)[1]
    assert abs(b_left + v * u_c) <= 1e-8
    # ahead of the threshold the tail is exact by construction
    ahead = sol.profile.y >= 0.0
    expect = u_c * np.exp(-v * sol.profile.y[ahead])
    assert np.allclose(sol.profile.u[ahead], expect, rtol=1e-14, atol=0.0)
    assert np.allclose(sol.profile.uprime[ahead], -v * expect,
                       rtol=1e-14, atol=0.0)
    assert y_rear.size > 0


def test_second_derivative_jump(fisher_half):
    sol = fisher_half
    v, u_c = sol.v_star, sol.u_c
    f_plus = fisher().f(u_c)
    # one-sided curvatures rebuilt from the equation at the matched slope
    curv_front = -v * (-v * u_c)
    curv_rear = -v * (-v * u_c) - f_plus
    assert curv_rear - curv_front == pytest.approx(-f_plus, rel=1e-15)


def test_rear_decay_rate(fisher_half):
    sol = fisher_half
    lam = lambda_plus(fisher(), sol.v_star)
    one_minus = 1.0 - sol.profile.u
    mask = (one_minus > 1e-8) & (one_minus < 1e-2)
    slope = np.polyfit(sol.profile.y[mask], np.log(one_minus[mask]), 1)[0]
    assert slope == pytest.approx(lam, rel=0.01)


def test_fit_rear_constant_on_solution(fisher_half):
    amplitude = fit_rear_constant(fisher_half)
    assert 0.0 < amplitude < 10.0
    # eps*exp(lambda_plus*y_event), the unbiased rear amplitude
    assert amplitude == pytest.approx(0.664245, abs=2e-5)


@pytest.mark.parametrize("name", ["fisher", "cubic"])
@pytest.mark.parametrize("u_c", [0.5, 0.1, 1e-3])
def test_fit_rear_constant_reads_the_manifold_start(name, u_c):
    # the path starts at 1 - U = 1e-10, so A = eps*exp(lambda_plus*y_event)
    # of a path started at any small eps agrees with it to O(eps)
    cut = make_cutoff(by_name(name), u_c)
    sol = solve_speed(cut)
    lam = lambda_plus(cut.base, sol.v_star)
    amplitudes = [fit_rear_constant(sol)]
    for eps in (1e-10, 1e-9, 1e-8):
        record, _ = trace_until_alpha(
            cut, sol.v_star, PhaseState(1.0 - eps, -lam * eps), u_c)
        amplitudes.append(eps * math.exp(lam * record.y_event))
    assert amplitudes[1] == amplitudes[0]
    assert max(amplitudes) - min(amplitudes) < 5e-6 * amplitudes[0]
    # a least-squares fit of ln(1 - U) deep in the rear converges on it
    prof = assemble_profile(sol, -sol.y_event, 15.0 - sol.y_event, 20001)
    one_minus = 1.0 - prof.u
    mask = (one_minus > 1e-9) & (one_minus <= 1e-5)
    intercept = np.polyfit(lam * prof.y[mask], np.log(one_minus[mask]), 1)[1]
    assert math.exp(intercept) == pytest.approx(amplitudes[0], rel=5e-5)


def test_assemble_profile_ranges(fisher_half):
    prof = assemble_profile(fisher_half, y_min=-5.0, y_max=2.0,
                            n_samples=101)
    assert prof.y.size == 101
    assert prof.y[0] == pytest.approx(-5.0)
    assert prof.y[-1] == pytest.approx(2.0)
    assert np.any(prof.y == 0.0)
    # a window wholly ahead of the threshold is the closed form there
    ahead = assemble_profile(fisher_half, y_min=1.0, y_max=2.0, n_samples=11)
    v, u_c = fisher_half.v_star, fisher_half.u_c
    assert ahead.y.tolist() == np.linspace(1.0, 2.0, 11).tolist()
    decay = [math.exp(-v * y) for y in ahead.y.tolist()]
    assert ahead.u.tolist() == [u_c * d for d in decay]
    assert ahead.uprime.tolist() == [-v * u_c * d for d in decay]
    for y_min, y_max in ((2.0, 1.0), (1.0, 1.0), (math.nan, 1.0),
                         (-5.0, math.inf), (-1e3, -fisher_half.y_event - 1.0)):
        with pytest.raises(ValueError):
            assemble_profile(fisher_half, y_min=y_min, y_max=y_max)


def test_profile_blocks_check_at_the_call(fisher_half):
    # a bad window raises before any block is asked for
    for y_min, y_max, n in ((2.0, 1.0, 11), (-5.0, math.inf, 11),
                            (-1e3, -fisher_half.y_event - 1.0, 11),
                            (-5.0, 2.0, 1)):
        with pytest.raises(ValueError):
            solver.profile_blocks(fisher_half, y_min, y_max, n)


@pytest.mark.parametrize("frame", ["origin-at-uc", "origin-at-half"])
def test_profile_blocks_match_one_read(frame):
    # each sample is read on its own, so a window sampled a block at a
    # time has the bits of one read of the whole grid
    sol = solve_speed(make_cutoff(fisher(), 0.2))
    origin = sol.y_half if frame == "origin-at-half" else 0.0
    n = 3 * integrator._BLOCK + 5
    blocks = list(solver.profile_blocks(sol, -40.0, 10.0, n, origin=origin))
    assert [b[0].size for b in blocks] == [integrator._BLOCK] * 3 + [5]
    prof = assemble_profile(sol, -40.0, 10.0, n, origin=origin)
    grid = solver.snapped_grid(max(-40.0, -sol.y_event - origin), 10.0, n)
    u, up = sol.sample(grid + origin)
    assert grid[0] > -40.0 and grid[0] < 0.0 < grid[-1]  # rear and front
    assert prof.y.tobytes() == grid.tobytes()
    assert prof.u.tobytes() == u.tobytes()
    assert prof.uprime.tobytes() == up.tobytes()


def test_max_iterations_raised(monkeypatch):
    monkeypatch.setattr(solver, "_MAX_SHOTS", 3)
    cut = make_cutoff(fisher(), 0.5)
    with pytest.raises(MaxIterations):
        solve_speed(cut)


def test_cap_before_width_floor_raised(monkeypatch):
    # at small u_c the residual carries the factor u_c, so a loose speed
    # (1.984375 against 1.98024408) still meets the residual criterion
    monkeypatch.setattr(solver, "_MAX_SHOTS", 6)
    cut = make_cutoff(fisher(), 1e-10)
    with pytest.raises(MaxIterations, match="bracket width"):
        solve_speed(cut)


@pytest.mark.parametrize("v", [math.nan, -1.0])
def test_shoot_residual_refuses_nan_or_negative_speed(v):
    # a NaN speed used to end in StepFailure, a numerical failure
    with pytest.raises(ValueError):
        shoot_residual(make_cutoff(fisher(), 0.5), v)


@pytest.mark.parametrize("guess,pad", [(math.nan, 0.25), (0.56, math.nan)])
def test_nan_guess_or_pad_opens_the_cold_bracket(guess, pad):
    # as an out-of-range guess does, where [0, nan] used to end in
    # StepFailure
    cut = make_cutoff(fisher(), 0.5)
    assert solve_speed(cut, guess, pad=pad) == solve_speed(cut)


def _bisection_shots(f, lo, hi):
    """Shots plain bisection takes to collapse [lo, hi] to the floor."""
    n = 0
    while hi - lo > solver._BRACKET_WIDTH_FLOOR:
        mid = 0.5 * (lo + hi)
        r = f(mid)
        n += 1
        if r == 0.0:
            break
        lo, hi = (mid, hi) if r < 0.0 else (lo, mid)
    return n


def _run_brent(f, lo, hi, max_iter=200):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    lo, hi, f_lo, f_hi, n = solver._brent(counted, lo, hi, f(lo), f(hi),
                                          max_iter)
    assert n == len(calls)
    assert (f_lo, f_hi) == (f(lo), f(hi))
    return lo, hi, n, calls


def test_brent_smooth_root():
    root = math.log(3.0)
    f = lambda v: math.exp(v) - 3.0  # noqa: E731
    lo, hi, n, _ = _run_brent(f, 0.0, 2.0)
    assert f(lo) < 0.0 <= f(hi) or lo == hi
    assert hi - lo <= 1e-14
    assert abs(0.5 * (lo + hi) - root) <= 1e-14
    assert n <= 12 < _bisection_shots(f, 0.0, 2.0)


def test_brent_floor_is_relative_below_one():
    # below |v| = 1 the width floor scales with the best point, which is
    # v = 0 at the start here (|f(0)| < |f(1e-5)|)
    root = 1e-10
    f = lambda v: math.atan(v / root - 1.0)  # noqa: E731
    lo, hi, _, _ = _run_brent(f, 0.0, 1e-5)
    assert lo <= root <= hi and hi - lo <= 1e-14 * root


def test_brent_never_interpolates_turned_sentinel():
    # above 1.3 the shot "turns" and returns the +1 sentinel; while the
    # bracket's high end carries it every step must be a bisection
    root = 0.7308957
    f = lambda v: solver.TURNED_SENTINEL if v > 1.3 else v - root  # noqa: E731
    lo, hi, n, calls = _run_brent(f, 0.0, 2.0)
    assert lo <= root <= hi and hi - lo <= 1e-14
    b_lo, b_hi = 0.0, 2.0
    for x in calls:
        if f(b_hi) == solver.TURNED_SENTINEL:
            assert x == pytest.approx(0.5 * (b_lo + b_hi), abs=1e-15)
        b_lo, b_hi = (x, b_hi) if f(x) < 0.0 else (b_lo, x)
    assert f(b_hi) != solver.TURNED_SENTINEL and n <= 6


def test_brent_stops_on_exact_zero():
    # zero on all of [0.3, 0.7]: the first secant step lands inside it
    f = lambda v: min(v - 0.3, 0.0) + max(v - 0.7, 0.0)  # noqa: E731
    lo, hi, n, calls = _run_brent(f, 0.0, 2.0)
    assert lo == hi == calls[-1] and f(lo) == 0.0
    assert n == 1


@pytest.mark.parametrize("f", [
    lambda v: (v - 0.7308957) ** 3,
    lambda v: math.copysign(abs(v - 0.7308957) ** 9, v - 0.7308957),
    lambda v: -1.0 if v < 0.7308957 else 2.0,
    lambda v: math.exp(40.0 * (v - 0.7308957)) - 1.0,
    lambda v: (v - 0.7308957) * (1.0 if v < 0.7308957 else 1e6),
], ids=["cube", "ninth-power", "step", "steep-exp", "kink"])
def test_brent_keeps_bisection_worst_case(f):
    # at most _BISECTION_SLACK + 1 shots beyond bisection; unguarded
    # zeroin takes 141 shots on the cube over [0, 2], bisection 48
    for lo, hi in ((0.0, 2.0), (0.5, 0.75), (0.0, 0.7309)):
        b_lo, b_hi, n, _ = _run_brent(f, lo, hi)
        assert b_lo <= 0.7308957 <= b_hi or f(b_lo) == 0.0
        assert n <= _bisection_shots(f, lo, hi) + 9


def test_few_shots_per_solve(monkeypatch):
    shots = _spy_controls(monkeypatch)
    grid = np.logspace(math.log10(0.9), -6.0, 10)
    curve = sweep(fisher(), [float(u) for u in grid])
    assert not curve.failures
    assert len(shots) / len(curve.rows) <= 20  # 48 by bisection
    sol = solve_speed(make_cutoff(fisher(), 0.5))
    assert sol.n_iterations <= 12
    assert sol.v_star == pytest.approx(REFERENCE_SPEEDS[0.5], abs=5e-9)


def test_no_sign_change_for_malformed_reaction():
    # a reaction with a deep negative valley inside (u_c, 1): the rest
    # trajectory turns before reaching the threshold, so r(0) >= 0
    def valley(u):
        return u * (1.0 - u) * (u - 0.25) * (u - 0.85)

    grid = np.linspace(1e-4, 1.0, 4001)
    # f(1 - w) = 0.1125w - 1.0125w^2 + 1.9w^3 - w^4
    spec = ReactionSpec(name="valley", f=valley,
                        coefficients=(0.1125, -1.0125, 1.9, -1.0),
                        sup_f=lambda u_c: float(
                            np.max([valley(float(g)) for g in grid
                                    if g > u_c])))
    cut = make_cutoff(spec, 0.2)
    with pytest.raises(NoSignChange):
        solve_speed(cut)


def test_sweep_monotone_and_warm_started(fisher_spec):
    curve = sweep(fisher_spec, [0.9, 0.5, 0.1])
    vs = [r.v_star for r in curve.rows]
    assert all(b > a for a, b in zip(vs, vs[1:]))
    assert not curve.failures
    assert vs[0] == pytest.approx(REFERENCE_SPEEDS[0.9], abs=1e-8)
    # two-term large-threshold estimate at u_c = 0.9
    assert abs(vs[0] - (0.1 + 0.01 / 6.0)) < 1e-3


def test_sweep_empty():
    assert sweep(fisher(), []).rows == []


def test_sweep_rejects_bad_order(fisher_spec):
    with pytest.raises(ValueError):
        sweep(fisher_spec, [0.1, 0.5])
    with pytest.raises(ValueError):
        sweep(fisher_spec, [0.5, 1.5])


def test_sweep_row_is_one_solve_with_lazy_path(monkeypatch):
    # a caller that wraps solver.solve_speed sees each sweep row as one
    # call, and no row shoots its dense path until it is read: the residual
    # comes from the bracket
    calls, traced = [], []
    solve, trace = solver.solve_speed, solver.trace_until_alpha

    def counted(cutoff, *args, **kwargs):
        calls.append(cutoff.u_c)
        return solve(cutoff, *args, **kwargs)

    def tracing(*args, **kwargs):
        traced.append(args[1])
        return trace(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_speed", counted)
    monkeypatch.setattr(solver, "trace_until_alpha", tracing)
    values = [0.9, 0.5, 0.1, 1e-3, 1e-6]
    curve = sweep(fisher(), values)
    assert not curve.failures
    assert calls == values
    assert traced == []
    assert all(type(row) is WaveSolution for row in curve.rows)
    row = curve.rows[2]
    assert len(row.trajectory) > 0 and traced == [row.v_star]

    # called alone, solve_speed gives the same kind of result, whose
    # whole solution is built when read
    cut = make_cutoff(fisher(), 0.1)
    sol = solver.solve_speed(cut)
    assert traced == [row.v_star]
    assert len(sol.trajectory) > 0
    assert sol.profile.y.size == sol.profile.u.size == 1201
    assert sol.y_half < 0.0 and sol.trajectory.find_alpha(0.5) is not None
    assert solver.solve_speed(cut) == sol
    assert traced == [row.v_star, sol.v_star]


_PATH_READS = ["trajectory", "y_event", "profile", "y_half"]


@pytest.mark.parametrize("attr", _PATH_READS)
def test_path_is_shot_once_on_first_read(monkeypatch, attr):
    # the solve ends with the search; the first read of any part of the
    # path shoots it at v* with the solve's own control, and no later
    # read shoots again (y_half reads the path below u_c = 1/2)
    traced = []
    trace = solver.trace_until_alpha

    def tracing(cutoff, v, start, level, control):
        traced.append((v, control))
        return trace(cutoff, v, start, level, control)

    monkeypatch.setattr(solver, "trace_until_alpha", tracing)
    config = ShootingConfig(control=IntegrationControl(tol=1e-11))
    sol = solve_speed(make_cutoff(fisher(), 0.3), config=config)
    assert traced == []
    getattr(sol, attr)
    assert traced == [(sol.v_star, config.control)]
    for name in _PATH_READS:
        getattr(sol, name)
    assert len(traced) == 1


@pytest.mark.parametrize("fault", ["turned", "missed"])
def test_dense_path_failure_raises_on_first_read(monkeypatch, fault):
    # the dense shot at v* is held to the residual criterion where it runs,
    # on the first read of the path; solve_speed returns the speed
    trace = solver.trace_until_alpha

    def faulty(cutoff, v, start, level, control):
        if fault == "turned":
            raise SpanExceeded("trajectory turned")
        record, path = trace(cutoff, v, start, level, control)
        return (dataclasses.replace(record,
                                    log_slope=record.log_slope + 1e-3), path)

    monkeypatch.setattr(solver, "trace_until_alpha", faulty)
    sol = solve_speed(make_cutoff(fisher(), 0.3))
    assert abs(sol.residual) <= ShootingConfig().residual_tol
    for attr in _PATH_READS:
        with pytest.raises(MaxIterations, match="dense path"):
            getattr(sol, attr)


def test_full_solve_builds_dense_output_on_first_read(monkeypatch):
    # a solve stops at the search: the trajectory, the default profile,
    # y_half and the coefficient table are built when first read, and kept
    calls = {"assemble": 0, "sample": 0, "find_alpha": 0}

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    counting(solver, "assemble_profile", "assemble")
    counting(solver.Trajectory, "sample", "sample")
    counting(solver.Trajectory, "find_alpha", "find_alpha")
    sol = solve_speed(make_cutoff(fisher(), 1e-3))
    assert calls == {"assemble": 0, "sample": 0, "find_alpha": 0}
    assert sol.trajectory._rows is None
    profile = sol.profile
    assert calls["assemble"] == 1 and profile.y.size == 1201
    assert sol.profile is profile and calls["assemble"] == 1
    y_half = sol.y_half
    assert calls["find_alpha"] == 1
    monkeypatch.undo()
    assert y_half == sol.trajectory.find_alpha(0.5)[0] - sol.y_event
    assert sol.y_half == y_half
    # at u_c >= 1/2 the half point lies on the exponential tail
    half = solve_speed(make_cutoff(fisher(), 0.5))
    assert half.y_half == 0.0 and half.trajectory._rows is None


ACCEPTANCE_GRID = sorted((float(u) for u in
                          np.logspace(-10.0, math.log10(0.99), 60)),
                         reverse=True)


@pytest.mark.parametrize("reaction", [fisher, cubic_kpp])
def test_residual_is_worse_bracket_end(monkeypatch, reaction):
    # r rises through zero across the final bracket, so the end further
    # from zero bounds r(v*); an exact zero (lo == hi) reports 0.  Each
    # stage shoots on one step grid, so both ends were shot on stage 2's
    # (each row's last), which gives the same value whenever replayed;
    # search shots start on the manifold's series
    grids = {}
    slope = solver.shoot_slope

    def spy(cutoff, v, start, control, grid=None):
        grids.setdefault(cutoff.u_c, []).append(grid)
        return slope(cutoff, v, start, control, grid=grid)

    monkeypatch.setattr(solver, "shoot_slope", spy)
    spec = reaction()
    curve = sweep(spec, ACCEPTANCE_GRID)
    assert not curve.failures
    for row in curve.rows:
        assert abs(row.residual) <= ShootingConfig().residual_tol
        assert len({id(grid) for grid in grids[row.u_c]}) == 2
        lo, hi = row.bracket
        if lo == hi:
            assert row.residual == 0.0
            continue
        cut = make_cutoff(spec, row.u_c)
        r_lo, r_hi = (
            cut.u_c * math.tan(math.atan(shoot_slope(
                cut, v, manifold_series_start(cut, v),
                grid=grids[row.u_c][-1])[0] + v)) for v in (lo, hi))
        assert r_lo < 0.0 <= r_hi
        worse = r_lo if abs(r_lo) > abs(r_hi) else r_hi
        assert row.residual == worse
        for v, r in ((lo, r_lo), (hi, r_hi)):
            fresh = shoot_slope(cut, v, manifold_series_start(cut, v))[0]
            assert abs(cut.u_c * (fresh + v) - r) <= cut.u_c * 1e-10


@pytest.mark.parametrize("reaction", [fisher, cubic_kpp])
def test_secant_continuation_saves_shots(reaction):
    # the secant takes about 510 shots on this grid; a bracket of +-0.25
    # around the previous speed takes 741 (Fisher) and 754 (cubic)
    spec = reaction()
    curve = sweep(spec, ACCEPTANCE_GRID)
    assert not curve.failures
    assert sum(row.n_iterations for row in curve.rows) <= 600
    for i in (0, 1, 2, 3, 30, 59):
        row = curve.rows[i]
        cold = solve_speed(make_cutoff(spec, row.u_c))
        assert abs(row.v_star - cold.v_star) <= 1e-13


def test_secant_miss_is_widened():
    # the secant through 0.9 and 0.89 predicts far above v*(1e-6) and
    # is clipped to 2; the pad, four times the second row's miss, does
    # not reach v*, so the bracket is widened down to it
    curve = sweep(fisher(), [0.9, 0.89, 1e-6])
    assert not curve.failures
    for row in curve.rows:
        cold = solve_speed(make_cutoff(fisher(), row.u_c))
        assert abs(row.v_star - cold.v_star) <= 1e-13


def test_tolerance_robustness_of_speed():
    cut = make_cutoff(fisher(), 0.5)
    v8 = solve_speed(cut, config=ShootingConfig(residual_tol=1e-8)).v_star
    v10 = solve_speed(cut, config=ShootingConfig(residual_tol=1e-10)).v_star
    assert abs(v8 - v10) < 1e-7


def test_config_validation():
    with pytest.raises(ValueError):
        ShootingConfig(residual_tol=0.0)
    # a NaN criterion would switch the residual check off
    with pytest.raises(ValueError):
        ShootingConfig(residual_tol=math.nan)
    # the manifold offset is worked out from u_c, not set
    assert [f.name for f in dataclasses.fields(ShootingConfig)] == [
        "residual_tol", "control"]


def test_concurrent_solves_share_reactions():
    from concurrent.futures import ThreadPoolExecutor

    spec = fisher()
    ucs = [0.2, 0.4, 0.6, 0.8]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(
            lambda u: solve_speed(make_cutoff(spec, u)).v_star, ucs))
    serial = [solve_speed(make_cutoff(spec, u)).v_star for u in ucs]
    assert parallel == serial


def _spy_controls(monkeypatch):
    """Record the IntegrationControl and path length of every shot: the
    search's slope shots keep no path, the final dense shot its segments."""
    trace, slope = solver.trace_until_alpha, solver.shoot_slope
    shots = []

    def trace_spy(cutoff, v, start, level, control):
        record, path = trace(cutoff, v, start, level, control)
        shots.append((control, len(path)))
        return record, path

    def slope_spy(cutoff, v, start, control, grid=None):
        shots.append((control, 0))
        return slope(cutoff, v, start, control, grid=grid)

    monkeypatch.setattr(solver, "trace_until_alpha", trace_spy)
    monkeypatch.setattr(solver, "shoot_slope", slope_spy)
    return shots


@pytest.mark.parametrize("reaction", [fisher, cubic_kpp])
def test_coarse_stage_then_caller_tolerance(monkeypatch, reaction):
    # stage 1 shoots at the relaxed tolerance, then every shot, the final
    # dense one included, runs at the caller's control
    shots = _spy_controls(monkeypatch)
    config = ShootingConfig()
    sol = solve_speed(make_cutoff(reaction(), 1e-10), config=config)
    sol.trajectory  # the dense shot runs on the first read
    controls = [c for c, _ in shots]
    n_coarse = sum(c != config.control for c in controls)
    assert n_coarse >= 2
    assert all(c.tol == solver._COARSE_TOL for c in controls[:n_coarse])
    assert all(c == config.control for c in controls[n_coarse:])
    assert len(controls) - n_coarse >= 3 and shots[-1][1] > 0
    assert len(shots) == sol.n_iterations + 3
    lo, hi = sol.bracket
    assert hi - lo <= solver._BRACKET_WIDTH_FLOOR


@pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-6])
def test_loose_tolerance_skips_coarse_stage(monkeypatch, tol):
    # one Brent search at the caller's control when it is 1e-8 or looser
    shots = _spy_controls(monkeypatch)
    brent = solver._brent
    floors = []

    def spy(*args):
        floors.append(args[-1])
        return brent(*args)

    monkeypatch.setattr(solver, "_brent", spy)
    control = IntegrationControl(tol=tol)
    sol = solve_speed(make_cutoff(fisher(), 1e-3),
                      config=ShootingConfig(control=control))
    sol.trajectory  # the dense shot runs on the first read
    assert len(shots) == sol.n_iterations + 3
    if tol < solver._COARSE_TOL:
        assert floors == [solver._FINE_HALF_WIDTH,
                          solver._BRACKET_WIDTH_FLOOR]
    else:
        assert floors == [solver._BRACKET_WIDTH_FLOOR]
        assert {c for c, _ in shots} == {control}


@pytest.mark.parametrize("reaction", [fisher, cubic_kpp])
@pytest.mark.parametrize("u_c,most", [(1e-3, 3), (1e-5, 3), (1e-300, 8)])
def test_few_shots_at_caller_tolerance(monkeypatch, reaction, u_c, most):
    # stage 2 shoots stage 1's midpoint and then a Newton pair around the
    # step from it on stage 1's secant slope, one more pair per miss
    shots = _spy_controls(monkeypatch)
    config = ShootingConfig()
    solve_speed(make_cutoff(reaction(), u_c), config=config).trajectory
    fine = [n for c, n in shots if c == config.control]
    assert fine[-1] > 0 and not any(fine[:-1])  # the final shot is dense
    assert len(fine) - 1 <= most


def _count_caller_shots(monkeypatch, control):
    """Count the slope shots at ``control`` per threshold."""
    slope = solver.shoot_slope
    counts = {}

    def spy(cutoff, v, start, control_, grid=None):
        if control_ == control:
            counts[cutoff.u_c] = counts.get(cutoff.u_c, 0) + 1
        return slope(cutoff, v, start, control_, grid=grid)

    monkeypatch.setattr(solver, "shoot_slope", spy)
    return counts


@pytest.mark.parametrize("reaction", [fisher, cubic_kpp])
def test_sweep_rows_take_three_caller_tolerance_shots(monkeypatch,
                                                      reaction):
    # stage 2 records its grid at stage 1's midpoint, and the Newton
    # pair around the step from it straddles v* on every row
    config = ShootingConfig()
    counts = _count_caller_shots(monkeypatch, config.control)
    curve = sweep(reaction(), ACCEPTANCE_GRID, config)
    assert not curve.failures
    assert counts == {u_c: 3 for u_c in ACCEPTANCE_GRID}
    for row in curve.rows:
        lo, hi = row.bracket
        assert hi - lo <= solver._BRACKET_WIDTH_FLOOR


@pytest.mark.parametrize("name", ["fisher", "cubic"])
@pytest.mark.parametrize("u_c", [0.99, 0.5, 1e-3, 1e-5, 1e-10])
def test_cold_solve_takes_three_caller_tolerance_shots(monkeypatch, name,
                                                       u_c):
    config = ShootingConfig()
    counts = _count_caller_shots(monkeypatch, config.control)
    sol = solve_speed(make_cutoff(by_name(name), u_c), config=config)
    assert counts == {u_c: 3}
    lo, hi = sol.bracket
    assert hi - lo <= solver._BRACKET_WIDTH_FLOOR


def _spy_widen(monkeypatch):
    """Record the arguments of every bracket opening."""
    widen = solver._widen
    widened = []
    monkeypatch.setattr(solver, "_widen",
                        lambda *args: widened.append(args) or widen(*args))
    return widened


def _assert_pinned(sol, name):
    lo, hi = sol.bracket
    assert hi - lo <= (solver._BRACKET_WIDTH_FLOOR
                       + 2.0 * sys.float_info.epsilon * abs(sol.v_star))
    assert abs(sol.v_star - COLD_SPEEDS[name, sol.u_c]) <= 1e-13
    assert abs(sol.residual) <= ShootingConfig().residual_tol


@pytest.mark.parametrize("name", ["fisher", "cubic"])
@pytest.mark.parametrize("u_c", [1e-50, 1e-300])
def test_missed_newton_pair_steps_again(monkeypatch, name, u_c):
    # r is curved enough at tiny thresholds that the first pair misses;
    # each further pair starts from the last pair's end nearer v*
    config = ShootingConfig()
    counts = _count_caller_shots(monkeypatch, config.control)
    widened = _spy_widen(monkeypatch)
    sol = solve_speed(make_cutoff(by_name(name), u_c), config=config)
    assert counts[u_c] in range(5, 2 * solver._NEWTON_PAIRS + 2, 2)
    assert len(widened) == 1  # stage 1's only
    _assert_pinned(sol, name)


def _stage_one_ending(monkeypatch, ending):
    """Make stage 1's Brent search end on an exact zero at its midpoint
    or with the turned-shot sentinel at its high end."""
    brent = solver._brent

    def spy(f, lo, hi, r_lo, r_hi, max_iter, floor):
        out = brent(f, lo, hi, r_lo, r_hi, max_iter, floor)
        if floor != solver._FINE_HALF_WIDTH:
            return out
        lo, hi, r_lo, r_hi, n = out
        if ending == "zero":
            mid = 0.5 * (lo + hi)
            return mid, mid, 0.0, 0.0, n
        return lo, hi, r_lo, solver.TURNED_SENTINEL, n

    monkeypatch.setattr(solver, "_brent", spy)


@pytest.mark.parametrize("ending,name,u_c", [
    *[(ending, name, u_c) for ending in ("zero", "turned")
      for name, u_c in (("fisher", 0.99), ("cubic", 1e-10),
                        ("fisher", 1e-50))],
    ("no-pairs", "fisher", 1e-50), ("no-pairs", "cubic", 1e-300)])
def test_unusable_stage_one_slope_falls_back(monkeypatch, ending, name,
                                             u_c):
    # without a usable slope, or once every Newton pair has missed, stage
    # 2 opens +-_FINE_HALF_WIDTH around stage 1's midpoint and widens it
    if ending == "no-pairs":  # the first pair misses at these thresholds
        monkeypatch.setattr(solver, "_NEWTON_PAIRS", 1)
    else:
        _stage_one_ending(monkeypatch, ending)
    config = ShootingConfig()
    counts = _count_caller_shots(monkeypatch, config.control)
    widened = _spy_widen(monkeypatch)
    sol = solve_speed(make_cutoff(by_name(name), u_c), config=config)
    assert len(widened) == 2
    assert widened[1][2] - widened[1][1] == pytest.approx(
        2.0 * solver._FINE_HALF_WIDTH)
    assert counts[u_c] >= (5 if ending == "no-pairs" else 2)
    _assert_pinned(sol, name)


# cold speeds of a single-stage search at tolerance 1e-12; the stage-2
# bracket pins each to the width floor at the caller's tolerance
COLD_SPEEDS = {
    ("fisher", 0.99): 0.010016764518372454,
    ("fisher", 1e-10): 1.9802440829685184,
    ("fisher", 1e-50): 1.9992434076112406,
    ("fisher", 1e-300): 1.999979259589074,
    ("cubic", 0.99): 0.0141421949451413,
    ("cubic", 1e-10): 1.9828821942564918,
    ("cubic", 1e-50): 1.9992663029593474,
    ("cubic", 1e-300): 1.9999793657857827,
}


# v*(u_c) near u_c = 1 to 20 digits: mpmath at 40 digits, on 60 terms of
# the unstable manifold's series at the exact float 1 - u_c
NEAR_ONE_SPEEDS = {
    ("fisher", 0.9): 0.10177062090087767098,
    ("fisher", 0.99): 0.010016764518373426865,
    ("fisher", 0.999999): 1.0000001666955195631e-6,
    ("fisher", 0.9999999999): 1.0000000827570376685e-10,
    ("cubic", 0.9): 0.14148453475410455341,
    ("cubic", 0.99): 0.014142194945144316662,
    ("cubic", 0.999999): 1.4142135624138206252e-6,
    ("cubic", 0.9999999999): 1.4142136793856498715e-10,
}


@pytest.mark.parametrize("tol", [1e-12, 1e-8])
@pytest.mark.parametrize("name,u_c", sorted(NEAR_ONE_SPEEDS))
def test_speed_near_one_to_rounding(name, u_c, tol):
    # at or above u_c = 0.7 p + v is in closed form, and the bracket floor
    # is relative to v below 1, so v* ~ 1 - u_c keeps every digit
    config = ShootingConfig(control=IntegrationControl(tol=tol))
    sol = solve_speed(make_cutoff(by_name(name), u_c), config=config)
    ref = NEAR_ONE_SPEEDS[name, u_c]
    assert abs(sol.v_star - ref) <= 1e-14 * ref


@pytest.mark.parametrize("name,u_c", sorted(COLD_SPEEDS))
def test_cold_speed_unchanged_by_coarse_stage(name, u_c):
    sol = solve_speed(make_cutoff(by_name(name), u_c))
    assert abs(sol.v_star - COLD_SPEEDS[name, u_c]) <= 1e-13


@pytest.mark.parametrize("name", ["fisher", "cubic"])
@pytest.mark.parametrize("u_c", [1e-10, 1e-50, 1e-300])
def test_cold_bracket_seeded_by_two_term_speed(name, u_c):
    # with no guess a small threshold opens at 2 - pi^2/L^2 +- 40/|L|^3,
    # not on [0, 2]: 17-30 search shots without the seed
    point = solve_speed(make_cutoff(by_name(name), u_c))
    assert point.n_iterations <= 13
    assert abs(point.v_star - COLD_SPEEDS[name, u_c]) <= 1e-13


def test_turned_shot_forces_bisection():
    # the search runs on atan(p + v), so a real shot can return any value
    # in (-pi/2, pi/2); a turned shot must be told apart from all of them
    assert solver.TURNED_SENTINEL > math.atan(math.inf)
    root = 0.7308957
    f = lambda v: (solver.TURNED_SENTINEL if v > 1.3  # noqa: E731
                   else math.atan(1e3 * (v - root)))
    lo, hi, n, calls = _run_brent(f, 0.0, 2.0)
    assert lo <= root <= hi and hi - lo <= 1e-14
    assert calls[0] == 1.0  # the midpoint of [0, 2], not a secant step

    # a real turned shot (the rest shot of a reaction with a deep valley
    # above the threshold) is still +1 through the public residual
    def valley(u):
        return u * (1.0 - u) * (u - 0.25) * (u - 0.85)

    # f(1 - w) = 0.1125w - 1.0125w^2 + 1.9w^3 - w^4
    spec = ReactionSpec(name="valley", f=valley,
                        coefficients=(0.1125, -1.0125, 1.9, -1.0),
                        sup_f=lambda u_c: 0.05)
    cut = make_cutoff(spec, 0.2)
    assert shoot_residual(cut, 0.0) == 1.0
    assert solver._search_value(cut, 0.0, ShootingConfig()) == \
        solver.TURNED_SENTINEL


@pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
def test_slope_shot_of_valley_reaction_turns(v):
    # the valley's negative rate stops U above the threshold: the slope
    # shot rejects the stages where U'/U reaches 0 until its step
    # underflows, and the search sees a turned shot
    def valley(u):
        return u * (1.0 - u) * (u - 0.25) * (u - 0.85)

    # f(1 - w) = 0.1125w - 1.0125w^2 + 1.9w^3 - w^4
    spec = ReactionSpec(name="valley", f=valley,
                        coefficients=(0.1125, -1.0125, 1.9, -1.0),
                        sup_f=lambda u_c: 0.05)
    cut = make_cutoff(spec, 0.2)
    with pytest.raises(SpanExceeded):
        shoot_slope(cut, v, unstable_manifold_start(cut, v))
    assert solver._search_value(cut, v, ShootingConfig()) == \
        solver.TURNED_SENTINEL
    assert shoot_residual(cut, v) == 1.0


@pytest.mark.parametrize("name,u_c", [("fisher", 0.2), ("cubic", 0.1),
                                      ("cubic", 0.2)])
def test_default_speed_near_tight_tolerance_speed(name, u_c):
    # the thresholds where the default speed lies furthest from the
    # converged one still agree with it to 3e-13
    cut = make_cutoff(by_name(name), u_c)
    tight = ShootingConfig(control=IntegrationControl(tol=1e-14))
    assert abs(solve_speed(cut).v_star
               - solve_speed(cut, config=tight).v_star) <= 3e-13
