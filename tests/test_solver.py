import math

import numpy as np
import pytest

from cutoffwave import (InsufficientTail, MaxIterations, NoSignChange,
                        Profile, ReactionSpec, ShootingConfig, assemble_profile,
                        fisher, fit_rear_constant, lambda_plus, make_cutoff,
                        shoot_residual, small_uc_speed, solve_speed, sweep,
                        v_upper_bound)

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


def test_threshold_at_manifold_start_refused():
    # every shot starts at U = 1 - epsilon_manifold, above the threshold
    cut = make_cutoff(fisher(), 1.0 - 1e-11)
    with pytest.raises(ValueError, match="epsilon_manifold"):
        solve_speed(cut)
    with pytest.raises(ValueError, match="epsilon_manifold"):
        shoot_residual(cut, 0.5)
    with pytest.raises(ValueError, match="epsilon_manifold"):
        solve_speed(make_cutoff(fisher(), 1.0 - 1e-10))
    assert solve_speed(cut, config=ShootingConfig(
        epsilon_manifold=1e-12)).v_star < 1e-10


def test_only_final_shot_keeps_path(monkeypatch):
    from cutoffwave import solver

    trace = solver.trace_until_alpha
    kept = []

    def spy(*args, **kwargs):
        record, path = trace(*args, **kwargs)
        kept.append(len(path))
        return record, path

    monkeypatch.setattr(solver, "trace_until_alpha", spy)
    sol = solve_speed(make_cutoff(fisher(), 0.3))
    assert len(kept) == sol.n_iterations + 3  # two bracket shots
    assert kept[-1] == len(sol.trajectory) > 0
    assert not any(kept[:-1])


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


def test_fit_rear_constant_recovers_plant():
    lam = lambda_plus(fisher(), 0.56)
    y = np.linspace(-30.0, -5.0, 400)
    u = 1.0 - 0.7 * np.exp(lam * y)
    plant = Profile(y=y, u=u, uprime=np.gradient(u, y))
    sol = solve_speed(make_cutoff(fisher(), 0.5))
    sol = type(sol)(u_c=sol.u_c, v_star=0.56, residual=sol.residual,
                    bracket=sol.bracket, n_iterations=sol.n_iterations,
                    profile=plant, y_half=sol.y_half, cutoff=sol.cutoff,
                    trajectory=sol.trajectory, y_event=sol.y_event)
    assert fit_rear_constant(sol) == pytest.approx(0.7, abs=1e-6)


def test_fit_rear_constant_on_solution(fisher_half):
    amplitude = fit_rear_constant(fisher_half)
    assert 0.0 < amplitude < 10.0
    # regression baseline recorded from the converged run
    assert amplitude == pytest.approx(0.663413, abs=5e-4)


def test_fit_rear_constant_needs_tail(fisher_half):
    sol = fisher_half
    short = Profile(y=sol.profile.y[-40:], u=sol.profile.u[-40:],
                    uprime=sol.profile.uprime[-40:])
    clone = type(sol)(u_c=sol.u_c, v_star=sol.v_star, residual=sol.residual,
                      bracket=sol.bracket, n_iterations=sol.n_iterations,
                      profile=short, y_half=sol.y_half, cutoff=sol.cutoff,
                      trajectory=sol.trajectory, y_event=sol.y_event)
    with pytest.raises(InsufficientTail):
        fit_rear_constant(clone)


def test_assemble_profile_ranges(fisher_half):
    prof = assemble_profile(fisher_half, y_min=-5.0, y_max=2.0,
                            n_samples=101)
    assert prof.y.size == 101
    assert prof.y[0] == pytest.approx(-5.0)
    assert prof.y[-1] == pytest.approx(2.0)
    assert np.any(prof.y == 0.0)
    with pytest.raises(ValueError):
        assemble_profile(fisher_half, y_min=1.0, y_max=2.0)


def test_max_iterations_raised():
    cut = make_cutoff(fisher(), 0.5)
    with pytest.raises(MaxIterations):
        solve_speed(cut, config=ShootingConfig(max_bisections=3))


def test_no_sign_change_for_malformed_reaction():
    # a reaction with a deep negative valley inside (u_c, 1): the rest
    # trajectory turns before reaching the threshold, so r(0) >= 0
    def valley(u):
        return u * (1.0 - u) * (u - 0.25) * (u - 0.85)

    grid = np.linspace(1e-4, 1.0, 4001)
    spec = ReactionSpec(name="valley", f=valley, fprime_at_1=-0.1125,
                        fdoubleprime_at_1=0.0,
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


def test_tolerance_robustness_of_speed():
    cut = make_cutoff(fisher(), 0.5)
    v8 = solve_speed(cut, config=ShootingConfig(residual_tol=1e-8)).v_star
    v10 = solve_speed(cut, config=ShootingConfig(residual_tol=1e-10)).v_star
    assert abs(v8 - v10) < 1e-7


def test_config_validation():
    with pytest.raises(ValueError):
        ShootingConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        ShootingConfig(epsilon_manifold=1e-3)


def test_concurrent_solves_share_reactions():
    from concurrent.futures import ThreadPoolExecutor

    spec = fisher()
    ucs = [0.2, 0.4, 0.6, 0.8]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(
            lambda u: solve_speed(make_cutoff(spec, u)).v_star, ucs))
    serial = [solve_speed(make_cutoff(spec, u)).v_star for u in ucs]
    assert parallel == serial
