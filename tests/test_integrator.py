import math
from bisect import bisect_right

import numpy as np
import pytest

from cutoffwave import (IntegrationControl, PhaseState, ReactionSpec,
                        SpanExceeded, StepFailure, Trajectory, fisher,
                        integrate_until_alpha, make_cutoff,
                        trace_field_until_alpha, trace_until_alpha,
                        unstable_manifold_start)


def fisher_energy(alpha, u_c):
    """Closed-form 2*integral of the gated Fisher rate from alpha to 1."""
    lo = max(alpha, u_c)
    integral = (1.0 / 6.0) - (lo ** 2 / 2.0 - lo ** 3 / 3.0)
    return 2.0 * integral


def test_manifold_start_values():
    f = fisher()
    s = unstable_manifold_start(make_cutoff(f, 0.5), 0.0, 1e-10)
    assert s.alpha == 1.0 - 1e-10
    assert s.beta == pytest.approx(-1e-10, rel=1e-12)
    s2 = unstable_manifold_start(make_cutoff(f, 0.5), 2.0, 1e-10)
    assert s2.beta == pytest.approx(-(math.sqrt(2) - 1) * 1e-10, rel=1e-12)


def test_immediate_event():
    cut = make_cutoff(fisher(), 0.5)
    start = PhaseState(0.7, -0.3)
    ev = integrate_until_alpha(cut, 1.0, start, 0.7)
    assert ev.y_event == 0.0
    assert ev.state == start
    assert ev.n_steps == 0 and ev.n_rejects == 0


def test_rejects_bad_preconditions():
    cut = make_cutoff(fisher(), 0.5)
    with pytest.raises(ValueError):
        integrate_until_alpha(cut, -1.0, PhaseState(0.9, -0.1), 0.5)
    with pytest.raises(ValueError):
        integrate_until_alpha(cut, 1.0, PhaseState(0.4, -0.1), 0.5)


def test_event_beta_matches_quadrature_at_rest():
    # with v = 0 the phase path satisfies beta^2 = 2*int_alpha^1 f_c
    cut = make_cutoff(fisher(), 0.5)
    start = unstable_manifold_start(cut, 0.0)
    ev = integrate_until_alpha(cut, 0.0, start, 0.5)
    assert ev.state.beta == pytest.approx(-math.sqrt(1.0 / 6.0), abs=1e-9)
    assert ev.state.alpha == pytest.approx(0.5, abs=1e-13)


def test_event_reached_at_high_speed():
    cut = make_cutoff(fisher(), 0.1)
    ev = integrate_until_alpha(cut, 2.0, unstable_manifold_start(cut, 2.0),
                               0.1)
    assert ev.state.beta < 0.0


def test_event_localization_on_interpolant():
    cut = make_cutoff(fisher(), 0.3)
    ev, traj = trace_until_alpha(cut, 0.4, unstable_manifold_start(cut, 0.4),
                                 0.3)
    a, _ = traj.sample(ev.y_event)
    assert abs(a - 0.3) <= 1e-13


@pytest.mark.parametrize("u_c,v", [(0.5, 0.0), (0.1, 0.5), (0.5, 0.56),
                                   (0.9, 0.05)])
def test_rest_energy_oracle_along_path(u_c, v):
    """v=0 oracle at several thresholds; for v > 0 just monotonicity."""
    cut = make_cutoff(fisher(), u_c)
    start = unstable_manifold_start(cut, v)
    ev, traj = trace_until_alpha(cut, v, start, u_c)
    lo = traj.find_alpha(1.0 - 1e-6)
    assert lo is not None
    n = 800
    prev_alpha = 2.0
    for i in range(n + 1):
        y = lo[0] + (ev.y_event - lo[0]) * i / n
        a, b = traj.sample(y)
        assert b < 0.0
        assert a < prev_alpha
        prev_alpha = a
        if v == 0.0:
            assert abs(b + math.sqrt(fisher_energy(a, u_c))) < 1e-8


def _cutoff_path():
    cut = make_cutoff(fisher(), 0.3)
    v = 0.7
    return trace_until_alpha(cut, v, unstable_manifold_start(cut, v), 0.05)


def test_sample_array_equals_pointwise():
    # both zones, so the path spans the split at u_c; the grid holds the
    # ends and every segment start, where the segment lookup switches
    _, traj = _cutoff_path()
    starts = [seg[0] for seg in traj._segments]
    ys = np.unique(np.concatenate([
        np.linspace(traj.y_start, traj.y_end, 997), starts,
        [traj.y_start, traj.y_end]]))
    assert ys[0] == traj.y_start and ys[-1] == traj.y_end
    a, b = traj.sample(ys)
    assert a.shape == b.shape == ys.shape
    for y, ai, bi in zip(ys.tolist(), a.tolist(), b.tolist()):
        assert traj.sample(y) == (ai, bi)
        # the scalar Horner form of the segment, in the same float order
        i = max(bisect_right(starts, y) - 1, 0)
        y0, h, w0, p0, qw, qp = traj._segments[i]
        t = (y - y0) / h
        ea = math.exp(w0 + h * t * (qw[0] + t * (qw[1] + t * (qw[2]
                                                             + t * qw[3]))))
        eb = ea * (p0 + h * t * (qp[0] + t * (qp[1] + t * (qp[2]
                                                          + t * qp[3]))))
        assert (ai, bi) == (ea, eb)
    empty = traj.sample(np.empty(0))
    assert empty[0].size == 0 and empty[1].size == 0


def test_sample_array_range_check():
    _, traj = _cutoff_path()
    inside = np.linspace(traj.y_start, traj.y_end, 11)
    for bad in (traj.y_start - 1e-6, traj.y_end + 1e-6):
        ys = np.append(inside, bad)
        with pytest.raises(ValueError, match="outside sampled range"):
            traj.sample(ys)
        with pytest.raises(ValueError, match="outside sampled range"):
            traj.sample(bad)
    traj.sample(np.array([traj.y_end + 5e-13]))  # within the 1e-12 slack
    with pytest.raises(ValueError, match="empty trajectory"):
        Trajectory(0.0).sample(np.array([0.0]))


def test_refraction_across_threshold():
    # beta stays C0 but its slope jumps by +f_c_plus going down through u_c
    cut = make_cutoff(fisher(), 0.5)
    v = 0.7
    start = unstable_manifold_start(cut, v)
    ev, traj = trace_until_alpha(cut, v, start, 0.2)
    crossing = traj.find_alpha(0.5)
    assert crossing is not None
    y_c, _, b_c = crossing
    h = 1e-6
    _, b_before = traj.sample(y_c - h)
    _, b_after = traj.sample(y_c + h)
    slope_minus = (b_c - b_before) / h
    slope_plus = (b_after - b_c) / h
    assert slope_minus == pytest.approx(-v * b_c - cut.f_c_plus, abs=1e-5)
    assert slope_plus == pytest.approx(-v * b_c, abs=1e-5)
    assert slope_plus - slope_minus == pytest.approx(cut.f_c_plus, abs=2e-5)


def test_find_alpha_respects_event_split():
    # a level just below the threshold must be located on the post-jump
    # dynamics, not on the smooth extension of the bracketing step
    cut = make_cutoff(fisher(), 0.5)
    v = 0.7
    ev, traj = trace_until_alpha(cut, v, unstable_manifold_start(cut, v), 0.2)
    _, _, b_c = traj.find_alpha(0.5)
    c0 = b_c + v * 0.5
    for level in (0.499, 0.49, 0.45, 0.3):
        y, a, b = traj.find_alpha(level)
        assert a == pytest.approx(level, abs=1e-13)
        assert b + v * a == pytest.approx(c0, abs=1e-11)


def test_linear_zone_conserves_beta_plus_v_alpha():
    cut = make_cutoff(fisher(), 0.5)
    v = 0.7
    ev, traj = trace_until_alpha(cut, v, unstable_manifold_start(cut, v), 0.2)
    y_c, _, b_c = traj.find_alpha(0.5)
    c0 = b_c + v * 0.5
    n = 400
    for i in range(1, n + 1):
        y = y_c + (ev.y_event - y_c) * i / n
        a, b = traj.sample(y)
        assert abs((b + v * a) - c0) < 1e-11


def test_span_exceeded_when_path_turns():
    # above the wave speed the sub-threshold path stalls before low levels
    cut = make_cutoff(fisher(), 0.5)
    v = 1.0
    start = unstable_manifold_start(cut, v)
    ev = integrate_until_alpha(cut, v, start, 0.5)
    stall_level = (ev.state.beta + v * 0.5) / v  # beta hits 0 here
    assert 0.0 < stall_level < 0.5
    with pytest.raises(SpanExceeded):
        integrate_until_alpha(cut, v, start, stall_level / 2.0)
    below = integrate_until_alpha(cut, v, start, 1.01 * stall_level)
    assert below.state.alpha == pytest.approx(1.01 * stall_level, abs=1e-13)


def test_step_halving_convergence():
    cut = make_cutoff(fisher(), 0.5)
    v = 0.3
    betas = []
    for tol in (1e-12, 5e-13):
        control = IntegrationControl(abs_tol=tol, rel_tol=tol)
        ev = integrate_until_alpha(cut, v, unstable_manifold_start(cut, v),
                                   0.5, control)
        betas.append(ev.state.beta)
    assert abs(betas[0] - betas[1]) < 10.0 * 1e-12


def test_small_threshold_slope_ratio_independent_of_tolerance():
    # the event slope ratio U'/U decides the residual's sign; at a tiny
    # threshold it must not drift with the integration tolerance
    cut = make_cutoff(fisher(), 1e-10)
    v = 1.98
    ratios = []
    for tol in (1e-12, 1e-13):
        control = IntegrationControl(abs_tol=tol, rel_tol=tol)
        ev = integrate_until_alpha(cut, v, unstable_manifold_start(cut, v),
                                   1e-10, control)
        ratios.append(ev.state.beta / ev.state.alpha + v)
    assert abs(ratios[0] - ratios[1]) < 1e-9


def test_level_met_next_to_zero_crossing():
    # at rest alpha falls to 0 with slope -sqrt(1/3), so the level 1e-20
    # lies far inside one resolvable step of y before the crossing
    cut = make_cutoff(fisher(), 1e-20)
    ev, traj = trace_until_alpha(cut, 0.0, unstable_manifold_start(cut, 0.0),
                                 1e-20)
    assert ev.state.alpha == 1e-20
    assert ev.state.beta == pytest.approx(-math.sqrt(1.0 / 3.0), abs=1e-9)
    assert traj.y_end == ev.y_event
    y, a, _ = traj.find_alpha(1e-20)
    assert y == pytest.approx(ev.y_event, abs=1e-12)
    assert a == pytest.approx(1e-20, rel=1e-12, abs=0.0)


def test_oversized_trial_step_is_rejected():
    # a first step of 1 spans the nearby U = 0 crossing 1e3 times over;
    # its stages leave the float range and must count as a reject
    cut = make_cutoff(fisher(), 0.5)
    ev = integrate_until_alpha(cut, 0.0, PhaseState(1e-3, -1.0), 1e-6,
                               IntegrationControl(initial_step=1.0))
    assert ev.state.beta == pytest.approx(-1.0, abs=1e-9)
    assert ev.n_rejects > 0


def test_zero_target_refused():
    cut = make_cutoff(fisher(), 0.5)
    start = unstable_manifold_start(cut, 1.0)
    with pytest.raises(ValueError):
        integrate_until_alpha(cut, 1.0, start, 0.0)
    with pytest.raises(ValueError):
        trace_field_until_alpha(fisher().f, 2.0, start, 0.0)


def test_record_only_shot_matches_dense_shot():
    cut = make_cutoff(fisher(), 0.3)
    start = unstable_manifold_start(cut, 0.8)
    dense, path = trace_until_alpha(cut, 0.8, start, 0.3)
    bare, empty = trace_until_alpha(cut, 0.8, start, 0.3, dense=False)
    assert bare == dense
    assert len(path) > 0 and len(empty) == 0
    assert integrate_until_alpha(cut, 0.8, start, 0.3) == dense


def test_step_counts_reported():
    cut = make_cutoff(fisher(), 0.5)
    ev = integrate_until_alpha(cut, 0.3, unstable_manifold_start(cut, 0.3),
                               0.5)
    assert ev.n_steps > 50
    assert ev.n_rejects >= 0


def test_step_failure_on_non_finite_rate():
    def nasty(u):
        if u <= 0.0 or u >= 0.8:
            return u * (1.0 - u)
        return math.nan

    spec = ReactionSpec(name="nasty", f=nasty, fprime_at_1=-1.0,
                        fdoubleprime_at_1=-2.0, sup_f=lambda u_c: 0.25)
    cut = make_cutoff(spec, 0.5)
    with pytest.raises(StepFailure):
        integrate_until_alpha(cut, 0.3, PhaseState(1.0 - 1e-10, -1e-10), 0.5)


def test_control_validation():
    with pytest.raises(ValueError):
        IntegrationControl(abs_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationControl(max_span=-1.0)
