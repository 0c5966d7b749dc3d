import math
import sys

import numpy as np
import pytest

from cutoffwave import (IntegrationControl, PhaseState, ReactionSpec,
                        SpanExceeded, StepFailure, Trajectory, by_name,
                        cubic_kpp, fisher, lambda_plus, make_cutoff,
                        trace_field_until_alpha, trace_until_alpha,
                        unstable_manifold_start)
from cutoffwave import integrator
from cutoffwave.integrator import (StepGrid, manifold_series,
                                   manifold_series_start, shoot_slope)


def fisher_energy(alpha, u_c):
    """Closed-form 2*integral of the gated Fisher rate from alpha to 1."""
    lo = max(alpha, u_c)
    integral = (1.0 / 6.0) - (lo ** 2 / 2.0 - lo ** 3 / 3.0)
    return 2.0 * integral


def test_manifold_start_values():
    f = fisher()
    s = unstable_manifold_start(make_cutoff(f, 0.5), 0.0)
    assert s.alpha == 1.0 - 1e-10
    assert s.beta == pytest.approx(-1e-10, rel=1e-12)
    s2 = unstable_manifold_start(make_cutoff(f, 0.5), 2.0)
    assert s2.beta == pytest.approx(-(math.sqrt(2) - 1) * 1e-10, rel=1e-12)
    # a threshold above 1 - 1e-10 is the start itself, 1 - u_c exact there
    for u_c in (1.0 - 1e-10, 1.0 - 1e-13, 1.0 - 2.0 ** -53):
        s3 = unstable_manifold_start(make_cutoff(f, u_c), 2.0)
        assert s3.alpha == u_c
        assert s3.beta == -lambda_plus(f, 2.0) * (1.0 - u_c)
    assert integrator.manifold_offset(0.999999999) == 1e-10


def test_start_on_threshold_takes_no_step():
    cut = make_cutoff(fisher(), 1.0 - 1e-11)
    start = unstable_manifold_start(cut, 1e-11)
    assert shoot_slope(cut, 1e-11, start) == (start.beta / start.alpha, 0, 0)
    record, traj = trace_until_alpha(cut, 1e-11, start, cut.u_c)
    assert (record.y_event, record.n_steps, record.state) == (0.0, 0, start)
    assert len(traj) == 0 and traj.y_end == 0.0


@pytest.mark.parametrize("name", ["fisher", "cubic"])
@pytest.mark.parametrize("v", [0.0, 0.5, 1.0, 2.0])
def test_series_start_reach(name, v):
    # search shots leave the manifold's series at 1 - U = min(0.3, 1 - u_c);
    # from a threshold at or above 0.7, the start itself, no step is taken
    reach = integrator._SERIES_REACH
    for u_c in (1e-10, 0.5, 0.6, 0.7, 0.9, 0.99, 1.0 - 1e-13):
        cut = make_cutoff(by_name(name), u_c)
        start = manifold_series_start(cut, v)
        assert start.alpha == 1.0 - min(reach, 1.0 - u_c)
        assert start.beta < 0.0
        if u_c >= 1.0 - reach:
            assert shoot_slope(cut, v, start) == (start.beta / u_c, 0, 0)


def test_series_is_the_exact_fisher_wave():
    # at v = 5/sqrt(6) the Fisher wave is U = (1 + e^(y/sqrt(6)))^-2,
    # whose phase path is beta = -2/sqrt(6) * U * (1 - sqrt(U))
    v = 5.0 / math.sqrt(6.0)
    b = manifold_series(fisher().coefficients, v)
    for w in (1e-3, 0.1, 0.2, 0.3):
        beta = sum(b_k * w ** k for k, b_k in enumerate(b, 1))
        u = 1.0 - w
        exact = -2.0 / math.sqrt(6.0) * u * (1.0 - math.sqrt(u))
        assert beta == pytest.approx(exact, rel=1e-14)


def _valley():
    def valley(u):
        return u * (1.0 - u) * (u - 0.25) * (u - 0.85)

    # f(1 - w) = 0.1125w - 1.0125w^2 + 1.9w^3 - w^4
    return ReactionSpec(name="valley", f=valley,
                        coefficients=(0.1125, -1.0125, 1.9, -1.0),
                        sup_f=lambda u_c: 0.05)


@pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
def test_series_start_of_valley_reaction(v):
    # the valley's series converges only out to 1 - U of about 0.28 (at
    # 0.3 its sum is +0.70 at v = 0 and 1.5e4 at v = 0.5): the start moves
    # in until beta < 0 and the last term is below rounding, and beta
    # there is the dense path's
    cut = make_cutoff(_valley(), 0.2)
    start = manifold_series_start(cut, v)
    assert 1.0 - start.alpha < 0.28 and start.beta < 0.0
    _, traj = trace_until_alpha(cut, v, unstable_manifold_start(cut, v),
                                start.alpha, IntegrationControl(tol=1e-13))
    assert traj.find_alpha(start.alpha)[2] == pytest.approx(start.beta,
                                                            rel=1e-10)


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_series_start_refuses_nan_or_negative_speed(bad):
    with pytest.raises(ValueError):
        manifold_series_start(make_cutoff(fisher(), 0.5), bad)


def test_immediate_event():
    cut = make_cutoff(fisher(), 0.5)
    start = PhaseState(0.7, -0.3)
    ev = trace_until_alpha(cut, 1.0, start, 0.7)[0]
    assert ev.y_event == 0.0
    assert ev.state == start
    assert ev.n_steps == 0 and ev.n_rejects == 0


def test_rejects_bad_preconditions():
    cut = make_cutoff(fisher(), 0.5)
    with pytest.raises(ValueError):
        trace_until_alpha(cut, -1.0, PhaseState(0.9, -0.1), 0.5)[0]
    with pytest.raises(ValueError):
        trace_until_alpha(cut, 1.0, PhaseState(0.4, -0.1), 0.5)[0]


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_nan_or_negative_speed_and_target_refused(bad):
    # NaN passes a `< 0` test: before these checks a NaN target ran 2,775
    # steps to an alpha of NaN, and a NaN speed ended in StepFailure
    cut = make_cutoff(fisher(), 0.5)
    start = PhaseState(0.9, -0.1)
    for call in (lambda: trace_until_alpha(cut, bad, start, 0.5),
                 lambda: trace_until_alpha(cut, 0.5, start, bad),
                 lambda: trace_field_until_alpha(fisher().f, bad, start, 0.5),
                 lambda: trace_field_until_alpha(fisher().f, 2.0, start, bad),
                 lambda: shoot_slope(cut, bad, start)):
        with pytest.raises(ValueError):
            call()
    with pytest.raises(ValueError):
        shoot_slope(cut, 0.5, PhaseState(0.9, math.nan))


def test_event_beta_matches_quadrature_at_rest():
    # with v = 0 the phase path satisfies beta^2 = 2*int_alpha^1 f_c
    cut = make_cutoff(fisher(), 0.5)
    start = unstable_manifold_start(cut, 0.0)
    ev = trace_until_alpha(cut, 0.0, start, 0.5)[0]
    assert ev.state.beta == pytest.approx(-math.sqrt(1.0 / 6.0), abs=1e-9)
    assert ev.state.alpha == pytest.approx(0.5, abs=1e-13)


def test_event_reached_at_high_speed():
    cut = make_cutoff(fisher(), 0.1)
    ev = trace_until_alpha(cut, 2.0, unstable_manifold_start(cut, 2.0),
                           0.1)[0]
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


def _zero_rate(_u):
    return 0.0


def _cutoff_path():
    cut = make_cutoff(fisher(), 0.05)
    v = 0.7
    return trace_until_alpha(cut, v, unstable_manifold_start(cut, v), 0.05)


def test_target_below_threshold_refused():
    # below u_c the cut-off rate is zero; the wave there is in closed form
    cut = make_cutoff(fisher(), 0.3)
    start = unstable_manifold_start(cut, 0.9)
    for below in (0.29, 1e-6, math.nextafter(0.3, 0.0)):
        with pytest.raises(ValueError, match=r"u_c\*exp\(-v\*y\)"):
            trace_until_alpha(cut, 0.9, start, below)
    assert trace_until_alpha(cut, 0.9, start, 0.3)[0].state.alpha == 0.3


def test_sample_array_equals_pointwise():
    # the grid holds the ends and every segment start, where the segment
    # lookup switches
    _, traj = _cutoff_path()
    rows = traj._table()
    nodes = traj._y(rows[:, 0], rows[:, 2])
    ys = np.unique(np.concatenate([
        np.linspace(traj.y_start, traj.y_end, 997), nodes,
        [traj.y_start, traj.y_end]]))
    assert ys[0] == traj.y_start and ys[-1] == traj.y_end
    a, b = traj.sample(ys)
    assert a.shape == b.shape == ys.shape
    for y, ai, bi in zip(ys.tolist(), a.tolist(), b.tolist()):
        assert traj.sample(y) == (ai, bi)
    assert np.all(np.diff(a) < 0.0) and np.all(b < 0.0)
    # a segment's start y is that of its t-node
    at_nodes = traj.sample(nodes)
    t, p = rows[:, 0], rows[:, 3]
    assert np.allclose(at_nodes[0], np.exp(-t), rtol=1e-14, atol=0.0)
    assert np.allclose(at_nodes[1], np.exp(-t) * p, rtol=1e-13, atol=0.0)
    empty = traj.sample(np.empty(0))
    assert empty[0].size == 0 and empty[1].size == 0


@pytest.mark.parametrize("u_c,v", [(0.9, 0.1), (0.3, 0.85), (1e-8, 1.97)])
def test_sample_inverts_find_alpha(u_c, v):
    # sampling at the y of a level gives the level back, next to the
    # saddle (1 - U resolved relative) as far as the threshold
    cut = make_cutoff(fisher(), u_c)
    _, traj = trace_until_alpha(cut, v, unstable_manifold_start(cut, v), u_c)
    gaps = np.geomspace(1e-9, 0.5, 60)
    levels = [*(1.0 - gaps).tolist(), *np.geomspace(0.5, 1e-8, 60).tolist()]
    for level in (x for x in levels if x >= u_c):
        y, a, b = traj.find_alpha(level)
        sa, sb = traj.sample(y)
        if level > 0.5:
            assert abs(sa - a) <= 5e-14 * (1.0 - level)
        assert sa == pytest.approx(a, rel=1e-13)
        assert sb == pytest.approx(b, rel=1e-13)


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


def test_refraction_across_threshold(fisher_half):
    # beta stays C0 but its slope jumps by +f_c_plus going down through
    # u_c: the rear is read off the dense path, the front is closed form
    cut, v = fisher_half.cutoff, fisher_half.v_star
    h = 1e-6
    _, (b_before, b_c, b_after) = fisher_half.sample(np.array([-h, 0.0, h]))
    slope_minus = (b_c - b_before) / h
    slope_plus = (b_after - b_c) / h
    assert slope_minus == pytest.approx(-v * b_c - cut.f_c_plus, abs=1e-5)
    assert slope_plus == pytest.approx(-v * b_c, abs=1e-5)
    assert slope_plus - slope_minus == pytest.approx(cut.f_c_plus, abs=2e-5)


def _find_alpha_by_scan(traj, target):
    """find_alpha as a plain scan: the segment whose t-span holds
    t = -ln target, read there with the scalar formula; the level the
    path was traced to is read at its end."""
    if target <= 0.0 or not len(traj):
        return None
    t = -math.log(target)
    t_end, _, p_end = traj._end
    if t == t_end:
        return traj.y_end, target, target * p_end
    for t0, h, r0, p0, *q in traj._table().tolist():
        if t0 <= t < t0 + h:
            th = (t - t0) / h
            r = integrator._quartic(r0, h, q[:4], th)
            y = traj.y_start + traj._inv * math.log(t / traj._t0) + r
            return y, target, target * integrator._quartic(p0, h, q[4:], th)
    return None


@pytest.mark.parametrize("reaction", [fisher, cubic_kpp])
def test_find_alpha_matches_segment_scan(reaction):
    cut = make_cutoff(reaction(), 0.05)
    v = 0.9
    start = unstable_manifold_start(cut, v)
    _, traj = trace_until_alpha(cut, v, start, 0.05)
    rows = traj._table().tolist()
    # the segments abut in t, and the last lands on the level
    assert all(a[0] + a[1] == b[0] for a, b in zip(rows, rows[1:]))
    t0, h, *_ = rows[-1]
    assert t0 + h == -math.log(0.05) == traj._end[0]
    # levels whose -ln is a segment's start t exactly
    t_starts = {seg[0] for seg in rows}
    starts = [a for a in map(math.exp, sorted(-t for t in t_starts))
              if -math.log(a) in t_starts]
    assert len(starts) > 20
    levels = [*np.geomspace(0.05, 1.0 - 1e-9, 40).tolist(),
              *starts[1::5], starts[-1], 0.3, 0.05]
    for level in levels:
        hit = traj.find_alpha(level)
        assert hit == _find_alpha_by_scan(traj, level)
        assert hit is not None and hit[1] == level
    # past the end, above the start, and levels <= 0
    for level in (0.049, 0.01, 1.0 - 1e-12, 1.5, 0.0, -1.0):
        assert traj.find_alpha(level) is None
        assert _find_alpha_by_scan(traj, level) is None
    assert Trajectory(0.0).find_alpha(0.1) is None


def test_linear_zone_conserves_beta_plus_v_alpha():
    # ahead of the threshold the rate is zero, traced from the threshold
    # state on: there beta + v*alpha is constant
    cut = make_cutoff(fisher(), 0.5)
    v = 0.7
    ev = trace_until_alpha(cut, v, unstable_manifold_start(cut, v), 0.5)[0]
    c0 = ev.state.beta + v * 0.5
    linear, traj = trace_field_until_alpha(_zero_rate, v, ev.state, 0.2)
    n = 400
    for i in range(1, n + 1):
        a, b = traj.sample(linear.y_event * i / n)
        assert abs((b + v * a) - c0) < 1e-11


def test_span_exceeded_when_path_turns():
    # above the wave speed the sub-threshold path stalls before low levels
    cut = make_cutoff(fisher(), 0.5)
    v = 1.0
    start = unstable_manifold_start(cut, v)
    ev = trace_until_alpha(cut, v, start, 0.5)[0]
    stall_level = (ev.state.beta + v * 0.5) / v  # beta hits 0 here
    assert 0.0 < stall_level < 0.5
    with pytest.raises(SpanExceeded):
        trace_field_until_alpha(_zero_rate, v, ev.state, stall_level / 2.0)
    below = trace_field_until_alpha(_zero_rate, v, ev.state,
                                    1.01 * stall_level)[0]
    assert below.state.alpha == pytest.approx(1.01 * stall_level, abs=1e-13)


def test_step_halving_convergence():
    cut = make_cutoff(fisher(), 0.5)
    v = 0.3
    betas = []
    for tol in (1e-12, 5e-13):
        control = IntegrationControl(tol=tol)
        ev = trace_until_alpha(cut, v, unstable_manifold_start(cut, v),
                               0.5, control)[0]
        betas.append(ev.state.beta)
    assert abs(betas[0] - betas[1]) < 10.0 * 1e-12


def test_small_threshold_slope_ratio_independent_of_tolerance():
    # the event slope ratio U'/U decides the residual's sign; at a tiny
    # threshold it must not drift with the integration tolerance
    cut = make_cutoff(fisher(), 1e-10)
    v = 1.98
    ratios = []
    for tol in (1e-12, 1e-13):
        control = IntegrationControl(tol=tol)
        ev = trace_until_alpha(cut, v, unstable_manifold_start(cut, v),
                               1e-10, control)[0]
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
    ev = trace_field_until_alpha(_zero_rate, 0.0, PhaseState(1e-3, -1.0),
                                 1e-6, IntegrationControl(initial_step=1.0))[0]
    assert ev.state.beta == pytest.approx(-1.0, abs=1e-9)
    assert ev.n_rejects > 0


def test_zero_target_refused():
    cut = make_cutoff(fisher(), 0.5)
    start = unstable_manifold_start(cut, 1.0)
    with pytest.raises(ValueError):
        trace_until_alpha(cut, 1.0, start, 0.0)[0]
    with pytest.raises(ValueError):
        trace_field_until_alpha(fisher().f, 2.0, start, 0.0)


@pytest.mark.parametrize("name,u_c,v", [("fisher", 0.5, 0.56),
                                        ("cubic", 1e-3, 1.85)])
def test_path_leaves_the_saddle_as_its_linearization(name, u_c, v):
    # next to the saddle 1 - U grows like eps*e^(lambda_plus*y), so the y
    # of the level 1 - d is ln(d/eps)/lambda_plus, to O(d)
    cut = make_cutoff(by_name(name), u_c)
    eps = 1e-10
    start = unstable_manifold_start(cut, v)
    assert start.alpha == 1.0 - eps
    _, traj = trace_until_alpha(cut, v, start, u_c)
    lam = lambda_plus(cut.base, v)
    for d in np.geomspace(1e-9, 1e-6, 13).tolist():
        y = traj.find_alpha(1.0 - d)[0] - traj.y_start
        assert abs(y - math.log(d / eps) / lam) <= 1e-5


def test_step_counts_reported():
    cut = make_cutoff(fisher(), 0.5)
    ev = trace_until_alpha(cut, 0.3, unstable_manifold_start(cut, 0.3),
                           0.5)[0]
    assert ev.n_steps > 50
    assert ev.n_rejects >= 0


def test_step_failure_on_non_finite_rate():
    def nasty(u):
        if u <= 0.0 or u >= 0.8:
            return u * (1.0 - u)
        return math.nan

    spec = ReactionSpec(name="nasty", f=nasty, coefficients=(1.0, -1.0),
                        sup_f=lambda u_c: 0.25)
    cut = make_cutoff(spec, 0.5)
    with pytest.raises(StepFailure):
        trace_until_alpha(cut, 0.3, PhaseState(1.0 - 1e-10, -1e-10), 0.5)[0]


def test_control_validation():
    with pytest.raises(ValueError):
        IntegrationControl(tol=0.0)
    # below the double precision epsilon the error test measures rounding
    with pytest.raises(ValueError, match=repr(sys.float_info.epsilon)):
        IntegrationControl(tol=1e-17)
    assert IntegrationControl(tol=sys.float_info.epsilon).tol > 0.0
    with pytest.raises(ValueError):
        IntegrationControl(initial_step=-1.0)
    # NaN passes a `<= 0` test
    for field in ("tol", "initial_step"):
        with pytest.raises(ValueError):
            IntegrationControl(**{field: math.nan})


# speeds to six digits: the two kinds of shot are compared 1e-3 either
# side of v*, where p + v is small and its sign decides the search
NEAR_SPEEDS = {
    ("fisher", 0.9): 0.101771, ("fisher", 0.5): 0.560014,
    ("fisher", 1e-3): 1.807086, ("fisher", 1e-10): 1.980244,
    ("cubic", 0.9): 0.141485, ("cubic", 0.5): 0.718492,
    ("cubic", 1e-3): 1.854864, ("cubic", 1e-10): 1.982882,
}


@pytest.mark.parametrize("dv", [-1e-3, 1e-3])
@pytest.mark.parametrize("name,u_c", sorted(NEAR_SPEEDS))
def test_slope_shot_matches_y_shot(name, u_c, dv):
    # a search shot and a dense leg run one step loop; the dense leg keeps
    # its segments and steps on where the search shot may finish in the
    # closed-form tail, so its event slope and its path's slope at the
    # threshold agree with the search shot's
    cut = make_cutoff(by_name(name), u_c)
    v = NEAR_SPEEDS[name, u_c] + dv
    start = unstable_manifold_start(cut, v)
    p, n_steps, n_rejects = shoot_slope(cut, v, start)
    record, traj = trace_until_alpha(cut, v, start, u_c)
    ref = record.log_slope
    assert traj.find_alpha(u_c)[2] == u_c * ref
    # p + v is only 1e-3 to 0.3 here, and each shot errs by a few 1e-12 at
    # tolerance 1e-12, so p + v is compared relative to p, the quantity
    # both error controls scale with
    assert abs((p + v) - (ref + v)) <= 1e-10 * abs(ref)
    assert n_steps > 0
    if (record.n_steps, record.n_rejects) == (n_steps, n_rejects):
        assert p == ref  # no tail: the same steps give the same bits


@pytest.mark.parametrize("u_c", [1e-10, 1e-300])
def test_slope_shot_tail_at_rest(u_c):
    # at rest beta^2 = 2*int f, so p = beta/u_c runs to -sqrt(1/3)/u_c;
    # the closed-form tail keeps the steps bounded however small u_c is
    cut = make_cutoff(fisher(), u_c)
    p, n_steps, _ = shoot_slope(cut, 0.0, unstable_manifold_start(cut, 0.0))
    assert p * u_c == pytest.approx(-math.sqrt(fisher_energy(0.0, u_c)),
                                    rel=1e-10)
    assert n_steps <= 1500


def test_slope_shot_preconditions():
    cut = make_cutoff(fisher(), 0.5)
    start = unstable_manifold_start(cut, 0.3)
    with pytest.raises(ValueError):
        shoot_slope(cut, -1.0, start)
    with pytest.raises(ValueError):
        shoot_slope(cut, 0.3, PhaseState(0.4, -0.1))
    with pytest.raises(ValueError):
        shoot_slope(cut, 0.3, PhaseState(0.9, 0.0))
    # a start on the threshold is its own event
    assert shoot_slope(cut, 0.3, PhaseState(0.5, -0.2)) == (-0.4, 0, 0)


@pytest.mark.parametrize("v", [1.0, 2.0])
def test_slope_shot_through_subnormal_levels(v):
    # below U = 2.2e-308, U*p would round to a few bits; dividing f(U) by
    # U first keeps the rate term exact and the steps large
    cut = make_cutoff(fisher(), 5e-324)
    p, n_steps, _ = shoot_slope(cut, v, unstable_manifold_start(cut, v))
    assert p < 0.0 and n_steps <= 1500


def test_slope_shot_step_failure_on_non_finite_rate():
    # a NaN rate is a numerical failure, not a path that turned
    def nasty(u):
        return u * (1.0 - u) if u >= 0.8 else math.nan

    spec = ReactionSpec(name="nasty", f=nasty, coefficients=(1.0, -1.0),
                        sup_f=lambda u_c: 0.25)
    cut = make_cutoff(spec, 0.5)
    with pytest.raises(StepFailure):
        shoot_slope(cut, 0.3, unstable_manifold_start(cut, 0.3))


def _slope(cut, v, control=None, grid=None):
    return shoot_slope(cut, v, unstable_manifold_start(cut, v), control,
                       grid=grid)


@pytest.mark.parametrize("name,u_c", sorted(NEAR_SPEEDS))
def test_step_grid_replays_its_own_shot(name, u_c):
    # recording changes nothing; a replay at the same speed re-runs every
    # recorded step, with no reject, and leaves the grid as it was
    cut = make_cutoff(by_name(name), u_c)
    v = NEAR_SPEEDS[name, u_c]
    grid = StepGrid()
    p, steps, rejects = _slope(cut, v, grid=grid)
    assert (p, steps, rejects) == _slope(cut, v)
    assert len(grid.steps) == steps and grid.lands
    recorded = (grid.span, list(grid.steps))
    replayed = _slope(cut, v, grid=grid)
    assert replayed[0].hex() == p.hex() and replayed[1:] == (steps, 0)
    assert (grid.span, grid.steps) == recorded
    # a nearby speed keeps every step and lies where a fresh shot does
    for dv in (-1e-8, 1e-8):
        q, q_steps, q_rejects = _slope(cut, v + dv, grid=grid)
        assert (q_steps, q_rejects) == (steps, 0)
        assert abs(q - _slope(cut, v + dv)[0]) <= 1e-10


@pytest.mark.parametrize("name,u_c", [("fisher", 1e-3), ("cubic", 1e-10)])
def test_step_grid_hands_over_to_adaptive_steps(name, u_c):
    cut = make_cutoff(by_name(name), u_c)
    v = NEAR_SPEEDS[name, u_c]
    # steps recorded at tolerance 1e-8 fail the test at 1e-12: the shot
    # goes on adaptively from the first that fails
    loose = StepGrid()
    _slope(cut, v, IntegrationControl(tol=1e-8), grid=loose)
    p, steps, _ = _slope(cut, v, grid=loose)
    assert steps > len(loose.steps)
    assert abs(p - _slope(cut, v)[0]) <= 1e-10 * abs(p)


@pytest.mark.parametrize("name", ["fisher", "cubic"])
def test_step_grid_of_a_tail_shot(name):
    # the v = 0 shot ends in the closed-form tail, so its grid stops short
    # of the threshold; a replay at v* finishes the leg adaptively
    cut = make_cutoff(by_name(name), 1e-10)
    v = NEAR_SPEEDS[name, 1e-10]
    rest = StepGrid()
    p0, steps0, _ = _slope(cut, 0.0, grid=rest)
    assert not rest.lands and len(rest.steps) == steps0 - 1
    assert _slope(cut, 0.0, grid=rest)[:2] == (p0, steps0)
    p = _slope(cut, v, grid=rest)[0]
    assert abs(p - _slope(cut, v)[0]) <= 1e-10 * abs(p)


def test_step_grid_shot_that_turns():
    cut = make_cutoff(_valley(), 0.2)
    grid = StepGrid()
    for v in (0.0, 0.0, 0.5):  # records, then replays
        with pytest.raises(SpanExceeded):
            _slope(cut, v, grid=grid)
    assert grid.steps and not grid.lands


def test_step_grid_belongs_to_one_threshold_and_start():
    cut = make_cutoff(fisher(), 0.5)
    grid = StepGrid()
    _slope(cut, 0.56, grid=grid)
    with pytest.raises(ValueError):
        _slope(make_cutoff(fisher(), 0.4), 0.56, grid=grid)
    with pytest.raises(ValueError):
        shoot_slope(cut, 0.56, PhaseState(1.0 - 1e-9,
                                          -lambda_plus(cut.base, 0.56) * 1e-9),
                    grid=grid)
