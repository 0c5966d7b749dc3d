import math

import pytest

from cutoffwave import (AsymptoticConstants, cubic_kpp, fisher,
                        large_uc_phase_path, large_uc_speed, make_cutoff,
                        measure_front_location, small_uc_speed, solve_speed,
                        solver)

NOMINAL_CONSTANTS = AsymptoticConstants(a_inf=3.5, b_inf=-11.3,
                                      gamma=math.sqrt(2) - 1.0,
                                      fit_window=(10.0, 25.0),
                                      fit_residual=0.0)


def test_two_term_closed_form():
    pred = small_uc_speed(math.exp(-10.0), NOMINAL_CONSTANTS)
    assert pred.two_term == pytest.approx(2.0 - math.pi ** 2 / 100.0,
                                          abs=1e-12)


def test_three_term_closed_form():
    # at u_c = 1e-12 with A=3.5, B=-11.3 the cubic-in-1/log correction is
    # 2*pi^2*((A+B)/A + ln A)/L^3 = -9.131e-4, lowering the speed
    pred = small_uc_speed(1e-12, NOMINAL_CONSTANTS)
    L = math.log(1e-12)
    shape = (3.5 - 11.3) / 3.5 + math.log(3.5)
    expected_correction = 2.0 * math.pi ** 2 * shape / L ** 3
    assert expected_correction == pytest.approx(9.1309e-4, rel=1e-4)
    assert pred.three_term == pytest.approx(pred.two_term - expected_correction,
                                            abs=1e-15)
    assert pred.three_term == pytest.approx(1.9861600, abs=5e-7)
    assert pred.three_term < pred.two_term
    assert pred.three_term < 2.0
    assert pred.vbar == pytest.approx(2.0 - pred.three_term, abs=1e-15)


def test_three_term_correction_sign_identity():
    # sign(three - two) = -sign((A+B)/A + ln A) * sign(L^3)
    for u_c in (1e-3, 1e-6, 1e-9):
        for a, b in ((3.5, -11.3), (3.5, -3.0)):
            constants = AsymptoticConstants(a_inf=a, b_inf=b, gamma=0.4,
                                            fit_window=(10.0, 25.0),
                                            fit_residual=0.0)
            pred = small_uc_speed(u_c, constants)
            shape = (a + b) / a + math.log(a)
            lhs = math.copysign(1.0, pred.three_term - pred.two_term)
            rhs = -math.copysign(1.0, shape) * math.copysign(
                1.0, math.log(u_c) ** 3)
            assert lhs == rhs


def test_two_term_monotone_for_small_thresholds():
    vals = [small_uc_speed(u, NOMINAL_CONSTANTS).two_term
            for u in (1e-3, 1e-5, 1e-7, 1e-9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_front_location_leading_term():
    # the scaled front location tends to pi from above for these constants
    pred = small_uc_speed(1e-300, NOMINAL_CONSTANTS)
    assert pred.y_hat_c == pytest.approx(math.pi, abs=0.02)
    pred8 = small_uc_speed(1e-8, NOMINAL_CONSTANTS)
    offset = (3.5 - 11.3) / 3.5 * math.pi / math.log(1e-8)
    assert pred8.y_hat_c == pytest.approx(math.pi + offset, abs=1e-12)
    assert pred8.y_bar_c == pytest.approx(pred8.y_hat_c / math.sqrt(pred8.vbar),
                                          abs=1e-12)


def test_measured_vbar_variant():
    pred = small_uc_speed(1e-8, NOMINAL_CONSTANTS, vbar_measured=0.031)
    assert pred.y_bar_c_measured == pytest.approx(
        pred.y_hat_c / math.sqrt(0.031), abs=1e-12)
    with pytest.raises(ValueError):
        small_uc_speed(1e-8, NOMINAL_CONSTANTS, vbar_measured=-0.1)


def test_small_uc_rejects_bad_threshold():
    with pytest.raises(ValueError):
        small_uc_speed(1.0, NOMINAL_CONSTANTS)
    with pytest.raises(ValueError):
        small_uc_speed(1.5, NOMINAL_CONSTANTS)
    bad = AsymptoticConstants(a_inf=-1.0, b_inf=0.0, gamma=0.4,
                              fit_window=(10.0, 25.0), fit_residual=0.0)
    with pytest.raises(ValueError):
        small_uc_speed(0.5, bad)


@pytest.mark.parametrize("a,b", [(math.nan, -11.3), (math.inf, -11.3),
                                 (0.0, -11.3), (3.5, math.nan),
                                 (3.5, math.inf), (3.5, -math.inf)])
def test_small_uc_rejects_non_finite_constants(a, b):
    # a check written as `a <= 0` lets NaN through
    bad = AsymptoticConstants(a_inf=a, b_inf=b, gamma=0.4,
                              fit_window=(10.0, 25.0), fit_residual=0.0)
    with pytest.raises(ValueError, match="finite"):
        small_uc_speed(1e-8, bad)


def test_large_uc_fisher():
    pred = large_uc_speed(0.9, fisher())
    assert pred.V0 == 1.0
    assert pred.V1 == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert pred.one_term == pytest.approx(0.1, abs=1e-15)
    assert pred.two_term == pytest.approx(0.1 + 0.01 / 6.0, abs=1e-15)


def test_large_uc_cubic():
    pred = large_uc_speed(0.9, cubic_kpp())
    assert pred.V0 == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert pred.V1 == pytest.approx(0.0, abs=1e-15)
    assert pred.two_term == pytest.approx(0.1 * math.sqrt(2.0), abs=1e-15)


def test_large_uc_two_term_vanishes_at_one():
    for delta in (1e-3, 1e-6, 1e-9):
        pred = large_uc_speed(1.0 - delta, fisher())
        assert pred.two_term == pytest.approx(
            pred.delta * pred.V0 + pred.delta ** 2 * pred.V1, abs=1e-18)
    assert large_uc_speed(1.0 - 1e-9, fisher()).two_term < 2e-9


def test_phase_path_values():
    assert large_uc_phase_path(1.0, 0.95, fisher()) == 0.0
    expected = -0.5 * 1.95 * 0.05 + (2.0 / 6.0) * 0.0025
    assert large_uc_phase_path(0.95, 0.95, fisher()) == pytest.approx(
        expected, abs=1e-15)
    with pytest.raises(ValueError):
        large_uc_phase_path(0.5, 0.9, fisher())


def test_phase_path_matches_boundary_condition():
    # beta(u_c) from the expansion equals -v2*u_c up to cubic terms
    for delta in (0.1, 0.05, 0.01):
        u_c = 1.0 - delta
        pred = large_uc_speed(u_c, fisher())
        lhs = large_uc_phase_path(u_c, u_c, fisher())
        rhs = -pred.two_term * u_c
        assert abs(lhs - rhs) < delta ** 3


def test_measure_front_location_half_threshold(fisher_half):
    assert measure_front_location(fisher_half) == pytest.approx(0.0,
                                                                abs=1e-12)


@pytest.mark.parametrize("reaction", [fisher, cubic_kpp])
@pytest.mark.parametrize("u_c", [0.6, 1e-2, 1e-8])
def test_measure_front_location_reads_the_path(monkeypatch, reaction, u_c):
    def refuse(*args, **kwargs):
        raise AssertionError("measure_front_location built a profile")

    monkeypatch.setattr(solver, "assemble_profile", refuse)
    sol = solve_speed(make_cutoff(reaction(), u_c))
    front = measure_front_location(sol)
    assert front == -sol.y_half


def test_front_location_grows_as_threshold_shrinks():
    y1 = measure_front_location(solve_speed(make_cutoff(fisher(), 1e-2)))
    y2 = measure_front_location(solve_speed(make_cutoff(fisher(), 1e-4)))
    assert 0.0 < y1 < y2


def test_two_term_error_shrinks_faster_than_delta_squared():
    # cross-module check: the numeric speed approaches the two-term
    # estimate faster than delta^2
    ratios = []
    for u_c in (0.9, 0.95, 0.99):
        v = solve_speed(make_cutoff(fisher(), u_c)).v_star
        pred = large_uc_speed(u_c, fisher())
        ratios.append(abs(v - pred.two_term) / pred.delta ** 2)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_front_location_nan_once_three_term_passes_two():
    # cubic constants: (A+B)/A + ln A > 0, so the three-term speed passes
    # 2 for |ln u_c| < 1.64 and 2 - v has no square root
    cubic = AsymptoticConstants(a_inf=0.528888, b_inf=0.241993,
                                gamma=math.nan, fit_window=(10.0, 25.0),
                                fit_residual=math.nan)
    pred = small_uc_speed(0.5, cubic)
    assert pred.three_term > 2.0 and pred.vbar < 0.0
    assert math.isnan(pred.y_bar_c)
    assert math.isfinite(small_uc_speed(0.1, cubic).y_bar_c)
