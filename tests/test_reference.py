import math

import numpy as np
import pytest

from cutoffwave import (ReferenceWave, WindowTooNarrow, cubic_kpp,
                        fit_edge_constants, gamma_rate, solve_reference)
from cutoffwave.reference import _FIT_SPACING


def test_origin_at_half(fisher_reference):
    prof = fisher_reference.profile
    at_zero = prof.u[prof.y == 0.0]
    assert at_zero.size == 1
    assert at_zero[0] == pytest.approx(0.5, abs=1e-10)


def test_monotone_front(fisher_reference):
    prof = fisher_reference.profile
    assert np.all(np.diff(prof.u) < 0.0)
    assert np.all(prof.uprime < 0.0)
    assert np.all((prof.u > 0.0) & (prof.u < 1.0))


def test_leading_edge_decay_rate(fisher_reference):
    # log(U)/ybar tends to -1; the algebraic prefactor makes the
    # approach logarithmically slow, so test the trend
    traj = fisher_reference.trajectory
    shift = fisher_reference.y_shift

    def ratio(ybar):
        return math.log(traj.sample(ybar + shift)[0]) / ybar

    r15, r25, r35 = ratio(15.0), ratio(25.0), ratio(35.0)
    assert -1.0 < r35 < r25 < r15 < -0.7
    assert abs(r35 + 1.0) < abs(r15 + 1.0)
    assert abs(r35 + 1.0) < 0.15


def test_rear_decay_rate(fisher_reference):
    prof = fisher_reference.profile
    one_minus = 1.0 - prof.u
    mask = (one_minus > 1e-8) & (one_minus < 1e-3)
    slope = np.polyfit(prof.y[mask], np.log(one_minus[mask]), 1)[0]
    assert slope == pytest.approx(gamma_rate(fisher_reference.reaction),
                                  rel=0.01)


def test_interior_samples_satisfy_equation(fisher_reference):
    # central differences of the sampled slope must close the equation
    traj = fisher_reference.trajectory
    shift = fisher_reference.y_shift
    h = 5e-4
    for ybar in np.linspace(-5.0, 5.0, 41):
        u, up = traj.sample(ybar + shift)
        _, up_lo = traj.sample(ybar + shift - h)
        _, up_hi = traj.sample(ybar + shift + h)
        upp = (up_hi - up_lo) / (2.0 * h)
        residual = upp + 2.0 * up + u * (1.0 - u)
        assert abs(residual) < 1e-6


def test_fitted_constants(fisher_constants):
    assert 3.3 <= fisher_constants.a_inf <= 3.7
    assert -11.8 <= fisher_constants.b_inf <= -10.8
    assert fisher_constants.gamma == pytest.approx(math.sqrt(2) - 1.0,
                                                   abs=1e-12)
    assert fisher_constants.fit_window == (10.0, 25.0)
    assert fisher_constants.fit_residual < 0.05


def test_window_shift_robustness(fisher_reference, fisher_constants):
    shifted = fit_edge_constants(fisher_reference, window=(12.0, 27.0))
    assert abs(shifted.a_inf - fisher_constants.a_inf) < 0.1


def test_density_robustness(fisher_reference, fisher_constants):
    dense = fit_edge_constants(fisher_reference, spacing=_FIT_SPACING / 2.0)
    assert abs(dense.a_inf - fisher_constants.a_inf) < fisher_constants.fit_residual
    assert abs(dense.b_inf - fisher_constants.b_inf) < fisher_constants.fit_residual


def test_fit_recovers_planted_edge(fisher_reference):
    class PlantedPath:
        y_start = 0.0
        y_end = 40.0

        def sample(self, y):
            u = (2.0 * y + 1.0) * np.exp(-y)
            return u, -(2.0 * y - 1.0) * np.exp(-y)

    wave = ReferenceWave(y_shift=0.0, reaction=fisher_reference.reaction,
                         trajectory=PlantedPath())
    constants = fit_edge_constants(wave, window=(10.0, 25.0))
    assert constants.a_inf == pytest.approx(2.0, abs=1e-8)
    assert constants.b_inf == pytest.approx(1.0, abs=1e-8)


def test_window_validation(fisher_reference):
    with pytest.raises(WindowTooNarrow):
        fit_edge_constants(fisher_reference, window=(10.0, 11.0))
    with pytest.raises(ValueError):
        fit_edge_constants(fisher_reference, window=(25.0, 10.0))
    with pytest.raises(ValueError):
        fit_edge_constants(fisher_reference, window=(10.0, 1e6))


def test_cubic_reference_runs():
    wave = solve_reference(cubic_kpp())
    constants = fit_edge_constants(wave)
    assert constants.a_inf > 0.0
    assert constants.gamma == pytest.approx(math.sqrt(3) - 1.0, abs=1e-12)

