"""The energy identity on the dense path of a solved wave.

Multiplying U'' + v*U' + f_c(U) = 0 by U' and integrating over the line
gives v * integral(U'^2 dy) = F, F the integral of f from u_c to 1.
Ahead of the threshold U = u_c*exp(-v*y), so that part of the integral
is v*u_c^2/2 in closed form; behind it, with U = e^-t and p = U'/U, it
is I = integral(-p*e^(-2t) dt) along the path.  So the defect

    (v*(I + v*u_c^2/2) - F) / F

checks the speed, the manifold start, the rate the path used and its
dense output at once, which the slope residual at the threshold alone
does not.  The sliver between the saddle and the start, O(1e-20), is
left out.
"""

import numpy as np
import pytest

from cutoffwave import by_name, make_cutoff, solve_speed

#: largest defect measured over the grid below was about 1e-11
_BOUND = 1e-10

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(8)
_THETA = 0.5 * (_NODES + 1.0)


def _rear_integral(traj):
    """Integral of -p*e^(-2t) dt over the path: 8-point Gauss-Legendre
    per segment on the p-quartic of ``traj._table()``."""
    rows = traj._table()
    t0, h, p0 = rows[:, :1], rows[:, 1:2], rows[:, 3:4]
    q = rows[:, 8:12].T[:, :, None]
    th = _THETA[None, :]
    p = p0 + h * th * (q[0] + th * (q[1] + th * (q[2] + th * q[3])))
    integrand = -p * np.exp(-2.0 * (t0 + h * th))
    return float(np.sum(0.5 * h[:, 0] * (integrand @ _WEIGHTS)))


def _energy(name, u_c):
    """F = integral of f from u_c to 1, in w = 1 - u: f(1 - w) is w(1 - w)
    for Fisher and w(1 - w)(2 - w) for the cubic."""
    d = 1.0 - u_c
    if name == "fisher":
        return d * d / 2.0 - d ** 3 / 3.0
    return d * d - d ** 3 + d ** 4 / 4.0


def _defect(name, u_c):
    sol = solve_speed(make_cutoff(by_name(name), u_c))
    v, traj = sol.v_star, sol.trajectory
    rear = _rear_integral(traj) if len(traj) else 0.0
    total = _energy(name, u_c)
    return (v * (rear + v * u_c * u_c / 2.0) - total) / total, len(traj)


@pytest.mark.parametrize("name", ["fisher", "cubic"])
@pytest.mark.parametrize("u_c", [0.99, 0.9, 0.5, 1e-3, 1e-10])
def test_energy_identity_on_the_dense_path(name, u_c):
    defect, segments = _defect(name, u_c)
    assert segments > 0
    assert abs(defect) <= _BOUND


@pytest.mark.parametrize("name", ["fisher", "cubic"])
def test_energy_identity_on_a_path_with_no_step(name):
    # above 1 - 1e-10 the path starts on the threshold: the rear integral
    # is 0 and the closed-form front carries the whole balance
    defect, segments = _defect(name, 1.0 - 1e-11)
    assert segments == 0
    assert abs(defect) <= _BOUND

