"""Minimum-speed wave of the problem without cut-off.

At the minimum speed v = 2 the leading edge of the wave decays like
(A*ybar + B) * exp(-ybar); the global constants A and B feed the
third term of the small-threshold speed expansion.  They are extracted
by a linear least-squares fit to U(ybar) * exp(ybar) over a window on
the leading edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import WindowTooNarrow
from .integrator import (IntegrationControl, PhaseState, Trajectory,
                         exp_each, manifold_offset, trace_field_until_alpha)
from .reaction import ReactionSpec, gamma_rate, lambda_plus
from .solver import Profile, snapped_grid

_MIN_SPEED = 2.0
#: the trajectory runs down to this level (ybar ~ 37), which bounds the
#: fit windows a caller may ask for
_FLOOR = 1e-14
#: the reference profile's grid: this many samples, the last where U
#: falls to this level (the trajectory itself runs on to the floor)
_PROFILE_SAMPLES = 4001
_PROFILE_FLOOR = 1e-11
#: resampling step used for the edge fit
_FIT_SPACING = 0.025


@dataclass
class ReferenceWave:
    """Minimum-speed wave, origin shifted so U(0) = 1/2."""

    y_shift: float
    reaction: ReactionSpec
    trajectory: Trajectory

    @cached_property
    def profile(self) -> Profile:
        """4,001 samples from the path's start to U = 1e-11, sampled when
        first read and kept."""
        path, y_shift = self.trajectory, self.y_shift
        y_last = path.find_alpha(_PROFILE_FLOOR)[0]
        grid = snapped_grid(path.y_start - y_shift, y_last - y_shift,
                            _PROFILE_SAMPLES)
        u, up = path.sample(grid + y_shift)
        return Profile(y=grid, u=u, uprime=up)


@dataclass(frozen=True)
class AsymptoticConstants:
    a_inf: float
    b_inf: float
    gamma: float
    fit_window: tuple[float, float]
    fit_residual: float


def solve_reference(reaction: ReactionSpec,
                    control: IntegrationControl | None = None,
                    ) -> ReferenceWave:
    """Integrate the no-cut-off system at v = 2 down to U = 1e-14.

    Starts on the saddle's unstable manifold (the branch entering the
    front region has negative slope) and shifts the origin to U = 1/2.
    """
    v = _MIN_SPEED
    eps = manifold_offset(_FLOOR)
    start = PhaseState(1.0 - eps, -lambda_plus(reaction, v) * eps)
    _, path = trace_field_until_alpha(reaction.f, v, start, _FLOOR, control)
    return ReferenceWave(y_shift=path.find_alpha(0.5)[0], reaction=reaction,
                         trajectory=path)


def fit_edge_constants(wave: ReferenceWave,
                       window: tuple[float, float] = (10.0, 25.0),
                       spacing: float = _FIT_SPACING) -> AsymptoticConstants:
    """Fit U(ybar) * exp(ybar) = A*ybar + B over the leading-edge window."""
    lo, hi = window
    if lo >= hi:
        raise ValueError("window must have lo < hi")
    y_lo = wave.trajectory.y_start - wave.y_shift
    y_hi = wave.trajectory.y_end - wave.y_shift
    if lo < y_lo or hi > y_hi:
        raise ValueError(
            f"window [{lo}, {hi}] outside the sampled range [{y_lo:.3g}, {y_hi:.3g}]")
    n = int(math.floor((hi - lo) / spacing)) + 1
    if n < 100:
        raise WindowTooNarrow(f"window yields {n} samples; need at least 100")

    ybar = np.linspace(lo, hi, n)
    u, _ = wave.trajectory.sample(ybar + wave.y_shift)
    g = u * exp_each(ybar)
    coeffs = np.polyfit(ybar, g, 1)
    resid = float(np.sqrt(np.mean((np.polyval(coeffs, ybar) - g) ** 2)))
    a_inf, b_inf = float(coeffs[0]), float(coeffs[1])
    if a_inf <= 0.0:
        raise ValueError(f"leading-edge slope fit came out non-positive: {a_inf}")
    return AsymptoticConstants(a_inf=a_inf, b_inf=b_inf,
                               gamma=gamma_rate(wave.reaction),
                               fit_window=(lo, hi), fit_residual=resid)
