"""Wave-speed eigenvalue solver for the cut-off problem.

For each threshold u_c the boundary value problem admits a travelling
wave at exactly one speed v*(u_c).  The solver shoots from the saddle
(1, 0) along its unstable manifold, integrates to the first alpha = u_c
crossing, and forms the residual

    r(v) = U_T'(event) + v*u_c = u_c*(p + v),   p = U_T'/U_T at the event,

which is negative below v* (the trajectory undershoots the stable
manifold beta = -v*alpha) and positive above it.  r is monotone across
the admissible speed interval, so bisection inside a sign-changing
bracket is unconditionally safe.  The bracket never reaches past the
KPP bound 2 (the paper proves v* < 2), so no trial speed is stiff.  The
shot is integrated in (ln U, U'/U), so p + v, which carries the sign, is
resolved to the integration tolerance at every threshold.  The bracket
is collapsed to a width floor near machine precision and the residual
criterion is then verified at the final midpoint: stopping on r alone
cannot pin the speed for small u_c, since r carries the factor u_c.
Only that final shot keeps its dense path; bracket and bisection shots
return their event record alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (InsufficientTail, MaxIterations, NoSignChange,
                     SpanExceeded, CutoffWaveError)
from .integrator import (EventRecord, IntegrationControl, Trajectory,
                         exp_each, trace_until_alpha, unstable_manifold_start)
from .reaction import (CutoffReaction, ReactionSpec, lambda_plus,
                       make_cutoff, v_upper_bound)

#: residual returned when the trajectory stalls above the target level
TURNED_SENTINEL = 1.0

#: bisection stops once the speed bracket is this narrow (v is O(1))
_BRACKET_WIDTH_FLOOR = 1e-14

#: the bracket's top: the paper's v*(u_c) < 2, the KPP bound 2*sqrt(f'(0))
#: of a normalised reaction
_SPEED_CAP = 2.0


@dataclass(frozen=True)
class ShootingConfig:
    residual_tol: float = 1e-8
    epsilon_manifold: float = 1e-10
    control: IntegrationControl = field(default_factory=IntegrationControl)
    max_bisections: int = 200
    bracket_pad: float = 0.25

    def __post_init__(self) -> None:
        if self.residual_tol <= 0.0:
            raise ValueError("residual_tol must be positive")
        if not 0.0 < self.epsilon_manifold < 1e-6:
            raise ValueError("epsilon_manifold must lie in (0, 1e-6)")


@dataclass
class Profile:
    """Sampled wave profile: arrays (y, U, U')."""

    y: np.ndarray
    u: np.ndarray
    uprime: np.ndarray


@dataclass
class WaveSolution:
    u_c: float
    v_star: float
    residual: float
    bracket: tuple[float, float]
    n_iterations: int
    profile: Profile
    y_half: float
    cutoff: CutoffReaction = field(repr=False)
    trajectory: Trajectory = field(repr=False)
    y_event: float = field(repr=False)

    def sample(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(U, U') on a 1-D array of y, with the threshold at y = 0.

        The rear (y < 0) is read off the integrated trajectory; ahead of
        the threshold the wave is exactly u_c * exp(-v*y).
        """
        v, u_c = self.v_star, self.u_c
        rear = y < 0.0
        u = np.empty_like(y)
        up = np.empty_like(y)
        u[rear], up[rear] = self.trajectory.sample(y[rear] + self.y_event)
        decay = exp_each(-v * y[~rear])
        u[~rear] = u_c * decay
        up[~rear] = -v * u_c * decay
        return u, up


@dataclass(frozen=True)
class SpeedPoint:
    u_c: float
    v_star: float
    residual: float
    n_iterations: int


@dataclass
class SpeedCurve:
    rows: list[SpeedPoint]
    failures: dict[float, str] = field(default_factory=dict)


def _check_start(cutoff: CutoffReaction, config: ShootingConfig) -> None:
    if cutoff.u_c >= 1.0 - config.epsilon_manifold:
        raise ValueError(
            f"u_c={cutoff.u_c!r} is not below 1 - epsilon_manifold "
            f"(epsilon_manifold={config.epsilon_manifold:g}), where every "
            "shot starts; use a smaller --epsilon-manifold")


def _shoot(cutoff: CutoffReaction, v: float, config: ShootingConfig,
           dense: bool = False,
           ) -> tuple[float, EventRecord | None, Trajectory | None]:
    start = unstable_manifold_start(cutoff, v, config.epsilon_manifold)
    try:
        record, traj = trace_until_alpha(cutoff, v, start, cutoff.u_c,
                                         config.control, dense=dense)
    except SpanExceeded:
        return TURNED_SENTINEL, None, None
    return cutoff.u_c * (record.log_slope + v), record, traj


def shoot_residual(cutoff: CutoffReaction, v: float,
                   config: ShootingConfig | None = None) -> float:
    """Signed slope mismatch at the threshold for a trial speed.

    Returns the positive sentinel +1 when the trajectory turns before
    reaching the threshold, which happens only above the wave speed.
    Raises ValueError when u_c is not below 1 - epsilon_manifold.
    """
    config = config or ShootingConfig()
    _check_start(cutoff, config)
    r, _, _ = _shoot(cutoff, v, config)
    return r


def solve_speed(cutoff: CutoffReaction, guess: float | None = None,
                config: ShootingConfig | None = None) -> WaveSolution:
    """Find the unique wave speed v*(u_c) by bracketed bisection.

    A guess seeds a bracket of half-width ``config.bracket_pad`` that is
    widened geometrically (clipped to [0, min(2, v_upper_bound)]) until
    the residual changes sign across it.  Raises ValueError when u_c is
    not below 1 - epsilon_manifold.
    """
    if config is None:
        config = ShootingConfig()
    _check_start(cutoff, config)
    vub = min(_SPEED_CAP, v_upper_bound(cutoff))

    def residual(v: float) -> float:
        return _shoot(cutoff, v, config)[0]

    if guess is None:
        lo, hi = 0.0, vub
    else:
        lo = max(0.0, guess - config.bracket_pad)
        hi = min(guess + config.bracket_pad, vub)
        if lo >= hi:
            lo, hi = 0.0, vub
    r_lo = residual(lo)
    r_hi = residual(hi)
    while r_lo >= 0.0 or r_hi < 0.0:
        if lo <= 0.0 and hi >= vub:
            break
        width = hi - lo
        if r_lo >= 0.0:
            lo = max(0.0, lo - width)
            r_lo = residual(lo)
        if r_hi < 0.0:
            hi = min(vub, hi + width)
            r_hi = residual(hi)
    if r_lo >= 0.0 and lo <= 0.0:
        raise NoSignChange(
            f"residual at v=0 is {r_lo:.3e} >= 0 for u_c={cutoff.u_c}; "
            "a KPP reaction must undershoot at rest")
    if r_hi < 0.0:
        raise NoSignChange(
            f"residual stays negative up to the speed bound {vub:.6g}")

    n_iter = 0
    while (hi - lo) > _BRACKET_WIDTH_FLOOR and n_iter < config.max_bisections:
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        n_iter += 1
        if r_mid == 0.0:
            lo = hi = mid
            break
        if r_mid < 0.0:
            lo = mid
        else:
            hi = mid

    v_star = 0.5 * (lo + hi)
    r_final, record, traj = _shoot(cutoff, v_star, config, dense=True)
    if record is None or abs(r_final) > config.residual_tol:
        raise MaxIterations(
            f"residual {r_final:.3e} exceeds {config.residual_tol:g} after "
            f"{n_iter} bisections (bracket width {hi - lo:.3e})")

    solution = WaveSolution(
        u_c=cutoff.u_c, v_star=v_star, residual=r_final, bracket=(lo, hi),
        n_iterations=n_iter, profile=Profile(np.empty(0), np.empty(0), np.empty(0)),
        y_half=0.0, cutoff=cutoff, trajectory=traj, y_event=record.y_event)
    # tail span 2/v* always covers the half-height point (ln(2u_c)/v*)
    # while keeping the rear densely sampled even for large thresholds
    solution.profile = assemble_profile(solution, y_min=-record.y_event,
                                        y_max=max(2.0 / v_star, 5.0),
                                        n_samples=1201)
    solution.y_half = _locate_half(solution)
    return solution


def _locate_half(solution: WaveSolution) -> float:
    """y at which U_T = 1/2, in the frame with U_T(0) = u_c."""
    if solution.u_c < 0.5:
        hit = solution.trajectory.find_alpha(0.5)
        if hit is None:  # unreachable for epsilon_manifold < 1/2
            raise CutoffWaveError("trajectory does not span U = 1/2")
        return hit[0] - solution.y_event
    return math.log(2.0 * solution.u_c) / solution.v_star


def assemble_profile(solution: WaveSolution, y_min: float, y_max: float,
                     n_samples: int = 1201) -> Profile:
    """Sample the wave on [y_min, y_max] with the threshold at y = 0.

    The window is clamped to the computed rear and the grid is snapped
    so one sample sits exactly at y = 0; see :meth:`WaveSolution.sample`.
    """
    if not (y_min < 0.0 < y_max):
        raise ValueError("need y_min < 0 < y_max")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    y_min = max(y_min, -solution.y_event)
    grid = np.linspace(y_min, y_max, n_samples)
    grid[np.argmin(np.abs(grid))] = 0.0
    u, up = solution.sample(grid)
    return Profile(y=grid, u=u, uprime=up)


def sweep(reaction: ReactionSpec, u_c_values: Sequence[float],
          config: ShootingConfig | None = None) -> SpeedCurve:
    """Continuation sweep over descending thresholds.

    Each solve warm-starts its bracket from the previous speed; the
    first uses the speed bound 2 of the problem without cut-off.  Rows
    that fail keep their place with NaN entries and the failure message
    is kept alongside.
    """
    if config is None:
        config = ShootingConfig()
    values = list(u_c_values)
    if any(not 0.0 < u < 1.0 for u in values):
        raise ValueError("all thresholds must lie in (0, 1)")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError("thresholds must be strictly descending")

    rows: list[SpeedPoint] = []
    failures: dict[float, str] = {}
    guess = 2.0
    for u_c in values:
        try:
            sol = solve_speed(make_cutoff(reaction, u_c), guess, config)
        except CutoffWaveError as exc:
            failures[u_c] = f"{type(exc).__name__}: {exc}"
            rows.append(SpeedPoint(u_c, math.nan, math.nan, 0))
            continue
        rows.append(SpeedPoint(u_c, sol.v_star, sol.residual,
                               sol.n_iterations))
        guess = sol.v_star
    return SpeedCurve(rows=rows, failures=failures)


def fit_rear_constant(solution: WaveSolution) -> float:
    """Amplitude of the rear tail 1 - U_T ~ A * exp(lambda_plus * y).

    Least-squares fit of log(1 - U_T) against lambda_plus(v*) * y over
    the window from the profile start to the sample where 1 - U_T
    reaches 1e-2.
    """
    one_minus = 1.0 - solution.profile.u
    if one_minus[0] >= 1e-4:
        raise InsufficientTail(
            f"profile rear starts at 1-U = {one_minus[0]:.3e}; "
            "need the profile to reach within 1e-4 of the saturated state")
    mask = one_minus <= 1e-2
    n = int(mask.sum())
    if n < 50:
        raise InsufficientTail(f"only {n} samples in the rear window")
    lam = lambda_plus(solution.cutoff.base, solution.v_star)
    x = lam * solution.profile.y[mask]
    z = np.log(one_minus[mask])
    coeffs = np.polyfit(x, z, 1)
    return float(np.exp(coeffs[1]))
