"""Wave-speed eigenvalue solver for the cut-off problem.

For each threshold u_c the boundary value problem admits a travelling
wave at exactly one speed v*(u_c).  The solver shoots from the saddle
(1, 0) along its unstable manifold, integrates to the first alpha = u_c
crossing, and forms the residual

    r(v) = U_T'(event) + v*u_c = u_c*(p + v),   p = U_T'/U_T at the event,

which is negative below v* (the trajectory undershoots the stable
manifold beta = -v*alpha) and positive above it.  r changes sign once,
at v*, and is smooth on both sides, so a bracketed Brent-Dekker search
(inverse quadratic and secant steps, falling back to bisection) pins it
in a few shots and never falls far behind bisection.  The search runs on
atan(p + v), which has r's sign but stays O(1) on both sides: below v*,
p + v grows without bound at small thresholds, while above v* it levels
off near +1.  The bracket never reaches past the KPP bound 2 (the paper
proves v* < 2), so no trial speed is stiff.  Every search shot is a
slope shot (``shoot_slope``): it steps p = U'/U against ln U and ends
exactly at ln u_c, so p + v, which carries the sign, is resolved to the
integration tolerance at every threshold.

The search runs in two stages.  Stage 1 shoots at the ODE tolerance
relaxed to ``_COARSE_TOL`` and stops once its bracket is about
``_FINE_HALF_WIDTH`` wide; a shot far from v* needs only its sign, and a
loose shot costs a fraction of the steps.  Stage 2 shoots at the
caller's tolerance, so the speed does not depend on the stage-1
tolerance.  It shoots stage 1's midpoint, takes a Newton step from it on
the secant slope across stage 1's final bracket, and shoots a pair of
speeds a width floor near machine precision apart around that step.
That pair straddles v* at most thresholds above 1e-20.  Below, r bends
enough over stage 1's bracket that the pair mostly misses, and up to two
more pairs follow, each from the last pair's end nearer v*.  Where no slope is usable (stage 1
ended on an exact zero or a turned shot) or every pair misses, stage 2
brackets +-``_FINE_HALF_WIDTH`` around stage 1's midpoint, widens it
when a sign disagrees and collapses it with the root finder.  Stage 1
is skipped when the caller's tolerance is already that loose.
Each stage's first shot records a ``StepGrid`` that its later shots
replay (see ``shoot_slope``): within a stage the search value is then
one function of v, and a shot costs its stage arithmetic alone until a
step fails the error test.  A cold search below u_c = 1e-3 opens at the
paper's two-term speed 2 - pi^2/(ln u_c)^2 instead of [0, 2].
The search stops on the bracket width, not on r: r carries the factor
u_c, so it cannot pin the speed for small u_c.  r changes sign across
stage 2's final bracket, whose ends were shot at the caller's tolerance
on one grid, so the end further from zero bounds r(v*) and is held to
the residual criterion.  No search shot keeps its path: the dense path
of a solution's profile is shot at v* with ``trace_until_alpha``, the
same step loop keeping its steps, when first read.
``sweep`` seeds each row's bracket by a secant through the last two
speeds in ln u_c, padded by a multiple of the last prediction's miss.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import MaxIterations, NoSignChange, SpanExceeded, CutoffWaveError
from .integrator import (IntegrationControl, StepGrid, Trajectory, exp_each,
                         manifold_offset, shoot_slope, trace_until_alpha,
                         unstable_manifold_start)
from .reaction import (CutoffReaction, ReactionSpec, lambda_plus,
                       make_cutoff, v_upper_bound)

#: search value of a shot that turns before reaching the threshold (only
#: above the wave speed): outside atan's range (-pi/2, pi/2), so no finite
#: p + v produces it; shoot_residual reports such a shot as +1
TURNED_SENTINEL = 2.0

#: the root finder stops once the speed bracket is this narrow (v is O(1))
_BRACKET_WIDTH_FLOOR = 1e-14

#: stage 1 shoots at this ODE tolerance, or at the caller's if looser
_COARSE_TOL = 1e-8

#: stage 1 stops at a bracket about this wide; when no Newton pair
#: straddles v*, stage 2 opens its bracket this far on either side of
#: stage 1's midpoint (which lies within about 5e-9 of v*; the widening
#: covers a miss)
_FINE_HALF_WIDTH = 1e-8

#: stage 2 shoots at most this many Newton pairs before it falls back
#: on +-_FINE_HALF_WIDTH.  Over 600 log-spaced thresholds from 0.999 to
#: 1e-300, both reactions, the first pair straddles v* at most u_c above
#: 1e-20 and misses at most below, a third pair is needed only below
#: about 1e-180, and no solve falls back
_NEWTON_PAIRS = 3

#: default half-width of the bracket seeded around a guessed speed, and
#: the pad of a sweep's first two rows
_BRACKET_PAD = 0.25

#: a sweep row predicted by the secant pads its bracket by this many
#: times the last row's miss, and by no less than _MIN_SECANT_PAD
_MISS_FACTOR = 4.0
_MIN_SECANT_PAD = 1e-6

#: the bracket may lag this many halvings behind bisection's pace before
#: a bisection step is forced, so a search takes at most this many shots
#: (plus one) more than bisection would
_BISECTION_SLACK = 8

#: the bracket's top: the paper's v*(u_c) < 2, the KPP bound 2*sqrt(f'(0))
#: of a normalised reaction
_SPEED_CAP = 2.0

#: caps the search shots counted in ``n_iterations``, over both stages
_MAX_SHOTS = 200

#: below this threshold a solve with no guess seeds its bracket at the
#: paper's two-term speed 2 - pi^2/L^2 (L = ln u_c), padded by
#: _SEED_PAD/|L|^3: the three-term correction it leaves out is about
#: 5-20/|L|^3, and the widening covers a larger miss
_SEED_BELOW = 1e-3
_SEED_PAD = 40.0


@dataclass(frozen=True)
class ShootingConfig:
    residual_tol: float = 1e-8
    control: IntegrationControl = field(default_factory=IntegrationControl)

    def __post_init__(self) -> None:
        if not self.residual_tol > 0.0:  # NaN fails it too
            raise ValueError("residual_tol must be positive")


@dataclass
class Profile:
    """Sampled wave profile: arrays (y, U, U')."""

    y: np.ndarray
    u: np.ndarray
    uprime: np.ndarray


@dataclass
class WaveSolution:
    """A solved wave: its speed, bracket and residual, and its dense path.

    ``trajectory``, ``profile`` (1,201 samples) and ``y_half`` are
    computed when first read and kept; the last two may be assigned.
    """

    u_c: float
    v_star: float
    residual: float
    bracket: tuple[float, float]
    n_iterations: int
    cutoff: CutoffReaction = field(repr=False)
    config: ShootingConfig = field(repr=False)

    def _speed(self) -> float:
        if math.isnan(self.v_star):
            raise CutoffWaveError(f"u_c={self.u_c!r} has no solved speed: "
                                  "its solve failed")
        return self.v_star

    @cached_property
    def trajectory(self) -> Trajectory:
        """The dense path at v*, shot with the solve's settings.

        Raises MaxIterations when the shot turns before the threshold or
        its residual u_c*(p + v*) misses ``config.residual_tol``, and
        CutoffWaveError on a failed sweep row, whose speed is NaN.
        """
        v, config = self._speed(), self.config
        start = unstable_manifold_start(self.cutoff, v)
        try:
            record, traj = trace_until_alpha(self.cutoff, v, start, self.u_c,
                                             config.control)
        except SpanExceeded:
            miss = math.inf
        else:
            miss = abs(self.u_c * (record.log_slope + v))
        if miss > config.residual_tol:
            raise MaxIterations(
                f"dense path at v*={v!r}: residual {miss:.3e} exceeds "
                f"{config.residual_tol:g}")
        return traj

    @property
    def y_event(self) -> float:
        """y of the threshold crossing on ``trajectory``, which ends there."""
        return self.trajectory.y_end

    @cached_property
    def profile(self) -> Profile:
        # tail span 2/v* always covers the half-height point (ln(2u_c)/v*)
        # while keeping the rear densely sampled even for large thresholds
        return assemble_profile(self, y_min=-self.y_event,
                                y_max=max(2.0 / self.v_star, 5.0),
                                n_samples=1201)

    @cached_property
    def y_half(self) -> float:
        """y at which U_T = 1/2, in the frame with U_T(0) = u_c."""
        if self.u_c < 0.5:
            hit = self.trajectory.find_alpha(0.5)
            if hit is None:  # unreachable: the path starts above 1/2
                raise CutoffWaveError("trajectory does not span U = 1/2")
            return hit[0] - self.y_event
        return math.log(2.0 * self.u_c) / self._speed()

    def sample(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(U, U') on a 1-D array of y, with the threshold at y = 0.

        The rear (y < 0) is read off the integrated trajectory, which is
        read only where some y lies there (a path that starts on the
        threshold has no steps); ahead of the threshold the wave is
        exactly u_c * exp(-v*y).
        """
        v, u_c = self.v_star, self.u_c
        rear = y < 0.0
        u = np.empty_like(y)
        up = np.empty_like(y)
        if rear.any():
            u[rear], up[rear] = self.trajectory.sample(y[rear] + self.y_event)
        decay = exp_each(-v * y[~rear])
        u[~rear] = u_c * decay
        up[~rear] = -v * u_c * decay
        return u, up


@dataclass
class SpeedCurve:
    rows: list[WaveSolution]
    failures: dict[float, str] = field(default_factory=dict)


def _gap(cutoff: CutoffReaction, v: float, config: ShootingConfig,
         grid: StepGrid | None = None) -> float | None:
    """p + v at the threshold from a slope shot (on ``grid`` if given),
    or None when it turns."""
    start = unstable_manifold_start(cutoff, v)
    try:
        p, _, _ = shoot_slope(cutoff, v, start, config.control, grid=grid)
    except SpanExceeded:
        return None
    return p + v


def _search_value(cutoff: CutoffReaction, v: float, config: ShootingConfig,
                  grid: StepGrid | None = None) -> float:
    """atan(p + v), r's sign kept O(1), or TURNED_SENTINEL."""
    gap = _gap(cutoff, v, config, grid)
    return TURNED_SENTINEL if gap is None else math.atan(gap)


def shoot_residual(cutoff: CutoffReaction, v: float,
                   config: ShootingConfig | None = None) -> float:
    """Signed slope mismatch at the threshold for a trial speed.

    Returns the positive sentinel +1 when the trajectory turns before
    reaching the threshold, which a KPP reaction never does.
    """
    config = config or ShootingConfig()
    gap = _gap(cutoff, v, config)
    return 1.0 if gap is None else cutoff.u_c * gap


def _brent(f: Callable[[float], float], lo: float, hi: float, r_lo: float,
           r_hi: float, max_iter: int, floor: float = _BRACKET_WIDTH_FLOOR,
           ) -> tuple[float, float, float, float, int]:
    """Collapse a bracket with f(lo) = r_lo < 0 <= r_hi = f(hi).

    Brent's zeroin (*Algorithms for Minimization without Derivatives*,
    1973): b is the best point and [b, c] keeps a sign change, r < 0 on
    the low side and r >= 0 on the high side.  Each step is inverse
    quadratic interpolation or a secant, or a bisection whenever the
    interpolated step is unsafe, a point carries the turned-shot
    sentinel, or the bracket lags more than _BISECTION_SLACK halvings
    behind bisection's pace.  Stops once the half-width is within
    2*eps*|b| + floor/2, or on an exact zero, returned as
    (b, b).  Returns the final bracket (lo, hi), f at its ends and the
    number of calls of f; raises MaxIterations when max_iter calls leave
    the bracket wider.
    """
    # c starts equal to b, so the first pass sets c = a and the steps d, e
    a, fa, b, fb, c, fc = lo, r_lo, hi, r_hi, hi, r_hi
    width0, n = hi - lo, 0
    while True:
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 2.0 * sys.float_info.epsilon * abs(b) + 0.5 * floor
        m = 0.5 * (c - b)
        if fb == 0.0:
            return b, b, fb, fb, n
        if abs(m) <= tol:
            return (b, c, fb, fc, n) if b < c else (c, b, fc, fb, n)
        if n >= max_iter:
            raise MaxIterations(
                f"bracket width {abs(c - b):.3e} is still above the floor "
                f"{floor:g} after the cap of {n} shots")
        if (abs(e) < tol or abs(fa) <= abs(fb)
                or TURNED_SENTINEL in (fa, fb, fc)
                or abs(c - b) > width0 * 2.0 ** (_BISECTION_SLACK - n)):
            d = e = m
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        n += 1


def _widen(f: Callable[[float], float], lo: float, hi: float, vub: float,
           u_c: float) -> tuple[float, float, float, float]:
    """Shoot both ends of [lo, hi], doubling it (clipped to [0, vub])
    until f changes sign across it; returns (lo, hi, f(lo), f(hi))."""
    r_lo = f(lo)
    r_hi = f(hi)
    while r_lo >= 0.0 or r_hi < 0.0:
        if lo <= 0.0 and hi >= vub:
            break
        width = hi - lo
        if r_lo >= 0.0:
            lo = max(0.0, lo - width)
            r_lo = f(lo)
        if r_hi < 0.0:
            hi = min(vub, hi + width)
            r_hi = f(hi)
    if r_lo >= 0.0:
        raise NoSignChange(
            f"the shot at v=0 does not undershoot for u_c={u_c}; "
            "a KPP reaction must undershoot at rest")
    if r_hi < 0.0:
        raise NoSignChange(
            f"residual stays negative up to the speed bound {vub:.6g}")
    return lo, hi, r_lo, r_hi


def _newton_pair(f: Callable[[float], float], lo: float, hi: float,
                 g_lo: float, g_hi: float, vub: float,
                 ) -> tuple[float, float, float, float] | None:
    """Open stage 2 from stage 1's final bracket [lo, hi] and its values.

    Shoots the midpoint, which records the grid, then the pair v1 +-
    _BRACKET_WIDTH_FLOOR/2 around the Newton step v1 from it on stage
    1's secant slope across [lo, hi].  After a pair that misses the
    root, the next Newton step starts from its end nearer the root, on
    the slope there of the parabola through the midpoint and that end
    that has stage 1's slope at the midpoint.  Returns the first pair
    that straddles the root, with f at its ends, or None when
    _NEWTON_PAIRS pairs miss or a slope is unusable (an exact zero, a
    turned shot, not rising).
    """
    if not lo < hi or TURNED_SENTINEL in (g_lo, g_hi):
        return None
    slope = secant = (g_hi - g_lo) / (hi - lo)
    v = mid = 0.5 * (lo + hi)
    g = g_mid = f(mid)
    for _ in range(_NEWTON_PAIRS):
        if not slope > 0.0 or g == TURNED_SENTINEL:
            return None
        step = v - g / slope
        # rounding the ends widens the pair by at most 2*eps*|step|
        half = 0.5 * _BRACKET_WIDTH_FLOOR - sys.float_info.epsilon * abs(step)
        a, b = max(0.0, step - half), min(step + half, vub)
        if not a < b:  # the step left [0, vub]
            return None
        g_a, g_b = f(a), f(b)
        if g_a < 0.0 <= g_b:
            return a, b, g_a, g_b
        v, g = (a, g_a) if abs(g_a) < abs(g_b) else (b, g_b)
        if v == mid:
            return None
        slope = 2.0 * (g - g_mid) / (v - mid) - secant
    return None


def solve_speed(cutoff: CutoffReaction, guess: float | None = None,
                config: ShootingConfig | None = None, *,
                pad: float = _BRACKET_PAD) -> WaveSolution:
    """Find the unique wave speed v*(u_c) by a two-stage Brent search.

    A guess seeds a bracket of half-width ``pad`` (no guess: 2 - pi^2/L^2
    +- 40/|L|^3, L = ln u_c, below u_c = 1e-3, else
    [0, min(2, v_upper_bound)]; so does a guess whose bracket would be
    empty or NaN) that is widened geometrically, clipped to [0, min(2,
    v_upper_bound)], until the residual changes sign across it.
    Stage 1 collapses it to about ``_FINE_HALF_WIDTH`` with shots at
    ``config.control``'s tolerance relaxed to ``_COARSE_TOL``.  Stage 2
    shoots at ``config.control``: stage 1's midpoint, then a pair at
    most ``_BRACKET_WIDTH_FLOOR`` wide around the Newton step from it on
    stage 1's secant slope, and up to ``_NEWTON_PAIRS`` such pairs until
    one straddles the root (see ``_newton_pair``).  Without a usable
    slope, or when every pair misses, it opens +-``_FINE_HALF_WIDTH``
    around stage 1's midpoint, widens it the same way and collapses it
    to ``_BRACKET_WIDTH_FLOOR``.  A stage's shots replay the step grid
    of its first shot.  ``v_star`` is the midpoint of stage 2's
    bracket.  ``residual`` is u_c*(p + v) at the end of that bracket
    further from zero, which bounds r(v*); 0 on an exact zero (lo == hi).
    ``n_iterations`` counts every search shot but the two opening bracket
    shots.  Raises MaxIterations when ``_MAX_SHOTS`` such shots leave
    the bracket wider or the residual misses ``config.residual_tol``.

    The solve ends with the search: no shot keeps its path.  The returned
    :class:`WaveSolution` shoots its dense path at v* when ``trajectory``,
    ``y_event``, ``profile`` or ``y_half`` is first read, and that read
    raises MaxIterations if the path turns or misses the same criterion.
    """
    if config is None:
        config = ShootingConfig()
    vub = min(_SPEED_CAP, v_upper_bound(cutoff))
    fine = config.control
    coarse = replace(fine, tol=max(_COARSE_TOL, fine.tol))
    shots = 0

    def search(control: IntegrationControl) -> Callable[[float], float]:
        stage_config = replace(config, control=control)
        grid = StepGrid()  # recorded by the stage's first shot

        def f(v: float) -> float:
            nonlocal shots
            shots += 1
            return _search_value(cutoff, v, stage_config, grid)
        return f

    def collapse(f: Callable[[float], float], ends: tuple[float, ...],
                 floor: float) -> tuple[float, float, float, float]:
        return _brent(f, *ends, _MAX_SHOTS - (shots - 2), floor)[:4]

    if guess is None and cutoff.u_c < _SEED_BELOW:
        log_uc = math.log(cutoff.u_c)
        guess = 2.0 - math.pi ** 2 / log_uc ** 2
        pad = _SEED_PAD / -log_uc ** 3
    if guess is None:
        lo, hi = 0.0, vub
    else:
        lo = max(0.0, guess - pad)
        hi = min(guess + pad, vub)
        if not lo < hi:  # a NaN guess or pad as well
            lo, hi = 0.0, vub
    f, pair = search(fine), None
    if coarse != fine:
        f1 = search(coarse)
        ends = collapse(f1, _widen(f1, lo, hi, vub, cutoff.u_c),
                        _FINE_HALF_WIDTH)
        pair = _newton_pair(f, *ends, vub)
        # the fallback opening, shot only when no Newton pair straddles v*
        mid = 0.5 * (ends[0] + ends[1])
        lo = max(0.0, mid - _FINE_HALF_WIDTH)
        hi = min(mid + _FINE_HALF_WIDTH, vub)
    lo, hi, g_lo, g_hi = collapse(
        f, pair or _widen(f, lo, hi, vub, cutoff.u_c), _BRACKET_WIDTH_FLOOR)
    n_iter = shots - 2
    v_star = 0.5 * (lo + hi)
    # r(v*) lies between r(lo) and r(hi); a turned end costs a shot at v*
    g = g_lo if abs(g_lo) > abs(g_hi) else g_hi
    gap = (math.tan(g) if g != TURNED_SENTINEL
           else _gap(cutoff, v_star, config))
    residual = math.inf if gap is None else cutoff.u_c * gap
    if abs(residual) > config.residual_tol:
        raise MaxIterations(
            f"residual {abs(residual):.3e} exceeds {config.residual_tol:g} "
            f"after {n_iter} search shots (bracket width {hi - lo:.3e})")
    return WaveSolution(cutoff.u_c, v_star, residual, (lo, hi), n_iter,
                        cutoff, config)


def assemble_profile(solution: WaveSolution, y_min: float, y_max: float,
                     n_samples: int = 1201, origin: float = 0.0) -> Profile:
    """Sample the wave on [y_min, y_max], y measured from ``origin`` in
    the frame with the threshold at 0 (``solution.y_half``: U = 1/2).

    The window is clamped to the computed rear (one wholly behind it, or
    with y_min >= y_max or y_max infinite, raises ValueError), and the
    grid is snapped so one sample sits at y = 0; see ``WaveSolution.sample``.
    """
    if not y_min < y_max < math.inf:  # NaN fails it too
        raise ValueError("need y_min < y_max < inf")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    lo = max(y_min, -solution.y_event - origin)  # the rear ends at the saddle
    if lo >= y_max:
        raise ValueError("requested window lies entirely behind the "
                         f"computed rear (which starts at y = {lo:.3f})")
    grid = snapped_grid(lo, y_max, n_samples)
    u, up = solution.sample(grid + origin)
    return Profile(y=grid, u=u, uprime=up)


def snapped_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced samples on [lo, hi], one at 0 if the range spans it.

    The sample nearest 0 is set to exactly 0, so a profile that crosses
    the threshold holds the threshold's own row.
    """
    grid = np.linspace(lo, hi, n)
    if lo < 0.0 < hi:
        grid[np.argmin(np.abs(grid))] = 0.0
    return grid


def sweep(reaction: ReactionSpec, u_c_values: Sequence[float],
          config: ShootingConfig | None = None) -> SpeedCurve:
    """Continuation sweep over descending thresholds.

    The first row's bracket is seeded at the speed bound 2 of the
    problem without cut-off and the second at the first row's speed,
    both with half-width ``_BRACKET_PAD``.  From then on the guess is
    the secant through the last two solved speeds in ln u_c, clipped
    to at most 2, and the pad is ``_MISS_FACTOR`` times the last
    solved row's miss |guess - v*|, at least ``_MIN_SECANT_PAD``;
    ``solve_speed`` widens a bracket that misses.  Each row is the
    solution of one ``solve_speed`` call; its path is shot only if read.
    Rows that fail keep their place with NaN entries and the failure
    message is kept alongside.
    """
    if config is None:
        config = ShootingConfig()
    values = list(u_c_values)
    if any(not 0.0 < u < 1.0 for u in values):
        raise ValueError("all thresholds must lie in (0, 1)")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError("thresholds must be strictly descending")

    rows: list[WaveSolution] = []
    failures: dict[float, str] = {}
    solved: list[WaveSolution] = []  # the last two rows that solved
    guess, pad = 2.0, _BRACKET_PAD
    for u_c in values:
        if len(solved) == 2:
            (u0, v0), (u1, v1) = [(r.u_c, r.v_star) for r in solved]
            guess = min(v1 + (v1 - v0) * math.log(u_c / u1)
                        / math.log(u1 / u0), _SPEED_CAP)
        cutoff = make_cutoff(reaction, u_c)
        try:
            row = solve_speed(cutoff, guess, config, pad=pad)
        except CutoffWaveError as exc:
            failures[u_c] = f"{type(exc).__name__}: {exc}"
            rows.append(WaveSolution(u_c, math.nan, math.nan,
                                     (math.nan, math.nan), 0, cutoff, config))
            continue
        rows.append(row)
        solved = [*solved[-1:], row]
        if len(solved) == 2:
            pad = max(_MISS_FACTOR * abs(guess - row.v_star), _MIN_SECANT_PAD)
        guess = row.v_star
    return SpeedCurve(rows=rows, failures=failures)


def fit_rear_constant(solution: WaveSolution) -> float:
    """Amplitude A of the rear tail 1 - U_T ~ A * exp(lambda_plus * y).

    The path starts on the saddle's linearized unstable manifold at
    1 - U = eps = ``manifold_offset(u_c)``, which is y = -y_event in the
    threshold frame, so A = eps * exp(lambda_plus(v*) * y_event) to
    O(eps); no profile is sampled or fitted.  A path that starts on the
    threshold has y_event = 0, and A is 1 - u_c itself.
    """
    lam = lambda_plus(solution.cutoff.base, solution.v_star)
    return manifold_offset(solution.u_c) * math.exp(lam * solution.y_event)
