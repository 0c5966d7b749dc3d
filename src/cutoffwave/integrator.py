"""Adaptive integration of the travelling-wave phase-plane system.

The planar system

    alpha' = beta,
    beta'  = -v*beta - f_c(alpha),

carries the wave on the saddle's unstable manifold, along which alpha
falls monotonically for a KPP reaction.  So t = -ln alpha replaces the
wave coordinate y as the independent variable: the one state p =
beta/alpha obeys

    dp/dt = (p + v) + (f(e^-t)/e^-t)/p,

and y is the quadrature dy/dt = -1/p.  Every shot runs one embedded
Dormand-Prince 5(4) step loop in t, with error control relative to p,
and lands its last step exactly on t = -ln alpha of the target level, so
no crossing is searched for.  The saddle, which a stepper in y leaves
only at an exponential pace, is linear in t (p ~ -lambda*t).  A stage
with p >= 0 (alpha has stopped falling) is rejected, so a path that
turns ends in step-size underflow.

A search shot, ``shoot_slope``, keeps only p at alpha = u_c and may
replay the steps of another shot (``StepGrid``).  A dense leg, run for a
path that is read (``trace_until_alpha``), keeps each step's stage
slopes: those of p, and those of y's remainder -1/p - 1/(lambda*t), what
is left of y after ln(t/t0)/lambda, the exact y of the linear saddle (t0
and lambda = -p0/t0 read off the start).  The remainder stays bounded
where -1/p grows like 1/t; it rides on the stages but not in the error
test.  The quartic dense-output coefficients of both are built, for all
steps at once, when the path is first read: ``Trajectory.sample``
inverts the monotone y(t) within one segment, and ``find_alpha`` reads y
at t = -ln level.

Each dense path is one leg of one smooth rate: a cut-off path ends at or
above the threshold, ahead of which the rate is zero and the wave at v*
is u_c*exp(-v*y) (``WaveSolution.sample``).  Levels are positive, since
alpha = e^-t never reaches 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from .errors import SpanExceeded, StepFailure
from .reaction import CutoffReaction, lambda_plus

# Dormand-Prince 5(4) tableau.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# Stage nodes (c6 = c7 = 1), for the explicit t-dependence of the rates.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
# Embedded 4th-order error weights (difference of the two formulas).
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)
# Quartic dense-output coefficients (columns multiply theta..theta^4).
_P1 = (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
       -12715105075 / 11282082432)
_P3 = (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
       87487479700 / 32700410799)
_P4 = (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
       -10690763975 / 1880347072)
_P5 = (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632)
_P6 = (0.0, -282668133 / 205662961, 2019193451 / 616988883,
       -1453857185 / 822651844)
_P7 = (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
#: Newton steps that ``Trajectory.sample`` allows itself per y, and the
#: points it solves at once
_NEWTON_CAP = 50
_BLOCK = 4096
#: 1 - U where a path leaves the saddle, unless its level lies closer
_MANIFOLD_OFFSET = 1e-10


@dataclass(frozen=True)
class PhaseState:
    """A point (alpha, beta) = (U_T, U_T') in the phase plane."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class IntegrationControl:
    """Error tolerance, both absolute and relative, and first trial step."""

    tol: float = 1e-12
    initial_step: float = 1e-4

    def __post_init__(self) -> None:
        # written so that NaN fails them too; below the double precision
        # epsilon the error test measures rounding and steps never settle
        if not (self.tol >= sys.float_info.epsilon and self.initial_step > 0.0):
            raise ValueError(f"tol must be at least {sys.float_info.epsilon!r}"
                             " (double precision epsilon) and initial_step "
                             f"positive, got {self.tol!r} and "
                             f"{self.initial_step!r}")


@dataclass(frozen=True)
class EventRecord:
    """Terminal threshold crossing: location, state and step counts.

    ``log_slope`` is beta/alpha = U_T'/U_T at the event, as stepped; it
    is free of the rounding that dividing ``state`` would add.
    """

    y_event: float
    state: PhaseState
    n_steps: int
    n_rejects: int
    log_slope: float


class Trajectory:
    """Piecewise-quartic dense representation of a path stepped in t.

    Each accepted step over [t, t + h] contributes one segment: quartics
    in t of p = beta/alpha and of y's remainder r, where y = y_start +
    ln(t/t0)/lambda + r, the path starts at (t0, p0) and lambda =
    -p0/t0.  ``sample`` evaluates the continuous (alpha, beta) path at a
    y, or an array of them, inside [y_start, y_end]; ``find_alpha`` reads
    the y of a level.
    """

    def __init__(self, y_start: float, t0: float = 1.0,
                 p0: float = -1.0) -> None:
        self.y_start = y_start
        self.y_end = y_start
        self._t0 = t0
        self._inv = -t0 / p0  # 1/lambda, the saddle logarithm's factor
        # (t, r, p) where the path ends: the start until its leg has run
        self._end = (t0, 0.0, p0)
        # per segment the flat 16-tuple of a step's stage values (t, h, r,
        # p, kr1, kr3..kr7, kp1, kp3..kp7): kr* and kp* are the slopes of
        # r and p at the stages the dense output weighs
        self._segments: list[tuple] = []
        # the (n, 12) coefficient table, built when first read: unread
        # paths never pay for it
        self._rows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._segments)

    def _table(self) -> np.ndarray:
        """Per segment (t, h, r, p, qr0..qr3, qp0..qp3), q* the quartic
        coefficients of r and p, to the bit as ``_dense`` sums them."""
        if self._rows is None:
            n = len(self._segments)
            raw = np.fromiter(chain.from_iterable(self._segments), float,
                              16 * n).reshape(n, 16)
            self._rows = np.column_stack([raw[:, :4],
                                          *_dense(*raw[:, 4:10].T),
                                          *_dense(*raw[:, 10:].T)])
        return self._rows

    def _y(self, t, r, log=np.log):
        """y at t (a float with ``math.log``, or an array) from r there."""
        return self.y_start + self._inv * log(t / self._t0) + r

    def sample(self, y):
        """(alpha, beta) at y: floats for a float, arrays for a 1-D array.

        Every y must lie in [y_start, y_end] (to 1e-12), else ValueError.
        Each y is looked up among the segments' starting y and solved for
        t in its segment by Newton's method on the monotone y(t), from a
        first guess that is exact for the saddle's logarithm.
        """
        if not self._segments:
            raise ValueError("empty trajectory")
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        outside = ys[(ys < self.y_start - 1e-12) | (ys > self.y_end + 1e-12)]
        if outside.size:
            raise ValueError(f"y={float(outside[0])} outside sampled range "
                             f"[{self.y_start}, {self.y_end}]")
        rows = self._table()
        nodes = self._y(rows[:, 0], rows[:, 2])
        a, b = np.empty_like(ys), np.empty_like(ys)
        # in blocks, so that a long grid's temporaries stay small
        for k in range(0, ys.size, _BLOCK):
            a[k:k + _BLOCK], b[k:k + _BLOCK] = self._at(ys[k:k + _BLOCK],
                                                         rows, nodes)
        if np.ndim(y) == 0:
            return float(a[0]), float(b[0])
        return a, b

    def _at(self, ys, rows, nodes):
        """(alpha, beta) at a 1-D array of y, ``rows`` the coefficient
        table and ``nodes`` the y at each segment's start."""
        i = np.maximum(np.searchsorted(nodes, ys, side="right") - 1, 0)
        seg = np.take(rows.T, i, axis=1)  # each point's segment, per column
        t0, h = seg[0], seg[1]
        rise = np.append(np.diff(nodes), self.y_end - nodes[-1])[i]
        s = np.divide(ys - nodes[i], rise, out=np.zeros_like(ys),
                      where=rise > 0.0)
        # y is about linear in ln t next to the saddle and in t further
        # on; t0*(1 + h/t0)^s is about both
        t = t0 * np.exp(np.clip(s, 0.0, 1.0)
                        * np.log1p(rows[:, 1] / rows[:, 0])[i])
        # Newton's method: one step everywhere, then more until a step
        # falls below 1e-9 relative, which leaves an error of about 1e-18
        cols, target = seg[:8], ys
        t = self._newton(t, cols, target)
        todo = np.arange(ys.size)
        for _ in range(_NEWTON_CAP):
            tt = t[todo]
            new = self._newton(tt, cols, target)
            t[todo] = new
            moved = np.abs(new - tt) > 1e-9 * new
            if not moved.any():
                break
            todo, cols, target = todo[moved], cols[:, moved], target[moved]
        a = np.exp(-t)
        return a, a * _quartic(seg[3], h, seg[8:], (t - t0) / h)

    def _newton(self, t, cols, ys):
        """One Newton step of y(t) = ys from t, in segments ``cols``
        (t, h, r, p, qr0..qr3 per column), kept inside them."""
        ta, ha, ra, _, *q = cols
        th = (t - ta) / ha
        slope = self._inv / t + (
            q[0] + th * (2.0 * q[1] + th * (3.0 * q[2] + th * 4.0 * q[3])))
        miss = self._y(t, _quartic(ra, ha, q, th)) - ys
        # where y(t) is flat to rounding (U next to a zero crossing), the
        # slope may round to 0; the step stays in its segment
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.fmin(np.fmax(t - miss / slope, ta), ta + ha)

    def find_alpha(self, target: float) -> tuple[float, float, float] | None:
        """(y, alpha, beta) where alpha equals ``target``, read at t = -ln
        target: alpha is the target itself.

        None when the level lies outside the path, above its start or
        below its end (always for a level <= 0).  At the level the path
        was traced to, y is ``y_end``.
        """
        if not (target > 0.0 and self._segments):
            return None
        t = -math.log(target)
        t_end, _, p_end = self._end
        if t == t_end:
            return self.y_end, target, target * p_end
        if not self._t0 <= t < t_end:
            return None
        rows = self._table()
        i = int(np.searchsorted(rows[:, 0], t, side="right")) - 1
        t0, h, r0, p0, *q = rows[i].tolist()
        th = (t - t0) / h
        return (self._y(t, _quartic(r0, h, q[:4], th), math.log), target,
                target * _quartic(p0, h, q[4:], th))


def exp_each(x: np.ndarray) -> np.ndarray:
    """``math.exp`` of every element of a 1-D array.

    np.exp differs from math.exp in the last bit for a few percent of
    arguments, which would change printed 17-digit profiles.
    """
    return np.fromiter(map(math.exp, x.tolist()), float, len(x))


def _dense(k1, k3, k4, k5, k6, k7):
    """The four quartic coefficients of one variable from its slopes at
    the stages, one array entry per segment, summed left to right."""
    return (_P1[0] * k1 + _P3[0] * k3 + _P4[0] * k4 + _P5[0] * k5
            + _P6[0] * k6 + _P7[0] * k7,
            _P1[1] * k1 + _P3[1] * k3 + _P4[1] * k4 + _P5[1] * k5
            + _P6[1] * k6 + _P7[1] * k7,
            _P1[2] * k1 + _P3[2] * k3 + _P4[2] * k4 + _P5[2] * k5
            + _P6[2] * k6 + _P7[2] * k7,
            _P1[3] * k1 + _P3[3] * k3 + _P4[3] * k4 + _P5[3] * k5
            + _P6[3] * k6 + _P7[3] * k7)


def _quartic(y0, h, q, t):
    return y0 + h * t * (q[0] + t * (q[1] + t * (q[2] + t * q[3])))


def _t_of(a: float) -> float:
    """-ln a.  Next to the saddle a = 1 - eps and a - 1 is exact, so log1p
    keeps every digit of eps; elsewhere log is the accurate form."""
    return -(math.log1p(a - 1.0) if a > 0.5 else math.log(a))


def _shoot(f: Callable[[float], float], v: float, a: float, t: float,
           p: float, t_end: float, control: IntegrationControl,
           grid: StepGrid | None = None, path: Trajectory | None = None,
           ) -> tuple[float, int, int, float]:
    """The step loop: p = U'/U from U = a, t = -ln a, to t_end.

    f is the rate, smooth over the leg.  Returns (p, steps, rejects, r),
    r the remainder of y at t_end on ``path`` (0 without one).  A search
    shot may finish in the closed-form tail and may record or replay a
    ``grid`` (see ``shoot_slope``); a dense leg appends its steps to
    ``path`` and steps all the way.  Raises SpanExceeded where the path
    turns, or StepFailure where the last trial step went non-finite.
    """
    r = 0.0
    if t >= t_end:  # a start on the level is its own event
        return p, 0, 0, r
    exp = math.exp
    tol = control.tol
    h = control.initial_step
    n_steps = n_rejects = 0
    dp = p + v + f(a) / a / p
    err = 0.0
    record = None
    # the tail test is q*q*tail > 1, which a dense leg never passes
    tail = tol
    # while i < 0, steps[i] is the grid's next step: i counts up from
    # -len(steps), so the grid's last step is known by its position
    steps, i = (), 0
    if path is not None:
        record, tail, inv = path._segments, 0.0, path._inv
        kr = -1.0 / p - inv / t
    elif grid is not None and not grid.steps:
        grid.span, record = (t, t_end), grid.steps
    elif grid is not None:
        if grid.span != (t, t_end):
            raise ValueError("the step grid was recorded from another start "
                             "or to another threshold")
        steps, i = grid.steps, -len(grid.steps)
    while True:
        q = p + v
        if q * q * tail > 1.0:
            try:
                return q * exp(t_end - t) - v, n_steps + 1, n_rejects, r
            except OverflowError:  # q < 0 here
                return -math.inf, n_steps + 1, n_rejects, r
        try:
            if i:  # a recorded step: its size and stage rates
                h, g2, g3, g4, g5, g6 = steps[i]
            else:  # the controller's step, clipped to land on t_end
                # comparisons, not max/min/abs calls, pick the same floats
                if h < 1e-14 * (t if t > 1.0 else 1.0):
                    if err != err:
                        raise StepFailure("step size underflow at "
                                          f"U={exp(-t):.6g}: non-finite rate")
                    raise SpanExceeded(
                        f"step size underflow at U={exp(-t):.6g}: the path "
                        f"turned above U={exp(-t_end):.6g}")
                last = t + h >= t_end
                if last:
                    h = t_end - t
                w = -t  # ln U at the step's start
                u = exp(w - _C2 * h); g2 = f(u) / u
                u = exp(w - _C3 * h); g3 = f(u) / u
                u = exp(w - _C4 * h); g4 = f(u) / u
                u = exp(w - _C5 * h); g5 = f(u) / u
                u = exp(w - h); g6 = f(u) / u
            p2 = p + h * (_A21 * dp)
            dp2 = p2 + v + g2 / p2
            p3 = p + h * (_A31 * dp + _A32 * dp2)
            dp3 = p3 + v + g3 / p3
            p4 = p + h * (_A41 * dp + _A42 * dp2 + _A43 * dp3)
            dp4 = p4 + v + g4 / p4
            p5 = p + h * (_A51 * dp + _A52 * dp2 + _A53 * dp3 + _A54 * dp4)
            dp5 = p5 + v + g5 / p5
            p6 = p + h * (_A61 * dp + _A62 * dp2 + _A63 * dp3 + _A64 * dp4
                          + _A65 * dp5)
            dp6 = p6 + v + g6 / p6
            p_new = p + h * (_B1 * dp + _B3 * dp3 + _B4 * dp4 + _B5 * dp5
                             + _B6 * dp6)
            dp7 = p_new + v + g6 / p_new
        except (OverflowError, ZeroDivisionError):
            err = math.inf
        else:
            if (p2 < 0.0 and p3 < 0.0 and p4 < 0.0 and p5 < 0.0 and p6 < 0.0
                    and p_new < 0.0):
                err = h * (_E1 * dp + _E3 * dp3 + _E4 * dp4 + _E5 * dp5
                           + _E6 * dp6 + _E7 * dp7)
                # p < 0 as well, so max(|p|, |p_new|) = -min(p, p_new)
                err = (err if err > 0.0 else -err) / (
                    tol + tol * -(p if p < p_new else p_new))
            else:  # U stops falling inside the step, or a NaN stage
                err = math.inf if p_new == p_new else math.nan

        if not err <= 1.0:
            n_rejects += 1
            # 0 for an infinite err and NaN for a NaN one: both shrink h
            # by _MIN_FACTOR
            factor = _SAFETY * err ** -0.2
            h *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            i = 0  # a failed step ends the replay
            continue
        n_steps += 1
        if i:  # replayed: the grid, not the step factor, sizes the next
            t += h
            p, dp = p_new, dp7  # FSAL
            i += 1
            if i or not grid.lands:
                continue
            return p, n_steps, n_rejects, r  # the grid's last step landed
        if record is not None:
            if path is not None:
                # the remainder's slopes -1/p - inv/t at the stages the
                # dense output weighs; the dense output waits for the
                # path's first read (Trajectory._table)
                s = t + h
                kr3 = -1.0 / p3 - inv / (t + _C3 * h)
                kr4 = -1.0 / p4 - inv / (t + _C4 * h)
                kr5 = -1.0 / p5 - inv / (t + _C5 * h)
                kr6 = -1.0 / p6 - inv / s
                kr7 = -1.0 / p_new - inv / s
                record.append((t, h, r, p, kr, kr3, kr4, kr5, kr6, kr7,
                               dp, dp3, dp4, dp5, dp6, dp7))
                r += h * (_B1 * kr + _B3 * kr3 + _B4 * kr4 + _B5 * kr5
                          + _B6 * kr6)
                kr = kr7  # FSAL
            else:
                record.append((h, g2, g3, g4, g5, g6))
                grid.lands = last
        t += h
        p, dp = p_new, dp7  # FSAL
        if last:
            return p, n_steps, n_rejects, r
        # err <= 1 here, so the factor is at least _SAFETY > _MIN_FACTOR
        factor = _SAFETY * err ** -0.2 if err else _MAX_FACTOR
        h *= factor if factor < _MAX_FACTOR else _MAX_FACTOR


class _Integration:
    """One dense path, stepped in one leg.

    ``advance_to_alpha`` runs the step loop from the start, keeping its
    steps on ``trajectory``; ``state`` is the (alpha, beta) point where
    the leg stopped, the start until it has run.
    """

    __slots__ = ("v", "control", "state", "n_steps", "n_rejects",
                 "trajectory")

    def __init__(self, v: float, start: PhaseState,
                 control: IntegrationControl) -> None:
        self.v, self.control, self.state = v, control, start
        self.n_steps = self.n_rejects = 0
        self.trajectory = Trajectory(0.0, _t_of(start.alpha),
                                     start.beta / start.alpha)

    def advance_to_alpha(self, rate: Callable[[float], float],
                         alpha_stop: float) -> None:
        """Step until alpha equals ``alpha_stop`` (> 0, below alpha): the
        last step lands on t = -ln alpha_stop.

        The rate callable is f(alpha) and must be smooth over the leg.
        Raises as ``_shoot`` does.
        """
        traj = self.trajectory
        t, _, p = traj._end
        t_end = -math.log(alpha_stop)
        p, steps, rejects, r = _shoot(rate, self.v, self.state.alpha, t, p,
                                      t_end, self.control, path=traj)
        self.n_steps += steps
        self.n_rejects += rejects
        self.state = PhaseState(alpha_stop, alpha_stop * p)
        traj._end = (t_end, r, p)
        traj.y_end = traj._y(t_end, r, math.log)


def manifold_offset(level: float) -> float:
    """1 - U where a path to ``level`` leaves the saddle: 1e-10, or 1 -
    level, exact there, for a level at or above 1 - 1e-10, whose path
    then starts on it and takes no step."""
    return 1.0 - level if level >= 1.0 - _MANIFOLD_OFFSET else _MANIFOLD_OFFSET


def unstable_manifold_start(cutoff: CutoffReaction, v: float) -> PhaseState:
    """Linearized point on the saddle's unstable manifold entering the
    region 0 < alpha < 1, beta < 0: (1 - eps, -lambda_plus(v) * eps), eps
    = ``manifold_offset(u_c)``."""
    eps = manifold_offset(cutoff.u_c)
    return PhaseState(1.0 - eps, -lambda_plus(cutoff.base, v) * eps)


def _trace(rate: Callable[[float], float], v: float, start: PhaseState,
           target: float, control: IntegrationControl | None,
           ) -> tuple[EventRecord, Trajectory]:
    """Step the smooth ``rate`` from ``start`` to the level ``target``.
    Raises as ``trace_until_alpha`` does."""
    if control is None:
        control = IntegrationControl()
    # written so that NaN fails them too
    if not v >= 0.0:
        raise ValueError("speed must be non-negative")
    if not (target > 0.0 and start.alpha >= target):
        raise ValueError("need start.alpha >= alpha_target > 0")
    if not (start.alpha < 1.0 and start.beta < 0.0):
        raise ValueError("need start.alpha < 1 and start.beta < 0: the path "
                         "falls from below the saddle")
    run = _Integration(v, start, control)
    if start.alpha > target:  # a start on the level is its own event
        run.advance_to_alpha(rate, target)
    path = run.trajectory
    return EventRecord(path.y_end, run.state, run.n_steps, run.n_rejects,
                       path._end[2]), path


def trace_until_alpha(cutoff: CutoffReaction, v: float, start: PhaseState,
                      alpha_target: float,
                      control: IntegrationControl | None = None,
                      ) -> tuple[EventRecord, Trajectory]:
    """Integrate the phase-plane system until alpha first hits the target.

    Returns the event record and the dense path, one leg of the base
    rate.  Raises ValueError for a negative or NaN speed, a target
    outside [u_c, start.alpha] (below u_c the rate is zero, and the wave
    at v* is u_c*exp(-v*y) there), or a start that is not falling from
    below the saddle (start.alpha >= 1 or start.beta >= 0); SpanExceeded
    when the path turns above the target (U stops falling, which ends in
    step-size underflow); and StepFailure when the last trial step went
    non-finite.
    """
    if not alpha_target >= cutoff.u_c:  # NaN fails it too
        raise ValueError(f"target {alpha_target!r} lies below u_c="
                         f"{cutoff.u_c!r}: ahead of the threshold the wave "
                         "is u_c*exp(-v*y) in closed form")
    return _trace(cutoff.base.f, v, start, alpha_target, control)


class StepGrid:
    """The accepted steps of one slope shot, for later shots to replay.

    ``steps`` holds (h, g2, g3, g4, g5, g6) per accepted step, g_s =
    f(U)/U at the step's stage node s (the seventh stage reuses g6, as
    c7 = 1).  The rate term does not depend on v, so a shot at another
    speed from the same start to the same threshold takes its steps
    from here, with no exp, no reaction call and no step-size control,
    until one fails (see ``shoot_slope``).  ``span`` is the (t_start,
    t_end) it was recorded on, and ``lands`` tells whether its last step
    lands on t_end; a recording that ends in the closed-form tail, or
    turns, does not.
    """

    __slots__ = ("span", "steps", "lands")

    def __init__(self) -> None:
        self.span: tuple[float, float] | None = None
        self.steps: list[tuple] = []
        self.lands = False


def shoot_slope(cutoff: CutoffReaction, v: float, start: PhaseState,
                control: IntegrationControl | None = None, *,
                grid: StepGrid | None = None) -> tuple[float, int, int]:
    """U'/U where the path from ``start`` first reaches U = u_c.

    A record-only shot in t = -ln U: while U falls, p = U'/U obeys dp/dt
    = (p + v) + g/p with g = f(U)/U, and the last step is clipped to
    land on t = -ln u_c, so there is no event search.  Once (p + v)^2 >
    1/tol the rest of the leg is finished in closed form, p = (p +
    v)*e^(t_end - t) - v: g <= 1 for a normalised KPP reaction and |p|
    grows, so the dropped term moves p + v by less than tol relative.
    Returns (p, steps, rejects), the tail counting as a step.  A stage
    with p >= 0 (U has stopped falling) is rejected; a path that turns
    therefore ends in step-size underflow, raised as SpanExceeded, or as
    StepFailure when the last trial step went non-finite.

    An empty ``grid`` records this shot's accepted steps.  A filled one
    is only read: each step takes its size and stage rates from the
    grid's next entry, t summed as when they were recorded, at the cost
    of the stage arithmetic alone; the p < 0 rule, error test and tail
    test are the same.  A replayed step that fails is rejected like any
    other, and the shot steps adaptively from there, as it does past the
    end of a grid that stops short of t_end.  A grid recorded from
    another start or threshold raises ValueError.
    """
    if control is None:
        control = IntegrationControl()
    # written so that NaN fails them too
    if not v >= 0.0:
        raise ValueError("speed must be non-negative")
    a = start.alpha
    if a < cutoff.u_c or not start.beta < 0.0:
        raise ValueError("need start.alpha >= u_c and start.beta < 0")
    t_end = -math.log(cutoff.u_c)
    # a start on the threshold is its own event, however log1p rounds
    t = _t_of(a) if a > cutoff.u_c else t_end
    return _shoot(cutoff.base.f, v, a, t, start.beta / a, t_end, control,
                  grid)[:3]


def trace_field_until_alpha(rate: Callable[[float], float], v: float,
                            start: PhaseState, alpha_target: float,
                            control: IntegrationControl | None = None,
                            ) -> tuple[EventRecord, Trajectory]:
    """Integrate one smooth rate f(alpha) until alpha hits the target.

    Used for reactions without a cut-off, and for the zero rate ahead of
    a threshold.  The path starts at y = 0.  Speed, start and failures as
    for ``trace_until_alpha``; the target must lie in (0, start.alpha].
    """
    return _trace(rate, v, start, alpha_target, control)
