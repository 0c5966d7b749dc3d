"""Adaptive integration of the travelling-wave phase-plane system.

The planar system

    alpha' = beta,
    beta'  = -v*beta - f_c(alpha),

is stepped in the log variables (w, p) = (ln alpha, beta/alpha),

    w' = p,
    p' = -p^2 - v*p - f_c(e^w)/e^w,

forward in the wave coordinate y with an embedded Dormand-Prince 5(4)
pair and a free quartic dense-output interpolant.  On the leading edge
alpha falls by many orders of magnitude while p stays O(1), so the error
control is relative to alpha and the slope ratio beta/alpha at a small
threshold is resolved as sharply as at a large one.  Everything outside
the stepper reads and writes (alpha, beta) = (e^w, e^w * p); the dense
output is read back by ``Trajectory.sample`` at one y or an array of y.
Every accepted step stores its stage values, and the quartic coefficients
are built from them, for all steps at once, when the path is first read:
the y-stepper serves only callers that read the path (a solution's
profile, the reference wave), and a solution whose path is never read
never shoots it.

Threshold crossings (alpha reaching a target level, i.e. w reaching its
logarithm) are terminal events, localized by bisection on the
interpolant within the bracketing step.  The levels are positive: alpha
= e^w never reaches 0, so a target of 0 is refused.  Where alpha falls
to 0 within the resolution of y (a trial speed far below the wave speed
at a tiny threshold), w runs to -inf faster than steps can follow, and
the crossing is taken at the linear root of alpha instead.

The cut-off rate is discontinuous at alpha = u_c, so error estimates are
invalid for any step straddling that line.  Crossings are therefore
handled by splitting: the integration stops at the alpha = u_c event and
restarts there with the sub-threshold (zero-rate) field, so every step
sees a smooth right-hand side.

A shot that needs only p at alpha = u_c has a cheaper form,
``shoot_slope``.  For a KPP reaction alpha falls monotonically along the
saddle's unstable manifold, so t = -ln alpha can replace y: the one state
p then obeys

    dp/dt = (p + v) + (f(e^-t)/e^-t)/p,

with the same Dormand-Prince pair, now using its stage nodes, and the
same error rule.  Its last step lands exactly on t = -ln u_c, so it needs
no event search, no y and no segments.  The saddle, which the y-stepper
leaves only at an exponential pace, is linear in t (p ~ -lambda_plus*t),
and where |p + v| has grown far past the rate term the remaining leg is
finished in closed form.  The rate term f(e^-t)/e^-t does not depend on
v, so shots at nearby speeds can share one ``StepGrid``: the first shot
records its accepted step sizes and stage rates, and the others take
their steps from it, with no exp or reaction call, under the same error
test.  A replayed step that fails is rejected like any other, and the
shot steps adaptively from there.
"""

from __future__ import annotations

import math
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
# Stage nodes (c6 = c7 = 1), for the slope shot's explicit t-dependence.
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
_EPS = 2.220446049250313e-16
#: ln 2: above alpha = 2 the path has left the wave region for good
_W_MAX = math.log(2.0)
#: a y-trace that covers this span without reaching its level has turned
_MAX_SPAN = 1e4


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
        # written so that NaN fails them too
        if not (self.tol > 0.0 and self.initial_step > 0.0):
            raise ValueError("tol and initial_step must be positive")


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
    """Piecewise-quartic dense representation of an integrated path.

    Each accepted step contributes one polynomial segment in (w, p) =
    (ln alpha, beta/alpha); ``sample`` evaluates the continuous (alpha,
    beta) path at a y, or an array of them, inside [y_start, y_end].
    """

    def __init__(self, y_start: float) -> None:
        self.y_start = y_start
        self.y_end = y_start
        # ln alpha at y_end as traced (an event snaps it to its level),
        # once the path has moved
        self._w_end = math.inf
        # per segment the flat 17-tuple of a step's stage values (y0, h,
        # w0, p0, kw1, kw3..kw7, kp1, kp3..kp7, line): kw* and kp* are the
        # slopes of w and p at the stages the dense output weighs (kw1 =
        # p0), and line is 1.0 for a straight segment whose slopes are
        # kw1 and kp1 alone
        self._segments: list[tuple] = []
        # the (n, 12) coefficient table, built when first read (again
        # after segments are added): unread paths never pay for it
        self._rows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._segments)

    def _table(self) -> np.ndarray:
        """Per segment (y0, h, w0, p0, qw0..qw3, qp0..qp3), q* the quartic
        coefficients of w and p, to the bit as the stepper would sum them."""
        n = len(self._segments)
        if self._rows is None or len(self._rows) != n:
            raw = np.fromiter(chain.from_iterable(self._segments), float,
                              17 * n).reshape(n, 17)
            rows = np.column_stack([raw[:, :4], *_dense(*raw[:, 4:10].T),
                                    *_dense(*raw[:, 10:16].T)])
            line = raw[:, 16] != 0.0
            rows[line, 4:] = 0.0
            rows[line, 4], rows[line, 8] = raw[line, 4], raw[line, 10]
            self._rows = rows
        return self._rows

    def sample(self, y):
        """(alpha, beta) at y: floats for a float, arrays for a 1-D array.

        Every y must lie in [y_start, y_end] (to 1e-12), else ValueError.
        """
        if not self._segments:
            raise ValueError("empty trajectory")
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        outside = ys[(ys < self.y_start - 1e-12) | (ys > self.y_end + 1e-12)]
        if outside.size:
            raise ValueError(f"y={float(outside[0])} outside sampled range "
                             f"[{self.y_start}, {self.y_end}]")
        rows = self._table()
        i = np.searchsorted(rows[:, 0], ys, side="right") - 1
        y0, h, w0, p0, *q = rows[np.maximum(i, 0)].T
        t = (ys - y0) / h
        a = exp_each(_quartic(w0, h, q[:4], t))
        b = a * _quartic(p0, h, q[4:], t)
        if np.ndim(y) == 0:
            return float(a[0]), float(b[0])
        return a, b

    def find_alpha(self, target: float) -> tuple[float, float, float] | None:
        """Locate the first y where alpha crosses ``target`` (descending).

        Returns (y, alpha, beta) localized on the dense interpolant, or
        None when the trajectory never reaches the level (always for a
        level <= 0).  Segments cut short by an event are only searched
        up to the cut, never into the discarded overrun of the step
        polynomial.  The level the path was traced to is reached at its
        end, where the interpolant may end a rounding short of it.  The
        segment is picked on every segment's end value at once; only that
        segment is bisected.
        """
        if target <= 0.0 or not self._segments:
            return None
        w_target = math.log(target)
        rows = self._table()
        y0, h, w0 = rows[:, 0], rows[:, 1], rows[:, 2]
        t_max = np.minimum(1.0, (np.append(y0[1:], self.y_end) - y0) / h)
        w1 = _quartic(w0, h, rows[:, 4:8].T, t_max)
        w1[-1] = min(w1[-1], self._w_end)
        hit = np.flatnonzero((w0 >= w_target) & (w_target >= w1))
        if not hit.size:
            return None
        i = int(hit[0])
        y0, h, w0, p0, *q = rows[i].tolist()
        qw, qp = q[:4], q[4:]
        t = _bisect_theta(w0, h, qw, w_target, float(t_max[i]))
        a = math.exp(_quartic(w0, h, qw, t))
        return (y0 + t * h, a, a * _quartic(p0, h, qp, t))

    def extend(self, other: "Trajectory") -> None:
        """Append a continuation leg; the legs must abut in y."""
        if abs(other.y_start - self.y_end) > 1e-9:
            raise ValueError("trajectories do not abut")
        self._segments.extend(other._segments)
        self.y_end, self._w_end = other.y_end, other._w_end


def exp_each(x: np.ndarray) -> np.ndarray:
    """``math.exp`` of every element of a 1-D array.

    np.exp differs from math.exp in the last bit for a few percent of
    arguments, which would change printed 17-digit profiles.
    """
    return np.fromiter(map(math.exp, x.tolist()), float, len(x))


def _dense(k1, k3, k4, k5, k6, k7):
    """The four quartic coefficients of one variable from its slopes at
    the stages, floats or arrays alike, summed left to right."""
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


def _bisect_theta(w0: float, h: float, qw: tuple, target: float,
                  t_max: float = 1.0) -> float:
    """Bisect g(theta) = w(theta) - target on [0, t_max].

    The trajectory is monotone decreasing in w = ln alpha, so the
    crossing is unique; iterate until |w - target| <= 1e-14 (alpha within
    a relative 1e-14 of its level) or the interval is exhausted.
    """
    lo, hi = 0.0, t_max
    if w0 == target:
        return 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        g = _quartic(w0, h, qw, mid) - target
        if abs(g) <= 1e-14 or (hi - lo) <= 4.0 * _EPS:
            return mid
        if g > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _Integration:
    """Mutable stepping state shared across the legs of one integration.

    Steps in (w, p) = (ln alpha, beta/alpha); ``state`` is the (alpha,
    beta) point where the last leg stopped, the start until one moves.
    """

    __slots__ = ("v", "control", "y", "w", "p", "h", "state",
                 "n_steps", "n_rejects", "trajectory")

    def __init__(self, v: float, start: PhaseState, y0: float,
                 control: IntegrationControl) -> None:
        a = start.alpha
        self.v = v
        self.control = control
        self.y = y0
        # next to the saddle a = 1 - eps and a - 1 is exact, so log1p
        # keeps every digit of eps; elsewhere log is the accurate form
        self.w = math.log1p(a - 1.0) if a > 0.5 else math.log(a)
        self.p = start.beta / a
        self.h = control.initial_step
        self.state = start
        self.n_steps = 0
        self.n_rejects = 0
        self.trajectory = Trajectory(y0)

    def advance_to_alpha(self, rate: Callable[[float], float],
                         alpha_stop: float) -> bool:
        """Step forward until alpha first equals ``alpha_stop`` (> 0).

        Returns True on the event (state snapped to the crossing) and
        False when the trajectory has covered ``_MAX_SPAN`` of y first.
        The rate callable is f(alpha) and must be smooth over the leg;
        zone switching is the caller's job.
        """
        traj = self.trajectory
        v = self.v
        tol = self.control.tol
        y_limit = traj.y_start + _MAX_SPAN
        w_stop = math.log(alpha_stop)
        exp = math.exp
        segments = traj._segments
        y, w, p, h = self.y, self.w, self.p, self.h
        u = exp(w)
        dp = -p * (p + v) - rate(u) / u
        while True:
            if y >= y_limit or w > _W_MAX:
                # alpha > 2 only happens for malformed reactions: the
                # phase path has left the wave region and cannot come back
                self._store(y, w, p, h)
                return False
            # the per-step control is written with comparisons, not with
            # max/min/abs calls, and picks the same floats those would
            h_min = 1e-14 * (y if y > 1.0 else -y if y < -1.0 else 1.0)
            if h < h_min:
                if p * h_min < -1e-4:
                    # alpha falls to 0 within 1e4 * h_min, and with it w
                    # to -inf: steps cannot resolve that approach in y
                    self._cross_linearly(y, w, p, h, w_stop, alpha_stop)
                    return True
                raise StepFailure(f"step size underflow at y={y}: h={h}")

            # w' = p, so the w-stage slopes are the p-stage values
            try:
                w2 = w + h * (_A21 * p)
                p2 = p + h * (_A21 * dp)
                u = exp(w2); dp2 = -p2 * (p2 + v) - rate(u) / u
                w3 = w + h * (_A31 * p + _A32 * p2)
                p3 = p + h * (_A31 * dp + _A32 * dp2)
                u = exp(w3); dp3 = -p3 * (p3 + v) - rate(u) / u
                w4 = w + h * (_A41 * p + _A42 * p2 + _A43 * p3)
                p4 = p + h * (_A41 * dp + _A42 * dp2 + _A43 * dp3)
                u = exp(w4); dp4 = -p4 * (p4 + v) - rate(u) / u
                w5 = w + h * (_A51 * p + _A52 * p2 + _A53 * p3 + _A54 * p4)
                p5 = p + h * (_A51 * dp + _A52 * dp2 + _A53 * dp3
                              + _A54 * dp4)
                u = exp(w5); dp5 = -p5 * (p5 + v) - rate(u) / u
                w6 = w + h * (_A61 * p + _A62 * p2 + _A63 * p3 + _A64 * p4
                              + _A65 * p5)
                p6 = p + h * (_A61 * dp + _A62 * dp2 + _A63 * dp3
                              + _A64 * dp4 + _A65 * dp5)
                u = exp(w6); dp6 = -p6 * (p6 + v) - rate(u) / u
                w_new = w + h * (_B1 * p + _B3 * p3 + _B4 * p4 + _B5 * p5
                                 + _B6 * p6)
                p_new = p + h * (_B1 * dp + _B3 * dp3 + _B4 * dp4
                                 + _B5 * dp5 + _B6 * dp6)
                u = exp(w_new); dp7 = -p_new * (p_new + v) - rate(u) / u
            except (OverflowError, ZeroDivisionError):
                # a trial step reaching far past a blow-up of p sends
                # e^w out of the float range: reject it like a NaN
                err = math.inf
            else:
                err_w = h * (_E1 * p + _E3 * p3 + _E4 * p4 + _E5 * p5
                             + _E6 * p6 + _E7 * p_new)
                err_p = h * (_E1 * dp + _E3 * dp3 + _E4 * dp4 + _E5 * dp5
                             + _E6 * dp6 + _E7 * dp7)
                # max(|a|, |b|) passes over a NaN b, as max(abs(a), abs(b))
                m = w if w > 0.0 else -w
                m_new = w_new if w_new > 0.0 else -w_new
                sw = tol + tol * (m_new if m_new > m else m)
                m = p if p > 0.0 else -p
                m_new = p_new if p_new > 0.0 else -p_new
                sp = tol + tol * (m_new if m_new > m else m)
                err = math.sqrt(0.5 * ((err_w / sw) ** 2 + (err_p / sp) ** 2))

            if not err <= 1.0:  # rejects NaN estimates as well
                self.n_rejects += 1
                # 0 for an infinite err and NaN for a NaN one: both shrink
                # h by _MIN_FACTOR
                factor = _SAFETY * err ** -0.2
                h *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
                continue

            # the dense output's coefficients wait for the path's first
            # read (Trajectory._table); only the event step forms its own
            segments.append((y, h, w, p, p, p3, p4, p5, p6, p_new,
                             dp, dp3, dp4, dp5, dp6, dp7, 0.0))
            self.n_steps += 1
            # err <= 1 here, so the factor is at least _SAFETY > _MIN_FACTOR
            factor = _SAFETY * err ** -0.2 if err else _MAX_FACTOR
            if factor > _MAX_FACTOR:
                factor = _MAX_FACTOR

            if w_new <= w_stop:
                t = _bisect_theta(w, h, _dense(p, p3, p4, p5, p6, p_new),
                                  w_stop)
                y_event = y + t * h
                p_event = _quartic(p, h, _dense(dp, dp3, dp4, dp5, dp6, dp7),
                                   t)
                # snap alpha to the target; the interpolant agrees to a
                # relative 1e-14
                self.y, self.w, self.p = y_event, w_stop, p_event
                self.state = PhaseState(alpha_stop, alpha_stop * p_event)
                self.h = h * factor
                traj.y_end, traj._w_end = y_event, w_stop
                return True

            y += h
            w, p, dp = w_new, p_new, dp7  # FSAL
            h *= factor

    def _store(self, y: float, w: float, p: float, h: float) -> None:
        a = math.exp(w)
        self.y, self.w, self.p, self.h = y, w, p, h
        self.state = PhaseState(a, a * p)
        self.trajectory.y_end, self.trajectory._w_end = y, w

    def _cross_linearly(self, y: float, w: float, p: float, h: float,
                        w_stop: float, alpha_stop: float) -> None:
        """Snap to a level that alpha crosses within 1/|p| of y.

        Over so short a distance alpha is a straight line of slope beta
        to far below any tolerance, so the crossing is its linear root;
        one straight segment in (w, p) bridges the gap.
        """
        a = math.exp(w)
        beta = a * p
        s = max(0.0, (alpha_stop - a) / beta)  # a may round below the level
        p_event = beta / alpha_stop
        if s > 0.0:
            self.trajectory._segments.append(
                (y, s, w, p, (w_stop - w) / s, 0.0, 0.0, 0.0, 0.0, 0.0,
                 (p_event - p) / s, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0))
            self.n_steps += 1
        self.y, self.w, self.p, self.h = y + s, w_stop, p_event, h
        self.state = PhaseState(alpha_stop, beta)
        self.trajectory.y_end, self.trajectory._w_end = y + s, w_stop

    def record(self) -> EventRecord:
        return EventRecord(y_event=self.y, state=self.state,
                           n_steps=self.n_steps, n_rejects=self.n_rejects,
                           log_slope=self.p)


def unstable_manifold_start(cutoff: CutoffReaction, v: float,
                            epsilon: float = 1e-10) -> PhaseState:
    """Linearized point on the saddle's unstable manifold entering the
    region 0 < alpha < 1, beta < 0: (1 - eps, -lambda_plus(v) * eps)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return PhaseState(1.0 - epsilon, -lambda_plus(cutoff.base, v) * epsilon)


def _trace(v: float, start: PhaseState, control: IntegrationControl | None,
           y0: float, *legs: tuple) -> tuple[EventRecord, Trajectory]:
    """Step from ``start`` through ``legs``, (rate, level) pairs of smooth
    dynamics, to the last level; a leg whose level the path has already
    reached is skipped.  Raises as ``trace_until_alpha`` does."""
    if control is None:
        control = IntegrationControl()
    target = legs[-1][1]
    # written so that NaN fails them too
    if not v >= 0.0:
        raise ValueError("speed must be non-negative")
    if not (target > 0.0 and start.alpha >= target):
        raise ValueError("need start.alpha >= alpha_target > 0")
    run = _Integration(v, start, y0, control)
    for rate, level in legs:
        if run.state.alpha > level and not run.advance_to_alpha(rate, level):
            raise SpanExceeded(
                f"alpha={run.state.alpha:.6g} after span {_MAX_SPAN:g} "
                f"(target {target:g}); trajectory turned above the target")
    return run.record(), run.trajectory


def trace_until_alpha(cutoff: CutoffReaction, v: float, start: PhaseState,
                      alpha_target: float,
                      control: IntegrationControl | None = None,
                      ) -> tuple[EventRecord, Trajectory]:
    """Integrate the phase-plane system until alpha first hits the target.

    Returns the event record and the dense path.  Raises ValueError for
    a negative or NaN speed, or a target outside (0, start.alpha] (alpha
    = e^w never reaches 0); SpanExceeded when the trajectory turned,
    i.e. stalled above the target, seen once y has covered
    ``_MAX_SPAN``; and StepFailure on step-size underflow.
    """
    # legs of smooth dynamics: above the threshold the gated rate equals
    # the base reaction, at or below it the rate is identically zero
    return _trace(v, start, control, 0.0,
                  (cutoff.base.f, max(cutoff.u_c, alpha_target)),
                  (lambda _u: 0.0, alpha_target))


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

    A record-only shot against t = -ln U instead of y: while U falls,
    p = U'/U obeys dp/dt = (p + v) + g/p with g = f(U)/U, and the last
    step is clipped to land on t = -ln u_c, so there is no event search.
    Once (p + v)^2 > 1/tol the rest of the leg is finished in closed
    form, p = (p + v)*e^(t_end - t) - v: g <= 1 for a normalised KPP
    reaction and |p| grows, so the dropped term moves p + v by less than
    tol relative.  Returns (p, steps, rejects), the tail counting as a step.
    A stage with p >= 0 (U has stopped falling) is rejected; a path that
    turns therefore ends in step-size underflow, raised as SpanExceeded,
    or as StepFailure when the last trial step went non-finite.

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
    f = cutoff.base.f
    exp = math.exp
    tol = control.tol
    t = -(math.log1p(a - 1.0) if a > 0.5 else math.log(a))
    t_end = -math.log(cutoff.u_c)
    p = start.beta / a
    if t >= t_end:
        return p, 0, 0
    h = control.initial_step
    n_steps = n_rejects = 0
    dp = p + v + f(a) / a / p
    err = 0.0
    record = None
    # while i < 0, steps[i] is the grid's next step: i counts up from
    # -len(steps), so the grid's last step is known by its position
    steps, i = (), 0
    if grid is not None and not grid.steps:
        grid.span, record = (t, t_end), grid.steps
    elif grid is not None:
        if grid.span != (t, t_end):
            raise ValueError("the step grid was recorded from another start "
                             "or to another threshold")
        steps, i = grid.steps, -len(grid.steps)
    while True:
        q = p + v
        if q * q * tol > 1.0:
            try:
                return q * exp(t_end - t) - v, n_steps + 1, n_rejects
            except OverflowError:  # q < 0 here
                return -math.inf, n_steps + 1, n_rejects
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
                        f"turned above u_c={cutoff.u_c:g}")
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
        t += h
        p, dp = p_new, dp7  # FSAL
        if i:  # replayed: the grid, not the step factor, sizes the next
            i += 1
            if i or not grid.lands:
                continue
            return p, n_steps, n_rejects  # the grid's last step landed
        if record is not None:
            record.append((h, g2, g3, g4, g5, g6))
            grid.lands = last
        if last:
            return p, n_steps, n_rejects
        # err <= 1 here, so the factor is at least _SAFETY > _MIN_FACTOR
        factor = _SAFETY * err ** -0.2 if err else _MAX_FACTOR
        h *= factor if factor < _MAX_FACTOR else _MAX_FACTOR


def trace_field_until_alpha(rate: Callable[[float], float], v: float,
                            start: PhaseState, alpha_target: float,
                            control: IntegrationControl | None = None,
                            y0: float = 0.0,
                            ) -> tuple[EventRecord, Trajectory]:
    """Integrate a single smooth vector field until alpha hits the target.

    Used for reaction functions without a cut-off (no zone splitting);
    ``y0`` offsets the independent variable so chained legs line up.
    Speed, target and failures as for ``trace_until_alpha``.
    """
    return _trace(v, start, control, y0, (rate, alpha_target))
