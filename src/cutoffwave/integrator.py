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
A shot that needs only its event record (``dense=False``) stores no
segments and builds the interpolant only on the step that crosses the
event, where the crossing is localized.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PhaseState:
    """A point (alpha, beta) = (U_T, U_T') in the phase plane."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class IntegrationControl:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_span: float = 1e4
    initial_step: float = 1e-4

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_span <= 0.0 or self.initial_step <= 0.0:
            raise ValueError("max_span and initial_step must be positive")


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
        # per segment: (y0, h, w0, p0, qw, qp) with q* the quartic coeffs
        self._segments: list[tuple] = []
        # (y0, h, w0, p0, *qw, *qp) per segment, built when first sampled
        # (again after segments are added): unread shots never pay for it
        self._rows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._segments)

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
        if self._rows is None or len(self._rows) != len(self):
            self._rows = np.array([(y0, h, w0, p0, *qw, *qp) for
                                   y0, h, w0, p0, qw, qp in self._segments])
        i = np.searchsorted(self._rows[:, 0], ys, side="right") - 1
        y0, h, w0, p0, *q = self._rows[np.maximum(i, 0)].T
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
        polynomial.
        """
        if target <= 0.0:
            return None
        w_target = math.log(target)
        segments = self._segments
        for i, (y0, h, w0, p0, qw, qp) in enumerate(segments):
            y_stop = (segments[i + 1][0] if i + 1 < len(segments)
                      else self.y_end)
            t_max = min(1.0, (y_stop - y0) / h)
            w1 = _quartic(w0, h, qw, t_max)
            if w0 >= w_target >= w1:
                t = _bisect_theta(w0, h, qw, w_target, t_max)
                a = math.exp(_quartic(w0, h, qw, t))
                return (y0 + t * h, a, a * _quartic(p0, h, qp, t))
        return None

    def extend(self, other: "Trajectory") -> None:
        """Append a continuation leg; the legs must abut in y."""
        if abs(other.y_start - self.y_end) > 1e-9:
            raise ValueError("trajectories do not abut")
        self._segments.extend(other._segments)
        self.y_end = other.y_end


def exp_each(x: np.ndarray) -> np.ndarray:
    """``math.exp`` of every element of a 1-D array.

    np.exp differs from math.exp in the last bit for a few percent of
    arguments, which would change printed 17-digit profiles.
    """
    return np.fromiter(map(math.exp, x.tolist()), float, len(x))


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

    __slots__ = ("v", "control", "dense", "y", "w", "p", "h", "state",
                 "n_steps", "n_rejects", "trajectory")

    def __init__(self, v: float, start: PhaseState, y0: float,
                 control: IntegrationControl, *, dense: bool = True) -> None:
        a = start.alpha
        self.v = v
        self.control = control
        self.dense = dense
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
        False when the span budget runs out first.  The rate callable is
        f(alpha) and must be smooth over the leg; zone switching is the
        caller's job.
        """
        if self.state.alpha == alpha_stop:
            self.trajectory.y_end = self.y
            return True
        v = self.v
        atol = self.control.abs_tol
        rtol = self.control.rel_tol
        y_limit = self.trajectory.y_start + self.control.max_span
        w_stop = math.log(alpha_stop)
        exp = math.exp
        dense = self.dense
        segments = self.trajectory._segments
        y, w, p, h = self.y, self.w, self.p, self.h
        u = exp(w)
        dp = -p * (p + v) - rate(u) / u
        while True:
            if y >= y_limit or w > _W_MAX:
                # alpha > 2 only happens for malformed reactions: the
                # phase path has left the wave region and cannot come back
                self._store(y, w, p, h)
                return False
            h_min = 1e-14 * max(1.0, abs(y))
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
                sw = atol + rtol * max(abs(w), abs(w_new))
                sp = atol + rtol * max(abs(p), abs(p_new))
                err = math.sqrt(0.5 * ((err_w / sw) ** 2 + (err_p / sp) ** 2))

            if not err <= 1.0:  # rejects NaN estimates as well
                self.n_rejects += 1
                h *= _MIN_FACTOR if not math.isfinite(err) else max(
                    _MIN_FACTOR, _SAFETY * err ** -0.2)
                continue

            crossed = w_new <= w_stop
            if dense or crossed:
                qw = (_P1[0] * p + _P3[0] * p3 + _P4[0] * p4 + _P5[0] * p5
                      + _P6[0] * p6 + _P7[0] * p_new,
                      _P1[1] * p + _P3[1] * p3 + _P4[1] * p4 + _P5[1] * p5
                      + _P6[1] * p6 + _P7[1] * p_new,
                      _P1[2] * p + _P3[2] * p3 + _P4[2] * p4 + _P5[2] * p5
                      + _P6[2] * p6 + _P7[2] * p_new,
                      _P1[3] * p + _P3[3] * p3 + _P4[3] * p4 + _P5[3] * p5
                      + _P6[3] * p6 + _P7[3] * p_new)
                qp = (_P1[0] * dp + _P3[0] * dp3 + _P4[0] * dp4 + _P5[0] * dp5
                      + _P6[0] * dp6 + _P7[0] * dp7,
                      _P1[1] * dp + _P3[1] * dp3 + _P4[1] * dp4 + _P5[1] * dp5
                      + _P6[1] * dp6 + _P7[1] * dp7,
                      _P1[2] * dp + _P3[2] * dp3 + _P4[2] * dp4 + _P5[2] * dp5
                      + _P6[2] * dp6 + _P7[2] * dp7,
                      _P1[3] * dp + _P3[3] * dp3 + _P4[3] * dp4 + _P5[3] * dp5
                      + _P6[3] * dp6 + _P7[3] * dp7)
                if dense:
                    segments.append((y, h, w, p, qw, qp))
            self.n_steps += 1
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))

            if crossed:
                t = _bisect_theta(w, h, qw, w_stop)
                y_event = y + t * h
                p_event = _quartic(p, h, qp, t)
                # snap alpha to the target; the interpolant agrees to a
                # relative 1e-14
                self.y, self.w, self.p = y_event, w_stop, p_event
                self.state = PhaseState(alpha_stop, alpha_stop * p_event)
                self.h = h * factor
                self.trajectory.y_end = y_event
                return True

            y += h
            w, p, dp = w_new, p_new, dp7  # FSAL
            h *= factor

    def _store(self, y: float, w: float, p: float, h: float) -> None:
        a = math.exp(w)
        self.y, self.w, self.p, self.h = y, w, p, h
        self.state = PhaseState(a, a * p)
        self.trajectory.y_end = y

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
            if self.dense:
                self.trajectory._segments.append(
                    (y, s, w, p, ((w_stop - w) / s, 0.0, 0.0, 0.0),
                     ((p_event - p) / s, 0.0, 0.0, 0.0)))
            self.n_steps += 1
        self.y, self.w, self.p, self.h = y + s, w_stop, p_event, h
        self.state = PhaseState(alpha_stop, beta)
        self.trajectory.y_end = y + s

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


def trace_until_alpha(cutoff: CutoffReaction, v: float, start: PhaseState,
                      alpha_target: float,
                      control: IntegrationControl | None = None,
                      *, dense: bool = True,
                      ) -> tuple[EventRecord, Trajectory]:
    """Like :func:`integrate_until_alpha` but also returns the dense path.

    With ``dense`` false the returned path is empty: no segment is
    stored and the dense-output coefficients are built only on the step
    that crosses the event, so a shot that only needs its record (a
    bracket or bisection shot) costs no memory.  The record is the same.
    """
    if control is None:
        control = IntegrationControl()
    if v < 0.0:
        raise ValueError("speed must be non-negative")
    if alpha_target <= 0.0 or start.alpha < alpha_target:
        raise ValueError("need start.alpha >= alpha_target > 0")

    run = _Integration(v, start, 0.0, control, dense=dense)
    u_c = cutoff.u_c
    base_f = cutoff.base.f
    # legs of smooth dynamics: above the threshold the gated rate equals
    # the base reaction, at or below it the rate is identically zero
    if start.alpha > u_c:
        stop = u_c if alpha_target < u_c else alpha_target
        if not run.advance_to_alpha(base_f, stop):
            raise SpanExceeded(
                f"alpha={run.state.alpha:.6g} after span "
                f"{control.max_span:g} (target {alpha_target:g})")
    if run.state.alpha > alpha_target:
        if not run.advance_to_alpha(lambda _u: 0.0, alpha_target):
            raise SpanExceeded(
                f"alpha={run.state.alpha:.6g} after span "
                f"{control.max_span:g} (target {alpha_target:g}); "
                "trajectory turned above the target")
    return run.record(), run.trajectory


def integrate_until_alpha(cutoff: CutoffReaction, v: float, start: PhaseState,
                          alpha_target: float,
                          control: IntegrationControl | None = None,
                          ) -> EventRecord:
    """Integrate the phase-plane system until alpha first hits the target.

    The target must be positive (alpha = e^w never reaches 0), else
    ValueError.  Raises SpanExceeded when y outruns ``control.max_span``
    first (the trajectory turned, i.e. stalled above the target level)
    and StepFailure on step-size underflow.
    """
    record, _ = trace_until_alpha(cutoff, v, start, alpha_target, control,
                                  dense=False)
    return record


def trace_field_until_alpha(rate: Callable[[float], float], v: float,
                            start: PhaseState, alpha_target: float,
                            control: IntegrationControl | None = None,
                            y0: float = 0.0,
                            ) -> tuple[EventRecord, Trajectory]:
    """Integrate a single smooth vector field until alpha hits the target.

    Used for reaction functions without a cut-off (no zone splitting);
    ``y0`` offsets the independent variable so chained legs line up.
    The target must be positive, else ValueError.
    """
    if control is None:
        control = IntegrationControl()
    if alpha_target <= 0.0 or start.alpha < alpha_target:
        raise ValueError("need start.alpha >= alpha_target > 0")
    run = _Integration(v, start, y0, control)
    if not run.advance_to_alpha(rate, alpha_target):
        raise SpanExceeded(
            f"alpha={run.state.alpha:.6g} after span "
            f"{control.max_span:g} (target {alpha_target:g})")
    return run.record(), run.trajectory
