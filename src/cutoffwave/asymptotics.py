"""Closed-form speed expansions in the small- and large-threshold limits.

Small u_c:  v*(u_c) = 2 - pi^2/L^2 - 2*pi^2*((A+B)/A + ln A)/L^3 + o(L^-3)
with L = ln u_c and (A, B) the leading-edge constants of the
minimum-speed wave without cut-off.  The front sits a scaled distance
yhat_c = pi + ((A+B)/A)*pi/L ahead of the half-height point.

Large u_c (delta = 1 - u_c):  v*(u_c) = delta*V0 + delta^2*V1 + o(delta^2)
with V0 = |f'(1)|^(1/2) and V1 = (1/6)*V0*(3 + f''(1)/|f'(1)|), obtained
from a regular expansion of the phase path between the saddle and the
threshold line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .reaction import ReactionSpec
from .reference import AsymptoticConstants
from .solver import WaveSolution


@dataclass(frozen=True)
class SmallUcPrediction:
    u_c: float
    two_term: float
    three_term: float
    vbar: float
    y_hat_c: float
    #: yhat_c/sqrt(vbar); NaN once the three-term speed reaches 2 (vbar <= 0)
    y_bar_c: float
    #: front location rescaled with a measured 2 - v* when one is supplied
    y_bar_c_measured: float | None = None


@dataclass(frozen=True)
class LargeUcPrediction:
    u_c: float
    delta: float
    one_term: float
    two_term: float
    V0: float
    V1: float


def small_uc_speed(u_c: float, constants: AsymptoticConstants,
                   vbar_measured: float | None = None) -> SmallUcPrediction:
    """Evaluate the two- and three-term small-threshold speed formulas."""
    if not 0.0 < u_c < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {u_c}")
    a, b = constants.a_inf, constants.b_inf
    if not (0.0 < a < math.inf and abs(b) < math.inf):  # NaN fails it too
        raise ValueError("leading-edge constants need A finite and positive "
                         f"and B finite, got A={a!r}, B={b!r}")
    log_uc = math.log(u_c)
    pi2 = math.pi ** 2
    two_term = 2.0 - pi2 / log_uc ** 2
    shape = (a + b) / a + math.log(a)
    correction = 2.0 * pi2 * shape / log_uc ** 3
    three_term = two_term - correction
    vbar = 2.0 - three_term
    y_hat_c = math.pi + (a + b) / a * math.pi / log_uc
    y_bar_c = y_hat_c / math.sqrt(vbar) if vbar > 0.0 else math.nan
    measured = None
    if vbar_measured is not None:
        if vbar_measured <= 0.0:
            raise ValueError("measured 2 - v* must be positive")
        measured = y_hat_c / math.sqrt(vbar_measured)
    return SmallUcPrediction(u_c=u_c, two_term=two_term,
                             three_term=three_term, vbar=vbar,
                             y_hat_c=y_hat_c, y_bar_c=y_bar_c,
                             y_bar_c_measured=measured)


def large_uc_speed(u_c: float, reaction: ReactionSpec) -> LargeUcPrediction:
    """Evaluate the one- and two-term large-threshold speed formulas."""
    if not 0.0 < u_c < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {u_c}")
    delta = 1.0 - u_c
    fp = abs(reaction.fprime_at_1)
    fpp = reaction.fdoubleprime_at_1
    v0 = math.sqrt(fp)
    v1 = v0 * (3.0 + fpp / fp) / 6.0
    return LargeUcPrediction(u_c=u_c, delta=delta, one_term=delta * v0,
                             two_term=delta * v0 + delta * delta * v1,
                             V0=v0, V1=v1)


def large_uc_phase_path(alpha: float, u_c: float,
                        reaction: ReactionSpec) -> float:
    """Two-term expansion of the heteroclinic phase path beta(alpha)."""
    if not u_c <= alpha <= 1.0:
        raise ValueError("need u_c <= alpha <= 1")
    fp = abs(reaction.fprime_at_1)
    fpp = reaction.fdoubleprime_at_1
    w = 1.0 - alpha
    return (-0.5 * math.sqrt(fp) * (1.0 + u_c) * w
            - fpp / math.sqrt(fp) * w * w / 6.0)


def measure_front_location(solution: WaveSolution) -> float:
    """Distance in y from the half-height point to the threshold point,
    ``-solution.y_half``, read off the dense path.

    Positive for u_c < 1/2 and growing without bound as the threshold
    shrinks; compare against SmallUcPrediction.y_bar_c.
    """
    return -solution.y_half
