"""KPP-type reaction functions and their cut-off variants.

A normalised KPP reaction f has f(0) = f(1) = 0, f'(0) = 1, f'(1) < 0 and
0 < f(u) <= u on (0,1).  The cut-off variant zeroes the rate for all
concentrations at or below a threshold u_c, which makes the rate jump by
f(u_c) across the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class ReactionSpec:
    """A KPP reaction with precomputed derivative data at u = 1.

    The derivatives are supplied in closed form rather than differenced:
    the asymptotic speed formulas need f'(1) and f''(1) to machine
    precision.  ``sup_f(u_c)`` must return sup of f over (u_c, 1].
    """

    name: str
    f: Callable[[float], float]
    fprime_at_1: float
    fdoubleprime_at_1: float
    sup_f: Callable[[float], float]

    def __post_init__(self) -> None:
        if abs(self.f(0.0)) > 1e-14 or abs(self.f(1.0)) > 1e-14:
            raise ValueError("reaction must vanish at u=0 and u=1")
        if self.fprime_at_1 >= 0.0:
            raise ValueError("reaction must have f'(1) < 0")


@dataclass(frozen=True)
class CutoffReaction:
    """A ReactionSpec gated at the threshold u_c.

    ``rate(u)`` returns 0 for u <= u_c and base.f(u) above it, so the
    rate is discontinuous at u_c with jump ``f_c_plus`` = base.f(u_c).
    """

    base: ReactionSpec
    u_c: float
    f_c_plus: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.u_c < 1.0:
            raise ValueError(
                f"cut-off threshold must lie in the open interval (0, 1), got {self.u_c}"
            )
        object.__setattr__(self, "f_c_plus", self.base.f(self.u_c))
        if self.f_c_plus <= 0.0:
            raise ValueError("reaction must be positive at the threshold")

    def rate(self, u: float) -> float:
        return self.base.f(u) if u > self.u_c else 0.0


def fisher() -> ReactionSpec:
    """The Fisher reaction f(u) = u(1-u)."""

    def f(u: float) -> float:
        return u * (1.0 - u)

    def sup_f(u_c: float) -> float:
        # f peaks at u = 1/2
        return 0.25 if u_c <= 0.5 else u_c * (1.0 - u_c)

    return ReactionSpec(name="fisher", f=f, fprime_at_1=-1.0,
                        fdoubleprime_at_1=-2.0, sup_f=sup_f)


def cubic_kpp() -> ReactionSpec:
    """The cubic KPP reaction f(u) = u(1-u^2)."""

    peak = 1.0 / math.sqrt(3.0)

    def f(u: float) -> float:
        return u * (1.0 - u * u)

    def sup_f(u_c: float) -> float:
        # f peaks at u = 1/sqrt(3)
        return f(peak) if u_c <= peak else f(u_c)

    return ReactionSpec(name="cubic", f=f, fprime_at_1=-2.0,
                        fdoubleprime_at_1=-6.0, sup_f=sup_f)


#: Reactions addressable by name from the CLI and config files.
BUILTIN_REACTIONS: dict[str, Callable[[], ReactionSpec]] = {
    "fisher": fisher,
    "cubic": cubic_kpp,
}


def by_name(name: str) -> ReactionSpec:
    try:
        return BUILTIN_REACTIONS[name]()
    except KeyError:
        raise ValueError(
            f"unknown reaction {name!r}; available: {sorted(BUILTIN_REACTIONS)}"
        ) from None


def make_cutoff(base: ReactionSpec, u_c: float) -> CutoffReaction:
    """Gate ``base`` at the threshold u_c in (0, 1)."""
    return CutoffReaction(base=base, u_c=u_c)


def lambda_plus(reaction: ReactionSpec, v: float) -> float:
    """Positive saddle eigenvalue (-v + sqrt(v^2 + 4|f'(1)|)) / 2.

    Governs the exponential approach of the wave rear to u = 1; strictly
    decreasing in v for v >= 0.
    """
    if not v >= 0.0:  # NaN fails it too
        raise ValueError("speed must be non-negative")
    a = abs(reaction.fprime_at_1)
    return 0.5 * (-v + math.sqrt(v * v + 4.0 * a))


def gamma_rate(reaction: ReactionSpec) -> float:
    """Rear decay rate -1 + sqrt(1 + |f'(1)|) of the minimum-speed wave
    without cut-off."""
    return -1.0 + math.sqrt(1.0 + abs(reaction.fprime_at_1))


def v_upper_bound(cutoff: CutoffReaction) -> float:
    """Guaranteed upper bracket sqrt(sup f / u_c) for the wave speed.

    Above this speed the shooting trajectory provably exits above the
    stable manifold, so the residual is positive.
    """
    return math.sqrt(cutoff.base.sup_f(cutoff.u_c) / cutoff.u_c)


def validate_kpp(spec: ReactionSpec, n: int = 10_000) -> None:
    """Check 0 < f(u) <= u on a dense interior grid; raises ValueError.

    Intended for user-supplied reactions; the built-ins satisfy this by
    construction.
    """
    for i in range(1, n):
        u = i / n
        fu = spec.f(u)
        if not 0.0 < fu <= u:
            raise ValueError(f"KPP bounds 0 < f(u) <= u violated at u={u}: f={fu}")
