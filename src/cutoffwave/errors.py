"""Exception hierarchy shared across the solver stack."""


class CutoffWaveError(Exception):
    """Base class for numerical failures raised by this package."""


class SpanExceeded(CutoffWaveError):
    """Integration ran past the maximum span without reaching its target.

    For a shooting trajectory this signals that the phase path turned
    (stalled on a sub-threshold equilibrium) before the target level,
    i.e. the trial speed is above the wave speed.
    """


class StepFailure(CutoffWaveError):
    """The adaptive step controller underflowed the minimum step size."""


class NoSignChange(CutoffWaveError):
    """The shooting residual does not change sign over the admissible
    speed bracket; the reaction function is malformed."""


class MaxIterations(CutoffWaveError):
    """The speed search hit its shot cap before its bracket reached the
    width floor, or the speed missed the residual criterion."""


class InsufficientTail(CutoffWaveError):
    """The rear window of a profile holds too few samples for a fit."""


class WindowTooNarrow(CutoffWaveError):
    """The leading-edge fit window holds too few samples."""


class ProfileTooShort(CutoffWaveError):
    """A profile does not span the levels needed for a measurement."""
