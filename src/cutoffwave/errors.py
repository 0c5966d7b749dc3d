"""Exception hierarchy shared across the solver stack."""


class CutoffWaveError(Exception):
    """Base class for numerical failures raised by this package."""


class SpanExceeded(CutoffWaveError):
    """The path turned before its target level: U stopped falling, so
    trial steps were rejected until the step size underflowed.

    For a cut-off shot this means the trial speed lies above the wave
    speed.
    """


class StepFailure(CutoffWaveError):
    """The step size underflowed after a NaN trial step (a non-finite rate)."""


class NoSignChange(CutoffWaveError):
    """The shooting residual does not change sign over the admissible
    speed bracket; the reaction function is malformed."""


class MaxIterations(CutoffWaveError):
    """The speed search hit its shot cap before its bracket reached the
    width floor, or the speed missed the residual criterion."""


class WindowTooNarrow(CutoffWaveError):
    """The leading-edge fit window holds too few samples."""
