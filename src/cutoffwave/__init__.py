"""Travelling waves of KPP reaction-diffusion equations with a cut-off
reaction rate: the unique propagation speed v*(u_c), wave profiles, and
the closed-form speed expansions they are validated against."""

from .asymptotics import (LargeUcPrediction, SmallUcPrediction,
                          large_uc_phase_path, large_uc_speed,
                          measure_front_location, small_uc_speed)
from .errors import (CutoffWaveError, MaxIterations, NoSignChange,
                     SpanExceeded, StepFailure, WindowTooNarrow)
from .integrator import (EventRecord, IntegrationControl, PhaseState,
                         Trajectory, trace_field_until_alpha,
                         trace_until_alpha, unstable_manifold_start)
from .reaction import (BUILTIN_REACTIONS, CutoffReaction, ReactionSpec,
                       by_name, cubic_kpp, fisher, gamma_rate, lambda_plus,
                       make_cutoff, v_upper_bound, validate_kpp)
from .reference import (AsymptoticConstants, ReferenceWave,
                        fit_edge_constants, solve_reference)
from .solver import (Profile, ShootingConfig, SpeedCurve, WaveSolution,
                     assemble_profile, fit_rear_constant, profile_blocks,
                     shoot_residual, solve_speed, sweep)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticConstants", "BUILTIN_REACTIONS", "CutoffReaction",
    "CutoffWaveError", "EventRecord", "IntegrationControl",
    "LargeUcPrediction", "MaxIterations", "NoSignChange", "PhaseState",
    "Profile", "ReactionSpec", "ReferenceWave", "ShootingConfig",
    "SmallUcPrediction", "SpanExceeded", "SpeedCurve", "StepFailure",
    "Trajectory", "WaveSolution", "WindowTooNarrow", "assemble_profile",
    "by_name", "cubic_kpp", "fisher", "fit_edge_constants",
    "fit_rear_constant", "gamma_rate", "lambda_plus", "large_uc_phase_path",
    "large_uc_speed", "make_cutoff", "measure_front_location",
    "profile_blocks", "shoot_residual", "small_uc_speed", "solve_reference",
    "solve_speed", "sweep", "trace_field_until_alpha", "trace_until_alpha",
    "unstable_manifold_start", "v_upper_bound", "validate_kpp",
]
