"""Golden bits of the step loop, and a guard on its form.

The slope shots below were recorded with the step loop written with the
builtins ``max``, ``min`` and ``abs``; the loop now uses conditional
expressions instead, which must leave every bit unchanged.  The speed
brackets were recorded when a speed-only solve still ended with a
``y``-shot at v*, and the residuals with the rule that replaced it (the
bracket end further from zero).  Speeds, brackets and residuals were
recorded again once each search stage replayed its first shot's step
grid, which moved speeds by at most 5.8e-15; the slope shots are still
taken around the speeds found before.  The replayed shots were recorded
while a replay still ran in a loop of its own beside the adaptive one.
The dense paths (``Y_SHOTS``, ``CLAMPED_Y_SHOTS`` and the non-finite
rejects) were recorded when a dense leg became the slope loop stepping in
t = -ln U, with y its quadrature.  ``SOLVE_BITS`` and the default
profiles of full solves (``PROFILES``) were recorded once more when stage
2 came to open on Newton pairs from stage 1's secant slope, which moved
speeds by at most 7.8e-15; the rest go through no ``solve_speed`` and
kept their bits.  Floats are compared through ``float.hex``.
"""

import ast
import hashlib
import inspect
import textwrap

import numpy as np
import pytest

from cutoffwave import (IntegrationControl, PhaseState, by_name, fisher,
                        make_cutoff, solve_speed, trace_field_until_alpha,
                        trace_until_alpha, unstable_manifold_start)
from cutoffwave import integrator
from cutoffwave.integrator import StepGrid, shoot_slope

#: v*(u_c) of the default solve before each search stage replayed a step
#: grid, per (reaction, u_c): the slope shots below are taken around them
SPEEDS = {
    ("fisher", 0.5): "0x1.1eba1cfa7a378p-1",
    ("fisher", 0.001): "0x1.ce9d2ce69a9e4p+0",
    ("fisher", 1e-10): "0x1.faf146b672773p+0",
    ("fisher", 1e-300): "0x1.fffea4089d032p+0",
    ("cubic", 0.5): "0x1.6fde39a0fc32ep-1",
    ("cubic", 0.001): "0x1.dad85e8f54c03p+0",
    ("cubic", 1e-10): "0x1.fb9e2ae026f34p+0",
    ("cubic", 1e-300): "0x1.fffea5d0b98a8p+0",
}

#: v*(u_c) of the default solve, (lo, hi) of its final speed bracket and
#: the residual, per (reaction, u_c)
SOLVE_BITS = {
    ("fisher", 0.5): (
        "0x1.1eba1cfa7a38dp-1",
        "0x1.1eba1cfa7a361p-1", "0x1.1eba1cfa7a3b9p-1",
        "-0x1.0000000000000p-48"),
    ("fisher", 0.001): (
        "0x1.ce9d2ce69a9f1p+0",
        "0x1.ce9d2ce69a9dcp+0", "0x1.ce9d2ce69aa06p+0",
        "0x1.0f5c28f5c28f6p-54"),
    ("fisher", 1e-10): (
        "0x1.faf146b672778p+0",
        "0x1.faf146b672763p+0", "0x1.faf146b67278dp+0",
        "-0x1.c5c3674a1b6a1p-73"),
    ("fisher", 1e-300): (
        "0x1.fffea4089d02fp+0",
        "0x1.fffea4089d01ap+0", "0x1.fffea4089d044p+0",
        "-0x1.83b391bec68fap-1021"),
    ("cubic", 0.5): (
        "0x1.6fde39a0fc32fp-1",
        "0x1.6fde39a0fc303p-1", "0x1.6fde39a0fc35bp-1",
        "0x1.e800000000000p-49"),
    ("cubic", 0.001): (
        "0x1.dad85e8f54c10p+0",
        "0x1.dad85e8f54bfbp+0", "0x1.dad85e8f54c25p+0",
        "0x1.8624dd2f1a9fcp-54"),
    ("cubic", 1e-10): (
        "0x1.fb9e2ae026f27p+0",
        "0x1.fb9e2ae026f12p+0", "0x1.fb9e2ae026f3cp+0",
        "-0x1.966949abd6c43p-73"),
    ("cubic", 1e-300): (
        "0x1.fffea5d0b989bp+0",
        "0x1.fffea5d0b9886p+0", "0x1.fffea5d0b98b0p+0",
        "-0x1.c83365b25079ap-1022"),
}

# (reaction, u_c, tol) -> (p.hex(), steps, rejects) at v* + 1e-8,
# v* - 1e-8 and v* - 0.5
SLOPE_SHOTS = {
    ("fisher", 0.5, 1e-08): (
        ("-0x1.1eba1cbd29c96p-1", 19, 0),
        ("-0x1.1eba1cfdeea26p-1", 19, 0),
        ("-0x1.91bc93fd7d15ap-1", 18, 0),
    ),
    ("fisher", 0.5, 1e-12): (
        ("-0x1.1eba1cda17cd3p-1", 92, 4),
        ("-0x1.1eba1d1adca5cp-1", 92, 4),
        ("-0x1.91bc940ee0dfbp-1", 83, 2),
    ),
    ("fisher", 0.001, 1e-08): (
        ("-0x1.ce9d2ab709a85p+0", 77, 8),
        ("-0x1.ce9d2e76363efp+0", 77, 8),
        ("-0x1.33e530e3fc615p+5", 78, 3),
    ),
    ("fisher", 0.001, 1e-12): (
        ("-0x1.ce9d2b07045eep+0", 428, 16),
        ("-0x1.ce9d2ec630f0ep+0", 428, 16),
        ("-0x1.33e530f3812a2p+5", 461, 16),
    ),
    ("fisher", 1e-10, 1e-08): (
        ("-0x1.faf10ca033589p+0", 113, 13),
        ("-0x1.faf16dbdd453ep+0", 113, 13),
        ("-0x1.2528efb40527bp+27", 147, 5),
    ),
    ("fisher", 1e-10, 1e-12): (
        ("-0x1.faf11627a8485p+0", 645, 18),
        ("-0x1.faf17745498b1p+0", 645, 18),
        ("-0x1.2528ef8e7b8cfp+27", 1200, 18),
    ),
    ("fisher", 1e-300, 1e-08): (
        ("-0x1.ebb65d7921117p+0", 167, 32),
        ("-0x1.0b2c0d78eab7fp+1", 169, 32),
        ("-0x1.4c1e7656ee616p+990", 148, 7),
    ),
    ("fisher", 1e-300, 1e-12): (
        ("-0x1.ebf6be175496dp+0", 963, 19),
        ("-0x1.0b55dbf4cd077p+1", 975, 19),
        ("-0x1.4c1e7630d692bp+990", 1208, 20),
    ),
    ("cubic", 0.5, 1e-08): (
        ("-0x1.6fde397024cf8p-1", 21, 0),
        ("-0x1.6fde39b41dbe3p-1", 21, 0),
        ("-0x1.e38ccb8071bc6p-1", 16, 1),
    ),
    ("cubic", 0.5, 1e-12): (
        ("-0x1.6fde397effbbfp-1", 102, 8),
        ("-0x1.6fde39c2f8a9cp-1", 102, 8),
        ("-0x1.e38ccb8c8a50cp-1", 70, 5),
    ),
    ("cubic", 0.001, 1e-08): (
        ("-0x1.dad85ae821b87p+0", 69, 5),
        ("-0x1.dad8600b835d2p+0", 69, 5),
        ("-0x1.e05637ee6dd66p+5", 80, 4),
    ),
    ("cubic", 0.001, 1e-12): (
        ("-0x1.dad85bfda3f4fp+0", 387, 14),
        ("-0x1.dad8612105a9dp+0", 387, 14),
        ("-0x1.e05637ce01098p+5", 478, 13),
    ),
    ("cubic", 1e-10, 1e-08): (
        ("-0x1.fb9de376073eap+0", 96, 9),
        ("-0x1.fb9e5aae4434dp+0", 96, 9),
        ("-0x1.37027127e4864p+28", 140, 4),
    ),
    ("cubic", 1e-10, 1e-12): (
        ("-0x1.fb9def440ec61p+0", 555, 13),
        ("-0x1.fb9e667c4e1cfp+0", 555, 13),
        ("-0x1.37027100052e7p+28", 1165, 13),
    ),
    ("cubic", 1e-300, 1e-08): (
        ("-0x1.eb9fee493ffe4p+0", 148, 28),
        ("-0x1.0b4daf7becc76p+1", 150, 28),
        ("-0x1.6b7ee85e3251dp+991", 141, 5),
    ),
    ("cubic", 1e-300, 1e-12): (
        ("-0x1.ebd17f43a67d1p+0", 858, 16),
        ("-0x1.0b6dc1b7ff001p+1", 870, 16),
        ("-0x1.6b7ee824fd6d4p+991", 1170, 15),
    ),
}

# (reaction, u_c, v) -> EventRecord fields (y_event, alpha, beta as hex,
# n_steps, n_rejects, log_slope as hex) and, of the dense shot, the
# (alpha, beta) samples at 7 evenly spaced y
Y_SHOTS = {
    ("fisher", 0.5, 0.56): (
        ("0x1.dd1bc69fb192bp+4", "0x1.0000000000000p-1",
         "-0x1.1ebaca0bea0acp-2", 92, 4, "-0x1.1ebaca0bea0acp-1"),
        (
            "0x1.ffffffff24190p-1", "0x1.ffffffdac1ccfp-1",
            "0x1.fffff9b1465c7p-1", "0x1.fffeee8767777p-1",
            "0x1.ffd1b1252264ap-1", "0x1.f83623f4fb597p-1",
            "0x1.0000000000000p-1", "-0x1.4d930c9b1fbc2p-34",
            "-0x1.c3f50528cacd8p-29", "-0x1.322d210cf67e7p-23",
            "-0x1.9ed515c5a0987p-18", "-0x1.18efaf967c1e4p-12",
            "-0x1.776230c26fb0fp-7", "-0x1.1ebaca0bea0acp-2",
        ),
    ),
    ("fisher", 1e-10, 1.98): (
        ("0x1.3c289a0ff1308p+6", "0x1.b7cdfd9d7bdbbp-34",
         "-0x1.c3b1171f8dbb2p-33", 649, 16, "-0x1.06eb512ecb3abp+1"),
        (
            "0x1.ffffffff24190p-1", "0x1.ffffff2ec8d13p-1",
            "0x1.ffff38f332077p-1", "0x1.ff42d2e804294p-1",
            "0x1.71ee459723451p-1", "0x1.50320f1f65896p-12",
            "0x1.b7cdfd9d7bdb8p-34", "-0x1.6ef023c9308bfp-35",
            "-0x1.5d21dc1e4dd14p-27", "-0x1.4c243d750673ep-19",
            "-0x1.3b543b3608ad5p-11", "-0x1.735f2b51a31f4p-4",
            "-0x1.37d0e89b8d30ap-12", "-0x1.c3b1171f8dbafp-33",
        ),
    ),
    ("cubic", 0.001, 1.2): (
        ("0x1.aa65d0f345815p+4", "0x1.0624dd2f1a9fcp-10",
         "-0x1.9f5c1e8722ce6p-4", 479, 12, "-0x1.959ff5cff7fd8p+6"),
        (
            "0x1.ffffffff24190p-1", "0x1.ffffffc90d1d4p-1",
            "0x1.fffff244febf9p-1", "0x1.fffc91b1ff0fdp-1",
            "0x1.ff24d1d327d33p-1", "0x1.cd7d8aa1398f2p-1",
            "0x1.0624dd2f1aa01p-10", "-0x1.9bc207fe9cff8p-34",
            "-0x1.9b8ea5bcbe6bap-28", "-0x1.9b5b43cc59552p-22",
            "-0x1.9b237d4ef76cap-16", "-0x1.99db84ad8d3fap-10",
            "-0x1.5c5fcd3db9a06p-4", "-0x1.9f5c1e8722ce7p-4",
        ),
    ),
    ("fisher", 1e-20, 0.0): (
        ("0x1.7802ad1ac330bp+4", "0x1.79ca10c924223p-67",
         "-0x1.279a74590e3bdp-1", 3096, 5, "-0x1.909e028b8426ap+65"),
        (
            "0x1.ffffffff24190p-1", "0x1.ffffffd4d881dp-1",
            "0x1.fffff788022a7p-1", "0x1.fffe568c93357p-1",
            "0x1.ffac868c9dbfdp-1", "0x1.efc9e4bc3baf9p-1",
            "0x1.7f1812c015a39p-57", "-0x1.b7cdfd9d7bdbbp-34",
            "-0x1.593bf32033a98p-28", "-0x1.0effba6b5ccc0p-22",
            "-0x1.a972ec405dcd3p-17", "-0x1.4dd3a7b0bdb2dp-11",
            "-0x1.00a1251641817p-5", "-0x1.279a74590c5f3p-1",
        ),
    ),
}

#: offsets from v* of the slope shots in SLOPE_SHOTS, in order
OFFSETS = (1e-8, -1e-8, -0.5)


#: v*(5e-324) of the default solve with step grids replayed
TINY_SPEEDS = {
    ("fisher", 5e-324): "0x1.fffed473c13cap+0",
    ("cubic", 5e-324): "0x1.fffed5e029f5ep+0",
}

# (reaction, u_c, speed and tolerance a grid is recorded at) ->
# (p.hex(), steps, rejects) of shots at tolerance 1e-12 replaying it at
# v* + each of REPLAY_OFFSETS.  A grid that fits a replay gives no reject;
# one that fails a step goes on adaptively from there.
REPLAYED_SHOTS = {
    ("fisher", 0.001, "v*", 1e-12): (
        ("-0x1.ce9d2ce69aa72p+0", 428, 0),
        ("-0x1.ce9d2b07045fbp+0", 428, 0),
        ("-0x1.ce9d2ec630f1bp+0", 428, 0),
        ("-0x1.33e530f381a09p+5", 590, 3),
    ),
    ("fisher", 0.001, "v*", 1e-08): (
        ("-0x1.ce9d2ce69aaa7p+0", 428, 16),
        ("-0x1.ce9d2b070461dp+0", 428, 16),
        ("-0x1.ce9d2ec630f45p+0", 428, 16),
        ("-0x1.33e530f3811fep+5", 461, 15),
    ),
    ("fisher", 1e-10, 0.0, 1e-12): (
        ("-0x1.faf146b6746e0p+0", 645, 18),
        ("-0x1.faf11627a96c4p+0", 645, 18),
        ("-0x1.faf177454ab52p+0", 645, 18),
        ("-0x1.2528ef8e7b90ep+27", 1200, 18),
    ),
    ("fisher", 5e-324, "v*", 1e-12): (
        ("-0x1.fffed4fd42bbbp+0", 974, 0),
        ("-0x1.e74a336e11442p+0", 974, 0),
        ("-0x1.0e6d56ab8fab9p+1", 974, 0),
        ("-inf", 1375, 1),
    ),
    ("cubic", 0.5, "v*", 1e-12): (
        ("-0x1.6fde39a0fc32ep-1", 102, 0),
        ("-0x1.6fde397effbc0p-1", 102, 0),
        ("-0x1.6fde39c2f8a9ep-1", 102, 0),
        ("-0x1.e38ccb8c8a630p-1", 104, 2),
    ),
    ("cubic", 1e-10, "v*", 1e-08): (
        ("-0x1.fb9e2ae025ca6p+0", 555, 13),
        ("-0x1.fb9def440ec61p+0", 555, 13),
        ("-0x1.fb9e667c4e1cfp+0", 555, 13),
        ("-0x1.37027100052e7p+28", 1165, 13),
    ),
    ("cubic", 1e-10, 0.0, 1e-12): (
        ("-0x1.fb9e2ae025ca6p+0", 555, 13),
        ("-0x1.fb9def440ec61p+0", 555, 13),
        ("-0x1.fb9e667c4e1cfp+0", 555, 13),
        ("-0x1.37027100052e7p+28", 1165, 13),
    ),
    ("cubic", 1e-300, "v*", 1e-12): (
        ("-0x1.fffea56a8707ap+0", 864, 0),
        ("-0x1.ebd17f440c6ffp+0", 864, 0),
        ("-0x1.0b6dc1b787e6fp+1", 864, 0),
        ("-0x1.6b7ee824fe8c4p+991", 1283, 1),
    ),
    ("cubic", 5e-324, "v*", 1e-12): (
        ("-0x1.fffed539d634ap+0", 869, 0),
        ("-0x1.e7203c8c85ea5p+0", 869, 0),
        ("-0x1.0e8a017286efbp+1", 876, 5),
        ("-inf", 1283, 1),
    ),
}

#: offsets from v* of the replays in REPLAYED_SHOTS, in order
REPLAY_OFFSETS = (0.0, 1e-8, -1e-8, -0.5)

# (reaction, u_c, v) -> (p.hex(), steps, rejects) of a shot at v that
# replays every step of the v = 0 grid, which ends short of u_c in the
# closed-form tail, and then steps on adaptively
PAST_GRID_END = {
    ("fisher", 1e-10, 0.01): ("-0x1.545367c63a798p+32", 978, 0),
    ("cubic", 1e-10, 0.1): ("-0x1.7e5cb6cd19d90p+32", 953, 0),
}

# (reaction, u_c) -> SHA-256 of the default 1,201-sample profile of a full
# solve (its y, U and U' arrays, concatenated as little-endian doubles),
# y_half and y_event as hex
PROFILES = {
    ("fisher", 0.9): (
        "ed23b37919a48904f30fa73413d19de22b76c564b6199b362a47f4967a95c0d9",
        "0x1.71a3792de31f2p+2", "0x1.5d7d63ba9401bp+4"),
    ("fisher", 0.5): (
        "ab41c9e759b7847d7ede9195b6b72594e885ba7aa65bb56df5d65a58479c5bd8",
        "0x0.0p+0", "0x1.dd1c97e3d8671p+4"),
    ("fisher", 0.001): (
        "92622dc911f0feec3be965399785c20feee5a260a95fec76b44d63b5ba7d34c2",
        "-0x1.f6da4a149ce18p+2", "0x1.d9b21adca1936p+5"),
    ("fisher", 1e-08): (
        "d0685e4345bc5f72c97a11b6cb5357e73c4912eba583ff49740572cc8d54ca88",
        "-0x1.3c27243418208p+4", "0x1.29176f6fa4ce5p+6"),
    ("cubic", 0.9): (
        "11463e1f5c73b3df58aa15297e1a70f12053029fa9b2a7a51bf37fa5dc2bb454",
        "0x1.09e212c5d0939p+2", "0x1.ee431bbd5a6f5p+3"),
    ("cubic", 0.5): (
        "178d08d011548f78ef16d8faeed39d54481ecaea06c69fbaba9c6612705429d8",
        "0x0.0p+0", "0x1.4afce906f3d2bp+4"),
    ("cubic", 0.001): (
        "5df14c59266eaed5eec25bef92338e45865239efc31d3a00d2506c28f63d2dc5",
        "-0x1.a341fd2eaafb8p+2", "0x1.251ac60622f01p+5"),
    ("cubic", 1e-08): (
        "bea1a900331e13525bd64c1900ab711cf2bb9da930a2cba94323bca18e704c9f",
        "-0x1.1f94f41de360ep+4", "0x1.894197b895c53p+5"),
}


def _hex(*values):
    return tuple(float.hex(x) for x in values)


@pytest.mark.parametrize("name,u_c", list(SOLVE_BITS))
def test_speed_bits(name, u_c):
    point = solve_speed(make_cutoff(by_name(name), u_c))
    assert _hex(point.v_star, *point.bracket,
                point.residual) == SOLVE_BITS[name, u_c]


@pytest.mark.parametrize("name,u_c", list(PROFILES))
def test_full_solve_profile_bits(name, u_c):
    sol = solve_speed(make_cutoff(by_name(name), u_c))
    prof = sol.profile
    data = np.concatenate([prof.y, prof.u, prof.uprime]).astype("<f8")
    assert prof.y.size == 1201
    assert (hashlib.sha256(data.tobytes()).hexdigest(),
            *_hex(sol.y_half, sol.y_event)) == PROFILES[name, u_c]


@pytest.mark.parametrize("name,u_c,tol", list(SLOPE_SHOTS))
def test_slope_shot_bits(name, u_c, tol):
    cut = make_cutoff(by_name(name), u_c)
    control = IntegrationControl(tol=tol)
    for dv, expected in zip(OFFSETS, SLOPE_SHOTS[name, u_c, tol]):
        v = float.fromhex(SPEEDS[name, u_c]) + dv
        p, steps, rejects = shoot_slope(
            cut, v, unstable_manifold_start(cut, v), control)
        assert (p.hex(), steps, rejects) == expected, dv


def _record_bits(record):
    return (*_hex(record.y_event, record.state.alpha, record.state.beta),
            record.n_steps, record.n_rejects, record.log_slope.hex())


def _sample_bits(traj):
    a, b = traj.sample(np.linspace(traj.y_start, traj.y_end, 7))
    return _hex(*a.tolist(), *b.tolist())


@pytest.mark.parametrize("name,u_c,v", list(Y_SHOTS))
def test_y_shot_bits(name, u_c, v):
    cut = make_cutoff(by_name(name), u_c)
    start = unstable_manifold_start(cut, v)
    fields, samples = Y_SHOTS[name, u_c, v]
    record, traj = trace_until_alpha(cut, v, start, u_c)
    assert _record_bits(record) == fields
    assert _sample_bits(traj) == samples


def test_non_finite_reject_bits():
    # a first step of 1 sends the stages out of the float range: the
    # rejects then shrink h by _MIN_FACTOR; the zero rate of the region
    # ahead of a threshold
    control = IntegrationControl(initial_step=1.0)
    record, traj = trace_field_until_alpha(lambda _u: 0.0, 0.0,
                                           PhaseState(1e-3, -1.0), 1e-6,
                                           control)
    assert _record_bits(record) == (
        "0x1.05e1c15096c0ep-10", "0x1.0c6f7a0b5ed8dp-20",
        "-0x1.00000000018bbp+0", 463, 3, "-0x1.e848000002f2cp+19")
    assert _sample_bits(traj) == (
        "0x1.0624dd2f1a9fdp-10", "0x1.b4fe79ee02dd1p-11",
        "0x1.5db3397dd0398p-11", "0x1.0667f90d9dc36p-11",
        "0x1.5e39713ad647bp-12", "0x1.5f45e0b4e1cabp-13",
        "0x1.0c6f7a0b5ed8fp-20", "-0x1.0000000000001p+0",
        "-0x1.000000000029bp+0", "-0x1.000000000020cp+0",
        "-0x1.00000000005efp+0", "-0x1.00000000007c9p+0",
        "-0x1.00000000009dcp+0", "-0x1.00000000018bdp+0")


def test_coefficient_table_equals_scalar_form():
    # a read path sums each step's stage products in numpy, all rows at
    # once; the scalar form of the same sums is the reference.  The
    # remainder of y starts each step with the slope -1/p - inv/t.
    cut = make_cutoff(fisher(), 1e-20)
    _, traj = trace_until_alpha(cut, 0.0, unstable_manifold_start(cut, 0.0),
                                1e-20)
    for seg, row in zip(traj._segments, traj._table().tolist()):
        t, h, r, p, *k = seg
        assert k[0] == -1.0 / p - traj._inv / t
        coefficients = (*integrator._dense(*k[:6]),
                        *integrator._dense(*k[6:]))
        assert _hex(*row) == _hex(t, h, r, p, *coefficients)


#: shots whose steps grow by the full factor 10 (a first step of 1e-12,
#: or a loose tolerance), with the bits and counts they gave
CLAMPED_SLOPE_SHOTS = [
    (("fisher", 0.5, 1.0, 1e-10, 1e-12), ("-0x1.ade8f4d0c8327p-2", 57, 2)),
    (("cubic", 1e-3, 0.0, 1e-4, 1e-4), ("-0x1.6194517ba5172p+9", 13, 2)),
    (("fisher", 1e-10, 1.9, 1e-6, 1e-12), ("-0x1.38b314a9cf329p+17", 90, 14)),
]
CLAMPED_Y_SHOTS = [
    (("fisher", 0.5, 1.0),
     ("0x1.25bf4812882a8p+5", "0x1.0000000000000p-1",
      "-0x1.ade8f4d1573f0p-3", 121, 2, "-0x1.ade8f4d1573f0p-2")),
    (("cubic", 0.001, 1.5),
     ("0x1.e440eeafc3d17p+4", "0x1.0624dd2f1a9fcp-10",
      "-0x1.ff1d420676740p-6", 480, 6, "-0x1.f322927a4fad4p+4")),
]


@pytest.mark.parametrize("case,expected", CLAMPED_SLOPE_SHOTS)
def test_clamped_slope_shot_bits(case, expected):
    name, u_c, v, tol, h0 = case
    cut = make_cutoff(by_name(name), u_c)
    control = IntegrationControl(tol=tol, initial_step=h0)
    p, steps, rejects = shoot_slope(cut, v, unstable_manifold_start(cut, v),
                                    control)
    assert (p.hex(), steps, rejects) == expected


@pytest.mark.parametrize("case,expected", CLAMPED_Y_SHOTS)
def test_clamped_y_shot_bits(case, expected):
    name, u_c, v = case
    cut = make_cutoff(by_name(name), u_c)
    record, _ = trace_until_alpha(cut, v, unstable_manifold_start(cut, v),
                                  u_c, IntegrationControl(initial_step=1e-12))
    assert _record_bits(record) == expected


def _grid(cut, v, tol):
    grid = StepGrid()
    control = IntegrationControl(tol=tol)
    shoot_slope(cut, v, unstable_manifold_start(cut, v), control, grid=grid)
    return grid


def _replay(cut, v, grid):
    p, steps, rejects = shoot_slope(cut, v, unstable_manifold_start(cut, v),
                                    grid=grid)
    return p.hex(), steps, rejects


@pytest.mark.parametrize("name,u_c,recorded_at,tol", list(REPLAYED_SHOTS))
def test_replayed_shot_bits(name, u_c, recorded_at, tol):
    cut = make_cutoff(by_name(name), u_c)
    v_star = float.fromhex({**SPEEDS, **TINY_SPEEDS}[name, u_c])
    grid = _grid(cut, v_star if recorded_at == "v*" else recorded_at, tol)
    recorded = list(grid.steps)
    for dv, expected in zip(REPLAY_OFFSETS,
                            REPLAYED_SHOTS[name, u_c, recorded_at, tol]):
        assert _replay(cut, v_star + dv, grid) == expected, dv
    assert grid.steps == recorded


@pytest.mark.parametrize("name,u_c,v", list(PAST_GRID_END))
def test_replay_past_grid_end_bits(name, u_c, v):
    cut = make_cutoff(by_name(name), u_c)
    grid = _grid(cut, 0.0, 1e-12)
    assert not grid.lands
    assert _replay(cut, v, grid) == PAST_GRID_END[name, u_c, v]


def _source(fn):
    return ast.parse(textwrap.dedent(inspect.getsource(fn)))


def _loop_source():
    return _source(integrator._shoot)


@pytest.mark.parametrize("fn", [integrator.shoot_slope,
                                integrator._Integration.advance_to_alpha])
def test_step_loops_call_no_builtins(fn):
    """Each step is a few dozen float operations, so a builtin call per
    step is a measurable share of its cost: the loop compares instead.
    A slope shot and a dense leg both step in the one loop, ``_shoot``."""
    assert "_shoot" in {ast.unparse(n.func) for n in ast.walk(_source(fn))
                        if isinstance(n, ast.Call)}
    loops = [n for n in ast.walk(_loop_source())
             if isinstance(n, (ast.While, ast.For))]
    assert loops
    called = {n.func.id for loop in loops for n in ast.walk(loop)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert not called & {"max", "min", "abs"}


def test_y_step_loop_defers_dense_output():
    """A dense step stores its stage slopes; the quartic coefficients are
    built when the path is read, never in the step loop."""
    dense = {"_P1", "_P3", "_P4", "_P5", "_P6", "_P7", "_dense"}
    loop, = [n for n in ast.walk(_loop_source()) if isinstance(n, ast.While)]
    stored = [n for n in ast.walk(loop) if isinstance(n, ast.Call)
              and ast.unparse(n.func) == "record.append"]
    assert len(stored) == 2  # a dense step, and a step of a grid
    assert not [n for n in ast.walk(loop)
                if isinstance(n, ast.Name) and n.id in dense]


def test_one_step_loop():
    """One function of the module steps: only it reads the tableau."""
    tree = ast.parse(inspect.getsource(integrator))
    users = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
             and any(isinstance(n, ast.Name) and n.id == "_A21"
                     for n in ast.walk(f))}
    assert users == {"_shoot"}
