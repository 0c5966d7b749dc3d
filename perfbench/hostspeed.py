"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the CPU speed a process gets changes by up to
1.7x, switching over seconds to minutes (see NOTES.md, "Noise").  A fixed
pure-Python loop, timed right before and right after an operation, tracks
that speed: over a minute in which one solve's wall time moved between
122 ms and 209 ms, its ratio to the loop's time stayed within 3%.

Every timed metric is therefore scaled to a nominal host, on which the
loop takes ``NOMINAL_SPIN_S``:

    scaled = wall time * NOMINAL_SPIN_S / (mean of the loop times around it)

The loop calls nothing of the program and allocates no tracked objects,
so a change to the program does not change the loop's time; it changes
the scaled time exactly as much as the wall time.  This module imports
only ``time``, so that a fresh interpreter can calibrate before it
imports anything else.
"""

from time import perf_counter

SPIN_ITERATIONS = 6000
SPIN_REPEATS = 3
#: seconds the loop takes on the nominal host; close to its time on a
#: 2-vCPU shared virtual machine (Python 3.11) in its faster state
NOMINAL_SPIN_S = 0.6e-3


def _spin() -> float:
    s = 0.0
    for i in range(SPIN_ITERATIONS):
        s += (i * 0.5) ** 0.5
    return s


def spin_time() -> float:
    """Median seconds of ``SPIN_REPEATS`` runs of the fixed loop."""
    times = []
    for _ in range(SPIN_REPEATS):
        t0 = perf_counter()
        _spin()
        times.append(perf_counter() - t0)
    return sorted(times)[SPIN_REPEATS // 2]


def scale(wall_s: float, spin_before: float, spin_after: float) -> float:
    """``wall_s`` at the nominal host speed."""
    return wall_s * NOMINAL_SPIN_S / (0.5 * (spin_before + spin_after))


class HostClock:
    """Scales each operation's wall time by the loop timed around it.

    ``start()`` times the loop just before an operation; ``scale(wall)``
    times it just after and returns the operation's scaled time.  The
    loop after one operation serves as the loop before the next, when
    ``start()`` is not called between them.  Totals of wall and scaled
    time are kept, so a run can print how fast the host was.
    """

    def __init__(self) -> None:
        self.before = self.spin_time()
        self.wall_s = 0.0
        self.scaled_s = 0.0

    def spin_time(self) -> float:
        return spin_time()

    def start(self) -> None:
        self.before = self.spin_time()

    def scale(self, wall_s: float) -> float:
        after = self.spin_time()
        scaled = scale(wall_s, self.before, after)
        self.before = after
        self.wall_s += wall_s
        self.scaled_s += scaled
        return scaled
