"""Set-up probe: in a fresh interpreter, import cutoffwave and draw one
round of a workload's inputs, then print the seconds that took, as wall
time and scaled to the nominal host speed by the calibration loop timed
before and after (hostspeed.py).

Usage (from the checkout root): python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import time

from hostspeed import scale, spin_time

_SPIN0 = spin_time()
_T0 = time.perf_counter()


def main() -> None:
    import random
    import sys

    import run

    run.prepare()
    import workloads

    name, seed = sys.argv[1], sys.argv[2]
    workloads.WORKLOADS[name].make_round(random.Random(run.seed_key(name, seed)))
    wall = time.perf_counter() - _T0
    print(wall, scale(wall, _SPIN0, spin_time()))


if __name__ == "__main__":
    main()
