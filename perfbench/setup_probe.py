"""Time one set-up of a workload in this fresh process and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED

run.py calls it after writing the workload's checkpoints to .perfbench/.
"""

import sys
import time

import run


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    run.import_hitkit()
    import workloads as W
    wl = W.WORKLOADS[name](seed, run.WORKDIR)
    t0 = time.perf_counter()
    wl.setup()
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
