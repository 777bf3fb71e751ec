"""Child process that run.py times for setup_s.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports gwldp, parses the workload's specs, builds its model and computes
its first result, then prints ``ready``.  The parent times from process
start to that line.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name].first(seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
