"""Exact-count self-check: two traced runs with one seed must count alike.

    python3 perfbench/selfcheck.py [--seed N] [workload ...]

Runs ``run.py --trace 1`` twice per workload (all four by default) and
compares every per-layer metric whose unit is a count or bytes, such as the
``*.calls`` counts, ``ratefn.cgf_evals_per_point``, ``montecarlo.individuals``
and ``cli.csv_bytes``.  Exits 1 if any differs or a run reports an incorrect
output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_UNITS = ("count", "bytes")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=["rate-grid", "mc-simulate", "mc-tail-wide",
                                 "progeny-table"])
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first, second = (traced_run(workload, args.seed) for _ in range(2))
        exact = {name: m["value"] for name, m in first["metrics"].items()
                 if m["unit"] in EXACT_UNITS}
        differing = [name for name, value in exact.items()
                     if second["metrics"][name]["value"] != value]
        correct = first["correct"] and second["correct"]
        ok &= correct and not differing
        print(f"{workload}: {len(exact)} exact metrics, "
              f"{'all equal' if not differing else 'DIFFER: ' + ', '.join(differing)}"
              f"{'' if correct else ', INCORRECT OUTPUT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
