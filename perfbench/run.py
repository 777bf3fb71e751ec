"""gwldp benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload rate-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root (any checkout with src/gwldp).  The workloads
are in workloads.py, BENCHMARK.json lists the metrics, and README.md in this
directory defines them.

A run measures set-up in fresh interpreters, then runs passes of the
workload in this process, one closed-loop client, until ``--seconds`` have
passed.  With ``--trace 1`` it then runs one more pass, the first pass's
inputs again, with wrappers installed on gwldp's modules, and reports the
per-layer metrics of that pass.  Outputs of every pass are checked after
the measured loop.  The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("rate-grid", "mc-simulate", "mc-tail-wide", "progeny-table")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10          # op_tail_ms: highest percentile with this many samples above
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads() -> None:
    """Cap native thread pools at the CPUs this process may use, not the machine's."""
    allowed = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= allowed:
            os.environ[var] = str(allowed)


def measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to its first result.

    Raw wall time: the child's speed cannot be sampled from this process.
    """
    return statistics.median(time_to_ready(workload, seed)
                             for _ in range(SETUP_REPEATS))


def time_to_ready(workload: str, seed: int) -> float:
    """Seconds from starting setup_probe.py to its "ready" line; the child is reaped."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-s",
                           os.path.join(HERE, "setup_probe.py"),
                           workload, str(seed)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} exited {code}")
    return elapsed


def run_pass(ops, records: list, meter, tracer=None) -> tuple[float, float]:
    """Time each op of one pass; return the pass's (scaled, raw) wall time.

    Records get [op, scaled seconds, raw seconds, result, error].
    """
    scaled_total = raw_total = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        try:
            result, error = meter.time(op.call), None
        except Exception:  # an op that raises is a failed op; the run goes on
            result, error = None, traceback.format_exc(limit=3)
        scaled, raw = meter.last_times
        records.append([op, scaled, raw, result, error])
        scaled_total += scaled
        raw_total += raw
    return scaled_total, raw_total


def tail_percentile(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND samples that percentile would not lie
    above the median, so the maximum (p100) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def end_to_end(setup_s: float, passes: list[tuple[float, float]],
               latencies: list[float], peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics from (wall, work) per pass and op latencies in seconds."""
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall for wall, _ in passes),
        "work_per_s": statistics.median(work / wall for wall, work in passes),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_percentile(latencies)[1],
        "peak_rss_mb": peak_rss_mb,
    }


def csv_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(dirpath, name))
               for dirpath, _, names in os.walk(directory)
               for name in names if name.endswith(".csv"))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = measure_setup(name, seed)

    import speed
    import workloads
    wl = workloads.WORKLOADS[name]
    meter = speed.Meter()
    work_dir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    records: list = []
    passes: list[tuple[float, float, float]] = []   # scaled wall, raw wall, work
    pass_starts: list[int] = []                      # index of each pass's first record
    try:
        with contextlib.redirect_stdout(io.StringIO()):   # cli.main prints paths
            start = time.perf_counter()
            k = 0
            while not passes or time.perf_counter() - start < seconds:
                ops = wl.ops(seed, k, os.path.join(work_dir, "timed"))
                pass_starts.append(len(records))
                passes.append((*run_pass(ops, records, meter), sum(op.work for op in ops)))
                k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        latencies = [rec[1] for rec in records]
        raw_latencies = [rec[2] for rec in records]

        layer, spans_path = {}, None
        if trace:
            import probes
            import tracing
            traced_dir = os.path.join(work_dir, "traced")
            ops = wl.ops(seed, 0, traced_dir)
            tracer = tracing.Tracer()
            tracer.install()
            pass_starts.append(len(records))
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    traced_wall, _ = run_pass(ops, records, meter, tracer)
            finally:
                tracer.uninstall()
            layer = tracer.metrics(csv_bytes(traced_dir))
            layer["ratefn.cgf_evals_per_point"] = probes.cgf_evals_per_point()
            layer["trace_overhead"] = traced_wall / statistics.median(
                wall for wall, _, _ in passes)
            spans_path = os.path.join(OUT, f"trace-{name}-seed{seed}.csv.gz")
            tracer.write(spans_path)

        failures = []
        for op, _, _, result, error in records:
            if error is None:
                try:
                    error = op.check(result)
                except Exception:  # a check that cannot read the output fails the op
                    error = traceback.format_exc(limit=3)
            if error is not None:
                failures.append(f"{op.label}: {error}")
        run_checks = wl.checks(seed)
        if wl.pass_check is not None:
            bounds = pass_starts + [len(records)]
            for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
                try:
                    error = wl.pass_check([rec[3] for rec in records[a:b]])
                except Exception:  # a check that cannot read the outputs fails the pass
                    error = traceback.format_exc(limit=3)
                run_checks.append((f"pass {k}", error))
        failures += [f"{label}: {error}" for label, error in run_checks
                     if error is not None]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(records) + len(run_checks)
    return {
        "failures": failures,
        "attempted": attempted,
        "end_to_end": end_to_end(setup_s, [(w, n) for w, _, n in passes],
                                 latencies, peak_rss_mb),
        "raw": end_to_end(setup_s, [(w, n) for _, w, n in passes],
                          raw_latencies, peak_rss_mb),
        "per_layer": layer,
        "notes": {
            "passes": len(passes),
            "ops": len(latencies),
            "op_tail_percentile": tail_percentile(latencies)[0],
            "work_unit": wl.work_unit,
            "failed_frac": len(failures) / attempted,
            "spans": spans_path,
        },
    }


def metric_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(name: str, outcome: dict, trace: bool) -> dict:
    """Print the table; return the result object."""
    notes = outcome["notes"]
    units = metric_units()
    print(f"workload {name}: {notes['passes']} passes, {notes['ops']} ops, "
          f"work unit: {notes['work_unit']}")
    print(f"  {'metric (times at reference speed)':44s} {'value':>16s}      "
          f"{'raw':>16s}")
    for metric, value in outcome["end_to_end"].items():
        print(f"  {metric:44s} {value:16.6f} {units[metric]:4s} "
              f"{outcome['raw'][metric]:16.6f}")
    print(f"  {'op_tail_ms is p' + format(notes['op_tail_percentile'], '.1f'):44s} "
          f"{'of ' + str(notes['ops']) + ' ops':>16s}")
    print(f"  {'failed_frac':44s} {notes['failed_frac']:16.6f} fraction")
    for failure in outcome["failures"][:20]:
        print(f"  FAILED {failure}")
    if trace:
        for metric, value in outcome["per_layer"].items():
            print(f"  {metric:44s} {value:16.6f} {units[metric]}")
        print(f"  spans written to {notes['spans']}")
    values = outcome["per_layer" if trace else "end_to_end"]
    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    failed = len(outcome["failures"])
    return {"correct": failed == 0, "attempted": outcome["attempted"],
            "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb is per workload."""
    combined = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "gwldp", "__init__.py")):
        print(f"perfbench: no gwldp sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    cap_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, HERE]
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(report(args.workload, outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
