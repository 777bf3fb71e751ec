"""Per-point cost probes of the ROADMAP Baseline.

    python3 perfbench/probes.py

Prints cgf evaluations and milliseconds per ``rate_progeny_direct`` point
for Poisson(0.6, K=40) offspring at y = 3, the point whose 167 evaluations
and 4.5 ms the ROADMAP Baseline gives (Bernoulli's linear pgf makes the same
point about 4x cheaper).  Then, for Bernoulli(1/2) offspring and
g = {1: 1/2, 2: 1/2}, milliseconds per point of ``rate_bivariate_oracle``,
``rate_estimator_meaninit``, ``ratio_rate_via_contraction`` and the Dwass
table at k_max = 500 and 1000.  Times are medians of REPEATS calls, scaled
to reference machine speed like the benchmark's (speed.py).  The last line
is the same numbers as JSON; perfbench/baseline.json holds that line as
recorded when the benchmark was added.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from gwldp import offspring as off  # noqa: E402
from gwldp import progeny as prog  # noqa: E402
from gwldp import ratefn  # noqa: E402

import speed  # noqa: E402
import workloads as wl  # noqa: E402

REPEATS = 5
PROBE_LAWS = (wl.BERNOULLI, wl.GEOMETRIC, wl.POISSON)
PROBE_YS = (1.5, 3.0, 6.0)


def cgf_evals(f, y: float) -> int:
    """cgf evaluations the public legendre makes for the direct progeny rate at y."""
    cgf = ratefn.cgf_progeny_unit(f)
    count = 0

    def counted(beta: float) -> float:
        nonlocal count
        count += 1
        return cgf.fn(beta)

    ratefn.legendre(dataclasses.replace(cgf, fn=counted), y)
    return count


def cgf_evals_per_point() -> float:
    """Mean of cgf_evals over the three probe laws at y = 1.5, 3 and 6."""
    counts = [cgf_evals(off.pmf_from_spec(spec), y)
              for spec in PROBE_LAWS for y in PROBE_YS]
    return sum(counts) / len(counts)


def _median_ms(fn) -> float:
    meter = speed.Meter()
    times = []
    for _ in range(REPEATS):
        meter.time(fn)
        times.append(meter.last_times[0])
    return 1e3 * statistics.median(times)


def main() -> int:
    f = off.pmf_from_spec(wl.BERNOULLI)
    poisson = off.pmf_from_spec(wl.POISSON)
    model = prog.build_model(f, off.pmf_from_spec(wl.G_HALF))
    probes = {
        "rate_progeny_direct.poisson.cgf_evals_y3": cgf_evals(poisson, 3.0),
        "ratefn.cgf_evals_per_point": cgf_evals_per_point(),
        "rate_progeny_direct.poisson.ms_y3": _median_ms(
            lambda: ratefn.rate_progeny_direct(poisson, 3.0)),
        "rate_bivariate_oracle.ms_y3_z1.5": _median_ms(
            lambda: ratefn.rate_bivariate_oracle(model, 3.0, 1.5)),
        "rate_estimator_meaninit.ms_x0.3": _median_ms(
            lambda: ratefn.rate_estimator_meaninit(model, 0.3)),
        "ratio_rate_via_contraction.ms_x0.3": _median_ms(
            lambda: ratefn.ratio_rate_via_contraction(model, 0.3)),
        "total_progeny_pmf_dwass.ms_k500": _median_ms(
            lambda: prog.total_progeny_pmf_dwass(f, 500)),
        "total_progeny_pmf_dwass.ms_k1000": _median_ms(
            lambda: prog.total_progeny_pmf_dwass(f, 1000)),
    }
    for name, value in probes.items():
        print(f"{name:40s} {value:12.4f}")
    print(json.dumps(probes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
