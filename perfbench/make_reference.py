"""Record the reference values that the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Evaluates every candidate point of the rate-grid pools, the
``reference_rate`` of every mc-simulate threshold and, from one large
``estimator_tail_ratio`` run, the mc-tail-wide tail probabilities of both
arms, and writes them to perfbench/reference.json (about two minutes).  The file in the repository was recorded at the
commit that added the benchmark; re-record it only when a change of value is
intended, and say why.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from gwldp import montecarlo as mc  # noqa: E402
from gwldp import offspring as off  # noqa: E402
from gwldp import progeny as prog  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    rates = {}
    g = off.pmf_from_spec(wl.G_HALF)
    for fi, (fam, spec) in enumerate(wl.RATE_FAMILIES.items()):
        f = off.pmf_from_spec(spec)
        model = prog.build_model(f, g)
        for kind in wl.RATE_GRIDS:
            call = wl.RATE_CALLS[kind]
            pool = wl.rate_pool(fi, kind)
            if kind == "compare":
                rates[f"{fam}/{kind}"] = [
                    [r.j_random, r.j_diamond, r.i_f, r.leq_ok, r.strict]
                    for r in call(f, model, pool)]
            else:
                rates[f"{fam}/{kind}"] = [call(f, model, x).value for x in pool]
            print(f"{fam}/{kind}: {len(pool)} points", file=sys.stderr)
    rates["initial"] = [wl.ratefn.rate_initial(g, z).value
                        for z in wl.pool_points(*wl.INITIAL_GRID)]

    sim_model = prog.build_model(off.pmf_from_spec(wl.BERNOULLI),
                                 off.pmf_from_spec(wl.G13))
    thresholds = [mc.Threshold("mean_ge", level) for level in wl.SIM_LEVELS]
    thresholds.append(mc.Threshold("estimator_dev", wl.SIM_EPS))
    reference_rate = {f"{t.kind}:{t.level!r}": mc.reference_rate(sim_model, t)
                      for t in thresholds}

    tail_rows = mc.estimator_tail_ratio(
        mc.LdpScenario(f_spec=wl.POISSON, g_spec=wl.G13, n_schedule=wl.N_SCHEDULE,
                       trials=wl.TAIL_REFERENCE_TRIALS,
                       master_seed=wl.TAIL_REFERENCE_SEED),
        wl.TAIL_EPS)
    tail = {"n": [r.n for r in tail_rows], "trials": wl.TAIL_REFERENCE_TRIALS,
            "p_deterministic": [r.p_deterministic for r in tail_rows],
            "p_random": [r.p_random for r in tail_rows]}

    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"rates": rates, "reference_rate": reference_rate,
                   "tail": tail}, fh, indent=1)
        fh.write("\n")
    print(wl.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
