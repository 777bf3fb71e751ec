"""The benchmark's four workloads.

Each workload turns (seed, pass index) into one pass of operations.  An
operation is one call into gwldp through its public API or through
``gwldp.cli.main``; it is timed on its own, and its output is checked after
the measured loop.  Functions are looked up as module attributes at call
time, so the traced run's wrappers see every call.

Why these four (see also BENCHMARK.json):

* rate-grid      rate solver, golden sections and the fixed-point pgf; no
                 Monte Carlo, no Dwass table.  Bernoulli, geometric and
                 Poisson laws reach the linear-f, finite-radius-edge and
                 entire-pgf branches of the solver.
* mc-simulate    ``gwldp simulate`` on the Baseline scenario: time splits
                 between the lineage sampler, ``reference_rate`` and CSV
                 emission.
* mc-tail-wide   ``estimator_tail_ratio`` with a 41-point Poisson law: the
                 alias-sampler branch, two arms, no CSV, no reference rate.
* progeny-table  ``gwldp progeny-pmf`` at large k_max: the Dwass
                 convolution, which no other workload runs.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gwldp import cli
from gwldp import montecarlo as mc
from gwldp import offspring as off
from gwldp import progeny as prog
from gwldp import ratefn

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

POOL = 8                  # candidate points per stratum; a pass draws one of each
RATE_TOL = 1e-6           # against the reference table, and verify's prop1/prop3
ORACLE_TOL = 1e-5         # verify's prop2: bivariate oracle against closed form
CSV_TOL = 1e-9            # 12 significant digits leave well under this
SIGMAS = 5.0              # Monte Carlo means must sit this close to the exact mean

BERNOULLI = {"family": "bernoulli", "params": {"p": 0.5}}
GEOMETRIC = {"family": "geometric", "params": {"a": 0.3}, "truncation_K": 40}
POISSON = {"family": "poisson", "params": {"lambda": 0.6}, "truncation_K": 40}
G_HALF = {"family": "explicit", "params": {"probs": [[1, 0.5], [2, 0.5]]}}
G13 = {"family": "explicit", "params": {"probs": [[1, 0.5], [3, 0.5]]}}
G_DET = {"family": "explicit", "params": {"probs": [[2, 1.0]]}}   # G13's mean, fixed

RATE_FAMILIES = {"bernoulli": BERNOULLI, "geometric": GEOMETRIC,
                 "poisson": POISSON}

# kind -> (lo, hi, strata for bernoulli, geometric, poisson).  A pass draws
# one point per stratum.  The counts fix the mix of sub-millisecond closed
# forms, millisecond direct conjugates and ~100 ms golden-section routes so
# that the median op falls mid-way through the 32 geometric/Poisson direct
# calls (Bernoulli's linear pgf makes its direct calls 3x cheaper) and the
# tail among the oracle, meaninit and contraction calls.
RATE_GRIDS = {
    "offspring": (0.02, 0.95, (1, 1, 1)),
    "progeny_closed": (1.05, 6.0, (1, 1, 1)),
    "progeny_direct": (1.05, 6.0, (4, 16, 16)),
    "estimator_ratio": (0.0, 0.9, (1, 1, 1)),
    "estimator_deterministic": (0.0, 0.9, (1, 1, 1)),
    "estimator_meaninit": (0.0, 0.9, (2, 2, 2)),
    "ratio_contraction": (0.0, 0.9, (2, 2, 2)),
    "bivariate_oracle": (2.0, 5.0, (2, 2, 2)),
    "compare": (0.0, 0.9, (8, 8, 8)),
}
INITIAL_GRID = (1.02, 1.98, 3)

RATE_CALLS = {
    "offspring": lambda f, m, x: ratefn.rate_offspring(f, x),
    "progeny_closed": lambda f, m, x: ratefn.rate_progeny_closed(f, x),
    "progeny_direct": lambda f, m, x: ratefn.rate_progeny_direct(f, x),
    "estimator_ratio": lambda f, m, x: ratefn.rate_estimator_ratio(m, x),
    "estimator_deterministic":
        lambda f, m, x: ratefn.rate_estimator_deterministic(f, m.mu_g, x),
    "estimator_meaninit": lambda f, m, x: ratefn.rate_estimator_meaninit(m, x),
    "ratio_contraction": lambda f, m, x: ratefn.ratio_rate_via_contraction(m, x),
    "bivariate_oracle": lambda f, m, x: ratefn.rate_bivariate_oracle(m, *x),
    "compare": lambda f, m, x: ratefn.compare_rates(m, x),
}

N_SCHEDULE = (10, 20, 40)
SIM_TRIALS = 100_000
SIM_EPS = 0.15
SIM_LEVELS = tuple(round(4.6 + 0.2 * i, 1) for i in range(POOL))  # above nu = 4

TAIL_TRIALS = 2_000
TAIL_REQUESTS = 8         # estimator_tail_ratio calls per pass
TAIL_EPS = 0.15
TAIL_REFERENCE_TRIALS = 1_000_000   # per arm and n, behind reference.json's "tail"
TAIL_REFERENCE_SEED = 20_170_407

TABLE_K_MAX = 1000
WIDE_SUPPORT = 31         # explicit law on 0..30
WIDE_MEAN = 0.75


@dataclass
class Op:
    """One timed call: ``call()`` runs it, ``check(result)`` returns an error or None."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    work: float


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *keys)))


def pool_points(lo: float, hi: float, strata: int) -> list[float]:
    width = (hi - lo) / strata
    return [lo + (i + (j + 0.5) / POOL) * width
            for i in range(strata) for j in range(POOL)]


def rate_pool(family_index: int, kind: str) -> list:
    lo, hi, strata = RATE_GRIDS[kind]
    points = pool_points(lo, hi, strata[family_index])
    if kind == "bivariate_oracle":    # (y, z) with z spread over (1.1, 1.9)
        return [(y, 1.1 + 0.8 * (i % POOL + 0.5) / POOL)
                for i, y in enumerate(points)]
    return points


def _draw(rng: np.random.Generator, strata: int) -> list[int]:
    """Pool indices, one candidate from each stratum."""
    return [i * POOL + int(j) for i, j in enumerate(rng.integers(0, POOL, strata))]


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


@functools.cache
def reference() -> dict:
    """Values recorded by make_reference.py at the commit that added the benchmark."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _out_dir(work_dir: str, k: int, i: int) -> str:
    return os.path.join(work_dir, f"p{k}-op{i}")


# ---------------------------------------------------------------------------
# rate-grid
# ---------------------------------------------------------------------------

def _rate_value_check(key: str, idx: int, tol: float):
    def check(rv) -> str | None:
        want = reference()["rates"][key][idx]
        if not _close(rv.value, want, tol):
            return f"{key}[{idx}] = {rv.value!r}, reference {want!r}"
        return None
    return check


def _route_check(key: str, idx: int, closed: Callable[[], float], tol: float):
    # output against the reference, then against the independent closed route
    against_ref = _rate_value_check(key, idx, tol)

    def check(rv) -> str | None:
        err = against_ref(rv)
        if err:
            return err
        want = closed()
        if not _close(rv.value, want, tol):
            return f"{key}[{idx}] = {rv.value!r}, closed route {want!r}"
        return None
    return check


def _compare_check(key: str, idxs: list[int]):
    def check(rows) -> str | None:
        ref = reference()["rates"][key]
        if len(rows) != len(idxs):
            return f"{key}: {len(rows)} rows for {len(idxs)} points"
        for row, idx in zip(rows, idxs):
            want = ref[idx]
            got = [row.j_random, row.j_diamond, row.i_f]
            if not all(_close(a, b, RATE_TOL) for a, b in zip(got, want[:3])):
                return f"{key}[{idx}] = {got!r}, reference {want[:3]!r}"
            if not row.leq_ok or [row.leq_ok, row.strict] != want[3:]:
                return f"{key}[{idx}] flags {row.leq_ok}/{row.strict}"
        return None
    return check


def rate_grid_ops(seed: int, k: int, work_dir: str) -> list[Op]:
    rng = _rng(seed, 0, k)
    g = off.pmf_from_spec(G_HALF)
    ops = []
    for fi, (fam, spec) in enumerate(RATE_FAMILIES.items()):
        f = off.pmf_from_spec(spec)
        model = prog.build_model(f, g)
        for kind, (_, _, strata) in RATE_GRIDS.items():
            pool = rate_pool(fi, kind)
            key = f"{fam}/{kind}"
            idxs = _draw(rng, strata[fi])
            call = RATE_CALLS[kind]
            if kind == "compare":
                xs = [pool[i] for i in idxs]
                ops.append(Op(key, lambda c=call, f=f, m=model, xs=xs: c(f, m, xs),
                              _compare_check(key, idxs), len(xs)))
                continue
            for idx in idxs:
                x = pool[idx]
                if kind == "progeny_direct":
                    check = _route_check(key, idx, lambda f=f, x=x:
                                         ratefn.rate_progeny_closed(f, x).value,
                                         RATE_TOL)
                elif kind == "bivariate_oracle":
                    check = _route_check(key, idx, lambda m=model, x=x:
                                         ratefn.rate_bivariate(m, *x).value,
                                         ORACLE_TOL)
                elif kind == "ratio_contraction":
                    check = _route_check(key, idx, lambda m=model, x=x:
                                         ratefn.rate_estimator_ratio(m, x).value,
                                         RATE_TOL)
                else:
                    check = _rate_value_check(key, idx, RATE_TOL)
                ops.append(Op(key, lambda c=call, f=f, m=model, x=x: c(f, m, x),
                              check, 1))
    pool = pool_points(*INITIAL_GRID)
    for idx in _draw(rng, INITIAL_GRID[2]):
        ops.append(Op("initial", lambda z=pool[idx]: ratefn.rate_initial(g, z),
                      _rate_value_check("initial", idx, RATE_TOL), 1))
    return ops


def no_checks(seed: int) -> list[tuple[str, str | None]]:
    return []


def rate_grid_first(seed: int) -> object:
    return rate_grid_ops(seed, 0, "")[0].call()


# ---------------------------------------------------------------------------
# Monte Carlo helpers
# ---------------------------------------------------------------------------

def _moments(spec: dict) -> tuple[float, float]:
    pmf = off.pmf_from_spec(spec)
    h = pmf.support.astype(np.float64)
    m1 = float(np.dot(h, pmf.probs))
    return m1, float(np.dot(h * h, pmf.probs)) - m1 * m1


def progeny_moments(f_spec: dict, g_spec: dict) -> tuple[float, float, float, float]:
    """Mean and variance of one lineage's total progeny Y and its start Z."""
    mu_f, var_f = _moments(f_spec)
    mu_g, var_g = _moments(g_spec)
    m1 = 1.0 / (1.0 - mu_f)
    v1 = var_f / (1.0 - mu_f) ** 3
    return mu_g * m1, mu_g * v1 + var_g * m1 * m1, mu_g, var_g


def mean_check(label: str, n: int, y_sum: np.ndarray, z_sum: np.ndarray,
               f_spec: dict, g_spec: dict) -> str | None:
    ey, vy, ez, vz = progeny_moments(f_spec, g_spec)
    trials = y_sum.size
    for name, sums, mean, var in (("Ybar", y_sum, ey, vy), ("Zbar", z_sum, ez, vz)):
        got = float(sums.mean()) / n
        se = math.sqrt(var / (n * trials))
        if abs(got - mean) > SIGMAS * se:
            return (f"{label} n={n}: mean {name} {got:.6f} is "
                    f"{abs(got - mean) / se:.1f} standard errors from {mean:.6f}")
    return None


def replay_check(label: str, f_spec: dict, g_spec: dict, seed: int,
                 trials: int) -> list[tuple[str, str | None]]:
    """One scenario replicated twice: identical sums, and means near the exact ones."""
    scenario = mc.LdpScenario(f_spec=f_spec, g_spec=g_spec, n_schedule=N_SCHEDULE,
                              trials=trials, master_seed=seed)
    first = mc.replicate(scenario)
    second = mc.replicate(scenario)
    same = all(np.array_equal(a.y_sum, b.y_sum) and np.array_equal(a.z_sum, b.z_sum)
               for a, b in zip(first, second)) and len(first) == len(second)
    out = [(f"{label} seed replay", None if same else "sums differ between replays")]
    for block in first:
        out.append((f"{label} means n={block.n}",
                    mean_check(label, block.n, block.y_sum, block.z_sum,
                               f_spec, g_spec)))
    return out


# ---------------------------------------------------------------------------
# mc-simulate
# ---------------------------------------------------------------------------

def sim_scenario(seed: int, k: int) -> dict:
    level = SIM_LEVELS[(seed + k) % POOL]
    return {
        "f": BERNOULLI, "g": G13, "n_schedule": list(N_SCHEDULE),
        "trials": SIM_TRIALS,
        "thresholds": [{"kind": "mean_ge", "level": level},
                       {"kind": "estimator_dev", "level": SIM_EPS}],
        "master_seed": int(_rng(seed, 1, k).integers(0, 2 ** 63)),
    }


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "":
        raise ValueError(f"{path} does not end with LF")
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def _sim_check(scenario: dict, out: str):
    def check(code) -> str | None:
        if code != 0:
            return f"simulate exited {code}"
        try:
            return _sim_outputs(scenario, out)
        except (OSError, ValueError) as exc:
            return f"simulate output unreadable: {exc}"
    return check


def _sim_outputs(scenario: dict, out: str) -> str | None:
    trials = scenario["trials"]
    mu_g = _moments(G13)[0]
    mu_f = _moments(BERNOULLI)[0]
    header, rows = _read_csv(os.path.join(out, "estimators.csv"))
    if header != ["n", "trial", "est_ratio", "est_meaninit"]:
        return f"estimators.csv header {header}"
    if len(rows) != trials * len(N_SCHEDULE):
        return f"estimators.csv has {len(rows)} rows"
    table = np.array(rows, dtype=np.float64)
    blocks = {}
    for b, n in enumerate(N_SCHEDULE):
        part = table[b * trials:(b + 1) * trials]
        if not (np.all(part[:, 0] == n)
                and np.array_equal(part[:, 1], np.arange(trials))):
            return f"estimators.csv block {b} is not n={n}, trials 0..{trials - 1}"
        # invert est_meaninit = (Y - n mu_g)/Y and est_ratio = (Y - Z)/Y
        y_sum = np.rint(n * mu_g / (1.0 - part[:, 3])).astype(np.int64)
        z_sum = np.rint(y_sum * (1.0 - part[:, 2])).astype(np.int64)
        if np.any(z_sum < n) or np.any(y_sum < z_sum):
            return f"n={n}: sums outside Y >= Z >= n"
        err = mean_check("simulate", n, y_sum, z_sum, BERNOULLI, G13)
        if err:
            return err
        blocks[n] = (y_sum, z_sum)

    header, rows = _read_csv(os.path.join(out, "rates.csv"))
    if header != ["n", "threshold", "hits", "trials", "rate_estimate",
                  "ci_halfwidth", "reference_rate", "censored"]:
        return f"rates.csv header {header}"
    ref = reference()["reference_rate"]
    expected = [(t, n) for t in scenario["thresholds"] for n in N_SCHEDULE]
    if len(rows) != len(expected):
        return f"rates.csv has {len(rows)} rows"
    for row, (t, n) in zip(rows, expected):
        label = f"{t['kind']}:{t['level']:g}"
        if row[0] != str(n) or row[1] != label or row[3] != str(trials):
            return f"rates.csv row {row[:4]} where {n},{label} was due"
        y_sum, z_sum = blocks[n]
        if t["kind"] == "mean_ge":
            hits = int(np.count_nonzero(y_sum >= t["level"] * n - 1e-9))
            want_ref = ref[f"mean_ge:{t['level']!r}"]
        else:
            est = (y_sum - z_sum) / y_sum
            hits = int(np.count_nonzero(np.abs(est - mu_f) >= t["level"] - 1e-12))
            want_ref = ref[f"estimator_dev:{t['level']!r}"]
        if int(row[2]) != hits:
            return f"{label} n={n}: {row[2]} hits, estimators.csv gives {hits}"
        rate = (-math.log(hits / trials) / n if hits
                else math.log(trials) / n)
        if not _close(float(row[4]), rate, CSV_TOL):
            return f"{label} n={n}: rate_estimate {row[4]}, expected {rate!r}"
        if not _close(float(row[6]), want_ref, RATE_TOL):
            return f"{label}: reference_rate {row[6]}, reference {want_ref!r}"
        if row[7] != ("false" if hits else "true"):
            return f"{label} n={n}: censored flag {row[7]}"
    return None


def mc_simulate_ops(seed: int, k: int, work_dir: str) -> list[Op]:
    scenario = sim_scenario(seed, k)
    out = _out_dir(work_dir, k, 0)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh)
    argv = ["simulate", "--config", path, "--out", out]
    return [Op("simulate", lambda: cli.main(argv), _sim_check(scenario, out),
               SIM_TRIALS * len(N_SCHEDULE))]


def mc_simulate_checks(seed: int) -> list[tuple[str, str | None]]:
    return replay_check("simulate", BERNOULLI, G13, seed, 2_000)


def mc_simulate_first(seed: int) -> object:
    data = dict(sim_scenario(seed, 0), n_schedule=[N_SCHEDULE[0]], trials=1)
    return mc.replicate(mc.LdpScenario.from_json_dict(data))


# ---------------------------------------------------------------------------
# mc-tail-wide
# ---------------------------------------------------------------------------

def tail_scenario(seed: int, k: int, i: int, trials: int = TAIL_TRIALS,
                  n_schedule=N_SCHEDULE) -> mc.LdpScenario:
    return mc.LdpScenario(
        f_spec=POISSON, g_spec=G13, n_schedule=n_schedule, trials=trials,
        master_seed=int(_rng(seed, 2, k, i).integers(0, 2 ** 63)))


def _tail_check(trials: int):
    def check(rows) -> str | None:
        if [r.n for r in rows] != list(N_SCHEDULE):
            return f"tail rows for n={[r.n for r in rows]}"
        for r in rows:
            if r.trials != trials:
                return f"n={r.n}: {r.trials} trials"
            for hits, p, censored in ((r.hits_deterministic, r.p_deterministic,
                                       r.censored_deterministic),
                                      (r.hits_random, r.p_random, r.censored_random)):
                if not 0 <= hits <= trials or p != hits / trials \
                        or censored != (hits == 0):
                    return f"n={r.n}: inconsistent arm {hits}/{p}/{censored}"
            if r.hits_deterministic and r.hits_random:
                if not _close(r.ratio, r.p_deterministic / r.p_random, CSV_TOL):
                    return f"n={r.n}: ratio {r.ratio}"
            elif not math.isnan(r.ratio):
                return f"n={r.n}: ratio {r.ratio} with a censored arm"
        return None
    return check


def tail_pass_check(results: list) -> str | None:
    """A pass's estimator_tail_ratio hits, pooled per n and arm, against reference.json.

    The reference tail probabilities come from one run of
    TAIL_REFERENCE_TRIALS trials; the pooled hit fraction must lie within
    SIGMAS binomial standard errors of both samples combined.
    """
    if any(rows is None for rows in results):
        return "an estimator_tail_ratio call raised; pooled hits not tested"
    ref = reference()["tail"]
    for b, n in enumerate(N_SCHEDULE):
        rows = [r[b] for r in results]
        if any(r.n != n for r in rows):
            return f"rows at index {b} are not all n={n}"
        trials = sum(r.trials for r in rows)
        for arm, hits in (("deterministic", sum(r.hits_deterministic for r in rows)),
                          ("random", sum(r.hits_random for r in rows))):
            p = ref[f"p_{arm}"][b]
            se = math.sqrt(p * (1.0 - p) * (1.0 / trials + 1.0 / ref["trials"]))
            if abs(hits / trials - p) > SIGMAS * se:
                return (f"n={n} {arm} arm: {hits}/{trials} hits, "
                        f"{abs(hits / trials - p) / se:.1f} standard errors "
                        f"from the reference {p!r}")
    return None


def mc_tail_wide_ops(seed: int, k: int, work_dir: str) -> list[Op]:
    ops = []
    for i in range(TAIL_REQUESTS):
        scenario = tail_scenario(seed, k, i)
        ops.append(Op("estimator_tail_ratio",
                      lambda s=scenario: mc.estimator_tail_ratio(s, TAIL_EPS),
                      _tail_check(TAIL_TRIALS), 2 * TAIL_TRIALS * len(N_SCHEDULE)))
    return ops


def mc_tail_wide_checks(seed: int) -> list[tuple[str, str | None]]:
    return (replay_check("tail-wide", POISSON, G13, seed, 4_000)
            + replay_check("tail-wide deterministic start", POISSON, G_DET, seed,
                           4_000))


def mc_tail_wide_first(seed: int) -> object:
    scenario = tail_scenario(seed, 0, 0, trials=1, n_schedule=N_SCHEDULE[:1])
    return mc.estimator_tail_ratio(scenario, TAIL_EPS)


# ---------------------------------------------------------------------------
# progeny-table
# ---------------------------------------------------------------------------

def table_laws(seed: int, k: int) -> list[dict]:
    """Bernoulli, geometric and a wide explicit subcritical law, drawn from the seed."""
    rng = _rng(seed, 3, k)
    p = float(rng.uniform(0.45, 0.55))
    a = float(rng.uniform(0.27, 0.33))
    h = np.arange(1, WIDE_SUPPORT)
    w = rng.uniform(0.5, 1.5, h.size) * np.exp(-h / 4.0)
    w *= WIDE_MEAN / float(np.dot(h, w))           # mass off zero, mean WIDE_MEAN
    probs = [[0, 1.0 - float(w.sum())]] + [[int(x), float(v)] for x, v in zip(h, w)]
    return [{"family": "bernoulli", "params": {"p": p}},
            {"family": "geometric", "params": {"a": a}, "truncation_K": 40},
            {"family": "explicit", "params": {"probs": probs}}]


def _table_check(spec: dict, out: str, k_max: int):
    def check(code) -> str | None:
        if code != 0:
            return f"progeny-pmf exited {code}"
        try:
            return _table_output(spec, out, k_max)
        except (OSError, ValueError) as exc:
            return f"progeny_pmf.csv unreadable: {exc}"
    return check


def _table_output(spec: dict, out: str, k_max: int) -> str | None:
    header, rows = _read_csv(os.path.join(out, "progeny_pmf.csv"))
    if header != ["k", "pi_k"] or len(rows) != k_max + 1:
        return f"progeny_pmf.csv header {header}, {len(rows)} lines"
    trailer = rows.pop()
    if len(trailer) != 1 or not trailer[0].startswith("# deficit="):
        return f"progeny_pmf.csv trailer {trailer}"
    deficit = float(trailer[0][len("# deficit="):])
    table = np.array(rows, dtype=np.float64)
    ks, pi = table[:, 0], table[:, 1]
    if not np.array_equal(ks, np.arange(1, k_max + 1)) or np.any(pi < 0.0):
        return "progeny_pmf.csv rows are not k = 1..k_max with pi_k >= 0"
    if not abs(deficit - max(1.0 - float(pi.sum()), 0.0)) <= CSV_TOL:
        return f"deficit {deficit!r} against 1 - sum(pi) = {1.0 - pi.sum()!r}"
    f = off.pmf_from_spec(spec)
    for s in (0.5, 0.9):
        series = float(np.dot(pi, s ** ks))
        exact = prog.total_progeny_pgf(f, s)
        # the rows miss sum_{k > k_max} pi_k s^k, which is at most the deficit
        if not -CSV_TOL <= exact - series <= deficit + CSV_TOL:
            return f"G({s}) = {exact!r}, table series {series!r}, deficit {deficit!r}"
    return None


def progeny_table_ops(seed: int, k: int, work_dir: str) -> list[Op]:
    ops = []
    for i, spec in enumerate(table_laws(seed, k)):
        out = _out_dir(work_dir, k, i)
        argv = ["progeny-pmf", "--f", json.dumps(spec), "--k-max",
                str(TABLE_K_MAX), "--out", out]
        ops.append(Op(f"progeny-pmf/{spec['family']}",
                      lambda argv=argv: cli.main(argv),
                      _table_check(spec, out, TABLE_K_MAX), TABLE_K_MAX))
    return ops


def progeny_table_first(seed: int) -> object:
    spec = table_laws(seed, 0)[0]
    return prog.total_progeny_pmf_dwass(off.pmf_from_spec(spec), 50)


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    ops: Callable[[int, int, str], list[Op]]
    checks: Callable[[int], list[tuple[str, str | None]]]
    first: Callable[[int], object]
    # checks the results of one whole pass, in op order; None: no such check
    pass_check: Callable[[list], str | None] | None = None


WORKLOADS = {w.name: w for w in (
    Workload("rate-grid", "rate points", rate_grid_ops, no_checks,
             rate_grid_first),
    Workload("mc-simulate", "trials of n lineages, summed over n",
             mc_simulate_ops, mc_simulate_checks, mc_simulate_first),
    Workload("mc-tail-wide", "trials of n lineages, summed over n and arms",
             mc_tail_wide_ops, mc_tail_wide_checks, mc_tail_wide_first,
             tail_pass_check),
    Workload("progeny-table", "pmf rows", progeny_table_ops,
             no_checks, progeny_table_first),
)}
