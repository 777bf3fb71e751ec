"""Spans and counts for the traced run, taken at wrappers around gwldp functions.

The wrappers replace module attributes (``gwldp.ratefn.legendre`` and so on),
so they also see calls between modules, such as ratefn calling
``progeny.total_progeny_pgf`` or cli calling ``montecarlo.replicate``.  They
exist only between ``install()`` and ``uninstall()``: the untraced run never
has them.  Spans stay in memory and are written out once, by ``write()``.
"""

from __future__ import annotations

import gzip
import math
import os
import statistics
import time
from collections import Counter, defaultdict

from gwldp import cli
from gwldp import montecarlo as mc
from gwldp import offspring as off
from gwldp import progeny as prog
from gwldp import ratefn

LAYERS = {
    "progeny": (prog, ("build_model", "extinction_probability",
                       "total_progeny_pgf", "total_progeny_pmf_dwass",
                       "compound_pgf")),
    "ratefn": (ratefn, ("legendre", "golden_min", "cgf_of_pmf",
                        "cgf_progeny_unit", "rate_offspring", "rate_initial",
                        "rate_progeny_closed", "rate_progeny_direct",
                        "rate_bivariate", "rate_bivariate_oracle",
                        "rate_estimator_ratio", "rate_estimator_deterministic",
                        "rate_estimator_meaninit", "rate_progeny_marginal",
                        "ratio_rate_via_contraction", "compare_rates")),
    # _replicate_sums is the lineage sampler behind both replicate and
    # estimator_tail_ratio, and the only place individuals are counted; a
    # change that removes or reshapes it must move that count here
    "montecarlo": (mc, ("replicate", "empirical_rate", "reference_rate",
                        "estimator_tail_ratio", "_replicate_sums")),
    "cli": (cli, ("main",)),
}
P50_FUNCTIONS = ("rate_progeny_direct", "rate_bivariate_oracle",
                 "rate_estimator_meaninit", "ratio_rate_via_contraction")
BRANCHES = ("interior", "theta_max", "theta_cap", "support_min",
            "support_max", "other")
RATE_FUNCTIONS = frozenset(name for name in LAYERS["ratefn"][1]
                           if name.startswith("rate"))


class Tracer:
    """Records spans (name, start, end, parent, op) and counts at gwldp boundaries."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1                     # id of the benchmark operation in progress
        self.pgf_exact_calls = 0
        self.pgf_exact_in_fixed_point = 0
        self.golden_evals = 0
        self.branches: Counter = Counter()
        self.individuals = 0
        self.dwass_rows = 0

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        # getattr raises if a listed function is gone, so a renamed layer
        # cannot read as 0 calls and 0 seconds
        self._patch(off, "pgf_exact", self._counted_pgf_exact)
        for layer, (module, names) in LAYERS.items():
            for name in names:
                full = f"{layer}.{name}"
                self._patch(module, name, lambda fn, full=full:
                            self._spanned(full, fn, *_HOOKS.get(full, (None, None))))

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def _patch(self, module, name: str, make) -> None:
        fn = getattr(module, name)
        self._saved.append((module, name, fn))
        setattr(module, name, make(fn))

    def _counted_pgf_exact(self, fn):
        # count only: pgf_exact is the innermost call, a span would dominate it
        def wrapper(*args, **kwargs):
            self.pgf_exact_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name: str, fn, before, after):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, self.op])
            stack.append(idx)
            pgf0 = self.pgf_exact_calls
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
                if name == "progeny.total_progeny_pgf":
                    self.pgf_exact_in_fixed_point += self.pgf_exact_calls - pgf0
            if after is not None:
                after(self, result)
            return result
        return wrapper

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")

    def metrics(self, csv_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the recorded spans; functions never called read 0."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        durations: defaultdict = defaultdict(list)
        self_s: defaultdict = defaultdict(float)
        rate_calls_in_reference = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name.split(".")[0]] += end - start - child[i]
            if parent >= 0 and spans[parent][0] == "montecarlo.reference_rate" \
                    and name.split(".")[1] in RATE_FUNCTIONS:
                rate_calls_in_reference += 1
            if not _nested_in_itself(spans, i):
                busy[name] += end - start
                durations[name].append(end - start)

        def p50_ms(name: str) -> float:
            d = durations[name]
            return 1e3 * statistics.median(d) if d else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        tpp = "progeny.total_progeny_pgf"
        out = {
            "offspring.pgf_exact.calls": self.pgf_exact_calls,
            f"{tpp}.calls": calls[tpp],
            f"{tpp}.busy_s": busy[tpp],
            f"{tpp}.pgf_exact_per_call": ratio(self.pgf_exact_in_fixed_point,
                                               calls[tpp]),
            "progeny.total_progeny_pmf_dwass.calls":
                calls["progeny.total_progeny_pmf_dwass"],
            "progeny.total_progeny_pmf_dwass.busy_s":
                busy["progeny.total_progeny_pmf_dwass"],
            "progeny.dwass.rows_per_s":
                ratio(self.dwass_rows, busy["progeny.total_progeny_pmf_dwass"]),
            "progeny.self_s": self_s["progeny"],
            "ratefn.legendre.calls": calls["ratefn.legendre"],
            "ratefn.legendre.busy_s": busy["ratefn.legendre"],
            "ratefn.golden_min.calls": calls["ratefn.golden_min"],
            "ratefn.golden_min.evals_per_call": ratio(self.golden_evals,
                                                      calls["ratefn.golden_min"]),
            "ratefn.golden_min.busy_s": busy["ratefn.golden_min"],
            "ratefn.self_s": self_s["ratefn"],
        }
        for fn in P50_FUNCTIONS:
            out[f"ratefn.{fn}.p50_ms"] = p50_ms(f"ratefn.{fn}")
        for branch in BRANCHES:
            out[f"ratefn.branch.{branch}"] = self.branches[branch]
        out.update({
            "montecarlo.replicate.busy_s": busy["montecarlo.replicate"],
            "montecarlo.individuals": self.individuals,
            "montecarlo.individuals_per_s": ratio(self.individuals,
                                                   busy["montecarlo._replicate_sums"]),
            "montecarlo.reference_rate.busy_s": busy["montecarlo.reference_rate"],
            "montecarlo.reference_rate.rate_calls": rate_calls_in_reference,
            "montecarlo.estimator_tail_ratio.busy_s":
                busy["montecarlo.estimator_tail_ratio"],
            "montecarlo.self_s": self_s["montecarlo"],
            "cli.main.self_s": self_s["cli"],    # main is the only cli span
            "cli.csv_bytes": csv_bytes,
            "cli.csv_bytes_per_s": ratio(csv_bytes, self_s["cli"]),
        })
        return out


def _nested_in_itself(spans: list[list], i: int) -> bool:
    name, parent = spans[i][0], spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _count_golden_evals(tracer: Tracer, args: tuple) -> tuple:
    fn = args[0]

    def counted(x):
        tracer.golden_evals += 1
        return fn(x)
    return (counted, *args[1:])


def _count_branch(tracer: Tracer, rv) -> None:
    marker = rv.argmax_theta
    if isinstance(marker, float) and math.isfinite(marker):
        tracer.branches["interior"] += 1
    elif marker in BRANCHES:
        tracer.branches[marker] += 1
    else:
        tracer.branches["other"] += 1


def _count_individuals(tracer: Tracer, result) -> None:
    for _, y_sum, _ in result:          # (n, y_sum, z_sum) per block
        tracer.individuals += int(y_sum.sum())


def _count_rows(tracer: Tracer, pmf) -> None:
    tracer.dwass_rows += int(pmf.support.size)


_HOOKS = {
    "progeny.total_progeny_pmf_dwass": (None, _count_rows),
    "ratefn.golden_min": (_count_golden_evals, None),
    "ratefn.legendre": (None, _count_branch),
    "montecarlo._replicate_sums": (None, _count_individuals),
}
