"""Command-line interface: config parsing, dispatch, CSV emission.

Commands
    extinction   print the unit-start extinction probability
    progeny-pmf  total-progeny law table (k, pi_k) with a deficit trailer
    rate         a rate function evaluated over a grid
    compare      random-start vs deterministic-start estimator rates
    simulate     run a replication scenario, emit rates.csv / estimators.csv
    verify       run the named identity checks, emit a pass/fail report

Exit status: 0 success, 2 configuration errors, 3 violated structural
hypotheses, 4 numerical convergence failures.  All CSVs use '.' decimals,
LF line endings, a header row, and 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import montecarlo as mc
from . import offspring as off
from . import progeny as prog
from . import ratefn
from .errors import (ConfigError, ConvergenceError, HypothesisError,
                     ParameterError, PopulationCapError, TruncationError)

COMMANDS = ("rate", "progeny-pmf", "extinction", "compare", "simulate", "verify")
RATE_TARGETS = ("offspring", "initial", "progeny", "estimator-ratio",
                "estimator-deterministic", "estimator-meaninit")
VERIFY_CHECKS = ("prop1", "prop2", "prop3_contraction", "prop4_bracket",
                 "corollary1", "remark6")

_DEFAULT_F = {"family": "bernoulli", "params": {"p": 0.5}}
_DEFAULT_G = {"family": "explicit", "params": {"probs": [[1, 0.5], [2, 0.5]]}}
# rows per CSV write; writing a whole 1e5-row block at once raised the peak
# RSS of `gwldp simulate` from 46 to 72 MB
_CHUNK_ROWS = 1 << 13


@dataclass
class RunConfig:
    """Effective configuration of one CLI invocation."""

    command: str
    f_spec: dict = field(default_factory=lambda: dict(_DEFAULT_F))
    g_spec: dict = field(default_factory=lambda: dict(_DEFAULT_G))
    grid: tuple[float, float, int] = (0.0, 0.9, 19)
    output_dir: str = "."
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    target: str = "offspring"
    route: str = "closed"
    k_max: int = 50
    checks: tuple[str, ...] = VERIFY_CHECKS
    scenario: dict | None = None

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        lo, hi, points = self.grid
        if not lo < hi:
            raise ConfigError(f"grid lo must be below hi, got {lo}:{hi}")
        if points < 2:
            raise ConfigError(f"grid needs at least 2 points, got {points}")
        if self.target not in RATE_TARGETS:
            raise ConfigError(f"unknown rate target {self.target!r}")
        if self.route not in ("closed", "direct"):
            raise ConfigError(f"unknown route {self.route!r}")
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1, got {self.k_max}")
        unknown = set(self.checks) - set(VERIFY_CHECKS)
        if unknown:
            raise ConfigError(f"unknown verify checks: {sorted(unknown)}")
        try:
            off.pmf_from_spec(self.f_spec)
            off.pmf_from_spec(self.g_spec)
        except (ParameterError, TruncationError) as exc:
            raise ConfigError(f"model field invalid: {exc}") from exc

    def to_json_dict(self) -> dict:
        data = {
            "command": self.command,
            "model": {"f": self.f_spec, "g": self.g_spec},
            "grid": {"lo": self.grid[0], "hi": self.grid[1],
                     "points": self.grid[2]},
            "output_dir": self.output_dir,
            "seed": self.seed,
            "tolerances": self.tolerances,
            "target": self.target,
            "route": self.route,
            "k_max": self.k_max,
            "checks": list(self.checks),
        }
        if self.scenario is not None:
            data["scenario"] = self.scenario
        return data


def _config_from_json(command: str, data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = RunConfig(command=command)
    if "command" in data:
        cfg.command = str(data["command"])
    model = data.get("model", {})
    if "f" in model:
        cfg.f_spec = model["f"]
    if "g" in model:
        cfg.g_spec = model["g"]
    if "grid" in data:
        g = data["grid"]
        try:
            cfg.grid = (float(g["lo"]), float(g["hi"]), int(g["points"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"grid field invalid: {exc!r}") from exc
    for key, attr in (("output_dir", "output_dir"), ("seed", "seed"),
                      ("tolerances", "tolerances"), ("target", "target"),
                      ("route", "route"), ("k_max", "k_max")):
        if key in data:
            setattr(cfg, attr, data[key])
    if "checks" in data:
        cfg.checks = tuple(data["checks"])
    if "scenario" in data:
        cfg.scenario = data["scenario"]
    try:
        cfg.seed = int(cfg.seed)
        cfg.k_max = int(cfg.k_max)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed/k_max field invalid: {exc}") from exc
    return cfg


def _parse_grid_flag(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid flag must look like lo:hi:points, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid flag invalid: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}"
        ) from exc


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _fmt_column(col) -> list[str] | np.ndarray:
    """``_fmt`` of every entry of ``col``, each distinct number formatted once.

    A numeric array is keyed on its bit patterns, so values that print
    differently (``-0.0`` and ``0.0``) never share a string; other columns,
    such as mixed floats, strings and ``None``, are formatted one by one.
    """
    if isinstance(col, np.ndarray) and col.dtype.kind in "iuf":
        bits = col.view(f"u{col.dtype.itemsize}")
        _, first, inverse = np.unique(bits, return_index=True,
                                      return_inverse=True)
        strings = np.array([_fmt(v) for v in col[first].tolist()], dtype=object)
        return strings[inverse]
    return [_fmt(v) for v in col]


def _write_csv(path: str, header: list[str], blocks,
               trailer: str | None = None) -> None:
    """Write ``header``, the rows of ``blocks`` and an optional trailer line.

    Each block is a sequence of equal-length columns (arrays, lists or
    ranges) whose rows follow those of the block before.  Rows are formatted
    and written ``_CHUNK_ROWS`` at a time, which bounds the strings alive at
    once.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            for start in range(0, len(columns[0]), _CHUNK_ROWS):
                cells = [_fmt_column(col[start:start + _CHUNK_ROWS])
                         for col in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        if trailer is not None:
            fh.write(trailer + "\n")


def _grid_values(grid: tuple[float, float, int]) -> np.ndarray:
    lo, hi, points = grid
    return np.linspace(lo, hi, points)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_extinction(cfg: RunConfig) -> int:
    f = off.pmf_from_spec(cfg.f_spec)
    print(_fmt(prog.extinction_probability(f)))
    return 0


def _cmd_progeny_pmf(cfg: RunConfig) -> int:
    f = off.pmf_from_spec(cfg.f_spec)
    pmf = prog.total_progeny_pmf_dwass(f, cfg.k_max)
    path = os.path.join(cfg.output_dir, "progeny_pmf.csv")
    _write_csv(path, ["k", "pi_k"], [(pmf.support, pmf.probs)],
               trailer=f"# deficit={_fmt(pmf.truncation_deficit)}")
    print(path)
    return 0


def _rate_values(cfg: RunConfig, xs: np.ndarray):
    f = off.pmf_from_spec(cfg.f_spec)
    g = off.pmf_from_spec(cfg.g_spec)
    model = prog.build_model(f, g)
    for x in xs:
        x = float(x)
        if cfg.target == "offspring":
            rv = ratefn.rate_offspring(f, x)
        elif cfg.target == "initial":
            rv = ratefn.rate_initial(g, x)
        elif cfg.target == "progeny":
            if cfg.route == "closed":
                rv = ratefn.rate_progeny_closed(f, x)
            else:
                rv = ratefn.rate_progeny_direct(f, x)
        elif cfg.target == "estimator-ratio":
            rv = ratefn.rate_estimator_ratio(model, x)
        elif cfg.target == "estimator-deterministic":
            rv = ratefn.rate_estimator_deterministic(f, model.mu_g, x)
        else:
            rv = ratefn.rate_estimator_meaninit(model, x)
        yield rv


def _cmd_rate(cfg: RunConfig) -> int:
    xs = _grid_values(cfg.grid)
    rvs = list(_rate_values(cfg, xs))
    path = os.path.join(cfg.output_dir, "rate.csv")
    _write_csv(path, ["x", "value", "argmax_theta", "route"],
               [(xs, [rv.value for rv in rvs], [rv.argmax_theta for rv in rvs],
                 [rv.route for rv in rvs])])
    print(path)
    return 0


def _cmd_compare(cfg: RunConfig) -> int:
    f = off.pmf_from_spec(cfg.f_spec)
    g = off.pmf_from_spec(cfg.g_spec)
    model = prog.build_model(f, g)
    rows = ratefn.compare_rates(model, _grid_values(cfg.grid))
    columns = [[getattr(r, attr) for r in rows] for attr in
               ("x", "j_random", "j_diamond", "i_f", "leq_ok", "strict")]
    path = os.path.join(cfg.output_dir, "compare.csv")
    _write_csv(path, ["x", "J_random", "J_diamond", "I_f", "leq_ok", "strict"],
               [columns])
    print(path)
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    if cfg.scenario is None:
        raise ConfigError("simulate needs a scenario config file")
    scenario = mc.LdpScenario.from_json_dict(cfg.scenario)
    blocks = mc.replicate(scenario)
    recs = [rec for threshold in scenario.thresholds
            for rec in mc.empirical_rate(scenario, threshold, blocks=blocks)]
    header = ["n", "threshold", "hits", "trials", "rate_estimate",
              "ci_halfwidth", "reference_rate", "censored"]
    columns = [[getattr(rec, name) for rec in recs] for name in header]
    columns[1] = [t.label() for t in columns[1]]
    _write_csv(os.path.join(cfg.output_dir, "rates.csv"), header, [columns])
    _write_csv(os.path.join(cfg.output_dir, "estimators.csv"),
               ["n", "trial", "est_ratio", "est_meaninit"],
               ((np.broadcast_to(b.n, b.y_sum.shape), range(b.y_sum.size),
                 b.est_ratio, b.est_meaninit) for b in blocks))
    print(os.path.join(cfg.output_dir, "rates.csv"))
    print(os.path.join(cfg.output_dir, "estimators.csv"))
    return 0


# ---------------------------------------------------------------------------
# verify: named identity checks
# ---------------------------------------------------------------------------

def _dev(a: float, b: float) -> float:
    """Deviation treating a matching pair of infinities as exact agreement."""
    if math.isinf(a) and math.isinf(b):
        return 0.0
    return abs(a - b)


def _check_prop1(tol: float) -> tuple[float, list[str]]:
    laws = [
        off.pmf_from_family("bernoulli", {"p": 0.3}),
        off.pmf_from_family("bernoulli", {"p": 0.5}),
        off.pmf_from_family("geometric", {"a": 0.3}, truncation_K=40),
        off.pmf_from_family("poisson", {"lambda": 0.6}, truncation_K=40),
    ]
    worst = 0.0
    notes = []
    for f in laws:
        for y in np.linspace(1.05, 6.0, 60):
            direct = ratefn.rate_progeny_direct(f, float(y)).value
            closed = ratefn.rate_progeny_closed(f, float(y)).value
            worst = max(worst, _dev(direct, closed))
    notes.append(f"4 laws x 60 grid points on [1.05, 6], tol {tol:g}")
    return worst, notes


def _default_model() -> prog.ProgenyModel:
    return prog.build_model(off.pmf_from_spec(_DEFAULT_F),
                            off.pmf_from_spec(_DEFAULT_G))


def _check_prop2(tol: float) -> tuple[float, list[str]]:
    model = _default_model()
    grid = np.linspace(1.0, 6.0, 22)[1:-1]
    worst = 0.0
    for y in grid:
        for z in grid:
            if not z < y:
                continue
            closed = ratefn.rate_bivariate(model, float(y), float(z)).value
            oracle = ratefn.rate_bivariate_oracle(model, float(y), float(z)).value
            worst = max(worst, _dev(oracle, closed))
    center = ratefn.rate_bivariate_oracle(model, 3.0, 1.5).value
    worst = max(worst, abs(center))
    return worst, [f"20x20 interior grid, zero at the joint mean, tol {tol:g}"]


def _check_prop3(tol: float) -> tuple[float, list[str]]:
    model = _default_model()
    worst = 0.0
    for x in np.linspace(0.0, 0.9, 40):
        closed = ratefn.rate_estimator_ratio(model, float(x)).value
        variational = ratefn.ratio_rate_via_contraction(model, float(x)).value
        worst = max(worst, _dev(variational, closed))
    return worst, [f"contraction vs closed form on 40 points of [0, 0.9], tol {tol:g}"]


def _check_prop4(tol: float) -> tuple[float, list[str]]:
    f = off.pmf_from_dict({0: 1.0})
    g = off.pmf_from_spec(_DEFAULT_G)
    model = prog.build_model(f, g)

    def i_g_closed(z: float) -> float:
        # relative entropy of (2-z, z-1) against the fair two-point law
        if not 1.0 <= z <= 2.0:
            return math.inf
        total = 0.0
        for w in (2.0 - z, z - 1.0):
            if w > 0.0:
                total += w * math.log(2.0 * w)
        return total

    worst = 0.0
    for x in np.linspace(-0.5, 0.95, 30):
        j = ratefn.rate_estimator_meaninit(model, float(x)).value
        expected = i_g_closed(model.mu_g / (1.0 - float(x)))
        worst = max(worst, _dev(j, expected))
    worst = max(worst, abs(ratefn.rate_estimator_meaninit(model, -0.5).value
                           - math.log(2.0)))
    for x in (-0.6, -1.0, -5.0):
        if math.isfinite(ratefn.rate_estimator_meaninit(model, x).value):
            worst = max(worst, math.inf)
    return worst, [f"childless offspring law collapses to I_g on the finite "
                   f"bracket, tol {tol:g}"]


def _check_corollary1(tol: float) -> tuple[float, list[str]]:
    model = _default_model()
    xs = np.linspace(0.0, 0.975, 40)
    rows = ratefn.compare_rates(model, xs)
    worst = 0.0
    for row in rows:
        if not row.leq_ok:
            worst = max(worst, row.j_random - row.j_diamond)
        gap = row.j_diamond - row.j_random
        if abs(row.x - model.mu_f) > 1e-12 and gap <= 1e-9:
            worst = max(worst, math.inf)   # equality away from the mean
        if abs(row.x - model.mu_f) <= 1e-12 and gap > 1e-9:
            worst = max(worst, gap)
    det_model = prog.build_model(model.f, off.pmf_from_dict({2: 1.0}))
    for row in ratefn.compare_rates(det_model, xs):
        worst = max(worst, _dev(row.j_random, row.j_diamond))
    return worst, [f"Jensen ordering with equality only at the offspring "
                   f"mean, tol {tol:g}"]


def _check_remark6(tol: float) -> tuple[float, list[str]]:
    f = off.pmf_from_dict({0: 1.0})
    model = prog.build_model(f, off.pmf_from_spec(_DEFAULT_G))
    worst = 0.0
    for x in np.linspace(0.0, 0.95, 20):
        j = ratefn.rate_estimator_ratio(model, float(x)).value
        i_f = ratefn.rate_offspring(f, float(x)).value
        j_det = ratefn.rate_estimator_deterministic(f, 1.5, float(x)).value
        worst = max(worst, _dev(j, i_f), _dev(j, j_det))
    return worst, [f"no-offspring law: ratio rate equals the offspring rate "
                   f"and the deterministic-start rate, tol {tol:g}"]


_CHECK_TABLE = {
    "prop1": (_check_prop1, 1e-6),
    "prop2": (_check_prop2, 1e-5),
    "prop3_contraction": (_check_prop3, 1e-6),
    "prop4_bracket": (_check_prop4, 1e-9),
    "corollary1": (_check_corollary1, 1e-10),
    "remark6": (_check_remark6, 1e-9),
}


def _cmd_verify(cfg: RunConfig) -> int:
    statuses, worsts, tols = [], [], []
    all_ok = True
    for name in cfg.checks:
        fn, default_tol = _CHECK_TABLE[name]
        tol = float(cfg.tolerances.get(name, default_tol))
        worst, notes = fn(tol)
        ok = worst <= tol
        all_ok &= ok
        status = "pass" if ok else "FAIL"
        print(f"{name}: {status} (max deviation {_fmt(worst)}, tol {_fmt(tol)})"
              f" -- {notes[0]}")
        statuses.append(status)
        worsts.append(worst)
        tols.append(tol)
    path = os.path.join(cfg.output_dir, "verify.csv")
    _write_csv(path, ["check", "status", "max_deviation", "tolerance"],
               [(cfg.checks, statuses, worsts, tols)])
    return 0 if all_ok else 1


_DISPATCH = {
    "extinction": _cmd_extinction,
    "progeny-pmf": _cmd_progeny_pmf,
    "rate": _cmd_rate,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwldp",
        description="Rate functions and rare-event Monte Carlo for "
                    "empirical means of branching-process total progeny.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config (scenario file for simulate)")
        p.add_argument("--out", help="output directory (default '.')")
        p.add_argument("--seed", type=int, help="64-bit master seed")
        p.add_argument("--grid", help="evaluation grid as lo:hi:points")
        p.add_argument("--f", help="inline offspring law spec (JSON)")
        p.add_argument("--g", help="inline initial law spec (JSON)")
        p.add_argument("--dump-config", action="store_true",
                       help="print the effective config JSON to stdout")
        if name == "rate":
            p.add_argument("--target", choices=RATE_TARGETS)
            p.add_argument("--route", choices=("closed", "direct"))
        if name == "progeny-pmf":
            p.add_argument("--k-max", type=int, dest="k_max")
        if name == "verify":
            p.add_argument("--checks", help="comma-separated check names")
    return parser


def _effective_config(args: argparse.Namespace) -> RunConfig:
    data = _load_json(args.config) if args.config else {}
    if args.command == "simulate" and args.config and "command" not in data \
            and "f" in data and "g" in data:
        # a bare scenario file is accepted directly
        data = {"command": "simulate", "scenario": data}
    cfg = _config_from_json(args.command, data)
    cfg.command = args.command
    if args.out is not None:
        cfg.output_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
        if cfg.scenario is not None:
            cfg.scenario = dict(cfg.scenario, master_seed=args.seed)
    if args.grid is not None:
        cfg.grid = _parse_grid_flag(args.grid)
    for flag in ("f", "g"):
        text = getattr(args, flag)
        if text is not None:
            try:
                spec = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--{flag} is not valid JSON: {exc.msg}") from exc
            setattr(cfg, f"{flag}_spec", spec)
    if getattr(args, "target", None) is not None:
        cfg.target = args.target
    if getattr(args, "route", None) is not None:
        cfg.route = args.route
    if getattr(args, "k_max", None) is not None:
        cfg.k_max = args.k_max
    if getattr(args, "checks", None) is not None:
        cfg.checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
        if args.dump_config:
            print(json.dumps(cfg.to_json_dict(), indent=2, sort_keys=True))
        os.makedirs(cfg.output_dir, exist_ok=True)
        return _DISPATCH[cfg.command](cfg)
    except (ConfigError, ParameterError, TruncationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (HypothesisError, PopulationCapError) as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
