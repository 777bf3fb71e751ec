"""Command-line interface: config parsing, dispatch, CSV emission.

Commands
    extinction   print the unit-start extinction probability
    progeny-pmf  total-progeny law table (k, pi_k) with a deficit trailer
    rate         a rate function evaluated over a grid
    compare      random-start vs deterministic-start estimator rates
    simulate     run a replication scenario, emit rates.csv / estimators.csv
    verify       run the named identity checks, emit a pass/fail report

Exit status: 0 success, 1 a verify check failed, 2 configuration errors,
3 violated structural hypotheses, 4 numerical convergence failures.  All
CSVs use '.' decimals, LF line endings, a header row, and 12 significant
digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import montecarlo as mc
from . import offspring as off
from . import progeny as prog
from . import ratefn, verify
from .errors import (ConfigError, ConvergenceError, HypothesisError,
                     ParameterError, PopulationCapError, TruncationError,
                     whole_number)

COMMANDS = ("rate", "progeny-pmf", "extinction", "compare", "simulate", "verify")
RATE_TARGETS = ("offspring", "initial", "progeny", "estimator-ratio",
                "estimator-deterministic", "estimator-meaninit")
VERIFY_CHECKS = tuple(verify.CHECKS)
# config settings read and dumped as they are, each under its own name
_SCALARS = ("output_dir", "seed", "tolerances", "target", "route", "k_max")
# rows per CSV write; joining each 1e5-row estimators.csv block whole raised
# the peak RSS of `gwldp simulate` (1e5 trials, n = 10/20/40) from 50 to 67 MB
_CHUNK_ROWS = 1 << 13


@dataclass
class RunConfig:
    """Effective configuration of one CLI invocation."""

    command: str
    f_spec: dict = field(default_factory=lambda: dict(verify.F_SPEC))
    g_spec: dict = field(default_factory=lambda: dict(verify.G_SPEC))
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
        self.grid = (lo, hi, whole_number("grid points", points, 2))
        if self.target not in RATE_TARGETS:
            raise ConfigError(f"unknown rate target {self.target!r}")
        if self.route not in ("closed", "direct"):
            raise ConfigError(f"unknown route {self.route!r}")
        self.seed = whole_number("seed", self.seed, 0)
        self.k_max = whole_number("k_max", self.k_max, 1)
        unknown = set(self.checks) - set(VERIFY_CHECKS)
        if unknown:
            raise ConfigError(f"unknown verify checks: {sorted(unknown)}")
        if not isinstance(self.tolerances, dict) or any(
                name not in VERIFY_CHECKS or isinstance(tol, bool)
                or not isinstance(tol, (int, float)) or not tol >= 0.0
                for name, tol in self.tolerances.items()):
            raise ConfigError(f"tolerances must map verify check names to "
                              f"nonnegative numbers, got {self.tolerances!r}")
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
            "checks": list(self.checks),
            **{key: getattr(self, key) for key in _SCALARS},
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
            cfg.grid = (float(g["lo"]), float(g["hi"]), g["points"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"grid field invalid: {exc!r}") from exc
    for key in _SCALARS:
        if key in data:
            setattr(cfg, key, data[key])
    if "checks" in data:
        cfg.checks = tuple(data["checks"])
    if "scenario" in data:
        cfg.scenario = data["scenario"]
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
    if isinstance(value, (bool, np.bool_)):
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


def _write_estimators(path: str, blocks) -> None:
    """Write ``estimators.csv``, formatting each distinct (Y_sum, Z_sum) pair
    of a block once: both estimators are functions of the pair alone, so a
    row is its ``n,trial`` prefix plus its pair's ``,est_ratio,est_meaninit``
    tail, and rows are joined ``_CHUNK_ROWS`` at a time.  Pairs are keyed
    by their dense ranks, ry * (distinct z) + rz, which stays below rows**2
    and so fits int64 for any block of up to 3e9 rows, whatever the sums.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,trial,est_ratio,est_meaninit\n")
        for b in blocks:
            uy, ry = np.unique(b.y_sum, return_inverse=True)
            uz, rz = np.unique(b.z_sum, return_inverse=True)
            keys, pair = np.unique(ry * uz.size + rz, return_inverse=True)
            est = replace(b, y_sum=uy[keys // uz.size], z_sum=uz[keys % uz.size])
            tails = np.array([f",{_fmt(r)},{_fmt(m)}\n" for r, m in zip(
                est.est_ratio.tolist(), est.est_meaninit.tolist())], dtype=object)
            for start in range(0, pair.size, _CHUNK_ROWS):
                stop = min(start + _CHUNK_ROWS, pair.size)
                cells = [f"{b.n},"] * (3 * (stop - start))
                cells[1::3] = map(str, range(start, stop))
                cells[2::3] = tails[pair[start:stop]].tolist()
                fh.write("".join(cells))


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


# each rate target's call on (model, x), progeny's keyed by route too; the
# lambdas look ratefn's functions up at call time, where tracers patch them
_RATES = {
    "offspring": lambda m, x: ratefn.rate_offspring(m.f, x),
    "initial": lambda m, x: ratefn.rate_initial(m.g, x),
    ("progeny", "closed"): lambda m, x: ratefn.rate_progeny_closed(m.f, x),
    ("progeny", "direct"): lambda m, x: ratefn.rate_progeny_direct(m.f, x),
    "estimator-ratio": lambda m, x: ratefn.rate_estimator_ratio(m, x),
    "estimator-deterministic":
        lambda m, x: ratefn.rate_estimator_deterministic(m.f, m.mu_g, x),
    "estimator-meaninit": lambda m, x: ratefn.rate_estimator_meaninit(m, x),
}


def _cmd_rate(cfg: RunConfig) -> int:
    xs = _grid_values(cfg.grid)
    model = prog.build_model(off.pmf_from_spec(cfg.f_spec),
                             off.pmf_from_spec(cfg.g_spec))
    rate = _RATES[(cfg.target, cfg.route) if cfg.target == "progeny"
                  else cfg.target]
    rvs = [rate(model, float(x)) for x in xs]
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
    _write_estimators(os.path.join(cfg.output_dir, "estimators.csv"), blocks)
    print(os.path.join(cfg.output_dir, "rates.csv"))
    print(os.path.join(cfg.output_dir, "estimators.csv"))
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    statuses, worsts, tols = [], [], []
    for name in cfg.checks:
        _, default_tol, note = verify.CHECKS[name]
        tol = float(cfg.tolerances.get(name, default_tol))
        worst = verify.worst_deviation(name)
        status = "pass" if worst <= tol else "FAIL"
        print(f"{name}: {status} (max deviation {_fmt(worst)}, tol {_fmt(tol)})"
              f" -- {note}, tol {tol:g}")
        statuses.append(status)
        worsts.append(worst)
        tols.append(tol)
    path = os.path.join(cfg.output_dir, "verify.csv")
    _write_csv(path, ["check", "status", "max_deviation", "tolerance"],
               [(cfg.checks, statuses, worsts, tols)])
    return 1 if "FAIL" in statuses else 0


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

# built once per process: building costs tens of times more than a parse,
# and parse_args leaves the parser unchanged
@functools.cache
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
    for name in ("target", "route", "k_max"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
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
