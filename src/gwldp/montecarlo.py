"""Simulation of total progenies and empirical decay-rate estimation.

The estimators read a trial's n i.i.d. replications only through the sums
Y_sum and Z_sum.  By the branching property, given Z_sum = r the sum Y_sum
is the total progeny of one Galton-Watson tree started from r ancestors,
P(Y_sum = k | Z_sum = r) = (r/k) f^{*k}(k - r) (Dwass 1969), so each trial
simulates a single tree.  A batch of trials advances generation by
generation; each draw, of Z_sum and of every generation's size, is one
multinomial split of a count over the law's support, so a generation costs
O(trials x |supp f|) whatever its population.

Reproducibility contract: all randomness derives from the scenario's master
seed through fixed-purpose seed sequences keyed by (master_seed, purpose,
schedule index, chunk index), and chunk layout depends only on the scenario,
never on scheduling, so identical scenarios give identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import offspring as off
from . import progeny as prog
from . import ratefn
from .errors import ConfigError, HypothesisError, PopulationCapError
from .offspring import Pmf
from .progeny import ProgenyModel, build_model

DEFAULT_POPULATION_CAP = 10 ** 7
# per-chunk element budget: trials_per_chunk * max(n, |supp f|, |supp g|)
# stays within it, capping each multinomial buffer; fixed so that streams
# are scenario-determined
_CHUNK_LINEAGES = 1 << 21
_Z95 = 1.959963984540054

_PURPOSE_REPLICATE = 0
_PURPOSE_TAIL_RANDOM = 1
_PURPOSE_TAIL_DETERMINISTIC = 2


def _sum_draws(pmf: Pmf, counts: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """Per entry, the sum of ``counts[i]`` i.i.d. draws from ``pmf``.

    One multinomial vector per entry splits its draws over the support
    points, so the cost grows with the support, not with the counts.  The
    truncated table is renormalized before sampling; the bias this
    introduces is bounded by the recorded deficit (at most 1e-9 for laws
    built from the family constructors).
    """
    return rng.multinomial(counts, pmf.probs / pmf.probs.sum()) @ pmf.support


@dataclass(frozen=True)
class Threshold:
    """A rare-event specification: mean_ge / mean_le level a, or estimator_dev epsilon."""

    kind: str
    level: float

    def __post_init__(self):
        if self.kind not in ("mean_ge", "mean_le", "estimator_dev"):
            raise ConfigError(f"unknown threshold kind {self.kind!r}")

    def label(self) -> str:
        return f"{self.kind}:{self.level:g}"


@dataclass(frozen=True)
class LdpScenario:
    """Configuration of a replication experiment.

    ``n_schedule`` lists the replication counts (strictly increasing),
    ``trials`` the independent repetitions per count, and ``population_cap``
    bounds a trial's total progeny, summed over its n lineages, so that
    mis-specified supercritical inputs fail loudly instead of looping.  The
    sum is at least any one lineage's progeny, so the cap bounds every
    lineage too.
    """

    f_spec: dict
    g_spec: dict
    n_schedule: tuple[int, ...]
    trials: int
    thresholds: tuple[Threshold, ...] = ()
    master_seed: int = 0
    population_cap: int = DEFAULT_POPULATION_CAP

    def __post_init__(self):
        sched = tuple(int(n) for n in self.n_schedule)
        if not sched or any(n < 1 for n in sched):
            raise ConfigError("n_schedule must contain positive counts")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ConfigError("n_schedule must be strictly increasing")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.population_cap < 1:
            raise ConfigError("population_cap must be >= 1")
        object.__setattr__(self, "n_schedule", sched)
        object.__setattr__(self, "thresholds", tuple(self.thresholds))

    def model(self) -> ProgenyModel:
        return build_model(off.pmf_from_spec(self.f_spec),
                           off.pmf_from_spec(self.g_spec))

    @classmethod
    def from_json_dict(cls, data: dict) -> "LdpScenario":
        if not isinstance(data, dict):
            raise ConfigError("scenario must be a JSON object")
        try:
            thresholds = tuple(
                Threshold(t["kind"], float(t["level"]))
                for t in data.get("thresholds", ())
            )
            return cls(
                f_spec=data["f"],
                g_spec=data["g"],
                n_schedule=tuple(data["n_schedule"]),
                trials=int(data["trials"]),
                thresholds=thresholds,
                master_seed=int(data.get("master_seed", 0)),
                population_cap=int(data.get("population_cap",
                                            DEFAULT_POPULATION_CAP)),
            )
        except KeyError as exc:
            raise ConfigError(f"scenario is missing field {exc.args[0]!r}") from exc
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"scenario field invalid: {exc}") from exc

    def to_json_dict(self) -> dict:
        return {
            "f": self.f_spec,
            "g": self.g_spec,
            "n_schedule": list(self.n_schedule),
            "trials": self.trials,
            "thresholds": [{"kind": t.kind, "level": t.level}
                           for t in self.thresholds],
            "master_seed": self.master_seed,
            "population_cap": self.population_cap,
        }


@dataclass(frozen=True)
class EmpiricalRate:
    """A finite-n decay-rate estimate -(1/n) log(hits/trials).

    When no trial hits the event the estimate is censored and carries the
    one-sided bound -(1/n) log(1/trials) instead.
    """

    n: int
    threshold: Threshold
    hits: int
    trials: int
    rate_estimate: float
    ci_halfwidth: float
    reference_rate: float
    censored: bool


@dataclass(frozen=True)
class ReplicationBlock:
    """Per-trial sums and estimators for one replication count n."""

    n: int
    y_sum: np.ndarray
    z_sum: np.ndarray
    mu_g: float

    @property
    def y_bar(self) -> np.ndarray:
        return self.y_sum / self.n

    @property
    def z_bar(self) -> np.ndarray:
        return self.z_sum / self.n

    @property
    def est_ratio(self) -> np.ndarray:
        return (self.y_sum - self.z_sum) / self.y_sum

    @property
    def est_meaninit(self) -> np.ndarray:
        return (self.y_sum - self.n * self.mu_g) / self.y_sum


@dataclass(frozen=True)
class TailRatioRow:
    """Tail probabilities of the two estimators of the offspring mean at one n."""

    n: int
    trials: int
    hits_deterministic: int
    hits_random: int
    p_deterministic: float
    p_random: float
    ratio: float
    censored_deterministic: bool
    censored_random: bool


def _require_simulable(model: ProgenyModel) -> None:
    if model.mu_f >= 1.0:
        raise HypothesisError(
            f"simulation needs a strictly subcritical offspring law, got mean "
            f"{model.mu_f!r}"
        )
    if not model.q0_zero:
        raise HypothesisError(
            f"simulation needs an initial law with no mass at zero, got "
            f"q_0={model.g.p0!r}"
        )


def sample_progeny(f: Pmf, g: Pmf, rng: np.random.Generator,
                   population_cap: int = DEFAULT_POPULATION_CAP) -> tuple[int, int]:
    """Draw one (total progeny Y, initial population Z) pair.

    Runs the generation recursion: Z individuals to start, every individual
    alive drawing an offspring count from f, until extinction.  Y counts all
    individuals ever alive, so Y >= Z >= 1.
    """
    _require_simulable(build_model(f, g))
    z = _sum_draws(g, np.ones(1, dtype=np.int64), rng)
    y = _total_progeny_batch(f, z, rng, population_cap)
    return int(y[0]), int(z[0])


def _total_progeny_batch(f: Pmf, z: np.ndarray, rng: np.random.Generator,
                         population_cap: int) -> np.ndarray:
    """Total progeny of one tree per entry, started from ``z[i]`` ancestors."""
    total = z.astype(np.int64)
    active = np.flatnonzero(total)
    alive = total[active]
    while active.size:
        alive = _sum_draws(f, alive, rng)
        total[active] += alive
        if (total[active] > population_cap).any():
            raise PopulationCapError(
                f"a trial's total progeny exceeded the population cap "
                f"{population_cap}"
            )
        keep = alive > 0
        active, alive = active[keep], alive[keep]
    return total


def _stream(scenario: LdpScenario, purpose: int, n_index: int,
            chunk: int) -> np.random.Generator:
    seq = np.random.SeedSequence(
        (scenario.master_seed, purpose, n_index, chunk))
    return np.random.default_rng(seq)


def _replicate_sums(scenario: LdpScenario, model: ProgenyModel,
                    purpose: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    width = max(model.f.support.size, model.g.support.size)
    out = []
    for n_index, n in enumerate(scenario.n_schedule):
        trials_per_chunk = max(1, _CHUNK_LINEAGES // max(n, width))
        y_sum = np.empty(scenario.trials, dtype=np.int64)
        z_sum = np.empty(scenario.trials, dtype=np.int64)
        starts = range(0, scenario.trials, trials_per_chunk)
        for chunk, start in enumerate(starts):
            stop = min(start + trials_per_chunk, scenario.trials)
            rng = _stream(scenario, purpose, n_index, chunk)
            z_sum[start:stop] = _sum_draws(
                model.g, np.full(stop - start, n, dtype=np.int64), rng)
            y_sum[start:stop] = _total_progeny_batch(
                model.f, z_sum[start:stop], rng, scenario.population_cap)
        out.append((n, y_sum, z_sum))
    return out


def replicate(scenario: LdpScenario) -> list[ReplicationBlock]:
    """Simulate the scenario: per n and trial, n i.i.d. (Y, Z) pairs.

    Returns one block per n with the per-trial sums and the two estimators of
    the offspring mean, (Ybar - Zbar)/Ybar and (Ybar - mu_g)/Ybar; both are
    always defined because the initial law carries no mass at zero.
    """
    model = scenario.model()
    _require_simulable(model)
    sums = _replicate_sums(scenario, model, _PURPOSE_REPLICATE)
    return [ReplicationBlock(n, ys, zs, model.mu_g) for n, ys, zs in sums]


def _wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    p_hat = hits / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / trials
                            + z2 / (4.0 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _event_hits(block: ReplicationBlock, threshold: Threshold,
                mu_f: float) -> int:
    n = block.n
    if threshold.kind == "mean_ge":
        return int(np.count_nonzero(block.y_sum >= threshold.level * n - 1e-9))
    if threshold.kind == "mean_le":
        return int(np.count_nonzero(block.y_sum <= threshold.level * n + 1e-9))
    dev = np.abs(block.est_ratio - mu_f)
    return int(np.count_nonzero(dev >= threshold.level - 1e-12))


def reference_rate(model: ProgenyModel, threshold: Threshold) -> float:
    """Rate-function infimum over the threshold event's closure.

    The marginal rate is convex with its zero at nu, so for one-sided mean
    events the infimum is the rate at the level itself (0 when the level is
    on the mean's side).
    """
    a = threshold.level
    if threshold.kind == "mean_ge":
        return ratefn.rate_progeny_marginal(model, a).value if a > model.nu else 0.0
    if threshold.kind == "mean_le":
        return ratefn.rate_progeny_marginal(model, a).value if a < model.nu else 0.0
    sides = (model.mu_f - a, model.mu_f + a)
    return min(ratefn.rate_estimator_ratio(model, x).value for x in sides)


def empirical_rate(scenario: LdpScenario, threshold: Threshold,
                   blocks: list[ReplicationBlock] | None = None
                   ) -> list[EmpiricalRate]:
    """Estimate the exponential decay rate of a threshold event per n.

    Zero hits at some n is reported as a censored record, not an error.
    """
    model = scenario.model()
    _require_simulable(model)
    if blocks is None:
        blocks = replicate(scenario)
    reference = reference_rate(model, threshold)
    records = []
    for block in blocks:
        hits = _event_hits(block, threshold, model.mu_f)
        trials = block.y_sum.size
        if hits >= 1:
            rate = -math.log(hits / trials) / block.n
            p_lo, p_hi = _wilson_interval(hits, trials)
            rate_lo = -math.log(p_hi) / block.n
            rate_hi = -math.log(p_lo) / block.n if p_lo > 0.0 else math.inf
            record = EmpiricalRate(block.n, threshold, hits, trials, rate,
                                   (rate_hi - rate_lo) / 2.0, reference, False)
        else:
            bound = math.log(trials) / block.n
            record = EmpiricalRate(block.n, threshold, 0, trials, bound,
                                   math.nan, reference, True)
        records.append(record)
    return records


def estimator_tail_ratio(scenario: LdpScenario, eps: float
                         ) -> list[TailRatioRow]:
    """Compare tail probabilities of the two offspring-mean estimators.

    Runs paired, independently seeded simulations: one with the scenario's
    random initial law, one with the deterministic comparison start (initial
    population identically mu_g).  The deterministic-start estimator decays
    at a strictly larger rate near the offspring mean, so its tail
    probability should fall below the random-start one as n grows.
    """
    model = scenario.model()
    _require_simulable(model)
    if model.mu_f <= 0.0:
        raise HypothesisError(
            "tail comparison needs a positive offspring mean; with no "
            "offspring the two estimators coincide"
        )
    if model.g.support.size < 2:
        raise HypothesisError(
            "tail comparison needs a nondegenerate initial law; a "
            "deterministic start makes both arms identical"
        )
    if abs(model.mu_g - round(model.mu_g)) > 1e-9:
        raise HypothesisError(
            f"tail comparison needs an integer initial-population mean to "
            f"define the deterministic-start process, got {model.mu_g!r}"
        )
    mu_g = int(round(model.mu_g))
    det_scenario = LdpScenario(
        f_spec=scenario.f_spec,
        g_spec={"family": "explicit", "params": {"probs": [[mu_g, 1.0]]}},
        n_schedule=scenario.n_schedule,
        trials=scenario.trials,
        thresholds=(),
        master_seed=scenario.master_seed,
        population_cap=scenario.population_cap,
    )
    det_model = det_scenario.model()
    rand_sums = _replicate_sums(scenario, model, _PURPOSE_TAIL_RANDOM)
    det_sums = _replicate_sums(det_scenario, det_model,
                               _PURPOSE_TAIL_DETERMINISTIC)
    rows = []
    for (n, y_rand, z_rand), (_, y_det, z_det) in zip(rand_sums, det_sums):
        est_rand = (y_rand - z_rand) / y_rand
        est_det = (y_det - n * float(mu_g)) / y_det
        hits_rand = int(np.count_nonzero(
            np.abs(est_rand - model.mu_f) >= eps - 1e-12))
        hits_det = int(np.count_nonzero(
            np.abs(est_det - model.mu_f) >= eps - 1e-12))
        p_rand = hits_rand / scenario.trials
        p_det = hits_det / scenario.trials
        ratio = p_det / p_rand if hits_rand and hits_det else math.nan
        rows.append(TailRatioRow(n, scenario.trials, hits_det, hits_rand,
                                 p_det, p_rand, ratio,
                                 hits_det == 0, hits_rand == 0))
    return rows
