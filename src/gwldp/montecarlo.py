"""Simulation of total progenies and empirical decay-rate estimation.

The estimators read a trial's n i.i.d. replications only through the sums
Y_sum and Z_sum.  By the branching property, given Z_sum = r the sum Y_sum
is the total progeny of one Galton-Watson tree started from r ancestors,
P(Y_sum = k | Z_sum = r) = (r/k) f^{*k}(k - r) (Dwass 1969), so each trial
simulates a single tree.  An offspring law on {0, 1} (Bernoulli(p), the
paper's running example) makes every lineage a chain, and the formula reads
Y_sum - r ~ NegBin(r, p_0): such a tree is drawn whole, in one negative
binomial step per trial.  For any other law a batch of trials advances
generation by generation; each draw, of Z_sum and of every generation's
size, is a sum of i.i.d. draws from one law, taken by the law's kernel in
one step whatever the count: a single Poisson or negative binomial draw for
the families closed under convolution, a multinomial split of the count
over the table for any other law, so a generation costs O(trials) or
O(trials x |supp f|) whatever its population.

Reproducibility contract: all randomness derives from the scenario's master
seed through fixed-purpose seed sequences keyed by (master_seed, purpose,
schedule index, chunk index), and chunk layout depends only on the scenario,
never on scheduling, so identical scenarios give identical outputs.  The
(schedule index, chunk) units of one call therefore run concurrently, one
thread per CPU the process may use: each unit draws from its own stream into
its own slice of the output, so which thread runs which unit cannot change a
bit.  Threads pay where NumPy's samplers release the GIL: the negative
binomial and the binomial do, so whole chain trees and two-point laws draw
through them, while the multinomial holds it for its whole loop (see
``offspring.LawKernel.sum_draws`` and ``offspring._table_draws``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import offspring as off
from . import progeny as prog
from . import ratefn
from .errors import ConfigError, HypothesisError, PopulationCapError, whole_number
from .offspring import Pmf
from .progeny import ProgenyModel, build_model

DEFAULT_POPULATION_CAP = 10 ** 7
# per-chunk element budget: trials_per_chunk * max(n, |supp f|, |supp g|)
# stays within it, capping the multinomial buffer a table law needs in one
# worker thread (the convolution laws and a whole chain tree need one entry
# per trial), so a call holds up to one such buffer per CPU; fixed so that
# streams are scenario-determined
_CHUNK_LINEAGES = 1 << 21
_Z95 = 1.959963984540054

_PURPOSE_REPLICATE = 0
_PURPOSE_TAIL_RANDOM = 1
_PURPOSE_TAIL_DETERMINISTIC = 2


@dataclass(frozen=True)
class Threshold:
    """A rare-event specification: mean_ge / mean_le level a, or estimator_dev
    epsilon.  The level is stored as a finite float, epsilon >= 0."""

    kind: str
    level: float

    def __post_init__(self):
        if self.kind not in ("mean_ge", "mean_le", "estimator_dev"):
            raise ConfigError(f"unknown threshold kind {self.kind!r}")
        try:
            level = float(self.level)
        except (TypeError, ValueError):
            level = math.nan
        if (isinstance(self.level, (bool, np.bool_))
                or not math.isfinite(level)):
            raise ConfigError(
                f"threshold level must be a finite number, got {self.level!r}")
        if self.kind == "estimator_dev" and level < 0.0:
            raise ConfigError(
                f"estimator_dev needs a deviation >= 0, got {self.level!r}")
        object.__setattr__(self, "level", level)

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
        sched = tuple(whole_number("n_schedule entry", n, 1) for n in self.n_schedule)
        if not sched:
            raise ConfigError("n_schedule must contain positive counts")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ConfigError("n_schedule must be strictly increasing")
        for name, minimum in (("trials", 1), ("master_seed", 0),
                              ("population_cap", 1)):
            object.__setattr__(self, name, whole_number(
                name, getattr(self, name), minimum))
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
                Threshold(t["kind"], t["level"])
                for t in data.get("thresholds", ())
            )
            return cls(
                f_spec=data["f"],
                g_spec=data["g"],
                n_schedule=tuple(data["n_schedule"]),
                trials=data["trials"],
                thresholds=thresholds,
                master_seed=data.get("master_seed", 0),
                population_cap=data.get("population_cap", DEFAULT_POPULATION_CAP),
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


def sample_progeny(f: Pmf, g: Pmf, rng: np.random.Generator,
                   population_cap: int = DEFAULT_POPULATION_CAP) -> tuple[int, int]:
    """Draw one (total progeny Y, initial population Z) pair.

    Z individuals to start, every individual having an offspring count from
    f, until extinction; the tree is drawn generation by generation, or in
    one negative-binomial step when f lives on {0, 1} and every lineage is a
    chain.  Y counts all individuals ever alive, so Y >= Z >= 1.
    """
    prog.require_subcritical(f, g)
    z = g.kernel.sum_draws(np.ones(1, dtype=np.int64), rng)
    y = _total_progeny_batch(f, z, rng, population_cap)
    return int(y[0]), int(z[0])


def _total_progeny_batch(f: Pmf, z: np.ndarray, rng: np.random.Generator,
                         population_cap: int) -> np.ndarray:
    """Total progeny of one tree per entry, started from ``z[i]`` ancestors.

    A law on {0, 1} draws each tree whole: every lineage is a chain that
    stops at each individual with probability p_0, so the z chains add
    NegBin(z, p_0) individuals to their ancestors, in one step.  Any other
    law advances the batch generation by generation until extinction.
    Either way PopulationCapError is raised when a total exceeds the cap.
    """
    total = z.astype(np.int64)
    if f.kernel.cgf.support_max <= 1.0:
        _add_chain_lengths(total, f.p0 / f.probs.sum(), rng, population_cap)
        return total
    active = np.flatnonzero(total)
    alive = total[active]
    while active.size:
        alive = f.kernel.sum_draws(alive, rng)
        total[active] += alive
        if (total[active] > population_cap).any():
            raise _cap_error(population_cap)
        keep = alive > 0
        active, alive = active[keep], alive[keep]
    return total


def _add_chain_lengths(total: np.ndarray, p0: float, rng: np.random.Generator,
                       population_cap: int) -> None:
    """Add NegBin(total[i], p0) to each entry of ``total`` in place.

    NumPy rejects a zero count, so entries of zero are masked out, but only
    when one is present: every caller's initial law has no mass at zero.
    NumPy also refuses p0 = 0, where every chain is endless, and some draws
    of mean 8e17 or more, which stay within the default cap of 1e7 with
    probability below 1e-10; either refusal is reported as the cap.
    """
    try:
        if total.all():
            total += rng.negative_binomial(total, p0)
        else:
            live = total > 0
            total[live] += rng.negative_binomial(total[live], p0)
    except ValueError as exc:
        raise _cap_error(population_cap) from exc
    if (total > population_cap).any():
        raise _cap_error(population_cap)


def _cap_error(population_cap: int) -> PopulationCapError:
    return PopulationCapError(f"a trial's total progeny exceeded the "
                              f"population cap {population_cap}")


def _stream(scenario: LdpScenario, purpose: int, n_index: int,
            chunk: int) -> np.random.Generator:
    seq = np.random.SeedSequence(
        (scenario.master_seed, purpose, n_index, chunk))
    return np.random.default_rng(seq)


def _replicate_sums(arms: list[tuple[LdpScenario, ProgenyModel, int]]
                    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per-trial sums of each (scenario, model, purpose) arm: one (n, y_sum,
    z_sum) block per n of its schedule, arm after arm.  The seeded units of
    all arms share one pool, so no thread idles while another arm has work."""
    # imported here: it loads logging, a few milliseconds that code which
    # never simulates should not pay when it imports gwldp
    from concurrent.futures import ThreadPoolExecutor

    out, units = [], []
    for scenario, model, purpose in arms:
        width = max(model.f.support.size, model.g.support.size)
        for n_index, n in enumerate(scenario.n_schedule):
            trials_per_chunk = max(1, _CHUNK_LINEAGES // max(n, width))
            y_sum = np.empty(scenario.trials, dtype=np.int64)
            z_sum = np.empty(scenario.trials, dtype=np.int64)
            starts = range(0, scenario.trials, trials_per_chunk)
            for chunk, start in enumerate(starts):
                stop = min(start + trials_per_chunk, scenario.trials)
                units.append((scenario, model, purpose, n_index, n, chunk,
                              y_sum[start:stop], z_sum[start:stop]))
            out.append((n, y_sum, z_sum))

    def draw(unit) -> None:
        scenario, model, purpose, n_index, n, chunk, y_part, z_part = unit
        rng = _stream(scenario, purpose, n_index, chunk)
        z_part[:] = model.g.kernel.sum_draws(
            np.full(z_part.size, n, dtype=np.int64), rng)
        y_part[:] = _total_progeny_batch(
            model.f, z_part, rng, scenario.population_cap)

    # map raises the error of the first failing unit in unit order and
    # cancels the units not yet started; leaving the block joins every thread
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for _ in pool.map(draw, units):
            pass
    return out


def replicate(scenario: LdpScenario) -> list[ReplicationBlock]:
    """Simulate the scenario: per n and trial, n i.i.d. (Y, Z) pairs.

    Returns one block per n with the per-trial sums and the two estimators of
    the offspring mean, (Ybar - Zbar)/Ybar and (Ybar - mu_g)/Ybar; both are
    always defined because the initial law carries no mass at zero.
    """
    model = scenario.model()
    prog.require_subcritical(model.f, model.g)
    sums = _replicate_sums([(scenario, model, _PURPOSE_REPLICATE)])
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
    prog.require_subcritical(model.f, model.g)
    if blocks is None:
        blocks = replicate(scenario)
    reference = reference_rate(model, threshold)
    records = []
    for block in blocks:
        hits = _event_hits(block, threshold, model.mu_f)
        trials = block.y_sum.size
        if hits >= 1:
            # + 0.0 prints a sure event's rate as 0, not -0
            rate = -math.log(hits / trials) / block.n + 0.0
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
    population identically mu_g).  The deterministic arm shares the scenario,
    its schedule, trials, seed and cap, and differs only in g and in the
    purpose key of its streams; with Z_sum = n mu_g surely, the ratio
    estimator of that arm is the mean-initial one.  The deterministic-start
    estimator decays at a strictly larger rate near the offspring mean, so
    its tail probability should fall below the random-start one as n grows.
    """
    model = scenario.model()
    prog.require_subcritical(model.f, model.g)
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
    det_model = build_model(model.f, off.pmf_from_dict({round(model.mu_g): 1.0}))
    sums = _replicate_sums([(scenario, model, _PURPOSE_TAIL_RANDOM),
                            (scenario, det_model, _PURPOSE_TAIL_DETERMINISTIC)])
    event = Threshold("estimator_dev", eps)
    hits = [_event_hits(ReplicationBlock(n, y, z, model.mu_g), event, model.mu_f)
            for n, y, z in sums]
    n_count, trials = len(scenario.n_schedule), scenario.trials
    rows = []
    for n, hits_rand, hits_det in zip(scenario.n_schedule, hits[:n_count],
                                      hits[n_count:]):
        p_rand, p_det = hits_rand / trials, hits_det / trials
        ratio = p_det / p_rand if hits_rand and hits_det else math.nan
        rows.append(TailRatioRow(n, trials, hits_det, hits_rand, p_det, p_rand,
                                 ratio, hits_det == 0, hits_rand == 0))
    return rows
