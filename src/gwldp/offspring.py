"""Probability laws on the nonnegative integers and their generating functions.

A law is stored as an explicit table of (support point, probability) pairs.
Infinite-support families (geometric, Poisson) are truncated at a caller-chosen
index; the unrepresented mass is recorded in ``truncation_deficit``.  Every law
binds its kernel once, at construction: f, f', the cgf log f(e^theta) and its
derivative, the mean, the convergence domain, the support ends and a sampler
of sums of i.i.d. draws, from the family's exact closed forms where the law is
tagged, so neither the transforms nor the simulation downstream inherit
truncation bias.  No other module reads the family tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError, TruncationError

MASS_TOL = 1e-12        # |sum(probs) + deficit - 1| accepted at construction
DEFICIT_LIMIT = 1e-9    # family builders must represent all but this much mass
_LOG2 = math.log(2.0)

FAMILIES = ("bernoulli", "geometric", "poisson", "explicit")


@dataclass(frozen=True, eq=False)
class CgfEvaluator:
    """A cumulant generating function Lambda(theta) = log E[exp(theta*W)].

    ``dfn`` is its exact derivative, the mean of W tilted by exp(theta*W).
    Carries the support metadata the conjugate solver needs for the exact
    boundary values: the rate at the minimum (maximum) support point of W is
    -log P(W = min) (resp. max), attained as theta -> -inf (+inf).
    """

    fn: Callable[[float], float]
    dfn: Callable[[float], float]
    mean: float
    theta_max: float
    support_min: float
    support_max: float
    log_mass_min: float
    log_mass_max: float | None = None


@dataclass(frozen=True, eq=False, slots=True)
class LawKernel:
    """The exact closed forms of one law, bound once when the law is built.

    ``pgf`` and ``dpgf`` are f and f' on u >= 0, infinite beyond the radius.
    ``cgf`` is log f(e^theta), its derivative the tilted mean, with the exact
    mean, theta_max = log(radius) and the positive-mass support ends, infinite
    for the geometric and Poisson families.  ``u_star`` is the tangency
    u f'(u) = f(u) where a closed form gives it (infinite for a linear f).
    ``sum_draws(counts, rng)`` returns, per entry, the sum of ``counts[i]``
    i.i.d. draws from the law, 0 for a zero count: one Poisson(lam * c) or
    NegBin(c, 1 - a) draw for the families closed under convolution, one
    split of the count over the table otherwise (``_table_draws``).
    """

    pgf: Callable[[float], float]
    dpgf: Callable[[float], float]
    cgf: CgfEvaluator
    radius: float
    u_star: float | None
    sum_draws: Callable[[np.ndarray, np.random.Generator], np.ndarray]


@dataclass(frozen=True, eq=False, slots=True)
class Pmf:
    """An integer-supported probability mass function.

    ``support`` is strictly increasing, ``probs`` aligns with it, and
    ``sum(probs) + truncation_deficit == 1`` up to ``MASS_TOL``.  Instances
    are immutable and safe to share across threads.  ``kernel`` is bound in
    ``__post_init__``.  The fields are slots: no attribute can be added after
    construction, which would de-specialize CPython's attribute loads on every
    hot path that reads a law.
    """

    support: np.ndarray
    probs: np.ndarray
    truncation_deficit: float = 0.0
    family: str = "explicit"
    params: dict = field(default_factory=dict)
    kernel: LawKernel = field(init=False, repr=False)

    def __post_init__(self):
        support = np.ascontiguousarray(self.support, dtype=np.int64)
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if support.ndim != 1 or support.shape != probs.shape or support.size == 0:
            raise ParameterError("support and probs must be equal-length 1-D arrays")
        if np.any(support < 0):
            raise ParameterError("support points must be nonnegative integers")
        if np.any(np.diff(support) <= 0):
            raise ParameterError("support points must be distinct and increasing")
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise ParameterError("probabilities must lie in [0, 1]")
        if not self.truncation_deficit >= 0.0:
            raise ParameterError("truncation_deficit must be nonnegative")
        total = float(probs.sum()) + self.truncation_deficit
        if not abs(total - 1.0) <= MASS_TOL:
            raise ParameterError(
                f"mass check failed: sum(probs) + deficit = {total!r} is not 1 "
                f"within {MASS_TOL}"
            )
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family tag {self.family!r}")
        support.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "kernel", _bind_kernel(self))

    # -- small conveniences used throughout -------------------------------

    @property
    def p0(self) -> float:
        """Mass at zero (0.0 when 0 is not a support point)."""
        return float(self.probs[0]) if self.support[0] == 0 else 0.0

    @property
    def min_support(self) -> int:
        return int(self.support[0])

    @property
    def max_support(self) -> int:
        return int(self.support[-1])

    def prob(self, k: int) -> float:
        idx = np.searchsorted(self.support, k)
        if idx < self.support.size and self.support[idx] == k:
            return float(self.probs[idx])
        return 0.0

    def as_dict(self) -> dict[int, float]:
        return {int(k): float(p) for k, p in zip(self.support, self.probs)}


def pmf_from_family(family: str, params: dict, truncation_K: int | None = None) -> Pmf:
    """Build a law from a named family.

    geometric uses p_h = (1-a) * a**h and poisson p_h = exp(-lam) * lam**h / h!;
    both require ``truncation_K >= 1`` and must leave a deficit below
    ``DEFICIT_LIMIT``, otherwise a TruncationError asks the caller to raise K.
    """
    if family == "bernoulli":
        p = _param(params, "p")
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"bernoulli p must be in [0, 1], got {p}")
        if p == 0.0:
            return Pmf(np.array([0]), np.array([1.0]), family="bernoulli", params={"p": p})
        if p == 1.0:
            return Pmf(np.array([1]), np.array([1.0]), family="bernoulli", params={"p": p})
        return Pmf(np.array([0, 1]), np.array([1.0 - p, p]),
                   family="bernoulli", params={"p": p})

    if family == "geometric":
        a = _param(params, "a")
        if not 0.0 < a < 1.0:
            raise ParameterError(f"geometric ratio a must be in (0, 1), got {a}")
        k_max = _check_truncation(family, truncation_K)
        h = np.arange(k_max + 1)
        probs = (1.0 - a) * a ** h
        return _truncated(h, probs, "geometric", {"a": a})

    if family == "poisson":
        lam = _param(params, "lambda")
        if not lam > 0.0:
            raise ParameterError(f"poisson lambda must be positive, got {lam}")
        k_max = _check_truncation(family, truncation_K)
        h = np.arange(k_max + 1)
        log_probs = -lam + h * math.log(lam) - np.array([math.lgamma(x + 1) for x in h])
        return _truncated(h, np.exp(log_probs), "poisson", {"lambda": lam})

    if family == "explicit":
        table = params.get("probs")
        if not table:
            raise ParameterError("explicit family needs a nonempty 'probs' table")
        if isinstance(table, dict):
            pairs = sorted((int(k), float(v)) for k, v in table.items())
        else:
            pairs = sorted((int(k), float(v)) for k, v in table)
        support = np.array([k for k, _ in pairs], dtype=np.int64)
        probs = np.array([v for _, v in pairs])
        return Pmf(support, probs, family="explicit")

    raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")


def pmf_from_dict(table: dict[int, float]) -> Pmf:
    """Shorthand for an explicit law given as {support: probability}."""
    return pmf_from_family("explicit", {"probs": table})


def pmf_from_spec(spec: dict) -> Pmf:
    """Parse the shared JSON distribution sub-format.

    ``{"family": ..., "params": {...}, "truncation_K": int}`` where explicit
    laws list their table as [support, prob] pairs under params.probs.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise ParameterError("distribution spec must be an object with a 'family' key")
    return pmf_from_family(spec["family"], spec.get("params", {}),
                           spec.get("truncation_K"))


def pmf_to_spec(pmf: Pmf) -> dict:
    """Inverse of pmf_from_spec, suitable for JSON round trips."""
    if pmf.family == "explicit":
        params = {"probs": [[int(k), float(p)] for k, p in zip(pmf.support, pmf.probs)]}
        return {"family": "explicit", "params": params}
    spec = {"family": pmf.family, "params": dict(pmf.params)}
    if pmf.family in ("geometric", "poisson"):
        spec["truncation_K"] = pmf.max_support
    return spec


def pgf_eval(pmf: Pmf, s: float) -> float:
    """Evaluate the generating function sum(s**h * p_h) over the stored table.

    Returns ``inf`` when ``s`` reaches the convergence radius of the declared
    family and the series diverges there.  For truncated laws the value at
    s <= 1 understates the exact one by at most the recorded deficit.
    """
    if s < 0.0:
        raise ParameterError(f"pgf argument must be nonnegative, got {s}")
    # at the radius only the point mass at zero stays finite
    radius = pmf.kernel.radius
    if s > radius or (s == radius and pmf.max_support > 0):
        return math.inf
    return _series(pmf.support.astype(np.float64), pmf.probs, s)


def pgf_exact(pmf: Pmf, s: float) -> float:
    """f(s) of the untruncated law: the family closed form, or the exact table."""
    if s < 0.0:
        raise ParameterError(f"pgf argument must be nonnegative, got {s}")
    return pmf.kernel.pgf(s)


def mean(pmf: Pmf) -> float:
    """Mean over the stored support.

    For a truncated law this understates the exact mean by at most
    K * truncation_deficit; use mean_exact when the family tag is known.
    """
    return float(np.dot(pmf.support.astype(np.float64), pmf.probs))


def mean_exact(pmf: Pmf) -> float:
    """Mean of the untruncated law, via the family closed form when tagged."""
    return pmf.kernel.cgf.mean


def _param(params: dict, key: str) -> float:
    if key not in params:
        raise ParameterError(f"missing family parameter {key!r}")
    return float(params[key])


def _check_truncation(family: str, truncation_K: int | None) -> int:
    if truncation_K is None or int(truncation_K) < 1:
        raise ParameterError(
            f"{family} has infinite support and needs truncation_K >= 1"
        )
    return int(truncation_K)


def _truncated(support: np.ndarray, probs: np.ndarray, family: str, params: dict) -> Pmf:
    deficit = max(1.0 - float(probs.sum()), 0.0)
    if deficit > DEFICIT_LIMIT:
        raise TruncationError(
            f"truncation leaves deficit {deficit:.3e} > {DEFICIT_LIMIT}; "
            f"raise truncation_K"
        )
    return Pmf(support, probs, truncation_deficit=deficit, family=family,
               params=params)


def _series(sup: np.ndarray, probs: np.ndarray, s: float) -> float:
    with np.errstate(over="ignore"):
        terms = np.power(float(s), sup) * probs
        total = float(terms.sum())
    return total if math.isfinite(total) else math.inf


def _bind_kernel(pmf: Pmf) -> LawKernel:
    """The law's kernel: the family closed forms where tagged, else the table."""
    nz = np.flatnonzero(pmf.probs)
    if nz.size == 0:
        raise ParameterError("a law needs a support point of positive mass")
    lo, hi = nz[0], nz[-1]
    ends = {"support_min": float(pmf.support[lo]),
            "log_mass_min": math.log(float(pmf.probs[lo])),
            "support_max": float(pmf.support[hi]),
            "log_mass_max": math.log(float(pmf.probs[hi]))}
    if pmf.family in ("geometric", "poisson"):    # the table is truncated
        ends.update(support_max=math.inf, log_mass_max=None)
    if pmf.family == "geometric":
        return _geometric_kernel(pmf.params["a"], ends)
    if pmf.family == "poisson":
        return _poisson_kernel(pmf.params["lambda"], ends)
    if pmf.family == "bernoulli":
        return _bernoulli_kernel(pmf.params["p"], ends, _table_draws(pmf))
    return _explicit_kernel(pmf, ends, _table_draws(pmf))


def _table_draws(pmf: Pmf):
    """Sums of i.i.d. draws from the table, one multinomial split of each count
    over the support points, so the cost grows with the support, not with the
    counts.  The table is renormalized first; for one that records a
    truncation deficit the draws are biased by at most that deficit.

    A law on exactly two points draws the count at the lower point with
    ``rng.binomial`` instead.  For two categories NumPy's multinomial draws
    exactly that one binomial per entry, in entry order, so the sums and the
    generator's state afterwards are identical; but the binomial releases
    the GIL, so concurrent chunks overlap, while the multinomial holds it.
    """
    support = pmf.support
    probs = pmf.probs / pmf.probs.sum()
    if support.size != 2:
        return lambda counts, rng: rng.multinomial(counts, probs) @ support
    p_low, low_point, high_point = probs[0], support[0], support[1]

    def sum_draws(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        low = rng.binomial(counts, p_low)
        total = counts - low
        total *= high_point
        low *= low_point
        total += low
        return total
    return sum_draws


def _bernoulli_kernel(p: float, ends: dict, sum_draws) -> LawKernel:
    q = 1.0 - p
    if p == 0.0 or p == 1.0:
        def log_pgf(log_s: float) -> float:
            if log_s > 708.0:
                return math.inf
            return log_s if p == 1.0 else 0.0

        def tilted_mean(theta: float) -> float:
            return p
    else:
        log_q, log_p = math.log(q), math.log(p)

        def log_pgf(log_s: float) -> float:
            # numpy's logaddexp(log_q, log_p + log_s), step for step, in
            # scalar libm calls
            if log_s > 708.0:
                return math.inf
            y = log_p + log_s
            if log_q == y:
                return log_q + _LOG2
            tmp = log_q - y
            if tmp > 0.0:
                return log_q + math.log1p(math.exp(-tmp))
            if tmp <= 0.0:
                return y + math.log1p(math.exp(tmp))
            return tmp

        def tilted_mean(theta: float) -> float:
            if theta <= 0.0:      # p e^theta / (q + p e^theta), exponent <= 0
                w = p * math.exp(theta)
                return w / (q + w)
            return p / (p + q * math.exp(-theta))
    cgf = CgfEvaluator(log_pgf, tilted_mean, mean=p, theta_max=math.inf, **ends)
    return LawKernel(lambda s: q + p * s, lambda s: p, cgf, radius=math.inf,
                     u_star=math.inf, sum_draws=sum_draws)


def _geometric_kernel(a: float, ends: dict) -> LawKernel:
    edge, log_1ma = -math.log(a), math.log(1.0 - a)

    def pgf(s: float) -> float:
        if a * s >= 1.0:
            return math.inf
        return (1.0 - a) / (1.0 - a * s)

    def dpgf(s: float) -> float:
        if a * s >= 1.0:
            return math.inf
        return (1.0 - a) * a / (1.0 - a * s) ** 2

    def log_pgf(log_s: float) -> float:
        if log_s > 708.0 or log_s >= edge:
            return math.inf
        return log_1ma - math.log1p(-a * math.exp(log_s))

    def tilted_mean(theta: float) -> float:
        w = a * math.exp(theta) if theta < edge else 1.0
        return w / (1.0 - w) if w < 1.0 else math.inf

    def sum_draws(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # c geometric(a) draws sum to NegBin(c, 1 - a); NumPy rejects c = 0
        live = counts > 0
        total = np.zeros_like(counts)
        total[live] = rng.negative_binomial(counts[live], 1.0 - a)
        return total
    cgf = CgfEvaluator(log_pgf, tilted_mean, mean=a / (1.0 - a), theta_max=edge,
                       **ends)
    return LawKernel(pgf, dpgf, cgf, radius=1.0 / a, u_star=0.5 / a,
                     sum_draws=sum_draws)


def _poisson_kernel(lam: float, ends: dict) -> LawKernel:
    def pgf(s: float) -> float:
        z = lam * (s - 1.0)
        return math.exp(z) if z < 709.0 else math.inf
    cgf = CgfEvaluator(
        lambda log_s: math.inf if log_s > 708.0 else lam * math.expm1(log_s),
        lambda theta: math.inf if theta > 708.0 else lam * math.exp(theta),
        mean=lam, theta_max=math.inf, **ends)
    # c Poisson(lam) draws sum to Poisson(c lam)
    return LawKernel(pgf, lambda s: lam * pgf(s), cgf, radius=math.inf,
                     u_star=1.0 / lam,
                     sum_draws=lambda counts, rng: rng.poisson(lam * counts))


def _explicit_kernel(pmf: Pmf, ends: dict, sum_draws) -> LawKernel:
    """The table: f and f' summed over every point, the cgf over positive mass."""
    sup_all, probs_all = pmf.support.astype(np.float64), pmf.probs
    finite_at_inf = pmf.max_support == 0    # a point mass at zero
    pos = probs_all > 0.0
    sup, probs = sup_all[pos], probs_all[pos]
    low, high = sup - sup[0], sup - sup[-1]
    sup_min, sup_max = ends["support_min"], ends["support_max"]
    rel_max = float(low[-1])
    # as log_s -> -inf only the lowest support point survives; evaluating
    # there would give 0 * -inf = nan
    at_minus_inf = ends["log_mass_min"] if sup_min == 0.0 else -math.inf

    def pgf(s: float) -> float:
        if s == math.inf and not finite_at_inf:
            return math.inf
        return _series(sup_all, probs_all, s)

    def dpgf(s: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.where(sup_all > 0, sup_all * np.power(
                float(s), np.maximum(sup_all - 1.0, 0.0)), 0.0)
            total = float((terms * probs_all).sum())
        return total if math.isfinite(total) else math.inf

    def log_pgf(log_s: float) -> float:
        if log_s > 708.0:
            return math.inf
        if log_s == -math.inf:
            return at_minus_inf
        # entering errstate costs more than a short sum; below 700 no term
        # can overflow
        if log_s * rel_max < 700.0:
            acc = float(np.dot(probs, np.exp(log_s * low)))
        else:
            with np.errstate(over="ignore"):
                acc = float(np.dot(probs, np.exp(log_s * low)))
        if not math.isfinite(acc):   # anchored at the top no term overflows
            return log_s * sup_max + math.log(np.dot(probs, np.exp(log_s * high)))
        return log_s * sup_min + math.log(acc)

    def tilted_mean(theta: float) -> float:
        # anchor the exponents at the end the tilt favours, so none can
        # overflow, and return the mean as an offset from that end
        if math.isinf(theta):
            return sup_min if theta < 0.0 else sup_max
        anchor, gap = (sup_min, low) if theta <= 0.0 else (sup_max, high)
        w = probs * np.exp(theta * gap)
        return anchor + float(np.dot(gap, w) / w.sum())
    cgf = CgfEvaluator(log_pgf, tilted_mean, mean=mean(pmf), theta_max=math.inf,
                       **ends)
    return LawKernel(pgf, dpgf, cgf, radius=math.inf,
                     u_star=math.inf if sup_max <= 1.0 else None,
                     sum_draws=sum_draws)
