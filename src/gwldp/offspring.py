"""Probability laws on the nonnegative integers and their generating functions.

A law is stored as an explicit table of (support point, probability) pairs.
Infinite-support families (geometric, Poisson) are truncated at a caller-chosen
index; the unrepresented mass is recorded in ``truncation_deficit`` and the
family tag keeps the exact closed forms available to downstream transforms,
which would otherwise inherit truncation bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, TruncationError

MASS_TOL = 1e-12        # |sum(probs) + deficit - 1| accepted at construction
DEFICIT_LIMIT = 1e-9    # family builders must represent all but this much mass

FAMILIES = ("bernoulli", "geometric", "poisson", "explicit")


@dataclass(frozen=True, eq=False, slots=True)
class Pmf:
    """An integer-supported probability mass function.

    ``support`` is strictly increasing, ``probs`` aligns with it, and
    ``sum(probs) + truncation_deficit == 1`` up to ``MASS_TOL``.  Instances
    are immutable and safe to share across threads.  The fields are slots:
    no attribute can be added after construction, which would de-specialize
    CPython's attribute loads on every hot path that reads a law.
    """

    support: np.ndarray
    probs: np.ndarray
    truncation_deficit: float = 0.0
    family: str = "explicit"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        support = np.ascontiguousarray(self.support, dtype=np.int64)
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if support.ndim != 1 or support.shape != probs.shape or support.size == 0:
            raise ParameterError("support and probs must be equal-length 1-D arrays")
        if np.any(support < 0):
            raise ParameterError("support points must be nonnegative integers")
        if np.any(np.diff(support) <= 0):
            raise ParameterError("support points must be distinct and increasing")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ParameterError("probabilities must lie in [0, 1]")
        if self.truncation_deficit < 0.0:
            raise ParameterError("truncation_deficit must be nonnegative")
        total = float(probs.sum()) + self.truncation_deficit
        if abs(total - 1.0) > MASS_TOL:
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


@dataclass(frozen=True)
class GenFnDomain:
    """Convergence domain of a law's probability generating function.

    ``radius`` is the radius of convergence of the power series,
    ``value_at_radius`` its (possibly infinite) limit there, and
    ``theta_max = log(radius)`` bounds the exponential arguments for which
    the series stays finite.
    """

    radius: float
    value_at_radius: float
    theta_max: float


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
    dom = gen_fn_domain(pmf)
    if s > dom.radius or (s == dom.radius and math.isinf(dom.value_at_radius)):
        return math.inf
    with np.errstate(over="ignore"):
        terms = np.power(float(s), pmf.support.astype(np.float64)) * pmf.probs
        total = float(terms.sum())
    return total if math.isfinite(total) else math.inf


def pgf_exact(pmf: Pmf, s: float) -> float:
    """Generating function of the untruncated law, via the family closed form.

    Falls back to the stored table for explicit laws (where it is exact).
    Used by the transform machinery so truncation never biases rate values.
    """
    if s < 0.0:
        raise ParameterError(f"pgf argument must be nonnegative, got {s}")
    if pmf.family == "bernoulli":
        p = pmf.params["p"]
        return 1.0 - p + p * s
    if pmf.family == "geometric":
        a = pmf.params["a"]
        if a * s >= 1.0:
            return math.inf
        return (1.0 - a) / (1.0 - a * s)
    if pmf.family == "poisson":
        lam = pmf.params["lambda"]
        z = lam * (s - 1.0)
        return math.exp(z) if z < 709.0 else math.inf
    return pgf_eval(pmf, s)


def pgf_derivative_exact(pmf: Pmf, s: float) -> float:
    """First derivative of the exact generating function at ``s >= 0``."""
    if s < 0.0:
        raise ParameterError(f"pgf argument must be nonnegative, got {s}")
    if pmf.family == "bernoulli":
        return pmf.params["p"]
    if pmf.family == "geometric":
        a = pmf.params["a"]
        if a * s >= 1.0:
            return math.inf
        return (1.0 - a) * a / (1.0 - a * s) ** 2
    if pmf.family == "poisson":
        lam = pmf.params["lambda"]
        return lam * pgf_exact(pmf, s)
    sup = pmf.support.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(sup > 0, sup * np.power(float(s), np.maximum(sup - 1.0, 0.0)), 0.0)
        total = float((terms * pmf.probs).sum())
    return total if math.isfinite(total) else math.inf


def mean(pmf: Pmf) -> float:
    """Mean over the stored support.

    For a truncated law this understates the exact mean by at most
    K * truncation_deficit; use mean_exact when the family tag is known.
    """
    return float(np.dot(pmf.support.astype(np.float64), pmf.probs))


def mean_exact(pmf: Pmf) -> float:
    """Mean of the untruncated law, via the family closed form when tagged."""
    if pmf.family == "bernoulli":
        return pmf.params["p"]
    if pmf.family == "geometric":
        a = pmf.params["a"]
        return a / (1.0 - a)
    if pmf.family == "poisson":
        return pmf.params["lambda"]
    return mean(pmf)


def gen_fn_domain(pmf: Pmf) -> GenFnDomain:
    """Convergence domain of the declared law's generating function.

    Finite-support and Poisson laws are entire (infinite radius); a geometric
    law with ratio a has radius 1/a where the series diverges.  Truncated
    storage of an explicit law is treated as genuinely finite support, with
    the approximation recorded in the deficit.
    """
    if pmf.family == "geometric":
        a = pmf.params["a"]
        return GenFnDomain(radius=1.0 / a, value_at_radius=math.inf,
                           theta_max=-math.log(a))
    if pmf.family == "poisson":
        return GenFnDomain(radius=math.inf, value_at_radius=math.inf,
                           theta_max=math.inf)
    # finite support: entire; the limit at infinity is finite only for a
    # point mass at zero
    if pmf.max_support == 0:
        value = float(pmf.probs[-1])
    else:
        value = math.inf
    return GenFnDomain(radius=math.inf, value_at_radius=value, theta_max=math.inf)


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
