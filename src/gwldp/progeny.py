"""Total progeny of a branching process: distribution, generating function, mean.

With offspring law f (mass p_h, mean mu_f) and initial-population law g, the
process dies out almost surely when p_0 > 0 and mu_f <= 1, and the total
progeny Y (all individuals ever alive) is then a proper random variable.
Its unit-start law is the law of a first-passage time (Dwass 1969): Y is the
first step at which the walk H_0 = 1, H_t = H_{t-1} + xi_t - 1 (xi_t i.i.d.
with law f) reaches 0, so that pi_k = (1/k) * (p^{*k})_{k-1}.  The table
``total_progeny_pmf_dwass`` walks H forward and drops the mass that can no
longer reach 0 in time; that spilled mass is the tail P(Y > k_max).  Its
generating function G solves the fixed point G(s) = s * f(G(s)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, HypothesisError
from .offspring import MASS_TOL, Pmf

NEWTON_MAX_ITER = 200
# the Dwass walk starts from 2^_WALK_EXP, not 1: an exact change of units
# that keeps the rows, and nearly all of the walk, out of subnormal
# arithmetic, which rounds coarsely and runs slowly, until one final rounding
_WALK_EXP = 1000


@dataclass(frozen=True)
class ProgenyModel:
    """An offspring law paired with an initial-population law.

    Carries the derived quantities used everywhere downstream: the exact means
    and the total-progeny mean nu = mu_g / (1 - mu_f).
    """

    f: Pmf
    g: Pmf
    mu_f: float
    mu_g: float
    nu: float


def build_model(f: Pmf, g: Pmf) -> ProgenyModel:
    mu_f, mu_g = f.kernel.cgf.mean, g.kernel.cgf.mean
    if mu_f < 1.0:
        nu = mu_g / (1.0 - mu_f)
    elif mu_f == 1.0:
        nu = math.inf if mu_g > 0.0 else 0.0
    else:
        nu = math.nan  # supercritical: total progeny defective
    return ProgenyModel(f=f, g=g, mu_f=mu_f, mu_g=mu_g, nu=nu)


def require_subcritical(f: Pmf, g: Pmf | None = None) -> None:
    """Raise HypothesisError unless f is strictly subcritical with mass at zero
    and, when g is given, g has none: the hypotheses of every rate, and with g
    those of the two estimators and of the sampler."""
    mu = f.kernel.cgf.mean
    if f.p0 <= 0.0 or mu >= 1.0:
        raise HypothesisError(
            "requires a strictly subcritical offspring law with mass at zero "
            f"(got p_0={f.p0!r}, mean={mu!r})"
        )
    if g is not None and g.p0 != 0.0:
        raise HypothesisError(
            "estimator rates need an initial law with no mass at zero "
            f"(got q_0={g.p0!r}), so the empirical means stay positive"
        )


def extinction_probability(f: Pmf) -> float:
    """Minimal fixed point of the offspring generating function on [0, 1].

    Returns exactly 1.0 in the almost-sure-extinction regime (p_0 > 0 and
    mu_f <= 1); otherwise the smallest root of the convex h(u) = f(u) - u,
    reached by ``_newton_root`` from u = 0, where h = p_0 >= 0.
    """
    if f.p0 > 0.0 and f.kernel.cgf.mean <= 1.0:
        return 1.0
    return _newton_root(f, 1.0, 0.0)


def _require_proper(f: Pmf) -> None:
    mu = f.kernel.cgf.mean
    if f.p0 <= 0.0 or mu > 1.0:
        raise HypothesisError(
            "total progeny is defective unless the offspring law has mass at "
            f"zero and mean at most 1 (got p_0={f.p0!r}, mean={mu!r})"
        )


def total_progeny_pmf_dwass(f: Pmf, k_max: int) -> Pmf:
    """Unit-start total-progeny law {pi_k : 1 <= k <= k_max} by the Dwass identity.

    The name keeps the identity it computes; the table comes from the
    identity's hitting-time form, walked forward.  Before step t the state
    is the sub-probability of H_{t-1} on the heights that can still reach 0
    by step k_max, 1..k_max - t + 1, since a step lowers H by at most 1.
    Step t convolves the state with the offspring table p_0..p_K, K the
    largest support point at most k_max, shifted down one height: the mass
    at height 0 is pi_t, and the mass above k_max - t spills.  Offspring
    mass above k_max spills at once.  The deficit is the sum of the spills,
    P(Y > k_max) accumulated from nonnegative terms, not 1 - sum(pi), so it
    keeps its digits however small it is.  Offspring mass missing from the
    table (a truncated family, or a table summing to a little under 1)
    leaves the walk uncounted; where the rows and the spills then miss more
    than MASS_TOL, the deficit is 1 - sum(pi), which counts it.  Step t
    costs O((k_max - t) * K), the table about k_max^2 * K / 2 products, and
    the memory is O(k_max + K).
    """
    _require_proper(f)
    if k_max < 1:
        raise HypothesisError(f"k_max must be >= 1, got {k_max}")
    kept = f.support <= k_max
    table = np.zeros(int(f.support[kept][-1]) + 1)
    table[f.support[kept]] = f.probs[kept]
    escape = float(f.probs[~kept].sum())
    spill = np.zeros(table.size - 1)    # spills summed by height above the window
    escaped = 0.0
    pi = np.zeros(k_max)
    state = np.full(1, 2.0 ** _WALK_EXP)  # index i holds height i + 1
    for t in range(1, k_max + 1):
        if escape:
            escaped += escape * float(state.sum())
        walk = np.convolve(state, table)    # index j holds height j
        pi[t - 1] = walk[0]
        top = k_max - t + 1                 # heights >= top cannot reach 0
        over = walk[top:]
        spill[: over.size] += over
        state = walk[1:top]
        if not state.size:                  # p_0 alone: every walk has ended
            break
    pi = np.ldexp(pi, -_WALK_EXP)
    deficit = math.ldexp(float(spill.sum()) + escaped, -_WALK_EXP)
    if abs(float(pi.sum()) + deficit - 1.0) > MASS_TOL:
        deficit = max(1.0 - float(pi.sum()), 0.0)
    return Pmf(np.arange(1, k_max + 1), pi, truncation_deficit=deficit)


def total_progeny_pgf(f: Pmf, s: float) -> float:
    """Unit-start total-progeny generating function G(s), G = s * f(G).

    G(1) = P(Y < inf) = 1 exactly for every law admitted here.  Elsewhere G(s)
    is the smallest root u > 0 of the convex h(u) = s*f(u) - u, which is the
    power series on [0, 1) and its analytic continuation above 1.  Newton's
    method starts where h > 0 (u = 0 below 1, u = 1 above) and climbs
    monotonically to that root, converging quadratically at a simple root;
    it stops at rounding, when h is no longer positive or a step no longer
    moves u.  A nonnegative slope on the way certifies that no root exists
    (s beyond the convergence domain) and returns the infinite marker.
    Raises ConvergenceError when neither happens within NEWTON_MAX_ITER steps.
    """
    _require_proper(f)
    if s < 0.0:
        raise HypothesisError(f"pgf argument must be nonnegative, got {s}")
    return _solve_pgf(f, s)


def _solve_pgf(f: Pmf, s: float) -> float:
    """``total_progeny_pgf`` without its checks, for the rate code's hot path:
    the caller has established that f is proper and that s >= 0."""
    if s == 1.0:
        return 1.0
    return _newton_root(f, s, 0.0 if s < 1.0 else 1.0)


def _newton_root(f: Pmf, s: float, u: float) -> float:
    """Smallest root above u of the convex h(u) = s*f(u) - u, by Newton steps
    from a u with h(u) >= 0; inf when a nonnegative slope shows there is none."""
    # the tangent of a convex h lies below it, so from a point with h > 0 a
    # Newton step lands at or before the smallest root
    pgf, dpgf = f.kernel.pgf, f.kernel.dpgf
    for _ in range(NEWTON_MAX_ITER):
        fu = pgf(u)
        if math.isinf(fu):
            return math.inf
        h = s * fu - u
        if h <= 0.0:
            return u
        hp = s * dpgf(u) - 1.0
        if hp >= 0.0:
            return math.inf
        u_next = u - h / hp
        if u_next <= u:
            return u
        u = u_next
    raise ConvergenceError(
        f"total-progeny pgf Newton iteration did not converge at s={s!r} "
        f"within {NEWTON_MAX_ITER} steps"
    )


def compound_pgf(model: ProgenyModel, s: float) -> float:
    """Generating function of the total progeny with random start: g(G(s))."""
    inner = total_progeny_pgf(model.f, s)
    if math.isinf(inner):
        return math.inf
    return model.g.kernel.pgf(inner)


def progeny_mean(model: ProgenyModel) -> float:
    """Mean total progeny mu_g / (1 - mu_f), with the critical-case conventions."""
    if model.mu_f > 1.0:
        raise HypothesisError(
            f"total progeny mean requires offspring mean <= 1, got {model.mu_f!r}"
        )
    return model.nu
