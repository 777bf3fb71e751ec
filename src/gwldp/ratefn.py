"""Cramer rate functions for empirical means of branching-process quantities.

Everything here is a Legendre-Fenchel transform sup{theta*x - Lambda(theta)}
of some cumulant generating function Lambda.  Two construction routes exist
for most rates:

* closed forms that compose the offspring rate I_f and the initial-population
  rate I_g: progeny rate y*I_f((y-1)/y), bivariate rate, the two estimator
  rates, and the contraction inf_z y*I_f((y-z)/y) + I_g(z) behind the
  mean-initial and random-start rates, solved by its Fenchel dual (one
  conjugate of y*Lambda_f + Lambda_g);
* direct numerical conjugates of the relevant cgf, which serve as independent
  oracles for the closed forms; the ratio-estimator contraction adds a
  one-dimensional minimization, by Brent's method (``golden_min``: golden
  section with safeguarded parabolic steps).

The conjugate solver brackets the root of Lambda'(theta) = x by exponential
expansion and bisects the exact derivative: e^theta f'(e^theta)/f(e^theta)
for a law, 1/(1 - s f'(G(s))) at s = e^beta for the total progeny (from
G = s*f(G)).  It finds domain edges through infinite evaluations (the progeny
cgf's edge is also exact, from the tangency u f'(u) = f(u)), takes a supremum
still rising at an edge at the last finite point, and reports brackets beyond
|theta| = 700, where exp overflows, as capped values with a saturation marker.
A law's log-pgf and its derivative are read from its kernel, bound once when
the law is built (``offspring.LawKernel``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import progeny as prog
from .errors import HypothesisError
from .offspring import CgfEvaluator, Pmf
from .progeny import ProgenyModel

THETA_CAP = 700.0       # |theta| beyond which exp(theta) is numerically unusable
THETA_TOL = 1e-11       # bisection tolerance on the dual variable
GOLDEN_TOL = 1e-9       # interval tolerance for 1-D minimizations (golden_min)

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0   # golden-section fraction, 1 - 1/phi
_SQRT_EPS = math.sqrt(2.0 ** -52)
# 3- and 4-point Gauss-Legendre (node, weight) pairs on [0, 1]
_GAUSS = [[(0.1127016653792583, 5 / 18), (0.5, 4 / 9), (0.8872983346207417, 5 / 18)],
          [(0.06943184420297371, 0.17392742256872679),
           (0.33000947820757187, 0.3260725774312732),
           (0.6699905217924281, 0.3260725774312732),
           (0.9305681557970262, 0.17392742256872679)]]


@dataclass(frozen=True, slots=True)
class RateValue:
    """A rate-function evaluation.

    ``argmax_theta`` is the optimizing dual variable when the supremum is
    interior, or a marker string when it is attained at or toward a boundary
    ("support_min", "support_max", "theta_max") or was capped ("theta_cap").
    ``route`` records the construction path: closed, direct, or oracle.
    """

    value: float
    argmax_theta: float | str | None
    route: str = "direct"
    argmin_z: float | None = None


def _safe_log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def cgf_of_pmf(pmf: Pmf) -> CgfEvaluator:
    """Cgf of an integer law W ~ pmf: Lambda(theta) = log f(exp(theta)), from
    the law's kernel, whose exact family closed forms truncation cannot bias."""
    return pmf.kernel.cgf


def _progeny_edge(f: Pmf, u_cap: float = math.inf) -> float:
    """log s*, the right end of the domain of beta -> log G(exp(beta)).

    G(s) is the smallest root of u = s*f(u), so s* is the maximum of u/f(u):
    at the tangency u* f'(u*) = f(u*) for a strictly convex f, 1/p_1 for a
    linear one.  An outer generating function with radius u_cap below u*
    caps the edge at u_cap/f(u_cap), where G reaches that radius.
    """
    pgf, dpgf, u_star = f.kernel.pgf, f.kernel.dpgf, f.kernel.u_star
    if u_star is None:
        # u f'(u) - f(u) = sum (h-1) p_h u^h rises on u > 0 and is negative at
        # u = 1 (mu_f < 1): double past its sign change, then bisect to an ulp
        def rising(u: float) -> bool:
            return u * dpgf(u) >= pgf(u)
        u_star, hi = 1.0, math.inf
        while u_star < (mid := min(2.0 * u_star, 0.5 * (u_star + hi))) < hi:
            u_star, hi = (u_star, mid) if rising(mid) else (mid, hi)
    u = min(u_star, u_cap)
    if math.isinf(u):
        return -_safe_log(f.prob(1))
    # u/f(u) is stationary at u*, so an error in u* barely moves the edge
    return math.log(u / pgf(u))


def _progeny_slope(f: Pmf, beta: float) -> tuple[float, float]:
    """G(s) and d log G/d log s at s = exp(beta), from G = s*f(G): the slope
    is 1/(1 - s f'(G)), infinite where G is and at the edge's tangency."""
    s = math.exp(min(beta, 708.0))
    v = prog.total_progeny_pgf(f, s)
    slack = 1.0 - s * f.kernel.dpgf(v) if math.isfinite(v) else 0.0
    return v, 1.0 / slack if slack > 0.0 else math.inf


def cgf_progeny_unit(f: Pmf) -> CgfEvaluator:
    """Cgf of the unit-start total progeny: Lambda(beta) = log G(exp(beta)).

    Lambda' uses f, f' and G, never I_f.  P(Y = 1) = p_0 pins the exact
    boundary value of the conjugate at y = 1.
    """
    prog.require_subcritical(f)

    def fn(beta: float) -> float:
        v = prog.total_progeny_pgf(f, math.exp(min(beta, 708.0)))
        return math.log(v) if math.isfinite(v) and v > 0.0 else math.inf

    childless = f.max_support == 0   # no offspring ever: Y = 1 surely
    return CgfEvaluator(
        fn=fn,
        dfn=lambda beta: _progeny_slope(f, beta)[1],
        mean=1.0 / (1.0 - f.kernel.cgf.mean),
        theta_max=_progeny_edge(f),
        support_min=1.0,
        support_max=1.0 if childless else math.inf,
        log_mass_min=_safe_log(f.p0),
        log_mass_max=0.0 if childless else None,
    )


def cgf_progeny_compound(model: ProgenyModel) -> CgfEvaluator:
    """Cgf of the total progeny with random start: log g(G(exp(beta)))."""
    prog.require_subcritical(model.f)
    f, cg = model.f, cgf_of_pmf(model.g)
    log_g, dlog_g = cg.fn, cg.dfn

    def fn(beta: float) -> float:
        v = prog.total_progeny_pgf(f, math.exp(min(beta, 708.0)))
        if not math.isfinite(v) or v <= 0.0:
            return math.inf
        return log_g(math.log(v))

    def dfn(beta: float) -> float:
        # the chain rule through log G: Lambda_g'(log G) * d log G/d log s
        v, slope = _progeny_slope(f, beta)
        return slope if math.isinf(slope) else dlog_g(_safe_log(v)) * slope

    childless = f.max_support == 0   # Y = Z; otherwise Y is unbounded
    # P(Y = r_min) = q_{r_min} * p_0^{r_min}: all initial individuals childless
    return CgfEvaluator(
        fn=fn,
        dfn=dfn,
        mean=model.nu,
        theta_max=_progeny_edge(f, model.g.kernel.radius),
        support_min=cg.support_min,
        support_max=cg.support_max if childless else math.inf,
        log_mass_min=cg.log_mass_min + cg.support_min * _safe_log(f.p0),
        log_mass_max=cg.log_mass_max if childless else None,
    )


# ---------------------------------------------------------------------------
# conjugate solver
# ---------------------------------------------------------------------------

def _conjugate_raw(cgf: CgfEvaluator, x: float) -> tuple[float, float | str]:
    """sup over theta of theta*x - Lambda(theta) for a cgf with Lambda(0) = 0.

    The optimizing theta is the root of Lambda'(theta) = x, Lambda' being the
    cgf's exact derivative, bracketed and then bisected to THETA_TOL.  Returns
    the supremum, nonnegative up to rounding, plus that theta or a boundary
    marker.
    """
    fn, dfn = cgf.fn, cgf.dfn
    if x < cgf.support_min:
        return math.inf, "below_support"
    if x == cgf.support_min:
        return -cgf.log_mass_min, "support_min"
    if math.isfinite(cgf.support_max):
        if x > cgf.support_max:
            return math.inf, "above_support"
        if x == cgf.support_max:
            assert cgf.log_mass_max is not None
            return -cgf.log_mass_max, "support_max"

    # ---- upper bracket end: dfn must reach x; each end short of it is a lo
    lo, hi, edge = -1.0, 1.0, None
    while not math.isfinite(fn(hi)):
        edge, hi = hi, 0.5 * hi
        if hi < 1e-300:
            raise HypothesisError("cgf is infinite on all of (0, 1e-300]")
    d = dfn(hi)
    while d < x:
        lo = hi
        if edge is None:
            nxt = 2.0 * hi
            if nxt > THETA_CAP:
                t = THETA_CAP
                lam = fn(t)
                while math.isinf(lam) and t > hi:
                    t = 0.5 * (hi + t)
                    lam = fn(t)
                return t * x - lam, "theta_cap"
        elif edge - hi <= 1e-13 * max(1.0, abs(edge)):
            # the objective still rises at the domain edge
            return hi * x - fn(hi), "theta_max"
        else:
            nxt = 0.5 * (hi + edge)
        if math.isfinite(fn(nxt)):
            hi, d = nxt, dfn(nxt)
        else:
            edge = nxt

    # ---- lower bracket end, unless found above; each end past x is a hi
    if lo < 0.0:
        while dfn(lo) > x:
            hi, lo = lo, 2.0 * lo
            if lo < -THETA_CAP:
                lo = -THETA_CAP
                return lo * x - fn(lo), "theta_cap"

    # ---- bisection on the monotone derivative
    while hi - lo > THETA_TOL:
        mid = 0.5 * (lo + hi)
        if dfn(mid) < x:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return theta * x - fn(theta), theta


def legendre(cgf: CgfEvaluator, x: float) -> RateValue:
    """Legendre-Fenchel transform of the cgf at x: sup{theta*x - Lambda(theta)}.

    A genuine rate value: nonnegative, zero exactly at the mean of the law.
    """
    value, argmax = _conjugate_raw(cgf, x)
    return RateValue(_rate_value(cgf.dfn, x, value, argmax), argmax, route="direct")


def _rate_value(dfn, x: float, value: float, theta: float | str) -> float:
    """theta*x - Lambda(theta) at the optimum of a cgf with Lambda(0) = 0, or,
    near the mean where those two terms cancel to rounding, the integral of
    x - Lambda' over [0, theta] by 4-point Gauss-Legendre, when the 3-point
    rule agrees with it to 1e-9 or to rounding."""
    if isinstance(theta, float) and value < 1e-2 * abs(theta * x):
        q3, q4 = (theta * sum(w * (x - dfn(theta * t)) for t, w in rule)
                  for rule in _GAUSS)
        if abs(q4 - q3) <= 1e-9 * abs(q4) + 1e-14 * abs(theta * x):
            value = q4
    return _nonneg(value)


def _nonneg(value: float) -> float:
    # clamp solver dust, normalizing -0.0 away for clean emission
    return value if value > 0.0 else 0.0


def golden_min(fn, lo: float, hi: float, tol: float = GOLDEN_TOL,
               max_iter: int = 300) -> tuple[float, float]:
    """Minimum of a unimodal function on [lo, hi] by Brent's method.

    Golden-section steps, replaced by a parabola through the three best points
    when its vertex falls inside the bracket and the step shrinks fast enough
    (Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 5).
    A parabola is fitted only through finite values, so an objective that is
    +inf on part of the bracket is searched by golden section there.  Stops
    when the best point lies within tol/2 + 2*sqrt(eps)*|x| of both ends of
    the bracket (floating point cannot place a smooth minimum more finely
    than the relative term) and returns that point with its value.
    """
    a, b = float(lo), float(hi)
    if b - a <= tol:
        mid = 0.5 * (a + b)
        return mid, fn(mid)
    x = w = v = a + _CGOLD * (b - a)     # best, second best, previous w
    fx = fw = fv = fn(x)
    d = e = 0.0                          # last step and the one before it
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 4.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1 and math.isfinite(fx) and math.isfinite(fw) \
                and math.isfinite(fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accept the vertex when it lies inside (a, b) and the step is
            # under half the step before last, else fall back to golden
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x < m else -tol1
        if not parabolic:
            e = (b - x) if x < m else (a - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = fn(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


# ---------------------------------------------------------------------------
# the one-dimensional rates
# ---------------------------------------------------------------------------

def rate_offspring(f: Pmf, x: float) -> RateValue:
    """Rate function I_f of the empirical mean of i.i.d. offspring counts."""
    return legendre(cgf_of_pmf(f), x)


def rate_initial(g: Pmf, z: float) -> RateValue:
    """Rate function I_g of the empirical mean of i.i.d. initial populations."""
    return legendre(cgf_of_pmf(g), z)


def rate_progeny_direct(f: Pmf, y: float) -> RateValue:
    """Unit-start total-progeny rate by direct conjugation of log G(exp(beta)).

    Independent oracle for rate_progeny_closed: it never touches I_f.
    """
    return legendre(cgf_progeny_unit(f), y)


def rate_progeny_closed(f: Pmf, y: float) -> RateValue:
    """Unit-start total-progeny rate in closed form: y * I_f((y-1)/y) for y >= 1.

    Below y = 1 the rate is infinite, since the total progeny is at least 1
    almost surely.
    """
    prog.require_subcritical(f)
    if y < 1.0:
        return RateValue(math.inf, "below_support", route="closed")
    inner = rate_offspring(f, (y - 1.0) / y)
    return RateValue(y * inner.value, inner.argmax_theta, route="closed")


def _require_bivariate_hypotheses(model: ProgenyModel) -> None:
    prog.require_subcritical(model.f)
    if not math.isfinite(model.mu_g):
        raise HypothesisError("initial-population mean must be finite")
    if model.g.kernel.cgf.theta_max <= 0.0:
        raise HypothesisError(
            "joint exponential moments must be finite near the origin; "
            "the initial law's generating function needs a radius above 1"
        )


def rate_bivariate(model: ProgenyModel, y: float, z: float) -> RateValue:
    """Joint rate for (mean total progeny, mean initial population).

    y * I_f((y-z)/y) + I_g(z) on {y >= z > 0}, I_g(0) at the origin, and
    infinite elsewhere (the sample cone Y >= Z >= 0 is almost sure).
    """
    _require_bivariate_hypotheses(model)
    if y == 0.0 and z == 0.0:
        inner = rate_initial(model.g, 0.0)
        return RateValue(inner.value, inner.argmax_theta, route="closed")
    if not (y >= z > 0.0):
        return RateValue(math.inf, "outside_cone", route="closed")
    part_f = rate_offspring(model.f, (y - z) / y)
    part_g = rate_initial(model.g, z)
    return RateValue(y * part_f.value + part_g.value, None, route="closed")


def rate_bivariate_oracle(model: ProgenyModel, y: float, z: float) -> RateValue:
    """Joint rate as the conjugate of the exact joint cgf log g(e^gamma G(e^beta)).

    For fixed beta the supremum over gamma is a shifted conjugate of Lambda_g,
    I_g(z) - z*log G(e^beta), so the joint supremum is z*Lambda_Y*(y/z) + I_g(z),
    Lambda_Y* being the direct conjugate of log G(e^beta) (rate_progeny_direct).
    ``argmax_theta`` is that conjugate's beta or marker.  This route never
    composes I_f, so it cross-checks the closed form.
    """
    _require_bivariate_hypotheses(model)
    f, g = model.f, model.g
    if y == 0.0 and z == 0.0:
        inner = rate_initial(g, 0.0)
        return RateValue(inner.value, inner.argmax_theta, route="oracle")
    if not (y >= z > 0.0):
        return RateValue(math.inf, "outside_cone", route="oracle")

    cg = cgf_of_pmf(g)
    if z < cg.support_min or z > cg.support_max:
        return RateValue(math.inf, "outside_support", route="oracle")
    progeny = rate_progeny_direct(f, y / z)
    return RateValue(z * progeny.value + rate_initial(g, z).value,
                     progeny.argmax_theta, route="oracle")


def rate_estimator_ratio(model: ProgenyModel, x: float) -> RateValue:
    """Rate of the ratio estimator (Ybar - Zbar)/Ybar of the offspring mean.

    Equals -log g(exp(-I_f(x)/(1-x))) on [0, 1) and is infinite elsewhere;
    with no initial mass at zero, points where I_f is infinite also map to
    infinity through g(0) = 0.
    """
    prog.require_subcritical(model.f, model.g)
    if not 0.0 <= x < 1.0:
        return RateValue(math.inf, "outside_domain", route="closed")
    c = rate_offspring(model.f, x).value / (1.0 - x)
    if math.isinf(c):
        return RateValue(math.inf, "offspring_rate_infinite", route="closed")
    value = -model.g.kernel.cgf.fn(-c)
    return RateValue(_nonneg(value), None, route="closed")


def rate_estimator_deterministic(f: Pmf, mu_g: float, x: float) -> RateValue:
    """Rate of the ratio estimator when the initial population is mu_g surely.

    mu_g * I_f(x)/(1-x) on [0, 1), infinite elsewhere.  mu_g is a population
    size, at least 1; non-integer values are accepted for comparison sweeps.
    """
    prog.require_subcritical(f)
    if mu_g < 1.0:
        raise HypothesisError(
            f"deterministic initial population must be at least 1, got {mu_g!r}"
        )
    if not 0.0 <= x < 1.0:
        return RateValue(math.inf, "outside_domain", route="closed")
    value = mu_g * rate_offspring(f, x).value / (1.0 - x)
    return RateValue(value, None, route="closed")


def _min_bivariate_over_z(model: ProgenyModel, y: float, route: str) -> RateValue:
    """inf over z of y*I_f((y-z)/y) + I_g(z), the marginal/contraction kernel.

    Solved by its Fenchel dual, sup over theta of theta*y - K(theta), where
    K = y*Lambda_f + Lambda_g is the cgf of y offspring counts plus one initial
    population.  The minimizing z is g's tilted mean at the optimal theta.
    """
    cf, cg = cgf_of_pmf(model.f), cgf_of_pmf(model.g)
    log_f, log_g, dlog_f, dlog_g = cf.fn, cg.fn, cf.dfn, cg.dfn
    log_mass_max = (None if cf.log_mass_max is None or cg.log_mass_max is None
                    else y * cf.log_mass_max + cg.log_mass_max)
    dual = CgfEvaluator(
        fn=lambda t: y * log_f(t) + log_g(t),
        dfn=lambda t: y * dlog_f(t) + dlog_g(t),
        mean=y * cf.mean + cg.mean,
        theta_max=min(cf.theta_max, cg.theta_max),
        support_min=y * cf.support_min + cg.support_min,
        support_max=y * cf.support_max + cg.support_max,
        log_mass_min=y * cf.log_mass_min + cg.log_mass_min,
        log_mass_max=log_mass_max,
    )
    rate = legendre(dual, y)
    if math.isinf(rate.value):
        return RateValue(rate.value, None, route=route)
    theta = rate.argmax_theta
    if isinstance(theta, float):
        z_star = dlog_g(theta)
    else:   # a boundary marker: the end of r_min <= z <= min(y, r_max) it points to
        z_star = cg.support_min if y < dual.mean else min(y, cg.support_max)
    return RateValue(rate.value, None, route=route, argmin_z=z_star)


def rate_estimator_meaninit(model: ProgenyModel, x: float) -> RateValue:
    """Rate of the estimator (Ybar - mu_g)/Ybar, by the variational formula.

    Minimizes the joint rate along y = mu_g/(1-x) over the initial-mean
    variable z, through the dual.  For a childless law the minimizer is pinned at
    z = mu_g/(1-x) and the rate collapses to I_g there, which also yields the
    finite range x >= 1 - mu_g/r_min.
    """
    prog.require_subcritical(model.f, model.g)
    if x >= 1.0:
        return RateValue(math.inf, "outside_domain", route="direct")
    y0 = model.mu_g / (1.0 - x)
    if model.mu_f == 0.0:
        inner = rate_initial(model.g, y0)
        return RateValue(inner.value, inner.argmax_theta, route="direct",
                         argmin_z=y0 if math.isfinite(inner.value) else None)
    return _min_bivariate_over_z(model, y0, "direct")


def rate_progeny_marginal(model: ProgenyModel, y: float) -> RateValue:
    """Rate of the mean total progeny with random start.

    Contraction of the joint rate onto its first coordinate; the unit-start
    closed form is used when the initial population is surely 1.
    """
    prog.require_subcritical(model.f)
    g = model.g
    if g.support.size == 1 and g.min_support == 1:
        return rate_progeny_closed(model.f, y)
    return _min_bivariate_over_z(model, y, "closed")


def ratio_rate_via_contraction(model: ProgenyModel, x: float) -> RateValue:
    """Ratio-estimator rate recomputed as inf over z of the joint rate.

    Along (y-z)/y = x the joint rate is c*z + I_g(z) with c = I_f(x)/(1-x),
    minimized over z by Brent's method (golden_min).  Independent oracle for
    rate_estimator_ratio: it solves the contraction numerically where the
    closed form reads -log g(e^-c), a numerical check of Fenchel duality for g.
    """
    prog.require_subcritical(model.f, model.g)
    if not 0.0 <= x < 1.0:
        return RateValue(math.inf, "outside_domain", route="oracle")
    c = rate_offspring(model.f, x).value / (1.0 - x)
    cg = cgf_of_pmf(model.g)
    r_min = cg.support_min
    # an infinite support gets a generous cap: the convex objective grows
    # linearly
    z_hi = cg.support_max if math.isfinite(cg.support_max) else r_min + 80.0

    def objective(z: float) -> float:
        return c * z + rate_initial(model.g, z).value

    # an end of the bracket replaces the search's minimum only when lower
    z_star, v_star = min([golden_min(objective, r_min, z_hi)]
                         + [(z, objective(z)) for z in (r_min, z_hi)],
                         key=lambda zv: zv[1])
    return RateValue(v_star, None, route="oracle", argmin_z=z_star)


# ---------------------------------------------------------------------------
# rate comparison table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RateComparison:
    """One row of the random-start vs deterministic-start comparison."""

    x: float
    j_random: float
    j_diamond: float
    i_f: float
    leq_ok: bool
    strict: bool
    chain_ok: bool | None
    extrapolated: bool


def compare_rates(model: ProgenyModel, x_grid) -> list[RateComparison]:
    """Tabulate J_random <= J_diamond (Jensen ordering) over a grid.

    The deterministic-start rate is evaluated with the model's mu_g; when
    mu_g is not an integer the row is flagged extrapolated, since the
    deterministic comparison process has an integer initial population.
    A chain flag additionally records J_diamond > I_f > 0 on (0,1) away
    from the offspring mean whenever mu_g >= 1.
    """
    prog.require_subcritical(model.f, model.g)
    mu_g = model.mu_g
    extrapolated = abs(mu_g - round(mu_g)) > 1e-12
    rows = []
    for x in x_grid:
        x = float(x)
        j_rand = rate_estimator_ratio(model, x).value
        j_diam = rate_estimator_deterministic(model.f, mu_g, x).value
        i_f = rate_offspring(model.f, x).value
        leq_ok = j_rand <= j_diam + 1e-10
        both_finite = math.isfinite(j_rand) and math.isfinite(j_diam)
        strict = both_finite and (j_diam - j_rand) > 1e-12
        if 0.0 < x < 1.0 and x != model.mu_f and mu_g >= 1.0:
            chain_ok: bool | None = j_diam > i_f > 0.0
        else:
            chain_ok = None
        rows.append(RateComparison(x, j_rand, j_diam, i_f, leq_ok, strict,
                                   chain_ok, extrapolated))
    return rows
