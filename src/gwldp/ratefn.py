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
  oracles for the closed forms; the ratio-estimator contraction is read from
  its dual along the normal to its line, one root of s f'(G(s)) = x, so no
  oracle searches over z or composes I_f.

The conjugate solver brackets the root of Lambda'(theta) = x by exponential
expansion and takes Illinois steps with a bisection safeguard on the exact
derivative: e^theta f'(e^theta)/f(e^theta) for a law, 1/(1 - s f'(G(s))) at
s = e^beta for the total progeny (from G = s*f(G)).  It searches below a
domain edge the cgf knows (a law's log radius; the progeny cgf's, from the
tangency u f'(u) = f(u)) and finds any other through infinite evaluations,
takes a supremum still rising at an edge at the last finite point, and
reports brackets beyond |theta| = 700, where exp overflows, as capped values
with a saturation marker.  Each law's log-pgf and derivative
come from its kernel, bound once at construction (``offspring.LawKernel``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import progeny as prog
from .errors import ConvergenceError, HypothesisError
from .offspring import CgfEvaluator, Pmf
from .progeny import ProgenyModel

THETA_CAP = 700.0       # |theta| beyond which exp(theta) is numerically unusable
THETA_TOL = 1e-11       # bracket width at which the root search on theta stops
GOLDEN_TOL = 1e-9       # interval tolerance for 1-D minimizations (golden_min)
GOLDEN_MAX_ITER = 300   # golden_min's step budget; exhausting it raises

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
        # u f'(u) - f(u) = sum (h-1) p_h u^h rises on u > 0 from mu_f - 1 < 0
        # at 1: double past its sign change, then Illinois to THETA_TOL relative
        def excess(u: float) -> float:
            return u * dpgf(u) - pgf(u)
        lo, e_lo, hi = 1.0, excess(1.0), 2.0
        while (e_hi := excess(hi)) < 0.0:
            lo, e_lo, hi = hi, e_hi, 2.0 * hi
        u_star = _illinois(excess, lo, hi, e_lo, e_hi, THETA_TOL * hi)
    u = min(u_star, u_cap)
    if math.isinf(u):
        return -_safe_log(f.prob(1))
    # u/f(u) is stationary at u*, so an error in u* barely moves the edge
    return math.log(u / pgf(u))


def _progeny_slope(f: Pmf, beta: float) -> tuple[float, float]:
    """G(s) and d log G/d log s at s = exp(beta), from G = s*f(G): the slope
    is 1/(1 - s f'(G)), infinite where G is and at the edge's tangency."""
    s = math.exp(min(beta, 708.0))
    v = prog._solve_pgf(f, s)
    slack = 1.0 - s * f.kernel.dpgf(v) if math.isfinite(v) else 0.0
    return v, 1.0 / slack if slack > 0.0 else math.inf


def cgf_progeny_unit(f: Pmf) -> CgfEvaluator:
    """Cgf of the unit-start total progeny: Lambda(beta) = log G(exp(beta)).

    Lambda' uses f, f' and G, never I_f.  P(Y = 1) = p_0 pins the exact
    boundary value of the conjugate at y = 1.
    """
    prog.require_subcritical(f)

    def fn(beta: float) -> float:
        v = prog._solve_pgf(f, math.exp(min(beta, 708.0)))
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
        v = prog._solve_pgf(f, math.exp(min(beta, 708.0)))
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

def _illinois(h, lo: float, hi: float, h_lo: float, h_hi: float,
              tol: float) -> float:
    """Midpoint of [lo, hi], h(lo) <= 0 <= h(hi), shrunk to width tol around
    the root of a rising h by Illinois steps (Dowell & Jarratt, BIT 11, 1971):
    the value kept at one end halves when two secant steps move the other, and
    secant points stay tol/16 inside, so once an end converges the next step
    closes the bracket tightly on it.  A step bisects if an end value is not
    finite, the secant leaves the open bracket or two steps failed to halve it."""
    side = slow = 0     # the end the last secant step moved; slow steps running
    while (width := hi - lo) > tol:
        t = mid = 0.5 * (lo + hi)
        if slow < 2 and -math.inf < h_lo < 0.0 < h_hi < math.inf:
            secant = lo - h_lo * width / (h_hi - h_lo)
            if lo < secant < hi:
                t = min(max(secant, lo + tol / 16), hi - tol / 16)
        if (h_t := h(t)) < 0.0:
            lo, h_lo, moved = t, h_t, -1
        else:
            hi, h_hi, moved = t, h_t, 1
        if t != mid and moved == side:
            h_lo, h_hi = (h_lo, 0.5 * h_hi) if moved < 0 else (0.5 * h_lo, h_hi)
        side = side if t == mid else moved
        slow = 0 if t == mid or hi - lo <= 0.5 * width else slow + 1
    return 0.5 * (lo + hi)


def _conjugate_raw(cgf: CgfEvaluator, x: float) -> tuple[float, float | str]:
    """sup over theta of theta*x - Lambda(theta) for a cgf with Lambda(0) = 0.

    The optimizing theta is the root of Lambda'(theta) = x, Lambda' being the
    cgf's exact derivative, bracketed and then narrowed to THETA_TOL by Illinois
    steps with a bisection safeguard (``_illinois``).  Returns the supremum,
    nonnegative up to rounding, plus that theta or a boundary marker.
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

    # ---- upper bracket end: dfn must reach x; each end short of it is a lo.
    # A known domain edge bounds the search from the start, so no probe lands
    # past it; an unknown one is found where fn is +inf too (at a steep
    # interior point it is not), which also guards a known one
    lo, hi, edge = -1.0, 1.0, None
    if 0.0 < cgf.theta_max < math.inf:
        hi, edge = min(1.0, 0.5 * cgf.theta_max), cgf.theta_max
    while math.isinf(d := dfn(hi)) and math.isinf(fn(hi)):
        edge, hi = hi, 0.5 * hi
        if hi < 1e-300:
            raise HypothesisError("cgf is infinite on all of (0, 1e-300]")
    while d < x:
        lo, d_lo = hi, d
        if edge is None:
            if hi == THETA_CAP:
                return hi * x - fn(hi), "theta_cap"
            nxt = min(2.0 * hi, THETA_CAP)
        elif edge - hi <= 1e-13 * max(1.0, abs(edge)):
            # the objective still rises at the domain edge, which a known
            # edge may belong to (fn finite there)
            return max(hi * x - fn(hi), edge * x - fn(edge)), "theta_max"
        else:
            nxt = 0.5 * (hi + edge)
        if math.isinf(d_nxt := dfn(nxt)) and math.isinf(fn(nxt)):
            edge = nxt
        else:
            hi, d = nxt, d_nxt

    # ---- lower bracket end, unless found above; each end past x is a hi
    if lo < 0.0:
        while (d_lo := dfn(lo)) > x:
            if lo == -THETA_CAP:
                return lo * x - fn(lo), "theta_cap"
            hi, d, lo = lo, d_lo, max(2.0 * lo, -THETA_CAP)

    theta = _illinois(lambda t: dfn(t) - x, lo, hi, d_lo - x, d - x, THETA_TOL)
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


def golden_min(fn, lo: float, hi: float) -> tuple[float, float]:
    """Minimum of a unimodal function on [lo, hi] by Brent's method.

    Golden-section steps, replaced by a parabola through the three best points
    when its vertex falls inside the bracket and the step shrinks fast enough
    (Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 5).
    A parabola is fitted only through finite values, so an objective that is
    +inf on part of the bracket is searched by golden section there.  Stops
    when the best point lies within GOLDEN_TOL/2 + 2*sqrt(eps)*|x| of both
    ends of the bracket (floating point cannot place a smooth minimum more
    finely than the relative term) and returns that point with its value;
    raises ConvergenceError if GOLDEN_MAX_ITER steps do not get there.

    No library code calls it since the ratio contraction is solved through its
    dual.  It stays only because the benchmark's tracing hook wraps it by name,
    until that hook changes (ROADMAP item 1).
    """
    a, b, tol = float(lo), float(hi), GOLDEN_TOL
    if b - a <= tol:
        mid = 0.5 * (a + b)
        return mid, fn(mid)
    x = w = v = a + _CGOLD * (b - a)     # best, second best, previous w
    fx = fw = fv = fn(x)
    d = e = 0.0                          # last step and the one before it
    for _ in range(GOLDEN_MAX_ITER):
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 4.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
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
    raise ConvergenceError(
        f"golden_min did not converge in {GOLDEN_MAX_ITER} steps on [{lo}, {hi}]")


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
    """Ratio-estimator rate as the contraction of the joint (Ybar, Zbar) rate
    onto the line z = (1-x)*y, read from its dual.

    The infimum of the joint rate on that line is minus the minimum of the
    joint cgf Lambda(beta, gamma) = log g(e^gamma G(e^beta)) along the normal
    line (beta, gamma) = t*(-(1-x), 1).  There dLambda/dt vanishes exactly
    where s f'(G(s)) = x at s = e^beta, a root that does not involve g and
    rises in s: Illinois steps find beta below the progeny cgf's domain edge,
    bracketed on the side of 0 that the offspring mean puts it.  The rate is
    -log g(e^t G(s)) with t = -beta/(1-x), and the minimizing z is g's tilted
    mean at theta = t + log G(s).  The route uses G solves, f' and g only and
    never I_f, so it is an independent oracle for rate_estimator_ratio.
    ``argmax_theta`` is None, or a marker where the root was not solved for.
    """
    prog.require_subcritical(model.f, model.g)
    if not 0.0 <= x < 1.0:
        return RateValue(math.inf, "outside_domain", route="oracle")
    f, cg = model.f, cgf_of_pmf(model.g)
    if x == 0.0:
        # s -> 0, where e^t G(s) -> p_0: every ancestor is childless
        return RateValue(_nonneg(-math.log(model.g.kernel.pgf(f.p0))), None,
                         route="oracle", argmin_z=cg.dfn(math.log(f.p0)))
    dpgf = f.kernel.dpgf

    def excess(beta: float) -> float:
        s = math.exp(beta)
        v = prog._solve_pgf(f, s)
        return s * dpgf(v) - x if math.isfinite(v) else math.inf

    marker = None
    beta = 0.0                          # the root at x = mu_f
    if x < model.mu_f:
        lo, hi, e_hi = -1.0, 0.0, model.mu_f - x
        while (e_lo := excess(lo)) > 0.0:
            if lo == -THETA_CAP:
                marker = "theta_cap"
                break
            lo, hi, e_hi = max(2.0 * lo, -THETA_CAP), lo, e_lo
        beta = lo if marker else _illinois(excess, lo, hi, e_lo, e_hi, THETA_TOL)
    elif x > model.mu_f:
        # at the domain edge 1 - s f'(G(s)) = 0, the tangency; only a childless
        # law, whose s f'(G) stays 0, has none
        edge = _progeny_edge(f)
        if math.isinf(edge):
            return RateValue(math.inf, "outside_support", route="oracle")
        beta = _illinois(excess, 0.0, edge, model.mu_f - x, 1.0 - x, THETA_TOL)
    theta = beta / (x - 1.0) + math.log(prog._solve_pgf(f, math.exp(beta)))
    return RateValue(_nonneg(-cg.fn(theta)), marker, route="oracle",
                     argmin_z=cg.dfn(theta))


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
