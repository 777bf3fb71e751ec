"""Tests for the Legendre-transform engine and every rate function.

Closed-form oracles used here are derived independently of the library:

* Bernoulli(p): I(x) = x log(x/p) + (1-x) log((1-x)/(1-p))
* geometric ratio a: I(x) = x log(x / (a (1+x))) - log(1-a) - log(1+x)
* Poisson lam: I(x) = x log(x/lam) - x + lam
* two-point law on {1, 2} with equal masses:
  I(z) = (2-z) log(2(2-z)) + (z-1) log(2(z-1)) on [1, 2], the relative
  entropy that ``verify`` checks Proposition 4 against

and a dense-grid brute-force maximization of theta*x - Lambda(theta).  The
same family rates, evaluated at 50 digits with mpmath, check relative error.
"""

import dataclasses
import math
import struct
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from pytest import approx

import gwldp as gw
from gwldp import ratefn
from gwldp import (ConvergenceError, HypothesisError, RateValue, build_model,
                   cgf_of_pmf, cgf_progeny_unit, compare_rates, legendre,
                   pmf_from_dict, pmf_from_family, rate_bivariate,
                   rate_bivariate_oracle, rate_estimator_deterministic,
                   rate_estimator_meaninit, rate_estimator_ratio,
                   rate_initial, rate_offspring, rate_progeny_closed,
                   rate_progeny_direct, rate_progeny_marginal,
                   ratio_rate_via_contraction)
from gwldp.verify import _two_point_entropy as two_point_entropy
from oracles import (exact_offspring_rate, exact_progeny_pgf, family_law,
                     progeny_domain_edge)

BERN = pmf_from_dict({0: 0.5, 1: 0.5})
G_HALF = pmf_from_dict({1: 0.5, 2: 0.5})

I_F_025 = 0.13081203594113697     # bernoulli_rate_oracle(0.25, 0.5)
I_F_23 = 0.056633012265132454     # bernoulli_rate_oracle(2/3, 0.5)
J_RATIO_025 = 0.2578262623802542  # -log g(exp(-I_F_025 / 0.75)) by hand


def bernoulli_rate_oracle(x, p=0.5):
    if not 0.0 <= x <= 1.0:
        return math.inf
    total = 0.0
    if x > 0.0:
        total += x * math.log(x / p)
    if x < 1.0:
        total += (1.0 - x) * math.log((1.0 - x) / (1.0 - p))
    return total


def geometric_rate_oracle(x, a):
    if x < 0.0:
        return math.inf
    if x == 0.0:
        return -math.log(1.0 - a)
    return (x * math.log(x / (a * (1.0 + x))) - math.log(1.0 - a)
            - math.log(1.0 + x))


def poisson_rate_oracle(x, lam):
    if x < 0.0:
        return math.inf
    if x == 0.0:
        return lam
    return x * math.log(x / lam) - x + lam


def reference_log_pgf(pmf, log_s):
    """log f(exp(log_s)) as computed per call, arrays rebuilt each time.

    The bound evaluators of cgf_of_pmf must reproduce it bit for bit.  Where
    the sum anchored at the bottom of an explicit support overflows, the sum
    anchored at the top cannot, so Lambda stays finite wherever Lambda' is.
    """
    if log_s > 708.0:
        return math.inf
    fam = pmf.family
    if fam == "bernoulli":
        p = pmf.params["p"]
        if p == 0.0:
            return 0.0
        if p == 1.0:
            return log_s
        return float(np.logaddexp(math.log(1.0 - p), math.log(p) + log_s))
    if fam == "geometric":
        a = pmf.params["a"]
        if log_s >= -math.log(a):
            return math.inf
        return math.log(1.0 - a) - math.log1p(-a * math.exp(log_s))
    if fam == "poisson":
        lam = pmf.params["lambda"]
        return lam * math.expm1(log_s)
    pos = pmf.probs > 0.0
    sup = pmf.support[pos].astype(np.float64)
    probs = pmf.probs[pos]
    rel = sup - sup[0]
    with np.errstate(over="ignore"):
        acc = float(np.dot(probs, np.exp(log_s * rel)))
    if not math.isfinite(acc):
        top = np.exp(log_s * (sup - sup[-1]))
        return log_s * float(sup[-1]) + math.log(np.dot(probs, top))
    return log_s * float(sup[0]) + math.log(acc)


def reference_pgf(pmf, s):
    """f(s) for s >= 0 as computed per call by a dispatch on the family tag.

    This and the next two are the per-call forms the law kernel replaced; the
    kernel must reproduce each of them bit for bit.
    """
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
    if s == math.inf and pmf.max_support > 0:    # a finite table is entire
        return math.inf
    with np.errstate(over="ignore"):
        terms = np.power(float(s), pmf.support.astype(np.float64)) * pmf.probs
        total = float(terms.sum())
    return total if math.isfinite(total) else math.inf


def reference_dpgf(pmf, s):
    """f'(s) for s >= 0, per call."""
    if pmf.family == "bernoulli":
        return pmf.params["p"]
    if pmf.family == "geometric":
        a = pmf.params["a"]
        if a * s >= 1.0:
            return math.inf
        return (1.0 - a) * a / (1.0 - a * s) ** 2
    if pmf.family == "poisson":
        lam = pmf.params["lambda"]
        return lam * reference_pgf(pmf, s)
    sup = pmf.support.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(sup > 0, sup * np.power(float(s), np.maximum(sup - 1.0, 0.0)), 0.0)
        total = float((terms * pmf.probs).sum())
    return total if math.isfinite(total) else math.inf


def reference_tilted_mean(pmf, theta):
    """e^theta f'(e^theta)/f(e^theta), per call, arrays rebuilt each time."""
    fam = pmf.family
    if fam == "bernoulli":
        p = pmf.params["p"]
        if p == 0.0 or p == 1.0:
            return p
        q = 1.0 - p
        if theta <= 0.0:
            w = p * math.exp(theta)
            return w / (q + w)
        return p / (p + q * math.exp(-theta))
    if fam == "geometric":
        a = pmf.params["a"]
        w = a * math.exp(theta) if theta < -math.log(a) else 1.0
        return w / (1.0 - w) if w < 1.0 else math.inf
    if fam == "poisson":
        lam = pmf.params["lambda"]
        return math.inf if theta > 708.0 else lam * math.exp(theta)
    pos = pmf.probs > 0.0
    sup = pmf.support[pos].astype(np.float64)
    probs = pmf.probs[pos]
    low, high = sup - sup[0], sup - sup[-1]
    sup_min, sup_max = float(sup[0]), float(sup[-1])
    if math.isinf(theta):
        return sup_min if theta < 0.0 else sup_max
    anchor, gap = (sup_min, low) if theta <= 0.0 else (sup_max, high)
    w = probs * np.exp(theta * gap)
    return anchor + float(np.dot(gap, w) / w.sum())


def relative_error(got, exact):
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(got) - exact) / exact)


def grid_search_conjugate(support, probs, x, lo=-30.0, hi=30.0, n=2_000_001):
    """Brute-force sup of theta*x - log sum(p_h exp(theta h)) on a dense grid."""
    thetas = np.linspace(lo, hi, n)
    with np.errstate(over="ignore"):
        lam = np.log(np.exp(np.outer(thetas, support)) @ probs)
    vals = thetas * x - lam
    return float(np.max(vals[np.isfinite(vals)]))


class TestLegendreEngine:
    def test_zero_at_mean(self):
        assert rate_offspring(BERN, 0.5).value == approx(0.0, abs=1e-12)

    def test_interior_value_against_oracle(self):
        rv = rate_offspring(BERN, 0.25)
        assert rv.value == approx(I_F_025, abs=1e-10)
        assert isinstance(rv.argmax_theta, float)

    def test_lower_boundary_is_minus_log_mass(self):
        rv = rate_offspring(BERN, 0.0)
        assert rv.value == approx(math.log(2.0), abs=1e-14)
        assert rv.argmax_theta == "support_min"

    def test_upper_boundary_is_minus_log_mass(self):
        rv = rate_offspring(BERN, 1.0)
        assert rv.value == approx(math.log(2.0), abs=1e-14)
        assert rv.argmax_theta == "support_max"

    def test_outside_support_infinite(self):
        assert math.isinf(rate_offspring(BERN, -0.25).value)
        assert math.isinf(rate_offspring(BERN, 1.25).value)

    @pytest.mark.parametrize("x", [0.05, 0.2, 0.4285714285714286, 0.9, 2.0])
    def test_geometric_against_closed_oracle(self, x):
        f = pmf_from_family("geometric", {"a": 0.3}, truncation_K=40)
        assert rate_offspring(f, x).value == approx(
            geometric_rate_oracle(x, 0.3), abs=1e-9)

    @pytest.mark.parametrize("x", [0.1, 0.6, 1.0, 2.5])
    def test_poisson_against_closed_oracle(self, x):
        f = pmf_from_family("poisson", {"lambda": 0.6}, truncation_K=40)
        assert rate_offspring(f, x).value == approx(
            poisson_rate_oracle(x, 0.6), abs=1e-9)

    @pytest.mark.parametrize("x", [1e223, 1e250, 1e300])
    def test_poisson_root_between_512_and_theta_cap(self, x):
        # the root log(x / 0.6) lies in (512, 700]: the bracket must probe
        # THETA_CAP itself before reporting the cap
        f = pmf_from_family("poisson", {"lambda": 0.6}, truncation_K=40)
        rv = rate_offspring(f, x)
        assert isinstance(rv.argmax_theta, float)
        assert rv.value == approx(poisson_rate_oracle(x, 0.6), rel=1e-12)

    def test_bernoulli_root_between_minus_theta_cap_and_512(self):
        x = 1e-250
        rv = rate_offspring(BERN, x)
        assert rv.argmax_theta == approx(math.log(x / (1.0 - x)), abs=1e-10)
        assert rv.value == approx(bernoulli_rate_oracle(x), rel=1e-12)

    @pytest.mark.parametrize("x", [1.1, 1.5, 2.2])
    def test_two_point_against_closed_oracle(self, x):
        assert rate_initial(G_HALF, x).value == approx(
            two_point_entropy(x), abs=1e-10)

    def test_brute_force_grid_oracle(self):
        # an untagged multi-point law: only the generic machinery applies
        pmf = pmf_from_dict({0: 0.3, 1: 0.2, 3: 0.1, 7: 0.4})
        cgf = cgf_of_pmf(pmf)
        for x in (0.5, 2.0, 4.5):
            brute = grid_search_conjugate(pmf.support.astype(float), pmf.probs, x)
            assert legendre(cgf, x).value == approx(brute, abs=1e-6)

    def test_degenerate_law(self):
        f0 = pmf_from_dict({0: 1.0})
        assert rate_offspring(f0, 0.0).value == 0.0
        assert math.isinf(rate_offspring(f0, 0.5).value)


class TestCgfEvaluators:
    @pytest.mark.parametrize("pmf", [BERN, G_HALF,
                                     pmf_from_family("geometric", {"a": 0.3},
                                                     truncation_K=40),
                                     pmf_from_family("poisson",
                                                     {"lambda": 0.6},
                                                     truncation_K=40)])
    def test_zero_at_origin(self, pmf):
        assert cgf_of_pmf(pmf).fn(0.0) == approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("pmf", [BERN, G_HALF])
    def test_midpoint_convexity(self, pmf):
        fn = cgf_of_pmf(pmf).fn
        thetas = np.linspace(-4.0, 4.0, 17)
        for t1, t2 in zip(thetas, thetas[2:]):
            mid = 0.5 * (t1 + t2)
            assert fn(mid) <= 0.5 * (fn(t1) + fn(t2)) + 1e-10

    def test_progeny_cgf_metadata(self):
        cgf = cgf_progeny_unit(BERN)
        assert cgf.fn(0.0) == approx(0.0, abs=1e-12)
        assert cgf.support_min == 1.0
        assert cgf.mean == approx(2.0)
        # G diverges where s/(2-s) blows up: radius 2
        assert cgf.theta_max == approx(math.log(2.0), abs=1e-9)

    def test_progeny_cgf_tangency_edge(self):
        # strictly convex offspring: the domain edge sits at the tangency
        # s* = 1/(4 a (1-a)) of u = s f(u) for the geometric family
        f = pmf_from_family("geometric", {"a": 0.3}, truncation_K=40)
        cgf = cgf_progeny_unit(f)
        assert cgf.theta_max == approx(math.log(1.0 / (4 * 0.3 * 0.7)), abs=1e-8)


class TestBoundLogPgf:
    GEOMETRIC = pmf_from_family("geometric", {"a": 0.3}, truncation_K=40)
    WIDE = pmf_from_dict({3 + 2 * i: (60 - i) / 1830.0 for i in range(60)})

    @pytest.mark.parametrize("pmf", [
        pmf_from_family("bernoulli", {"p": 0.0}),
        pmf_from_family("bernoulli", {"p": 0.5}),
        pmf_from_family("bernoulli", {"p": 1.0}),
        GEOMETRIC,
        pmf_from_family("poisson", {"lambda": 0.6}, truncation_K=40),
        BERN,
        G_HALF,
        WIDE,
    ], ids=["bernoulli-0", "bernoulli-half", "bernoulli-1", "geometric",
            "poisson", "explicit-01", "explicit-12", "explicit-wide"])
    def test_matches_per_call_reference(self, pmf):
        thetas = [float(t) for t in np.linspace(-700.0, 720.0, 5681)]
        thetas += [0.0, -0.0, 708.0, math.nextafter(708.0, math.inf)]
        edge = -math.log(0.3)            # the geometric law's domain edge
        thetas += [math.nextafter(edge, -math.inf), edge,
                   math.nextafter(edge, math.inf)]
        # the wide law's spread is 118: both overflow thresholds, closely
        for cross in (700.0 / 118.0, 709.78 / 118.0):
            thetas += [float(t) for t in np.linspace(cross - 0.01, cross + 0.01,
                                                     201)]
            thetas += [math.nextafter(cross, -math.inf), cross,
                       math.nextafter(cross, math.inf)]
        fn = cgf_of_pmf(pmf).fn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bad = [t for t in thetas if fn(t) != reference_log_pgf(pmf, t)]
        assert not bad, f"{len(bad)} mismatches, first at theta={bad[0]!r}"

    def test_explicit_limit_at_minus_infinity(self):
        # only the lowest support point survives: log p_0 with mass at zero,
        # -inf when the law starts above zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (cgf_of_pmf(pmf_from_dict({0: 0.6, 2: 0.4})).fn(-math.inf)
                    == math.log(0.6))
            assert cgf_of_pmf(G_HALF).fn(-math.inf) == -math.inf

    def test_laws_keep_their_attributes(self):
        # the evaluators live in the law's kernel, a slot declared on the
        # dataclass and bound at construction; a law has no instance dict, so
        # nothing can be added to it
        f, g = pmf_from_dict({0: 0.5, 1: 0.5}), pmf_from_dict({1: 0.5, 2: 0.5})
        model = build_model(f, g)
        rate_offspring(f, 0.25)
        rate_bivariate_oracle(model, 3.0, 1.5)
        rate_estimator_meaninit(model, 0.25)
        for law in (f, g, pmf_from_family("poisson", {"lambda": 0.6},
                                          truncation_K=40)):
            assert not hasattr(law, "__dict__")
            with pytest.raises(AttributeError):
                object.__setattr__(law, "x", 1)


KERNEL_LAWS = {
    "bernoulli-0": pmf_from_family("bernoulli", {"p": 0.0}),
    "bernoulli-half": pmf_from_family("bernoulli", {"p": 0.5}),
    "bernoulli-1": pmf_from_family("bernoulli", {"p": 1.0}),
    "geometric": TestBoundLogPgf.GEOMETRIC,
    "poisson": pmf_from_family("poisson", {"lambda": 0.6}, truncation_K=40),
    "explicit-01": BERN,
    "explicit-12": G_HALF,
    "explicit-wide": TestBoundLogPgf.WIDE,
    "explicit-gap": pmf_from_dict({0: 0.6, 1: 0.0, 2: 0.4}),
}


def bits(value):
    return struct.pack("<d", value)


class TestBoundKernel:
    """The kernel's f, f' and tilted mean against the per-call references."""

    @staticmethod
    def thetas():
        # TestBoundLogPgf's grid, with the infinite ends
        thetas = [float(t) for t in np.linspace(-700.0, 720.0, 5681)]
        thetas += [0.0, -0.0, 708.0, math.nextafter(708.0, math.inf)]
        edge = -math.log(0.3)
        thetas += [math.nextafter(edge, -math.inf), edge,
                   math.nextafter(edge, math.inf)]
        for cross in (700.0 / 118.0, 709.78 / 118.0):
            thetas += [float(t) for t in np.linspace(cross - 0.01, cross + 0.01,
                                                     201)]
            thetas += [math.nextafter(cross, -math.inf), cross,
                       math.nextafter(cross, math.inf)]
        return thetas + [-math.inf, math.inf]

    @staticmethod
    def us():
        us = [0.0, -0.0, 1.0, math.inf]
        us += [math.exp(t) for t in np.linspace(-700.0, 709.0, 2821)]
        radius = 1.0 / 0.3                       # the geometric law's radius
        switch = 1.0 + 709.0 / 0.6               # Poisson's exp(z) cut, z = 709
        # and the tangencies u f'(u) = f(u): geometric, Poisson and the gap law
        for u in (radius, switch, 0.5 / 0.3, 1.0 / 0.6, math.sqrt(1.5)):
            us += [math.nextafter(u, -math.inf), u, math.nextafter(u, math.inf)]
        return us

    @pytest.mark.parametrize("name", KERNEL_LAWS)
    def test_pgf_and_derivative_match(self, name):
        pmf = KERNEL_LAWS[name]
        kernel = pmf.kernel
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bad = [u for u in self.us()
                   if bits(kernel.pgf(u)) != bits(reference_pgf(pmf, u))
                   or bits(kernel.dpgf(u)) != bits(reference_dpgf(pmf, u))]
        assert not bad, f"{len(bad)} mismatches, first at u={bad[0]!r}"

    @pytest.mark.parametrize("name", KERNEL_LAWS)
    def test_tilted_mean_matches(self, name):
        pmf = KERNEL_LAWS[name]
        tilted = pmf.kernel.cgf.dfn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bad = [t for t in self.thetas()
                   if bits(tilted(t)) != bits(reference_tilted_mean(pmf, t))]
        assert not bad, f"{len(bad)} mismatches, first at theta={bad[0]!r}"

    def test_poisson_switch_is_in_the_grid(self):
        # the u grid straddles z = lam (u - 1) = 709, where f turns infinite
        pgf = KERNEL_LAWS["poisson"].kernel.pgf
        values = [pgf(u) for u in self.us() if 1000.0 < u < 1400.0]
        assert any(math.isinf(v) for v in values)
        assert any(math.isfinite(v) and v > 1e307 for v in values)


class TestProgenyRates:
    def test_zero_at_mean(self):
        assert rate_progeny_closed(BERN, 2.0).value == approx(0.0, abs=1e-12)
        assert rate_progeny_direct(BERN, 2.0).value == approx(0.0, abs=1e-9)

    def test_closed_values(self):
        assert rate_progeny_closed(BERN, 4.0 / 3.0).value == approx(
            (4.0 / 3.0) * I_F_025, abs=1e-12)
        assert rate_progeny_closed(BERN, 3.0).value == approx(
            3.0 * I_F_23, abs=1e-12)

    def test_direct_matches_closed(self):
        assert rate_progeny_direct(BERN, 4.0 / 3.0).value == approx(
            (4.0 / 3.0) * I_F_025, abs=1e-6)

    def test_boundary_at_one(self):
        # P(Y = 1) = p_0, for both routes
        assert rate_progeny_direct(BERN, 1.0).value == approx(math.log(2.0),
                                                              abs=1e-12)
        assert rate_progeny_closed(BERN, 1.0).value == approx(math.log(2.0),
                                                              abs=1e-12)

    def test_below_one_infinite(self):
        assert math.isinf(rate_progeny_closed(BERN, 0.8).value)
        assert math.isinf(rate_progeny_direct(BERN, 0.8).value)

    def test_identity_on_grid(self):
        for f in (BERN, pmf_from_family("geometric", {"a": 0.3},
                                        truncation_K=40)):
            for y in np.linspace(1.05, 6.0, 25):
                direct = rate_progeny_direct(f, float(y)).value
                closed = rate_progeny_closed(f, float(y)).value
                assert direct == approx(closed, abs=1e-6)

    def test_critical_law_rejected(self):
        critical = pmf_from_dict({0: 0.5, 2: 0.5})
        with pytest.raises(HypothesisError):
            rate_progeny_closed(critical, 2.0)
        with pytest.raises(HypothesisError):
            rate_progeny_direct(critical, 2.0)


class TestBivariate:
    MODEL = build_model(BERN, G_HALF)

    def test_zero_at_joint_mean(self):
        assert rate_bivariate(self.MODEL, 3.0, 1.5).value == approx(0.0,
                                                                    abs=1e-12)

    def test_cone_violation_infinite(self):
        assert math.isinf(rate_bivariate(self.MODEL, 1.0, 2.0).value)
        assert math.isinf(rate_bivariate(self.MODEL, 2.0, -1.0).value)

    def test_component_sum(self):
        assert rate_bivariate(self.MODEL, 2.0, 1.0).value == approx(
            math.log(2.0), abs=1e-12)

    def test_origin_uses_initial_mass_at_zero(self):
        assert math.isinf(rate_bivariate(self.MODEL, 0.0, 0.0).value)
        with_q0 = build_model(BERN, pmf_from_dict({0: 0.25, 1: 0.75}))
        assert rate_bivariate(with_q0, 0.0, 0.0).value == approx(
            math.log(4.0), abs=1e-12)

    def test_oracle_agreement_spot_checks(self):
        for y, z in ((3.0, 1.5), (2.0, 1.0), (2.5, 1.2), (4.0, 1.9)):
            closed = rate_bivariate(self.MODEL, y, z).value
            oracle = rate_bivariate_oracle(self.MODEL, y, z).value
            assert oracle == approx(closed, abs=1e-5)

    def test_oracle_zero_at_joint_mean(self):
        assert rate_bivariate_oracle(self.MODEL, 3.0, 1.5).value == approx(
            0.0, abs=1e-8)

    def test_oracle_outside_cone(self):
        assert math.isinf(rate_bivariate_oracle(self.MODEL, 1.0, 2.0).value)


class TestEstimatorRates:
    MODEL = build_model(BERN, G_HALF)

    def test_zero_at_offspring_mean(self):
        assert rate_estimator_ratio(self.MODEL, 0.5).value == approx(0.0,
                                                                     abs=1e-12)

    def test_frozen_composition_value(self):
        assert rate_estimator_ratio(self.MODEL, 0.25).value == approx(
            J_RATIO_025, abs=1e-12)

    def test_outside_unit_interval_infinite(self):
        assert math.isinf(rate_estimator_ratio(self.MODEL, -0.1).value)
        assert math.isinf(rate_estimator_ratio(self.MODEL, 1.0).value)

    def test_initial_mass_at_zero_rejected(self):
        bad = build_model(BERN, pmf_from_dict({0: 0.5, 1: 0.5}))
        with pytest.raises(HypothesisError):
            rate_estimator_ratio(bad, 0.25)

    def test_deterministic_matches_unit_progeny_rate(self):
        # mu_g = 1 start: J(x) = I_f(x)/(1-x) = I_G(1/(1-x)) via y = 1/(1-x)
        rv = rate_estimator_deterministic(BERN, 1, 0.25)
        assert rv.value == approx((4.0 / 3.0) * I_F_025, abs=1e-12)
        assert rv.value == approx(rate_progeny_closed(BERN, 4.0 / 3.0).value,
                                  abs=1e-12)

    def test_deterministic_zero_and_infinite(self):
        assert rate_estimator_deterministic(BERN, 2, 0.5).value == approx(
            0.0, abs=1e-12)
        assert math.isinf(rate_estimator_deterministic(BERN, 2, 1.2).value)

    def test_deterministic_needs_at_least_one(self):
        with pytest.raises(HypothesisError):
            rate_estimator_deterministic(BERN, 0.5, 0.25)

    def test_contraction_route_matches_closed(self):
        for x in np.linspace(0.0, 0.9, 19):
            closed = rate_estimator_ratio(self.MODEL, float(x)).value
            contracted = ratio_rate_via_contraction(self.MODEL, float(x)).value
            assert contracted == approx(closed, abs=1e-6)

    def test_contraction_grid_dominates_closed(self):
        # any z-grid minimum of the joint rate along (y-z)/y = x sits above
        # the closed form, which the refined minimization then attains
        for x in (0.1, 0.25, 0.6):
            closed = rate_estimator_ratio(self.MODEL, x).value
            grid_min = min(
                rate_bivariate(self.MODEL, z / (1 - x), z).value
                for z in np.linspace(1.0, 2.0, 41))
            assert grid_min >= closed - 1e-6

    def test_meaninit_zero_at_mean(self):
        rv = rate_estimator_meaninit(self.MODEL, 0.5)
        assert rv.value == approx(0.0, abs=1e-12)
        assert rv.argmin_z == approx(1.5, abs=1e-6)

    def test_meaninit_childless_shortcut(self):
        model = build_model(pmf_from_dict({0: 1.0}), G_HALF)
        assert rate_estimator_meaninit(model, -0.5).value == approx(
            math.log(2.0), abs=1e-12)
        assert math.isinf(rate_estimator_meaninit(model, -0.6).value)
        # inside the finite range the rate is I_g(mu_g / (1-x))
        assert rate_estimator_meaninit(model, 0.0).value == approx(
            two_point_entropy(1.5), abs=1e-12)
        assert rate_estimator_meaninit(model, -0.25).value == approx(
            two_point_entropy(1.2), abs=1e-10)

    def test_meaninit_above_one_infinite(self):
        assert math.isinf(rate_estimator_meaninit(self.MODEL, 1.0).value)
        assert math.isinf(rate_estimator_meaninit(self.MODEL, 1.5).value)

    def test_marginal_matches_unit_start_for_identity_g(self):
        model = build_model(BERN, pmf_from_dict({1: 1.0}))
        for y in (1.5, 2.0, 3.0):
            assert rate_progeny_marginal(model, y).value == approx(
                rate_progeny_closed(BERN, y).value, abs=1e-12)

    def test_marginal_zero_at_nu(self):
        assert rate_progeny_marginal(self.MODEL, 3.0).value == approx(
            0.0, abs=1e-9)


class TestComparison:
    MODEL = build_model(BERN, G_HALF)

    def test_equality_at_mean(self):
        row = compare_rates(self.MODEL, [0.5])[0]
        assert row.j_random == approx(0.0, abs=1e-12)
        assert row.j_diamond == approx(0.0, abs=1e-12)
        assert row.leq_ok and not row.strict

    def test_strict_inequality_away_from_mean(self):
        row = compare_rates(self.MODEL, [0.25])[0]
        assert row.j_random == approx(J_RATIO_025, abs=1e-12)
        assert row.j_diamond == approx(1.5 * (4.0 / 3.0) * I_F_025, abs=1e-12)
        assert row.leq_ok and row.strict
        assert row.chain_ok is True
        assert row.extrapolated  # mu_g = 1.5 is not an integer

    def test_deterministic_initial_equality_everywhere(self):
        model = build_model(BERN, pmf_from_dict({2: 1.0}))
        for row in compare_rates(model, np.linspace(0.0, 1.2, 25)):
            if math.isinf(row.j_random):
                assert math.isinf(row.j_diamond)
            else:
                assert row.j_random == approx(row.j_diamond, abs=1e-12)

    def test_jensen_ordering_full_grid(self):
        for row in compare_rates(self.MODEL, np.linspace(0.0, 0.975, 40)):
            assert row.leq_ok


class TestRemark6Degenerate:
    def test_ratio_rate_equals_offspring_rate_pointwise(self):
        model = build_model(pmf_from_dict({0: 1.0}), G_HALF)
        for x in np.linspace(-0.5, 1.5, 21):
            j = rate_estimator_ratio(model, float(x)).value
            i_f = rate_offspring(model.f, float(x)).value
            j_det = rate_estimator_deterministic(model.f, 1.5, float(x)).value
            if math.isinf(j):
                assert math.isinf(i_f) and math.isinf(j_det)
            else:
                assert x == approx(0.0, abs=1e-12)
                assert j == approx(0.0, abs=1e-12)
                assert i_f == 0.0 and j_det == 0.0


class TestRateInvariants:
    MODEL = build_model(BERN, G_HALF)

    @pytest.mark.parametrize("fn,xs", [
        (lambda x: rate_offspring(BERN, x).value, np.linspace(0.0, 1.0, 21)),
        (lambda x: rate_progeny_closed(BERN, x).value,
         np.linspace(1.0, 6.0, 21)),
        (lambda x: rate_estimator_ratio(
            build_model(BERN, G_HALF), x).value, np.linspace(0.0, 0.95, 20)),
        (lambda x: rate_estimator_deterministic(BERN, 2, x).value,
         np.linspace(0.0, 0.95, 20)),
    ])
    def test_nonnegative_and_midpoint_convex(self, fn, xs):
        vals = [fn(float(x)) for x in xs]
        assert all(v >= 0.0 for v in vals)
        for i in range(len(xs) - 2):
            if all(map(math.isfinite, vals[i:i + 3])):
                mid = fn(float(0.5 * (xs[i] + xs[i + 2])))
                assert mid <= 0.5 * (vals[i] + vals[i + 2]) + 1e-9

    def test_unique_zero_at_mean(self):
        for x in np.linspace(0.05, 0.95, 19):
            v = rate_offspring(BERN, float(x)).value
            if abs(x - 0.5) > 1e-9:
                assert v > 1e-9 * (x - 0.5) ** 2
        assert rate_offspring(BERN, 0.5).value == approx(0.0, abs=1e-9)

    def test_rate_value_is_frozen(self):
        rv = rate_offspring(BERN, 0.25)
        assert isinstance(rv, RateValue)
        with pytest.raises(AttributeError):
            rv.value = 0.0


class TestHighPrecisionClosedForms:
    """Relative agreement with the family closed forms at 50 digits.

    Points where the exact rate is below 1e-3 are skipped: near the mean the
    solver's absolute error floor dominates any relative measure.
    """

    LAWS = [("bernoulli", 0.5, None), ("bernoulli", 0.3, None),
            ("poisson", 0.6, 40), ("geometric", 0.3, 40)]

    @pytest.mark.parametrize("family,param,K", LAWS)
    def test_offspring_rate(self, family, param, K):
        f = family_law(family, param, K)
        hi = 1.0 if family == "bernoulli" else 4.0
        checked = 0
        for x in np.linspace(0.0, hi, 41):
            exact = exact_offspring_rate(family, param, float(x))
            if exact < 1e-3:
                continue
            checked += 1
            assert relative_error(rate_offspring(f, float(x)).value,
                                  exact) <= 1e-12, x
        assert checked >= 35

    def test_progeny_rate_both_routes(self):
        f = family_law("poisson", 0.6, 40)
        checked = 0
        for y in np.linspace(1.05, 6.0, 34):
            y = float(y)
            with mpmath.workdps(50):
                exact = y * exact_offspring_rate(
                    "poisson", 0.6, (mpmath.mpf(y) - 1) / y)
            if exact < 1e-3:
                continue
            checked += 1
            assert relative_error(rate_progeny_closed(f, y).value,
                                  exact) <= 1e-9, y
            assert relative_error(rate_progeny_direct(f, y).value,
                                  exact) <= 1e-9, y
        assert checked >= 30

    @pytest.mark.parametrize("family,param,K", [LAWS[0], LAWS[2], LAWS[3]])
    def test_ratio_estimator_rate(self, family, param, K):
        # -log g(exp(-I_f(x)/(1-x))) with g(s) = (s + s^2)/2
        model = build_model(family_law(family, param, K), G_HALF)
        checked = 0
        for x in np.linspace(0.0, 0.9, 37):
            x = float(x)
            with mpmath.workdps(50):
                s = mpmath.exp(-exact_offspring_rate(family, param, x)
                               / (1 - mpmath.mpf(x)))
                exact = -mpmath.log((s + s * s) / 2)
            if exact < 1e-3:
                continue
            checked += 1
            assert relative_error(rate_estimator_ratio(model, x).value,
                                  exact) <= 1e-12, x
        assert checked >= 30


# ---------------------------------------------------------------------------
# the progeny cgf's domain edge and the dual of the z-contraction
# ---------------------------------------------------------------------------

def exact_cgf(family, param):
    """(Lambda, Lambda') of a law as mpmath functions of theta.

    family is bernoulli, poisson or geometric with its parameter, or explicit
    with param a {support: probability} table.
    """
    if family == "explicit":
        pairs = [(mpmath.mpf(k), mpmath.mpf(q)) for k, q in param.items()]

        def lam(t):
            return mpmath.log(sum(q * mpmath.exp(t * r) for r, q in pairs))

        def dlam(t):
            return (sum(r * q * mpmath.exp(t * r) for r, q in pairs)
                    / sum(q * mpmath.exp(t * r) for r, q in pairs))
        return lam, dlam
    a = mpmath.mpf(param)
    if family == "bernoulli":
        return (lambda t: mpmath.log(1 - a + a * mpmath.exp(t)),
                lambda t: a * mpmath.exp(t) / (1 - a + a * mpmath.exp(t)))
    if family == "poisson":
        return (lambda t: a * mpmath.expm1(t), lambda t: a * mpmath.exp(t))
    return (lambda t: mpmath.log((1 - a) / (1 - a * mpmath.exp(t))),
            lambda t: a * mpmath.exp(t) / (1 - a * mpmath.exp(t)))


def exact_contraction(f_law, g_law, y):
    """inf over z of y*I_f((y-z)/y) + I_g(z) at 40 digits, with its argmin.

    The optimal theta solves y*(1 - Lambda_f'(theta)) = Lambda_g'(theta),
    found by a bracketing root finder; the value is theta*y - y*Lambda_f -
    Lambda_g there and the minimizing z is Lambda_g'(theta).  Returns
    (value, z) as mpfs.
    """
    with mpmath.workdps(40):
        lam_f, dlam_f = exact_cgf(*f_law)
        lam_g, dlam_g = exact_cgf(*g_law)
        y = mpmath.mpf(y)
        edges = [-mpmath.log(mpmath.mpf(law[1])) for law in (f_law, g_law)
                 if law[0] == "geometric"]
        theta = mp_root(lambda t: y * dlam_f(t) + dlam_g(t) - y,
                        -64, min(edges + [mpmath.mpf(64)]))
        return theta * y - y * lam_f(theta) - lam_g(theta), dlam_g(theta)


def mp_root(fn, lo, hi):
    """The root of an increasing fn on (lo, hi) at the working precision: a
    coarse bracket by 30 bisection steps, then the Anderson solver."""
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    for _ in range(30):
        mid = (lo + hi) / 2
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return mpmath.findroot(fn, (lo, hi), solver="anderson")


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(fn, lo, hi, tol=ratefn.GOLDEN_TOL, max_iter=300):
    """Plain golden-section search, as ratefn.golden_min was before Brent's
    method: the reference that the library's minimizer is checked against."""
    a, b = float(lo), float(hi)
    if b - a <= tol:
        mid = 0.5 * (a + b)
        return mid, fn(mid)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    if fc <= fd:
        return c, fc
    return d, fd


def golden_primal(model, y):
    """The contraction by golden section over z, as the library solved it
    before the dual: every step runs two Legendre solves."""
    g_pos = model.g.probs > 0.0
    r_min = float(model.g.support[g_pos][0])
    z_hi = y if model.g.family in ("geometric", "poisson") else min(
        y, float(model.g.support[g_pos][-1]))

    def objective(z):
        return (y * rate_offspring(model.f, (y - z) / y).value
                + rate_initial(model.g, z).value)

    z_star, v_star = golden_section_min(objective, r_min, z_hi)
    for z_end in (r_min, z_hi):
        if objective(z_end) < v_star:
            z_star, v_star = z_end, objective(z_end)
    return v_star


F_LAWS = [("bernoulli", 0.5, None), ("geometric", 0.3, 40), ("poisson", 0.6, 40)]
G13 = {1: 0.5, 3: 0.5}


class TestProgenyEdge:
    """theta_max = log s*, s* the largest s with G(s) finite.

    The bound is on s* relative, i.e. on theta_max absolute: near
    criticality theta_max is tiny and no double-precision formula gets it to
    1e-15 relative (at lambda = 0.99 the best reaches 8.6e-15).
    """

    @staticmethod
    def assert_edge(got, exact):
        """exact() gives s* and is evaluated at 40 digits."""
        with mpmath.workdps(40):
            assert float(abs(mpmath.mpf(got) - mpmath.log(exact()))) <= 1e-15

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    def test_bernoulli(self, p):
        # linear f: u/f(u) rises to 1/p and G(s) = s(1-p)/(1-sp) blows up there
        f = pmf_from_family("bernoulli", {"p": p})
        self.assert_edge(cgf_progeny_unit(f).theta_max,
                         lambda: progeny_domain_edge("bernoulli", p))

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.45])
    def test_geometric(self, a):
        f = pmf_from_family("geometric", {"a": a}, truncation_K=200)
        self.assert_edge(cgf_progeny_unit(f).theta_max,
                         lambda: progeny_domain_edge("geometric", a))

    @pytest.mark.parametrize("lam", [0.6, 0.99])
    def test_poisson(self, lam):
        f = pmf_from_family("poisson", {"lambda": lam}, truncation_K=80)
        self.assert_edge(cgf_progeny_unit(f).theta_max,
                         lambda: progeny_domain_edge("poisson", lam))

    def test_explicit_tangency(self):
        # u f'(u) = f(u) for f(u) = 0.6 + 0.4 u^2 at u* = sqrt(1.5)
        f = pmf_from_dict({0: 0.6, 2: 0.4})

        def exact():
            u = mpmath.sqrt(mpmath.mpf(1.5))
            return u / (mpmath.mpf(0.6) + mpmath.mpf(0.4) * u * u)
        self.assert_edge(cgf_progeny_unit(f).theta_max, exact)

    def test_compound_capped_by_initial_radius(self):
        # Bernoulli(1/2) offspring never reaches a tangency; G hits g's radius
        # u_g = 1/a_g first, at s = u_g/f(u_g)
        g = pmf_from_family("geometric", {"a": 0.3}, truncation_K=40)
        model = build_model(BERN, g)

        def exact():
            u_g = 1 / mpmath.mpf(0.3)
            return u_g / (mpmath.mpf(0.5) + mpmath.mpf(0.5) * u_g)
        self.assert_edge(ratefn.cgf_progeny_compound(model).theta_max, exact)
        assert ratefn.cgf_progeny_compound(model).theta_max < \
            cgf_progeny_unit(BERN).theta_max

    @pytest.mark.parametrize("table", [{0: 0.6, 1: 0.2, 3: 0.15, 5: 0.05},
                                       {0: 0.8, 2: 0.15, 12: 0.05}])
    def test_explicit_tangency_matches_ulp_bisection(self, table):
        # u* by doubling from u = 1 and then bisecting to an ulp; u/f(u) is
        # stationary at u*, so Illinois steps to 1e-11 relative leave s*
        # within 1e-15 relative
        f = pmf_from_dict(table)
        pgf, dpgf = f.kernel.pgf, f.kernel.dpgf
        u, hi = 1.0, math.inf
        while u < (mid := min(2.0 * u, 0.5 * (u + hi))) < hi:
            u, hi = (u, mid) if mid * dpgf(mid) >= pgf(mid) else (mid, hi)
        assert f.kernel.u_star is None
        assert abs(cgf_progeny_unit(f).theta_max - math.log(u / pgf(u))) <= 1e-15

    @pytest.mark.parametrize("f", [
        pmf_from_family("geometric", {"a": 0.3}, truncation_K=40),
        pmf_from_family("poisson", {"lambda": 0.6}, truncation_K=40),
        pmf_from_dict({0: 0.6, 2: 0.4}),
        pmf_from_dict({0: 0.6, 1: 0.2, 3: 0.15, 5: 0.05}),
    ])
    def test_edge_is_offspring_rate_at_one(self, f):
        # max over u of log(u/f(u)) is sup over theta of theta - Lambda_f:
        # the edge equals I_f(1), which the conjugate solver finds on its own
        assert cgf_progeny_unit(f).theta_max == approx(
            rate_offspring(f, 1.0).value, rel=1e-11)


class TestContractionDual:
    """rate_estimator_meaninit and rate_progeny_marginal solve
    inf_z y*I_f((y-z)/y) + I_g(z) through its dual, one conjugate."""

    @pytest.mark.parametrize("family,param,K", F_LAWS)
    @pytest.mark.parametrize("g_table", [{1: 0.5, 2: 0.5}, G13],
                             ids=["g12", "g13"])
    def test_meaninit_against_high_precision(self, family, param, K, g_table):
        model = build_model(family_law(family, param, K), pmf_from_dict(g_table))
        checked = 0
        for x in np.linspace(0.0, 0.9, 19):
            x = float(x)
            exact, z_exact = exact_contraction((family, param),
                                               ("explicit", g_table),
                                               model.mu_g / (1.0 - x))
            rv = rate_estimator_meaninit(model, x)
            assert abs(rv.argmin_z - float(z_exact)) <= 1e-9, x
            if exact < 1e-3:
                continue
            checked += 1
            assert relative_error(rv.value, exact) <= 1e-12, x
        assert checked >= 14

    @pytest.mark.parametrize("family,param,K", F_LAWS)
    @pytest.mark.parametrize("g_table", [{1: 0.5, 2: 0.5}, G13],
                             ids=["g12", "g13"])
    def test_meaninit_against_golden_primal(self, family, param, K, g_table):
        model = build_model(family_law(family, param, K), pmf_from_dict(g_table))
        for x in np.linspace(0.0, 0.9, 7):
            x = float(x)
            primal = golden_primal(model, model.mu_g / (1.0 - x))
            assert rate_estimator_meaninit(model, x).value == approx(
                primal, rel=1e-12, abs=1e-15), x

    def test_support_ends(self):
        # P(Ybar = 2) = (q_2 p_0^2)^n: every start is two childless individuals
        model = build_model(BERN, pmf_from_dict({2: 0.5, 3: 0.5}))
        low = rate_progeny_marginal(model, 2.0)
        assert low.value == approx(math.log(8.0), rel=1e-15)
        assert low.argmin_z == 2.0
        below = rate_progeny_marginal(model, 1.5)
        assert math.isinf(below.value) and below.argmin_z is None
        # a childless f makes Y = Z, whose top is P(Z = 3) = 1/2
        childless = build_model(pmf_from_dict({0: 1.0}), pmf_from_dict(G13))
        top = rate_progeny_marginal(childless, 3.0)
        assert top.value == approx(math.log(2.0), rel=1e-15)
        assert top.argmin_z == 3.0
        assert math.isinf(rate_progeny_marginal(childless, 3.5).value)
        # with mass at zero, P(Ybar = 0) = q_0^n
        empty = build_model(BERN, pmf_from_dict({0: 0.5, 1: 0.5}))
        assert rate_progeny_marginal(empty, 0.0).value == approx(math.log(2.0),
                                                                 rel=1e-15)

    def test_no_golden_section(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("golden_min called")

        monkeypatch.setattr(ratefn, "golden_min", refuse)
        model = build_model(BERN, pmf_from_dict(G13))
        assert rate_estimator_meaninit(model, 0.3).value > 0.0
        assert rate_progeny_marginal(model, 6.0).value > 0.0

    @pytest.mark.parametrize("family,param,K", F_LAWS)
    @pytest.mark.parametrize("g", [
        pmf_from_dict({1: 0.5, 2: 0.5}), pmf_from_dict(G13),
        pmf_from_family("geometric", {"a": 0.3}, truncation_K=40),
    ], ids=["g12", "g13", "geometric"])
    def test_marginal_matches_compound_conjugate(self, family, param, K, g):
        # the direct route conjugates log g(G(e^beta)) and never touches I_f
        model = build_model(family_law(family, param, K), g)
        compound = ratefn.cgf_progeny_compound(model)
        for y in np.linspace(1.05 * model.nu, 3.0 * model.nu, 8):
            y = float(y)
            closed = rate_progeny_marginal(model, y).value
            assert legendre(compound, y).value == approx(closed, rel=1e-9), y


def counted(fn):
    """fn with a call counter, read as counted_fn.calls."""
    def wrapper(x):
        wrapper.calls += 1
        return fn(x)
    wrapper.calls = 0
    return wrapper


def rate_grid_pool(lo, hi):
    """The rate-grid benchmark's candidate points for one law: 2 strata of 8."""
    width = (hi - lo) / 2
    return [lo + (i + (j + 0.5) / 8) * width for i in range(2) for j in range(8)]


class TestGoldenMin:
    """golden_min is Brent's method: golden steps plus parabolic steps."""

    @pytest.mark.parametrize("fn,argmin", [
        (lambda b: (b - 0.3) ** 2, 0.3),
        (lambda b: math.cosh(b + 2.0), -2.0),
        (lambda b: math.exp(b) - 2.0 * b, math.log(2.0)),
        (lambda b: (b + 7.5) ** 2 + 0.1 * (b + 7.5) ** 4, -7.5),
        (lambda b: abs(b + 1.0) ** 1.5 + 0.25 * b, -1.0 - 1.0 / 36.0),
    ], ids=["quadratic", "cosh", "exp-linear", "quartic", "root-cusp"])
    def test_evaluation_count(self, fn, argmin):
        # golden section alone takes 54 evaluations to shrink [-48, 1] to
        # GOLDEN_TOL; the parabolic steps take well under half of that
        f, ref = counted(fn), counted(fn)
        b, v = ratefn.golden_min(f, -48.0, 1.0)
        _, v_ref = golden_section_min(ref, -48.0, 1.0)
        assert ref.calls == 54
        assert f.calls <= 25
        assert abs(b - argmin) <= 1e-7
        assert v == fn(b) and v <= v_ref + 1e-15

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_infinite_at_one_end(self, side):
        # an objective that is +inf on part of the bracket, as one defined
        # through a cgf is past the cgf's domain edge
        def fn(b):
            if (b > 0.5) if side == "right" else (b < -40.0):
                return math.inf
            return (b - 0.45) ** 2
        f = counted(fn)
        b, v = ratefn.golden_min(f, -48.0, 1.0)
        assert abs(b - 0.45) <= 1e-7 and v <= 1e-14
        assert f.calls <= 30

    @pytest.mark.parametrize("slope", [1.0, -1.0], ids=["left", "right"])
    def test_minimum_at_an_end(self, slope):
        b, v = ratefn.golden_min(lambda t: slope * t, -48.0, 1.0)
        end = -48.0 if slope > 0 else 1.0
        assert abs(b - end) <= 1e-6
        assert v == slope * b

    def test_degenerate_bracket(self):
        assert ratefn.golden_min(lambda t: t * t, 2.0, 2.0) == (2.0, 4.0)

    def test_exhausted_budget_raises(self, monkeypatch):
        # a search that cannot certify its minimum raises; it never returns
        # an uncertified point in silence
        monkeypatch.setattr(ratefn, "GOLDEN_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            ratio_rate_via_contraction(build_model(BERN, G_HALF), 0.25)

    @pytest.mark.parametrize("family,param,K", F_LAWS)
    @pytest.mark.parametrize("oracle", [ratio_rate_via_contraction], ids=["ratio"])
    def test_oracles_match_golden_section(self, family, param, K, oracle,
                                          monkeypatch):
        # each oracle that searches by golden_min, on the rate-grid benchmark's
        # pool, against the same oracle run with plain golden section; the
        # objective carries about 1e-16 of solver noise, hence the absolute floor
        model = build_model(family_law(family, param, K), G_HALF)
        points = rate_grid_pool(0.0, 0.9)
        brent = [oracle(model, p).value for p in points]
        monkeypatch.setattr(ratefn, "golden_min", golden_section_min)
        for p, got in zip(points, brent):
            assert got == approx(oracle(model, p).value, rel=1e-12, abs=1e-15), p


@st.composite
def oracle_cases(draw):
    """An explicit f with p_0 in [1e-3, 0.9] and mean up to 0.999, g on 1..4
    with two or three points, and an interior point: z strictly inside g's
    support, x = (y - z)/y in (0, 1).

    f puts p_0 at zero, a drawn shape on 2..12 and the rest on 1, which fixes
    its mean; a tiny p_0 forces the mean to at least 1 - p_0, so the two
    regions meet at the near-critical corner.
    """
    p0 = draw(st.floats(1e-3, 0.9))
    points = draw(st.lists(st.integers(2, 12), min_size=1, max_size=5,
                           unique=True))
    weights = draw(st.lists(st.integers(1, 100), min_size=len(points),
                            max_size=len(points)))
    shape = [w / sum(weights) for w in weights]
    m_shape = sum(h * w for h, w in zip(points, shape))
    lo, hi = 1.0 - p0, min(0.999, (1.0 - p0) * m_shape)
    mu = lo + draw(st.floats(0.0, 1.0)) * max(hi - lo, 0.0)
    t = (mu / (1.0 - p0) - 1.0) / (m_shape - 1.0)
    f = {h: (1.0 - p0) * t * w for h, w in zip(points, shape)}
    f[1] = (1.0 - p0) * (1.0 - t)
    f[0] = p0
    g_points = sorted(draw(st.lists(st.integers(1, 4), min_size=2, max_size=3,
                                    unique=True)))
    g_weights = draw(st.lists(st.integers(1, 10), min_size=len(g_points),
                              max_size=len(g_points)))
    g = {h: w / sum(g_weights) for h, w in zip(g_points, g_weights)}
    z = g_points[0] + (g_points[-1] - g_points[0]) * draw(st.floats(0.05, 0.95))
    x = draw(st.floats(0.01, 0.95))
    total = sum(f.values())
    return ({h: p / total for h, p in f.items() if p > 0.0}, g, z, x)


class TestOracleFuzz:
    """The joint-rate oracle and the ratio contraction against their closed
    forms, near criticality and at tiny p_0: agreement within 1e-9 relative or
    a ConvergenceError."""

    @settings(max_examples=25)
    @given(case=oracle_cases())
    def test_oracles_match_closed_forms(self, case):
        f, g, z, x = case
        model = build_model(pmf_from_dict(f), pmf_from_dict(g))
        y = z / (1.0 - x)
        try:
            oracle = rate_bivariate_oracle(model, y, z).value
            contraction = ratio_rate_via_contraction(model, x).value
        except ConvergenceError:
            return
        assert oracle == approx(rate_bivariate(model, y, z).value, rel=1e-9)
        assert contraction == approx(rate_estimator_ratio(model, x).value,
                                     rel=1e-9)


def brute_force_joint_rate(family, param, y, z):
    """sup over (beta, gamma) of beta*y + gamma*z - Lambda at 30 digits, for
    the joint cgf Lambda(beta, gamma) = log g(e^gamma G(e^beta)) with
    g(s) = (s + s^2)/2.  Lambda is jointly convex, so the supremum sits where
    both partial derivatives (by mpmath.diff) meet (y, z); findroot solves
    that 2-D system from the origin, with no inner-supremum identity."""
    with mpmath.workdps(30):
        G = exact_progeny_pgf(family, param)

        def lam(beta, gamma):
            u = mpmath.exp(gamma) * G(mpmath.exp(beta))
            return mpmath.log((u + u * u) / 2)

        def stationarity(beta, gamma):
            return [mpmath.diff(lam, (beta, gamma), (1, 0)) - y,
                    mpmath.diff(lam, (beta, gamma), (0, 1)) - z]

        beta, gamma = mpmath.findroot(stationarity, (mpmath.mpf(0), mpmath.mpf(0)))
        return beta * y + gamma * z - lam(beta, gamma)


class TestJointRateBruteForce:
    """Both joint-rate routes against the joint supremum solved in two
    variables, which checks the factorization of the joint cgf that the
    oracle's one conjugate, z*Lambda_Y*(y/z) + I_g(z), rests on."""

    POINTS = [(1.6, 1.4), (5.0, 1.8), (6.0, 1.1)]

    @pytest.mark.parametrize("family,param,K", F_LAWS)
    def test_both_routes_match(self, family, param, K):
        model = build_model(family_law(family, param, K), G_HALF)
        for y, z in self.POINTS:
            exact = brute_force_joint_rate(family, param, y, z)
            assert relative_error(rate_bivariate_oracle(model, y, z).value,
                                  exact) <= 1e-12, (y, z)
            assert relative_error(rate_bivariate(model, y, z).value,
                                  exact) <= 1e-12, (y, z)

    def test_oracle_never_composes_the_offspring_rate(self, monkeypatch):
        models = [build_model(family_law(*law), G_HALF) for law in F_LAWS]
        points = self.POINTS + [(3.0, 1.5), (2.0, 2.0), (0.0, 0.0), (1.0, 2.0)]
        expected = [rate_bivariate_oracle(m, y, z) for m in models
                    for y, z in points]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called a closed-form route")

        for name in ("rate_offspring", "rate_progeny_closed", "rate_bivariate"):
            monkeypatch.setattr(ratefn, name, refuse)
        assert [rate_bivariate_oracle(m, y, z) for m in models
                for y, z in points] == expected


# ---------------------------------------------------------------------------
# the exact derivative Lambda' and the solver's Illinois steps on it
# ---------------------------------------------------------------------------

EPS = 2.0 ** -52
LAW_31 = pmf_from_dict({k: (k + 1) ** -2 / sum((j + 1) ** -2 for j in range(31))
                        for k in range(31)})


def exact_progeny_cgf(family, param, g_table=None):
    """log G(e^beta), or log g(G(e^beta)) for an initial law g_table, from
    exact_progeny_pgf."""
    G = exact_progeny_pgf(family, param)
    if g_table is None:
        return lambda b: mpmath.log(G(mpmath.exp(b)))
    pairs = [(mpmath.mpf(r), mpmath.mpf(q)) for r, q in g_table.items()]
    return lambda b: mpmath.log(sum(q * G(mpmath.exp(b)) ** r for r, q in pairs))


def law_cgf(law):
    """exact_cgf's (Lambda, Lambda') for a library law."""
    if law.family == "explicit":
        return exact_cgf("explicit", law.as_dict())
    return exact_cgf(law.family, next(iter(law.params.values())))


GEO_03 = family_law("geometric", 0.3, 40)
POI_06 = family_law("poisson", 0.6, 40)
DERIVATIVE_LAWS = {
    "bernoulli-0.3": family_law("bernoulli", 0.3, None),
    "bernoulli-0.5": family_law("bernoulli", 0.5, None),
    "geometric-0.3": GEO_03, "poisson-0.6": POI_06, "g-half": G_HALF,
    "explicit-31": LAW_31,
}
# name -> (the library's cgf, the mpmath Lambda), both built on demand
DERIVATIVE_CASES = {
    **{name: (lambda law=law: cgf_of_pmf(law), lambda law=law: law_cgf(law)[0])
       for name, law in DERIVATIVE_LAWS.items()},
    "progeny-bernoulli": (lambda: cgf_progeny_unit(BERN),
                          lambda: exact_progeny_cgf("bernoulli", 0.5)),
    "progeny-geometric": (lambda: cgf_progeny_unit(GEO_03),
                          lambda: exact_progeny_cgf("geometric", 0.3)),
    "progeny-poisson": (lambda: cgf_progeny_unit(POI_06),
                        lambda: exact_progeny_cgf("poisson", 0.6)),
    "compound-geometric": (
        lambda: ratefn.cgf_progeny_compound(build_model(GEO_03, G_HALF)),
        lambda: exact_progeny_cgf("geometric", 0.3, {1: 0.5, 2: 0.5})),
}


def derivative_grid(theta_max):
    """theta from -700 up to 700, or up to 1e-6 short of a finite theta_max."""
    base = [-700.0, -120.0, -20.0, -3.0, -0.5, 0.0, 0.4]
    if math.isinf(theta_max):
        return base + [2.0, 15.0, 120.0, 700.0]
    return ([t for t in base if t < theta_max - 0.1]
            + [theta_max - d for d in (0.1, 1e-3, 1e-6)])


class TestExactDerivative:
    """Each cgf's dfn against mpmath.diff of its closed-form cgf at 30 digits.

    Below theta = 0 the part of a law's Lambda that moves with theta is
    e^theta smaller than the rest, so the working precision grows by
    |theta|/log 10 digits to keep 30 in the derivative.  The bound is
    rounding: 1e-14 relative plus the change that moving theta by 8 ulps
    (of max(1, |theta|)) makes, |theta| eps Lambda'', which is what the
    derivative's own conditioning allows near a domain edge.
    """

    @pytest.mark.parametrize("case", DERIVATIVE_CASES)
    def test_against_mpmath_diff(self, case):
        make_cgf, make_exact = DERIVATIVE_CASES[case]
        cgf, lam = make_cgf(), make_exact()
        for theta in derivative_grid(cgf.theta_max):
            got = cgf.dfn(theta)
            with mpmath.workdps(30 + int(max(0.0, -theta) / math.log(10.0))):
                exact = mpmath.diff(lam, theta)
                curvature = abs(mpmath.diff(lam, theta, 2))
                bound = (1e-14 * abs(exact)
                         + 8 * EPS * max(1.0, abs(theta)) * curvature)
                assert abs(got - exact) <= bound, theta

    @pytest.mark.parametrize("case", DERIVATIVE_CASES)
    def test_extremes_do_not_overflow(self, case):
        dfn = DERIVATIVE_CASES[case][0]().dfn
        for theta in (-math.inf, -700.0, 700.0, math.inf):
            d = dfn(theta)
            assert d >= 0.0, theta          # also rules out nan

    @pytest.mark.parametrize("case", DERIVATIVE_CASES)
    def test_finite_derivative_has_finite_cgf(self, case):
        # the solver's bracket calls Lambda only where Lambda' is +inf, so
        # Lambda must be finite wherever Lambda' is (the 31-point law's sum
        # anchored at 0 overflows from theta = 23.7 on)
        cgf = DERIVATIVE_CASES[case][0]()
        thetas = derivative_grid(cgf.theta_max) + list(np.linspace(-700.0, 708.0, 705))
        assert not [t for t in thetas
                    if math.isfinite(cgf.dfn(t)) and not math.isfinite(cgf.fn(t))]

    @pytest.mark.parametrize("law", [G_HALF, LAW_31,
                                     pmf_from_dict({2: 0.3, 5: 0.7})])
    def test_explicit_limits_are_support_ends(self, law):
        dfn = cgf_of_pmf(law).dfn
        assert dfn(-math.inf) == law.min_support
        assert dfn(math.inf) == law.max_support


class TestArgmaxTheta:
    """The returned theta is the root of Lambda'(theta) = x to 1e-10, against
    a 40-digit root (the root search stops at a bracket of width THETA_TOL =
    1e-11 and returns its midpoint)."""

    @pytest.mark.parametrize("law,xs", [
        (DERIVATIVE_LAWS["bernoulli-0.3"], [0.05, 0.3001, 0.5, 0.97]),
        (GEO_03, [0.01, 0.5, 3.0, 40.0]),
        (POI_06, [0.01, 0.7, 3.0, 12.0]),
        (pmf_from_dict({0: 0.6, 1: 0.2, 3: 0.15, 5: 0.05}), [0.1, 0.8, 2.5, 4.9]),
    ], ids=["bernoulli", "geometric", "poisson", "explicit"])
    def test_offspring_rate(self, law, xs):
        dlam = law_cgf(law)[1]
        hi = -math.log(law.params["a"]) if law.family == "geometric" else 40.0
        for x in xs:
            theta = rate_offspring(law, x).argmax_theta
            with mpmath.workdps(40):
                root = mp_root(lambda t: dlam(t) - x, -40, hi)
            assert abs(theta - float(root)) <= 1e-10, x

    def test_meaninit_dual(self, monkeypatch):
        # the dual's theta does not reach the RateValue; read it at the solver
        thetas = []
        solve = ratefn._conjugate_raw

        def spy(*args, **kwargs):
            out = solve(*args, **kwargs)
            thetas.append(out[1])
            return out

        monkeypatch.setattr(ratefn, "_conjugate_raw", spy)
        model = build_model(BERN, pmf_from_dict(G13))
        y = model.mu_g / (1.0 - 0.3)
        rate_estimator_meaninit(model, 0.3)
        with mpmath.workdps(40):
            _, dlam_f = exact_cgf("bernoulli", 0.5)
            _, dlam_g = exact_cgf("explicit", G13)
            root = mp_root(lambda t: y * dlam_f(t) + dlam_g(t) - y, -64, 64)
        assert thetas == [approx(float(root), abs=1e-10)]


class TestThetaMaxBranch:
    """Lambda = theta^2/2 up to theta = 1 and +inf beyond: Lambda' stays
    below any x > 1 on the whole domain, so the supremum x - 1/2 is attained
    at the edge and carries the theta_max marker."""

    CGF = ratefn.CgfEvaluator(
        fn=lambda t: 0.5 * t * t if t <= 1.0 else math.inf,
        dfn=lambda t: t if t <= 1.0 else math.inf,
        mean=0.0, theta_max=1.0, support_min=-math.inf,
        support_max=math.inf, log_mass_min=-math.inf)

    @pytest.mark.parametrize("x", [1.0 + 1e-9, 1.5, 3.0, 40.0])
    def test_edge(self, x):
        rv = legendre(self.CGF, x)
        assert rv.argmax_theta == "theta_max"
        assert rv.value == approx(x - 0.5, rel=1e-15)

    @pytest.mark.parametrize("x", [-2.0, 0.25, 0.9])
    def test_interior(self, x):
        rv = legendre(self.CGF, x)
        assert rv.argmax_theta == approx(x, abs=1e-11)
        assert rv.value == approx(0.5 * x * x, rel=1e-12)


class TestEvaluationBudget:
    """rate_progeny_direct's cgf evaluations per point on average, Lambda and
    Lambda' counted alike: central differences and the value climb took about
    165, bisection about 43, Illinois steps 20, and Illinois steps with the
    upper bracket started below the known domain edge 13.2."""

    @staticmethod
    def mean_calls(monkeypatch):
        calls = 0

        def counting(fn):
            def wrapper(beta):
                nonlocal calls
                calls += 1
                return fn(beta)
            return wrapper

        unit = ratefn.cgf_progeny_unit

        def counted_unit(f):
            cgf = unit(f)
            return dataclasses.replace(cgf, fn=counting(cgf.fn),
                                       dfn=counting(cgf.dfn))

        monkeypatch.setattr(ratefn, "cgf_progeny_unit", counted_unit)
        points = [(family_law(*law), y) for law in F_LAWS for y in (1.5, 3.0, 6.0)]
        for f, y in points:
            assert rate_progeny_direct(f, y).value > 0.0
        return calls / len(points)

    def test_direct_progeny(self, monkeypatch):
        assert self.mean_calls(monkeypatch) <= 50

    def test_direct_progeny_superlinear(self, monkeypatch):
        assert self.mean_calls(monkeypatch) <= 21


FUZZ_PARAMS = {"bernoulli": (0.01, 0.99), "geometric": (0.05, 0.5),
               "poisson": (0.05, 0.999)}


@st.composite
def offspring_points(draw):
    """(family, parameter, x): x within 1e-6 to 0.1 of the law's mean on
    either side, or, for a geometric law, Lambda'(-log a - delta) with delta
    from 1e-15 to 1e-6, i.e. theta within 1e-6 of the domain edge."""
    family = draw(st.sampled_from(sorted(FUZZ_PARAMS)))
    param = draw(st.floats(*FUZZ_PARAMS[family]))
    if family == "geometric" and draw(st.booleans()):
        delta = 10.0 ** -draw(st.floats(6.0, 15.0))
        return family, param, math.exp(-delta) / -math.expm1(-delta)
    mu = param / (1.0 - param) if family == "geometric" else param
    x = mu + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.floats(1.0, 6.0))
    assume(x > 0.0 and (family != "bernoulli" or x < 1.0))
    return family, param, x


class TestOffspringRateFuzz:
    """rate_offspring against the family closed forms at 50 digits, near the
    mean and near the geometric domain edge: 1e-9 relative or a
    ConvergenceError."""

    @settings(max_examples=150)
    @given(case=offspring_points())
    def test_matches_closed_form(self, case):
        family, param, x = case
        law = family_law(family, param, None if family == "bernoulli" else 60)
        try:
            got = rate_offspring(law, x).value
        except ConvergenceError:
            return
        assert relative_error(got, exact_offspring_rate(family, param, x)) <= 1e-9


class TestNearMeanGuard:
    """At the offspring mean and 2^-54 off it the exact rates are 0 or below
    about 1e-32, and every rate must stay at most 1e-30.  A stop rule relative
    to |theta| resolves theta there, but theta*x - Lambda(theta) then keeps
    the rounding of Lambda: such a variant returned 2e-16 for the geometric
    mean-initial rate at the mean."""

    @pytest.mark.parametrize("offset", [0.0, -2.0 ** -54, 2.0 ** -54])
    @pytest.mark.parametrize("family,param,K", F_LAWS)
    def test_rates_vanish(self, family, param, K, offset):
        f = family_law(family, param, K)
        model = build_model(f, G_HALF)
        x = model.mu_f + offset
        for rv in (rate_offspring(f, x), rate_estimator_ratio(model, x),
                   rate_estimator_deterministic(f, model.mu_g, x),
                   rate_estimator_meaninit(model, x)):
            assert 0.0 <= rv.value <= 1e-30


def bisection_conjugate(cgf, x):
    """ratefn._conjugate_raw as it was before Illinois steps: the same bracket,
    with fn probing every point for finiteness, then plain bisection of
    Lambda' - x down to a bracket of width THETA_TOL."""
    fn, dfn, cap = cgf.fn, cgf.dfn, ratefn.THETA_CAP
    if x < cgf.support_min:
        return math.inf, "below_support"
    if x == cgf.support_min:
        return -cgf.log_mass_min, "support_min"
    if x > cgf.support_max:
        return math.inf, "above_support"
    if x == cgf.support_max:
        return -cgf.log_mass_max, "support_max"
    lo, hi, edge = -1.0, 1.0, None
    while not math.isfinite(fn(hi)):
        edge, hi = hi, 0.5 * hi
    d = dfn(hi)
    while d < x:
        lo = hi
        if edge is None:
            if hi == cap:
                return cap * x - fn(cap), "theta_cap"
            nxt = min(2.0 * hi, cap)
        elif edge - hi <= 1e-13 * max(1.0, abs(edge)):
            return hi * x - fn(hi), "theta_max"
        else:
            nxt = 0.5 * (hi + edge)
        if math.isfinite(fn(nxt)):
            hi, d = nxt, dfn(nxt)
        else:
            edge = nxt
    if lo < 0.0:
        while dfn(lo) > x:
            if lo == -cap:
                return -cap * x - fn(-cap), "theta_cap"
            hi, lo = lo, max(2.0 * lo, -cap)
    while hi - lo > ratefn.THETA_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if dfn(mid) < x else (lo, mid)
    theta = 0.5 * (lo + hi)
    return theta * x - fn(theta), theta


def meaninit_dual(model, x):
    """The (cgf, y) that rate_estimator_meaninit hands to the solver."""
    seen, solve = [], ratefn._conjugate_raw

    def record(cgf, y):
        seen.append((cgf, y))
        return solve(cgf, y)
    ratefn._conjugate_raw = record
    try:
        rate_estimator_meaninit(model, x)
    finally:
        ratefn._conjugate_raw = solve
    return seen[0]


def away_from(draw, lo, hi, mean):
    """A float in [lo, hi] at least 0.05 max(1, |mean|) from the mean.  Closer
    in, the rate falls toward the rounding of Lambda (about 1e-16 absolute),
    and two roots 1e-11 apart round theta*x - Lambda(theta) differently by
    more than 1e-11 relative."""
    x = draw(st.floats(lo, hi))
    assume(abs(x - mean) >= 0.05 * max(1.0, abs(mean)))
    return x


@st.composite
def conjugate_cases(draw):
    """(cgf, x) for a law (Bernoulli, geometric with theta up to 1e-6 short of
    its edge, Poisson, the 31-point table), for the compound progeny and the
    mean-initial dual over those offspring laws, and for the markers: Poisson
    at x from 1e-320 to 1e300 (theta_cap below Lambda'(-700), about 6e-305)
    and the truncated quadratic cgf of TestThetaMaxBranch (theta_max)."""
    kind = draw(st.sampled_from(["bernoulli", "geometric", "poisson",
                                 "explicit-31", "compound", "meaninit-dual",
                                 "poisson-far", "theta-max"]))
    if kind == "poisson-far":
        return cgf_of_pmf(POI_06), 10.0 ** draw(st.floats(-320.0, 300.0))
    if kind == "theta-max":
        return TestThetaMaxBranch.CGF, away_from(draw, -3.0, 3.0, 0.0)
    if kind in ("bernoulli", "geometric", "poisson"):
        param = draw(st.floats(*FUZZ_PARAMS[kind]))
        law = family_law(kind, param, None if kind == "bernoulli" else 60)
        cgf = cgf_of_pmf(law)
        if kind == "geometric" and draw(st.booleans()):
            delta = 10.0 ** -draw(st.floats(6.0, 10.0))
            return cgf, math.exp(-delta) / -math.expm1(-delta)
        top = 0.99 if kind == "bernoulli" else 20.0
        return cgf, away_from(draw, 0.01, top, cgf.mean)
    if kind == "explicit-31":
        cgf = cgf_of_pmf(LAW_31)
        return cgf, away_from(draw, 0.05, 29.9, cgf.mean)
    f = family_law(*draw(st.sampled_from(F_LAWS)))
    if kind == "compound":
        model = build_model(f, draw(st.sampled_from([G_HALF, GEO_03])))
        cgf = ratefn.cgf_progeny_compound(model)
        return cgf, away_from(draw, cgf.support_min + 0.1, 40.0, cgf.mean)
    model = build_model(f, draw(st.sampled_from([G_HALF, pmf_from_dict(G13)])))
    return meaninit_dual(model, away_from(draw, 0.02, 0.95, model.mu_f))


class TestIllinoisAgainstBisection:
    """_conjugate_raw against bisection_conjugate: the same marker or two
    roots within THETA_TOL, and values within 1e-11 relative."""

    @settings(max_examples=200)
    @given(case=conjugate_cases())
    def test_matches_bisection(self, case):
        cgf, x = case
        value, theta = ratefn._conjugate_raw(cgf, x)
        ref_value, ref_theta = bisection_conjugate(cgf, x)
        if isinstance(ref_theta, str):
            assert theta == ref_theta
        else:
            assert isinstance(theta, float)
            assert abs(theta - ref_theta) <= 1e-11
        assert value == approx(ref_value, rel=1e-11, abs=1e-300)


class TestIllinoisSafeguard:
    """_illinois on roots where h is flat, which regula falsi approaches from
    one side in tiny steps: the fallback to bisection after two steps that
    each fail to halve the bracket keeps it to three steps per halving
    (without it, (t - 0.3)^15 took 523 steps where bisection takes 38)."""

    @pytest.mark.parametrize("power", [3, 9, 15])
    def test_flat_root(self, power):
        calls = 0

        def h(t):
            nonlocal calls
            calls += 1
            return math.copysign(abs(t - 0.3) ** power, t - 0.3)

        lo, hi, tol = -1.0, 1.0, ratefn.THETA_TOL
        root = ratefn._illinois(h, lo, hi, h(lo), h(hi), tol)
        assert abs(root - 0.3) <= tol
        assert calls - 2 <= 3 * math.ceil(math.log2((hi - lo) / tol))


class TestExplicitSupportTop:
    """Within 1e-11 of the top of the 31-point law's support the root sits
    past theta = 23.7, where a sum anchored at the bottom of the support
    overflows: the rate must stay within 1e-12 of the 60-digit conjugate
    (it approaches -log p_30 = 7.3462), with an interior theta."""

    @pytest.mark.parametrize("gap", [1e-11, 1e-13, 4 * EPS * 30])
    def test_rate_near_the_top(self, gap):
        x = 30.0 - gap
        rv = rate_offspring(LAW_31, x)
        lam, dlam = law_cgf(LAW_31)
        with mpmath.workdps(60):
            root = mp_root(lambda t: dlam(t) - mpmath.mpf(x), 0, 60)
            exact = root * x - lam(root)
        assert isinstance(rv.argmax_theta, float)
        assert rv.value == approx(float(exact), rel=1e-12)
