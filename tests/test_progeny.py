"""Tests for total-progeny distributions and generating functions."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from gwldp import (ConvergenceError, HypothesisError, build_model,
                   compound_pgf, extinction_probability, pgf_exact,
                   pmf_from_dict, pmf_from_family, progeny_mean,
                   rate_progeny_direct, total_progeny_pgf,
                   total_progeny_pmf_dwass)
from gwldp import progeny
from gwldp.offspring import MASS_TOL
from oracles import (exact_offspring_rate, exact_progeny_law,
                     exact_progeny_pgf, exact_progeny_tail, family_law,
                     progeny_domain_edge)

BERN = pmf_from_dict({0: 0.5, 1: 0.5})


def dwass_oracle(probs_by_k, k_max):
    """Brute-force pi_k = (1/k) (p^{*k})_{k-1}, each power built from scratch."""
    base = np.zeros(k_max + 1)
    for k, p in probs_by_k.items():
        if k <= k_max:
            base[k] = p
    out = {}
    power = np.array([1.0])  # 0-fold convolution: point mass at 0
    for k in range(1, k_max + 1):
        power = np.convolve(power, base)
        out[k] = power[k - 1] / k
    return out


def dwass_relative_error(table, oracle):
    """Largest relative gap to a positive oracle, skipping a zero oracle."""
    table = np.asarray(table, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    live = oracle > 0.0
    assert np.all(table[~live] == 0.0)
    return float(np.max(np.abs(table[live] - oracle[live]) / oracle[live],
                        initial=0.0))


@st.composite
def subcritical_laws(draw):
    """Explicit laws with p_0 >= 1e-3, mean <= 0.999 and up to 60 points."""
    p0 = draw(st.floats(1e-3, 0.9))
    size = draw(st.integers(1, 59))
    points = draw(st.lists(st.integers(1, 80), min_size=size, max_size=size,
                           unique=True))
    weights = np.array(draw(st.lists(st.integers(1, 1000), min_size=size,
                                     max_size=size)), dtype=float)
    h = np.array(points, dtype=float)
    shape = weights / weights.sum()
    m_shape = float(np.dot(h, shape))
    lo, hi = 1.0 - p0, min(0.999, (1.0 - p0) * m_shape)
    mu = lo + draw(st.floats(0.0, 1.0)) * max(hi - lo, 0.0)
    # mass off zero: t on the drawn shape, the rest on h = 1, mean mu
    t = (mu / (1.0 - p0) - 1.0) / (m_shape - 1.0) if m_shape > 1.0 else 0.0
    law = {h_: (1.0 - p0) * t * w for h_, w in zip(points, shape)}
    law[1] = law.get(1, 0.0) + (1.0 - p0) * (1.0 - t)
    law[0] = p0
    total = sum(law.values())
    return {h_: p / total for h_, p in law.items() if p > 0.0}


class TestExtinction:
    def test_subcritical_is_one_exactly(self):
        assert extinction_probability(BERN) == 1.0

    def test_quadratic_law_minimal_root(self):
        # minimal root of 0.75 s^2 - s + 0.25 = 0
        pmf = pmf_from_dict({0: 0.25, 2: 0.75})
        assert extinction_probability(pmf) == approx(1.0 / 3.0, abs=1e-12)
        # near-critical laws, where s <- f(s) stalls: the root p0/p2 of
        # p2 s^2 - s + p0 = 0 has f'(q) = 2 p0 close to 1
        for p0 in (0.49, 0.499, 0.4999):
            q = extinction_probability(pmf_from_dict({0: p0, 2: 1.0 - p0}))
            assert q == approx(p0 / (1.0 - p0), rel=1e-13)

    def test_identity_pgf_minimal_solution(self):
        assert extinction_probability(pmf_from_dict({1: 1.0})) == 0.0

    def test_supercritical_geometric(self):
        # f(s) = (1-a)/(1-a s); fixed points s=1 and s=(1-a)/a
        pmf = pmf_from_family("geometric", {"a": 0.6}, truncation_K=80)
        assert extinction_probability(pmf) == approx(0.4 / 0.6, abs=1e-10)

    def test_random_start_compounds_through_g(self):
        p_unit = extinction_probability(pmf_from_dict({0: 0.25, 2: 0.75}))
        assert pgf_exact(pmf_from_dict({2: 1.0}), p_unit) == approx(
            (1.0 / 3.0) ** 2, abs=1e-10)


class TestDwass:
    def test_bernoulli_small_table(self):
        # pi_k = (1/k) P(Binom(k, 1/2) = k-1) = (1/k) k 2^{-k} = 2^{-k}
        pmf = total_progeny_pmf_dwass(BERN, 3)
        assert pmf.prob(1) == approx(0.5, abs=1e-15)
        assert pmf.prob(2) == approx(0.25, abs=1e-15)
        assert pmf.prob(3) == approx(0.125, abs=1e-15)

    def test_no_offspring_is_unit(self):
        pmf = total_progeny_pmf_dwass(pmf_from_dict({0: 1.0}), 1)
        assert pmf.prob(1) == 1.0
        assert pmf.truncation_deficit == 0.0

    def test_two_fold_convolution_by_hand(self):
        pmf = total_progeny_pmf_dwass(pmf_from_dict({0: 0.75, 1: 0.25}), 2)
        assert pmf.prob(1) == approx(0.75)
        assert pmf.prob(2) == approx(0.5 * 2 * 0.25 * 0.75)

    @pytest.mark.parametrize("law", [
        {0: 0.5, 1: 0.5},
        {0: 0.45, 1: 0.3, 2: 0.25},
        {0: 0.7, 3: 0.3},             # lattice gaps
        {0: 0.5, 2: 0.5},             # critical
    ])
    def test_matches_brute_force_oracle(self, law):
        pmf_law = pmf_from_dict(law)
        table = total_progeny_pmf_dwass(pmf_law, 12)
        oracle = dwass_oracle(law, 12)
        for k in range(1, 13):
            assert table.prob(k) == approx(oracle[k], abs=1e-14)

    @pytest.mark.parametrize("law,k_max", [
        ({0: 0.7, 3: 0.3}, 2),                             # 3 > k_max
        ({h: 0.5 ** (h + 1) for h in range(10)} | {10: 0.5 ** 10}, 5),
        ({0: 0.9, 2: 0.04, 7: 0.06}, 1),
        ({0: 1.0}, 4),                                     # one-entry table
        ({0: 0.5, 2: 0.5}, 1),                             # critical
        ({0: 0.5, 2: 0.5}, 9),
    ])
    def test_support_above_k_max(self, law, k_max):
        table = total_progeny_pmf_dwass(pmf_from_dict(law), k_max)
        oracle = dwass_oracle(law, k_max)
        assert table.support.tolist() == list(range(1, k_max + 1))
        assert dwass_relative_error(table.probs, list(oracle.values())) <= 1e-12
        # the deficit is P(Y > k_max); at these k_max it is large enough for
        # 1 - sum(oracle) to hold it to rounding
        assert abs(table.truncation_deficit - (1.0 - sum(oracle.values()))) \
            <= 1e-15

    def test_step_above_k_max_is_tail(self):
        # a step to 1001 ends any hope of Y <= 1000, so P(Y > 1000) is
        # 1e-200 * E[min(Y, 1000)] = 1e-200 * (2 - 2^-999) plus 2^-1000
        law = pmf_from_dict({0: 0.5, 1: 0.5, 1001: 1e-200})
        table = total_progeny_pmf_dwass(law, 1000)
        assert abs(table.truncation_deficit - 2e-200) <= 1e-13 * 2e-200

    @pytest.mark.parametrize("law", [
        pmf_from_family("geometric", {"a": 0.3}, truncation_K=20),
        pmf_from_dict({0: 0.5, 1: 0.3, 2: 0.199999999999}),
    ], ids=["truncated", "rounded"])
    def test_missing_offspring_mass_in_deficit(self, law):
        # a table 1e-11 or 1e-12 short of 1 loses that much of the walk at
        # every step, more than the mass check allows over the table: the
        # deficit counts it, and the rows are the walk on the table
        assert 1.0 - float(law.probs.sum()) > 9e-13
        table = total_progeny_pmf_dwass(law, 60)
        oracle = dwass_oracle(law.as_dict(), 60)
        assert dwass_relative_error(table.probs, list(oracle.values())) <= 1e-12
        assert abs(table.truncation_deficit - (1.0 - sum(oracle.values()))) \
            <= 1e-15

    @pytest.mark.parametrize("p,k_max", [(0.5, 1000), (0.5, 200), (0.3, 200),
                                         (0.55, 1000), (0.9, 100)])
    def test_bernoulli_deficit_is_exact_tail(self, p, k_max):
        # Y is geometric, P(Y > k_max) = p^k_max: no cancellation against
        # sum(pi) could leave this many digits below 2.2e-16
        table = total_progeny_pmf_dwass(family_law("bernoulli", p, None), k_max)
        exact = p ** k_max
        assert abs(table.truncation_deficit - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("family,param,K", [("geometric", 0.3, 80),
                                                ("poisson", 0.6, 60)])
    @pytest.mark.parametrize("k_max", [200, 1000])
    def test_deficit_is_exact_tail(self, family, param, K, k_max):
        table = total_progeny_pmf_dwass(family_law(family, param, K), k_max)
        exact = float(exact_progeny_tail(family, param, k_max))
        assert exact < 1e-12
        assert abs(table.truncation_deficit - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("family,param,K", [
        ("bernoulli", 0.3, None), ("bernoulli", 0.5, None),
        ("bernoulli", 0.55, None),
        ("poisson", 0.3, 60), ("poisson", 0.6, 60), ("poisson", 0.9, 60),
        ("geometric", 0.2, 80), ("geometric", 0.3, 80),
        ("geometric", 0.45, 80),
    ])
    def test_exact_family_laws(self, family, param, K):
        pmf = family_law(family, param, K)
        table = total_progeny_pmf_dwass(pmf, 1000)
        exact = exact_progeny_law(family, param, 1000)
        # below ~1e-290 the float table underflows; those rows are not compared
        kept = exact >= 1e-290
        assert kept[:100].all()
        assert dwass_relative_error(table.probs[kept], exact[kept]) <= 1e-12

    @pytest.mark.parametrize("p", [0.3, 0.45])
    def test_subnormal_rows_rounded_once(self, p):
        # rows below 2^-1022 keep few bits, but each is still one rounding
        # of a value the walk held in the normal range, so none is off by
        # more than half the last subnormal place beyond the 1e-12 of the
        # rows above; a walk in plain units rounds on every subnormal step
        table = total_progeny_pmf_dwass(family_law("bernoulli", p, None), 1000)
        with mpmath.workdps(40):
            a, half_place = mpmath.mpf(p), mpmath.mpf(2) ** -1075
            for k, row in enumerate(table.probs, start=1):
                exact = a ** (k - 1) * (1 - a)
                assert abs(row - exact) <= 1e-12 * exact + half_place, k

    def test_supercritical_rejected(self):
        with pytest.raises(HypothesisError):
            total_progeny_pmf_dwass(pmf_from_dict({0: 0.2, 2: 0.8}), 5)

    def test_no_mass_at_zero_rejected(self):
        with pytest.raises(HypothesisError):
            total_progeny_pmf_dwass(pmf_from_dict({1: 0.5, 2: 0.5}), 5)


class TestFixedPointPgf:
    def test_bernoulli_closed_form_inside_unit_interval(self):
        # G = s(1/2 + G/2) solves to G = s / (2 - s)
        for s in np.linspace(0.0, 1.0, 21):
            assert total_progeny_pgf(BERN, float(s)) == approx(s / (2 - s),
                                                               abs=1e-12)

    def test_mass_conservation_at_one(self):
        assert total_progeny_pgf(BERN, 1.0) == approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("law", [{0: 0.5, 2: 0.5}, {0: 0.5005, 2: 0.4995}],
                             ids=["critical", "near-critical"])
    def test_exactly_one_at_one(self, law):
        # G(1) = P(Y < inf) = 1 for every proper law, however slowly the
        # fixed-point iteration would creep up to it
        assert total_progeny_pgf(pmf_from_dict(law), 1.0) == 1.0

    def test_unit_progeny(self):
        assert total_progeny_pgf(pmf_from_dict({0: 1.0}), 0.7) == approx(0.7)

    def test_analytic_continuation_above_one(self):
        assert total_progeny_pgf(BERN, 1.5) == approx(3.0, abs=1e-10)

    def test_outside_domain_is_infinite(self):
        assert math.isinf(total_progeny_pgf(BERN, 2.5))
        assert math.isinf(total_progeny_pgf(BERN, 2.0))

    def test_strictly_convex_offspring_above_one(self):
        # G solves 0.25 s G^2 - G + 0.75 s = 0; smallest root, radius sqrt(4/3)
        pmf = pmf_from_dict({0: 0.75, 2: 0.25})
        for s in (1.05, 1.1, 1.15):
            g = total_progeny_pgf(pmf, s)
            assert 0.25 * s * g * g - g + 0.75 * s == approx(0.0, abs=1e-11)
            disc = 1.0 - 0.75 * s * s
            assert g == approx((1.0 - math.sqrt(disc)) / (0.5 * s), abs=1e-10)
        assert math.isinf(total_progeny_pgf(pmf, 1.16))


class TestNewtonPgf:
    """G(s) as the smallest root of s*f(u) = u, by Newton from where h > 0."""

    @pytest.mark.parametrize("family,param", [
        ("bernoulli", 0.5), ("bernoulli", 0.9), ("geometric", 0.3),
        ("geometric", 0.45), ("poisson", 0.6), ("poisson", 0.99),
        ("poisson", 0.999),
    ])
    def test_closed_forms_at_high_precision(self, family, param):
        # near criticality a linearly convergent iteration stopped at
        # |dG| < 1e-14 misses by about 1e-14/(1 - mu_f); the root is found to
        # rounding, except within a hair of the tangency at the domain edge
        f = family_law(family, param, None if family == "bernoulli" else 400)
        # s* at the default 53-bit precision rounds as double arithmetic does
        edge = float(progeny_domain_edge(family, param))
        below = [0.0, 1e-6, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-6]
        above = [1.0 + (edge - 1.0) * t for t in (1e-3, 0.1, 0.5, 0.9)]
        for s in below + above:
            with mpmath.workdps(50):
                exact = exact_progeny_pgf(family, param)(mpmath.mpf(s))
            got = total_progeny_pgf(f, s)
            assert abs(got - exact) <= 1e-12 * exact, s

    def test_few_pgf_evaluations(self):
        # Newton converges quadratically from u = 0, so even at mean 0.999
        # each G takes at most a dozen steps of two calls, f and f', counted
        # on the law's kernel; the iteration G <- s*f(G) needs thousands as
        # s nears 1
        calls = []
        pmf = pmf_from_family("poisson", {"lambda": 0.999}, truncation_K=80)
        kernel = pmf.kernel
        object.__setattr__(pmf, "kernel", dataclasses.replace(
            kernel, pgf=lambda u: calls.append(u) or kernel.pgf(u),
            dpgf=lambda u: calls.append(u) or kernel.dpgf(u)))
        for s in (0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0000004):
            calls.clear()
            total_progeny_pgf(pmf, s)
            assert len(calls) <= 24, s

    def test_exhausted_newton_raises(self, monkeypatch):
        # a solver that cannot certify its answer raises; it never returns
        # the infinite marker in silence
        monkeypatch.setattr(progeny, "NEWTON_MAX_ITER", 1)
        pmf = pmf_from_family("poisson", {"lambda": 0.6}, truncation_K=40)
        with pytest.raises(ConvergenceError):
            total_progeny_pgf(pmf, 0.5)
        with pytest.raises(ConvergenceError):
            total_progeny_pgf(pmf, 1.2)

    @pytest.mark.parametrize("lam,y,bound", [(0.99, 101.0, 1e-6),
                                             (0.999, 1010.0, 1e-5)])
    def test_near_critical_direct_rate(self, lam, y, bound):
        # exact Borel rate y*I_f((y-1)/y) with I_f the Poisson rate; a G
        # stopped at |dG| < 1e-14 left the direct route 2.4e-5 and 2.8e-5 off
        # here
        f = pmf_from_family("poisson", {"lambda": lam}, truncation_K=80)
        with mpmath.workdps(50):
            exact = float(y * exact_offspring_rate("poisson", lam, (y - 1.0) / y))
        got = rate_progeny_direct(f, y).value
        assert abs(got - exact) <= bound * exact


class TestCompound:
    def test_identity_start_recovers_unit_case(self):
        model = build_model(BERN, pmf_from_dict({1: 1.0}))
        assert compound_pgf(model, 1.0) == approx(1.0, abs=1e-12)

    def test_mass_conservation(self):
        model = build_model(BERN, pmf_from_dict({1: 0.5, 2: 0.5}))
        assert compound_pgf(model, 1.0) == approx(1.0, abs=1e-12)

    def test_two_individual_start_squares(self):
        model = build_model(BERN, pmf_from_dict({2: 1.0}))
        assert compound_pgf(model, 0.5) == approx((1.0 / 3.0) ** 2, abs=1e-10)


class TestMean:
    def test_subcritical_formula(self):
        model = build_model(BERN, pmf_from_dict({1: 1.0}))
        assert progeny_mean(model) == approx(2.0)

    def test_critical_infinite(self):
        model = build_model(pmf_from_dict({0: 0.5, 2: 0.5}),
                            pmf_from_dict({1: 0.5, 2: 0.5}))
        assert math.isinf(progeny_mean(model))
        assert math.isinf(model.nu)

    def test_critical_zero_start(self):
        model = build_model(pmf_from_dict({0: 0.5, 2: 0.5}),
                            pmf_from_dict({0: 1.0}))
        assert progeny_mean(model) == 0.0

    def test_no_offspring(self):
        model = build_model(pmf_from_dict({0: 1.0}),
                            pmf_from_dict({1: 0.5, 2: 0.5}))
        assert progeny_mean(model) == approx(1.5)

    def test_supercritical_rejected(self):
        model = build_model(pmf_from_dict({0: 0.2, 2: 0.8}),
                            pmf_from_dict({1: 1.0}))
        with pytest.raises(HypothesisError):
            progeny_mean(model)


class TestAgreementInvariants:
    @pytest.mark.parametrize("law,k", [
        ({0: 0.5, 1: 0.5}, 60),
        ({0: 0.6, 1: 0.2, 2: 0.2}, 80),
        ({0: 0.75, 3: 0.25}, 120),
    ])
    def test_dwass_sums_match_fixed_point(self, law, k):
        pmf = pmf_from_dict(law)
        table = total_progeny_pmf_dwass(pmf, k)
        ks = table.support.astype(float)
        for s in np.linspace(0.0, 1.0, 50):
            series = float(np.dot(table.probs, s ** ks))
            assert abs(series - total_progeny_pgf(pmf, float(s))) \
                <= table.truncation_deficit + 1e-12

    @given(law=subcritical_laws(), k_max=st.integers(1, 40))
    def test_random_laws_match_oracle_and_fixed_point(self, law, k_max):
        pmf = pmf_from_dict(law)
        table = total_progeny_pmf_dwass(pmf, k_max)
        oracle = dwass_oracle(law, k_max)
        assert dwass_relative_error(table.probs, list(oracle.values())) <= 1e-12
        # P(Y > k_max) >= (1 - p_0)^k_max >= 1e-40: every step climbs
        assert table.truncation_deficit > 0.0
        assert abs(float(table.probs.sum()) + table.truncation_deficit - 1.0) \
            <= MASS_TOL
        ks = table.support.astype(float)
        for s in (0.3, 0.7, 0.95, 1.0):
            series = float(np.dot(table.probs, s ** ks))
            assert abs(series - total_progeny_pgf(pmf, s)) \
                <= table.truncation_deficit + 1e-12

    def test_mean_consistency_bernoulli(self):
        table = total_progeny_pmf_dwass(BERN, 200)
        series_mean = float(np.dot(table.probs, table.support))
        model = build_model(BERN, pmf_from_dict({1: 1.0}))
        assert abs(series_mean - progeny_mean(model)) < 1e-10

    def test_fixed_point_residuals(self):
        for law in ({0: 0.5, 1: 0.5}, {0: 0.6, 1: 0.2, 2: 0.2}):
            pmf = pmf_from_dict(law)
            for s in np.linspace(0.0, 1.0, 21):
                g = total_progeny_pgf(pmf, float(s))
                assert abs(g - s * pgf_exact(pmf, g)) < 1e-12

    def test_deficit_shrinks(self):
        small = total_progeny_pmf_dwass(BERN, 20)
        big = total_progeny_pmf_dwass(BERN, 60)
        assert big.truncation_deficit < small.truncation_deficit
        assert big.truncation_deficit < 1e-8
