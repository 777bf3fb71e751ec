"""Tests for integer-supported laws and their generating functions."""

import ast
import math
import pathlib

import mpmath
import numpy as np
import pytest
from pytest import approx

import gwldp
from gwldp import (ParameterError, Pmf, TruncationError, mean, mean_exact,
                   pgf_eval, pgf_exact, pmf_from_dict, pmf_from_family,
                   pmf_from_spec, pmf_to_spec)


def poisson_series_oracle(lam, k_max):
    """Direct series summation: p_h = exp(-lam) lam^h / h!."""
    out = []
    for h in range(k_max + 1):
        out.append(math.exp(-lam) * lam ** h / math.factorial(h))
    return out


class TestFamilies:
    def test_bernoulli_two_point(self):
        pmf = pmf_from_family("bernoulli", {"p": 0.5})
        assert pmf.as_dict() == {0: 0.5, 1: 0.5}
        assert pmf.truncation_deficit == 0.0

    def test_poisson_matches_series_oracle(self):
        pmf = pmf_from_family("poisson", {"lambda": 0.5}, truncation_K=40)
        oracle = poisson_series_oracle(0.5, 40)
        assert pmf.probs == approx(oracle, abs=1e-15)
        assert pmf.truncation_deficit < 1e-12

    def test_explicit_mean_by_hand(self):
        pmf = pmf_from_dict({0: 0.25, 2: 0.75})
        assert mean(pmf) == approx(1.5)  # 2 * 0.75

    def test_geometric_table(self):
        a = 0.4
        pmf = pmf_from_family("geometric", {"a": a}, truncation_K=60)
        assert pmf.probs[:4] == approx([(1 - a) * a ** h for h in range(4)])
        assert pmf.truncation_deficit == approx(a ** 61, rel=1e-6)

    @pytest.mark.parametrize("a,K", [(0.3, 40), (0.35, 40), (0.35, 120),
                                     (0.45, 60)])
    def test_geometric_deficit_is_exact_tail(self, a, K):
        # 1 - sum(p) cancels to 0 or 2.2e-16 where the tail is a^(K+1)
        pmf = pmf_from_family("geometric", {"a": a}, truncation_K=K)
        with mpmath.workdps(50):
            exact = mpmath.mpf(a) ** (K + 1)
            assert abs(pmf.truncation_deficit - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("lam,K", [(0.6, 40), (0.9, 30), (5.0, 40),
                                       (0.99, 80), (30.0, 80)])
    def test_poisson_deficit_is_exact_tail(self, lam, K):
        # the upper tail P(X > K), the regularized lower incomplete gamma
        pmf = pmf_from_family("poisson", {"lambda": lam}, truncation_K=K)
        with mpmath.workdps(50):
            exact = mpmath.gammainc(K + 1, 0, lam, regularized=True)
            assert abs(pmf.truncation_deficit - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("family,params", [
        ("bernoulli", {"p": 1.5}),
        ("bernoulli", {"p": -0.1}),
        ("geometric", {"a": 0.0}),
        ("geometric", {"a": 1.0}),
        ("poisson", {"lambda": 0.0}),
        ("poisson", {"lambda": -2.0}),
        # lambda = inf leaves an all-NaN table (0 * log inf), which every
        # validity test must reject
        pytest.param("poisson", {"lambda": math.inf},
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ])
    def test_parameter_domain_errors(self, family, params):
        with pytest.raises(ParameterError):
            pmf_from_family(family, params, truncation_K=20)

    def test_truncation_insufficient(self):
        with pytest.raises(TruncationError):
            pmf_from_family("poisson", {"lambda": 5.0}, truncation_K=3)

    def test_infinite_support_requires_k(self):
        with pytest.raises(ParameterError):
            pmf_from_family("geometric", {"a": 0.4})

    def test_explicit_rejects_bad_mass(self):
        with pytest.raises(ParameterError):
            pmf_from_dict({0: 0.5, 1: 0.4})

    def test_explicit_rejects_negative_support(self):
        with pytest.raises(ParameterError):
            pmf_from_dict({-1: 0.5, 1: 0.5})

    def test_explicit_rejects_nan_probability(self):
        with pytest.raises(ParameterError):
            pmf_from_dict({0: math.nan, 1: 0.5})

    def test_rejects_a_table_without_positive_mass(self):
        # the mass check alone admits it when the deficit carries all of it,
        # but a kernel needs the ends of the positive-mass support
        with pytest.raises(ParameterError, match="positive mass"):
            Pmf(np.array([0, 1]), np.array([0.0, 0.0]), truncation_deficit=1.0)


class TestPgf:
    def test_at_one_is_total_mass(self):
        pmf = pmf_from_dict({0: 0.5, 1: 0.5})
        assert pgf_eval(pmf, 1.0) == approx(1.0, abs=1e-15)

    def test_linear_law(self):
        pmf = pmf_from_dict({0: 0.5, 1: 0.5})
        assert pgf_eval(pmf, 3.0) == approx(2.0)

    def test_fixed_point_value(self):
        pmf = pmf_from_dict({0: 0.25, 2: 0.75})
        assert pgf_eval(pmf, 1.0 / 3.0) == approx(1.0 / 3.0)

    def test_negative_argument_rejected(self):
        pmf = pmf_from_dict({0: 1.0})
        with pytest.raises(ParameterError):
            pgf_eval(pmf, -0.5)

    def test_geometric_diverges_at_radius(self):
        pmf = pmf_from_family("geometric", {"a": 0.4}, truncation_K=60)
        assert math.isinf(pgf_eval(pmf, 2.5))
        assert math.isinf(pgf_eval(pmf, 3.0))

    def test_exact_uses_closed_forms(self):
        geo = pmf_from_family("geometric", {"a": 0.4}, truncation_K=60)
        assert pgf_exact(geo, 2.0) == approx(0.6 / (1 - 0.8))
        poi = pmf_from_family("poisson", {"lambda": 0.5}, truncation_K=40)
        assert pgf_exact(poi, 2.0) == approx(math.exp(0.5))


class TestDomains:
    # the domain is read from the law's kernel; the value at the radius
    # through pgf_eval
    def test_finite_support_entire(self):
        pmf = pmf_from_dict({0: 0.5, 1: 0.5})
        assert math.isinf(pmf.kernel.radius)
        assert math.isinf(pmf.kernel.cgf.theta_max)
        assert math.isinf(pgf_eval(pmf, pmf.kernel.radius))

    def test_geometric_ratio_test(self):
        # ratio test on (1-a) a^h: radius of convergence is 1/a
        a = 0.4
        pmf = pmf_from_family("geometric", {"a": a}, truncation_K=60)
        assert pmf.kernel.radius == approx(2.5)
        assert pmf.kernel.cgf.theta_max == approx(math.log(2.5))
        assert math.isinf(pgf_eval(pmf, pmf.kernel.radius))

    def test_poisson_entire(self):
        pmf = pmf_from_family("poisson", {"lambda": 0.5}, truncation_K=40)
        assert math.isinf(pmf.kernel.radius)

    def test_point_mass_at_zero_has_bounded_pgf(self):
        pmf = pmf_from_dict({0: 1.0})
        assert pgf_eval(pmf, pmf.kernel.radius) == approx(1.0)


def test_no_family_dispatch_outside_offspring():
    # each law binds its closed forms once, in offspring.py's kernel; reading
    # a law's family tag or parameters in another module is a dispatch
    # growing back
    reads = []
    for path in sorted(pathlib.Path(gwldp.__file__).parent.glob("*.py")):
        if path.name == "offspring.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += [f"{path.name}:{node.lineno} .{node.attr}"
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and node.attr in ("family", "params")]
    assert not reads, reads


LAWS = [
    pmf_from_dict({0: 0.5, 1: 0.5}),
    pmf_from_dict({0: 0.25, 2: 0.75}),
    pmf_from_dict({1: 1.0}),
    pmf_from_family("geometric", {"a": 0.3}, truncation_K=40),
    pmf_from_family("poisson", {"lambda": 0.6}, truncation_K=40),
    pmf_from_dict({0: 0.3, 1: 0.2, 3: 0.1, 7: 0.4}),
]


class TestInvariants:
    @pytest.mark.parametrize("pmf", LAWS)
    def test_normalization(self, pmf):
        assert pgf_eval(pmf, 1.0) + pmf.truncation_deficit == approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("pmf", LAWS)
    def test_chord_convexity(self, pmf):
        # f(s2) <= chord through (s1, f(s1)), (s3, f(s3)), and nondecreasing
        pts = np.linspace(0.0, 1.5, 16)
        vals = [pgf_eval(pmf, s) for s in pts]
        for i in range(len(pts) - 2):
            s1, s2, s3 = pts[i], pts[i + 1], pts[i + 2]
            w = (s2 - s1) / (s3 - s1)
            chord = (1 - w) * vals[i] + w * vals[i + 2]
            assert vals[i + 1] <= chord + 1e-12
            assert vals[i] <= vals[i + 1] + 1e-12

    @pytest.mark.parametrize("pmf", LAWS)
    def test_derivative_at_one_is_mean(self, pmf):
        # of the stored table, truncated or not
        h = 1e-6
        deriv = (pgf_eval(pmf, 1.0 + h) - pgf_eval(pmf, 1.0 - h)) / (2 * h)
        assert deriv == approx(mean(pmf), abs=1e-5)

    def test_mean_exact_matches_family_formulas(self):
        geo = pmf_from_family("geometric", {"a": 0.3}, truncation_K=40)
        assert mean_exact(geo) == approx(0.3 / 0.7)
        assert mean(geo) == approx(0.3 / 0.7, abs=1e-10)
        poi = pmf_from_family("poisson", {"lambda": 0.6}, truncation_K=40)
        assert mean_exact(poi) == approx(0.6)

    def test_deterministic_unit_mean(self):
        assert mean(pmf_from_dict({1: 1.0})) == 1.0


class TestSpecFormat:
    @pytest.mark.parametrize("spec", [
        {"family": "bernoulli", "params": {"p": 0.3}},
        {"family": "geometric", "params": {"a": 0.3}, "truncation_K": 25},
        {"family": "poisson", "params": {"lambda": 0.6}, "truncation_K": 30},
        {"family": "explicit", "params": {"probs": [[1, 0.5], [3, 0.5]]}},
    ])
    def test_round_trip(self, spec):
        pmf = pmf_from_spec(spec)
        again = pmf_from_spec(pmf_to_spec(pmf))
        assert np.array_equal(pmf.support, again.support)
        assert pmf.probs == approx(again.probs, abs=0)

    def test_missing_family_rejected(self):
        with pytest.raises(ParameterError):
            pmf_from_spec({"params": {"p": 0.5}})
