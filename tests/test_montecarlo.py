"""Tests for lineage simulation, replication, and empirical decay rates."""

import math

import numpy as np
import pytest
from pytest import approx

import gwldp as gw
from gwldp import (HypothesisError, LdpScenario, PopulationCapError,
                   Threshold, empirical_rate, estimator_tail_ratio,
                   pmf_from_dict, replicate, sample_progeny,
                   total_progeny_pmf_dwass)
from gwldp.montecarlo import _sum_draws, _total_progeny_batch

BERN_SPEC = {"family": "bernoulli", "params": {"p": 0.5}}
G_ID_SPEC = {"family": "explicit", "params": {"probs": [[1, 1.0]]}}
G_HALF_SPEC = {"family": "explicit", "params": {"probs": [[1, 0.5], [2, 0.5]]}}

BERN = gw.pmf_from_spec(BERN_SPEC)
G_ID = gw.pmf_from_spec(G_ID_SPEC)
G_HALF = gw.pmf_from_spec(G_HALF_SPEC)


def scenario(f=BERN_SPEC, g=G_HALF_SPEC, n_schedule=(5, 10), trials=200,
             thresholds=(), seed=1234, cap=10 ** 7):
    return LdpScenario(f_spec=f, g_spec=g, n_schedule=n_schedule,
                       trials=trials, thresholds=thresholds,
                       master_seed=seed, population_cap=cap)


class TestSampler:
    def test_inverse_cdf_small_support(self):
        draws = _sum_draws(G_HALF, np.ones(200_000, dtype=np.int64),
                           np.random.default_rng(0))
        assert set(np.unique(draws)) == {1, 2}
        assert np.mean(draws == 1) == approx(0.5, abs=0.005)

    def test_alias_table_wide_support(self):
        wide = gw.pmf_from_family("poisson", {"lambda": 4.0}, truncation_K=40)
        draws = _sum_draws(wide, np.ones(400_000, dtype=np.int64),
                           np.random.default_rng(1))
        assert draws.mean() == approx(4.0, abs=0.02)
        for k in (0, 2, 4, 7):
            assert np.mean(draws == k) == approx(wide.prob(k), abs=0.004)


class TestSampleProgeny:
    def test_unit_everything(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_progeny(pmf_from_dict({0: 1.0}), G_ID, rng) == (1, 1)

    def test_no_offspring_random_start(self):
        rng = np.random.default_rng(5)
        draws = [sample_progeny(pmf_from_dict({0: 1.0}), G_HALF, rng)
                 for _ in range(4000)]
        assert all(y == z for y, z in draws)
        frac_two = np.mean([z == 2 for _, z in draws])
        assert frac_two == approx(0.5, abs=3 * 0.5 / math.sqrt(4000))

    def test_geometric_progeny_law(self):
        rng = np.random.default_rng(11)
        ys = np.array([sample_progeny(BERN, G_ID, rng)[0]
                       for _ in range(20_000)])
        for k in (1, 2, 3):
            p = 0.5 ** k
            assert np.mean(ys == k) == approx(
                p, abs=3 * math.sqrt(p * (1 - p) / 20_000))

    def test_population_cap_trips(self):
        rng = np.random.default_rng(3)
        with pytest.raises(PopulationCapError):
            for _ in range(500):
                sample_progeny(BERN, G_ID, rng, population_cap=3)

    def test_supercritical_rejected(self):
        with pytest.raises(HypothesisError):
            sample_progeny(pmf_from_dict({0: 0.2, 2: 0.8}), G_ID,
                           np.random.default_rng(0))

    def test_initial_mass_at_zero_rejected(self):
        with pytest.raises(HypothesisError):
            sample_progeny(BERN, pmf_from_dict({0: 0.5, 1: 0.5}),
                           np.random.default_rng(0))


class TestBatchKernel:
    def test_matches_dwass_within_three_sigma(self):
        rng = np.random.default_rng(7)
        n_draws = 100_000
        z = _sum_draws(G_ID, np.ones(n_draws, dtype=np.int64), rng)
        ys = _total_progeny_batch(BERN, z, rng, 10 ** 7)
        table = total_progeny_pmf_dwass(BERN, 60)
        for k in range(1, 61):
            p = table.prob(k)
            if p * n_draws < 25:
                continue
            sigma = math.sqrt(p * (1 - p) / n_draws)
            assert np.mean(ys == k) == approx(p, abs=3 * sigma)

    def test_branching_property_three_ancestors(self):
        # a tree from r = 3 ancestors has P(Y = k) = (r/k) f^{*k}(k - r)
        # (Dwass 1969); for Bernoulli(1/2) that is (3/k) C(k, k-3) 2^-k
        rng = np.random.default_rng(7)
        n_draws = 100_000
        ys = _total_progeny_batch(BERN, np.full(n_draws, 3), rng, 10 ** 7)
        assert ys.min() >= 3
        for k in range(3, 80):
            p = 3 / k * math.comb(k, k - 3) * 0.5 ** k
            if p * n_draws < 25:
                continue
            sigma = math.sqrt(p * (1 - p) / n_draws)
            assert np.mean(ys == k) == approx(p, abs=3 * sigma)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(9)
        z = _sum_draws(G_HALF, np.ones(100_000, dtype=np.int64), rng)
        ys = _total_progeny_batch(BERN, z, rng, 10 ** 7)
        assert np.all(ys >= z)
        assert np.all(z >= 1)

    def test_batch_cap_trips(self):
        rng = np.random.default_rng(9)
        z = _sum_draws(G_ID, np.ones(1000, dtype=np.int64), rng)
        with pytest.raises(PopulationCapError):
            _total_progeny_batch(BERN, z, rng, 4)


class TestReplicate:
    def test_estimator_identically_zero_when_y_equals_z(self):
        blocks = replicate(scenario(f={"family": "explicit",
                                       "params": {"probs": [[0, 1.0]]}}))
        for block in blocks:
            assert np.all(block.est_ratio == 0.0)

    def test_estimator_converges_to_offspring_mean(self):
        blocks = replicate(scenario(g=G_ID_SPEC, n_schedule=(400,),
                                    trials=400, seed=8))
        est = blocks[0].est_ratio
        assert est.mean() == approx(0.5, abs=0.02)

    def test_mean_convergence_bound(self):
        sc = scenario(n_schedule=(8, 64), trials=3000, seed=21)
        model = sc.model()
        block = replicate(sc)[-1]
        sd = block.y_bar.std()
        bound = 4.0 * sd / math.sqrt(block.y_bar.size)
        assert abs(block.y_bar.mean() - model.nu) <= bound

    def test_replay_is_identical(self):
        a = replicate(scenario(seed=77))
        b = replicate(scenario(seed=77))
        for ba, bb in zip(a, b):
            assert np.array_equal(ba.y_sum, bb.y_sum)
            assert np.array_equal(ba.z_sum, bb.z_sum)

    def test_seed_changes_output(self):
        a = replicate(scenario(seed=1))
        b = replicate(scenario(seed=2))
        assert any(not np.array_equal(ba.y_sum, bb.y_sum)
                   for ba, bb in zip(a, b))

    def test_chunking_transparent(self, monkeypatch):
        import gwldp.montecarlo as mc
        sc = scenario(n_schedule=(7,), trials=120, seed=5)
        whole = replicate(sc)[0]
        monkeypatch.setattr(mc, "_CHUNK_LINEAGES", 49)
        chunked = replicate(sc)[0]
        # different chunking changes stream layout but not the law; check
        # only the reproducibility contract within one layout
        again = replicate(sc)[0]
        assert np.array_equal(chunked.y_sum, again.y_sum)
        assert whole.y_sum.size == chunked.y_sum.size


class TestEmpiricalRate:
    def test_impossible_event_fully_censored(self):
        sc = scenario(f={"family": "explicit", "params": {"probs": [[0, 1.0]]}},
                      g=G_ID_SPEC, n_schedule=(10, 20), trials=500)
        records = empirical_rate(sc, Threshold("mean_ge", 1.5))
        for rec in records:
            assert rec.censored
            assert rec.hits == 0
            assert rec.rate_estimate == approx(math.log(500) / rec.n)

    def test_threshold_at_mean_gives_vanishing_rate(self):
        sc = scenario(g=G_ID_SPEC, n_schedule=(50,), trials=4000, seed=13)
        rec = empirical_rate(sc, Threshold("mean_ge", 2.0))[0]
        assert not rec.censored
        # P(Ybar >= mean) ~ 1/2, so the rate estimate is ~ log(2)/n
        assert rec.rate_estimate == approx(math.log(2.0) / 50.0, abs=0.01)
        assert rec.reference_rate == 0.0

    def test_reference_against_closed_form(self):
        sc = scenario(g=G_ID_SPEC, n_schedule=(10,), trials=10)
        rec = empirical_rate(sc, Threshold("mean_ge", 3.0))[0]
        assert rec.reference_rate == approx(0.16989903679539736, abs=1e-9)

    def test_estimator_dev_reference(self):
        sc = scenario(n_schedule=(10,), trials=10)
        rec = empirical_rate(sc, Threshold("estimator_dev", 0.25))[0]
        model = sc.model()
        expected = min(gw.rate_estimator_ratio(model, 0.25).value,
                       gw.rate_estimator_ratio(model, 0.75).value)
        assert rec.reference_rate == approx(expected, abs=1e-9)

    def test_ci_halfwidth_shrinks_with_trials(self):
        small = empirical_rate(scenario(g=G_ID_SPEC, n_schedule=(10,),
                                        trials=2000, seed=3),
                               Threshold("mean_ge", 2.5))[0]
        big = empirical_rate(scenario(g=G_ID_SPEC, n_schedule=(10,),
                                      trials=20_000, seed=3),
                             Threshold("mean_ge", 2.5))[0]
        assert big.ci_halfwidth < small.ci_halfwidth


class TestTailRatio:
    def test_non_integer_initial_mean_rejected(self):
        with pytest.raises(HypothesisError):
            estimator_tail_ratio(scenario(), 0.15)

    def test_degenerate_initial_law_rejected(self):
        sc = scenario(g={"family": "explicit", "params": {"probs": [[2, 1.0]]}})
        with pytest.raises(HypothesisError):
            estimator_tail_ratio(sc, 0.15)

    def test_childless_offspring_rejected(self):
        sc = scenario(f={"family": "explicit", "params": {"probs": [[0, 1.0]]}},
                      g={"family": "explicit",
                         "params": {"probs": [[1, 0.5], [3, 0.5]]}})
        with pytest.raises(HypothesisError):
            estimator_tail_ratio(sc, 0.15)

    def test_arms_comparable_for_matched_laws(self):
        # initial law {1: 1/2, 3: 1/2} has integer mean 2
        sc = scenario(g={"family": "explicit",
                         "params": {"probs": [[1, 0.5], [3, 0.5]]}},
                      n_schedule=(5, 10), trials=40_000, seed=99)
        rows = estimator_tail_ratio(sc, 0.3)
        for row in rows:
            assert row.trials == 40_000
            assert 0 <= row.hits_deterministic <= row.trials
            assert 0 <= row.hits_random <= row.trials
            assert not row.censored_random
        # tail probabilities at these small n are within a factor ~2
        assert 0.3 < rows[0].ratio < 2.0


class TestScenarioValidation:
    def test_schedule_must_increase(self):
        with pytest.raises(gw.ConfigError):
            scenario(n_schedule=(10, 10))

    def test_trials_positive(self):
        with pytest.raises(gw.ConfigError):
            scenario(trials=0)

    def test_threshold_kind_checked(self):
        with pytest.raises(gw.ConfigError):
            Threshold("mean_gt", 2.0)

    def test_json_round_trip(self):
        sc = scenario(thresholds=(Threshold("mean_ge", 3.0),
                                  Threshold("estimator_dev", 0.15)))
        again = LdpScenario.from_json_dict(sc.to_json_dict())
        assert again == sc
