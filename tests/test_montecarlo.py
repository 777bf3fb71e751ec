"""Tests for lineage simulation, replication, and empirical decay rates."""

import dataclasses
import math
import os
import sys
import threading

import numpy as np
import pytest
from pytest import approx

import gwldp as gw
import gwldp.montecarlo as mc
from gwldp import (HypothesisError, LdpScenario, PopulationCapError,
                   Threshold, empirical_rate, estimator_tail_ratio,
                   pmf_from_dict, replicate, sample_progeny,
                   total_progeny_pmf_dwass)
from gwldp.montecarlo import _total_progeny_batch

BERN_SPEC = {"family": "bernoulli", "params": {"p": 0.5}}
G_ID_SPEC = {"family": "explicit", "params": {"probs": [[1, 1.0]]}}
G_HALF_SPEC = {"family": "explicit", "params": {"probs": [[1, 0.5], [2, 0.5]]}}
G13_SPEC = {"family": "explicit", "params": {"probs": [[1, 0.5], [3, 0.5]]}}
POISSON_SPEC = {"family": "poisson", "params": {"lambda": 0.6},
                "truncation_K": 40}
GEOMETRIC_SPEC = {"family": "geometric", "params": {"a": 0.3},
                  "truncation_K": 40}

BERN = gw.pmf_from_spec(BERN_SPEC)
G_ID = gw.pmf_from_spec(G_ID_SPEC)
G_HALF = gw.pmf_from_spec(G_HALF_SPEC)


def scenario(f=BERN_SPEC, g=G_HALF_SPEC, n_schedule=(5, 10), trials=200,
             thresholds=(), seed=1234, cap=10 ** 7):
    return LdpScenario(f_spec=f, g_spec=g, n_schedule=n_schedule,
                       trials=trials, thresholds=thresholds,
                       master_seed=seed, population_cap=cap)


def serial_sums(sc, purpose):
    """Reference sampler: one (n, chunk) unit after another on this thread,
    every draw from the exact convolution law for the Poisson and geometric
    families and a multinomial split over the law's support otherwise; an
    offspring law on {0, 1} adds NegBin(z, p_0) chain lengths in one draw
    (every z here is positive)."""
    model = sc.model()
    chains = set(model.f.support[model.f.probs > 0].tolist()) <= {0, 1}

    def sum_draws(pmf, counts, rng):
        if pmf.family == "poisson":
            return rng.poisson(pmf.params["lambda"] * counts)
        if pmf.family == "geometric":
            total = np.zeros_like(counts)
            live = counts > 0
            total[live] = rng.negative_binomial(counts[live],
                                                1.0 - pmf.params["a"])
            return total
        return rng.multinomial(counts, pmf.probs / pmf.probs.sum()) @ pmf.support

    width = max(model.f.support.size, model.g.support.size)
    out = []
    for n_index, n in enumerate(sc.n_schedule):
        per_chunk = max(1, mc._CHUNK_LINEAGES // max(n, width))
        y_sum = np.empty(sc.trials, dtype=np.int64)
        z_sum = np.empty(sc.trials, dtype=np.int64)
        for chunk, start in enumerate(range(0, sc.trials, per_chunk)):
            stop = min(start + per_chunk, sc.trials)
            rng = np.random.default_rng(np.random.SeedSequence(
                (sc.master_seed, purpose, n_index, chunk)))
            z = sum_draws(model.g, np.full(stop - start, n, dtype=np.int64),
                          rng)
            if chains:
                total = z + rng.negative_binomial(
                    z, model.f.p0 / model.f.probs.sum())
            else:
                total = z.copy()
                active = np.flatnonzero(total)
                alive = total[active]
                while active.size:
                    alive = sum_draws(model.f, alive, rng)
                    total[active] += alive
                    keep = alive > 0
                    active, alive = active[keep], alive[keep]
            z_sum[start:stop] = z
            y_sum[start:stop] = total
        out.append((n, y_sum, z_sum))
    return out


def assert_same_sums(got, want):
    assert len(got) == len(want)
    for (n, y, z), (n_ref, y_ref, z_ref) in zip(got, want):
        assert n == n_ref
        assert y.dtype == y_ref.dtype and z.dtype == z_ref.dtype
        assert np.array_equal(y, y_ref)
        assert np.array_equal(z, z_ref)


def spy_replicate_sums(monkeypatch):
    """Record (arms, result) of every ``_replicate_sums`` call."""
    calls = []
    real = mc._replicate_sums

    def spy(arms):
        result = real(arms)
        calls.append((arms, result))
        return result
    monkeypatch.setattr(mc, "_replicate_sums", spy)
    return calls


def poisson_pmf(lam, k):
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def negbin_pmf(c, p, k):
    """P(k failures before the c-th success), success probability p."""
    return math.exp(math.lgamma(k + c) - math.lgamma(k + 1) - math.lgamma(c)
                    + c * math.log(p) + k * math.log1p(-p))


def assert_follows_law(draws, exact):
    """Frequencies of ``draws`` against the pmf ``exact(k)`` within four
    binomial standard errors: each k expected at least 5 times on its own,
    the rest pooled in one bin."""
    size = draws.size
    freq = np.bincount(draws, minlength=draws.max() + 10) / size
    probs = [exact(k) for k in range(freq.size)]
    common = [k for k, p in enumerate(probs) if size * p >= 5.0]
    rare = [k for k, p in enumerate(probs) if size * p < 5.0]
    bins = [([k], probs[k]) for k in common]
    bins.append((rare, 1.0 - sum(probs[k] for k in common)))
    for ks, p in bins:
        seen = freq[ks].sum()
        assert abs(seen - p) <= 4.0 * math.sqrt(p * (1.0 - p) / size), \
            (ks, seen, p)


class TestSampler:
    def test_two_point_law(self):
        draws = G_HALF.kernel.sum_draws(np.ones(200_000, dtype=np.int64),
                                        np.random.default_rng(0))
        assert set(np.unique(draws)) == {1, 2}
        assert np.mean(draws == 1) == approx(0.5, abs=0.005)

    # counts of 0, small counts (NumPy's inversion branch, count x p <= 30)
    # and counts >= 1000 (its BTPE branch), on both sides of p = 1/2
    @pytest.mark.parametrize("law", [{0: 0.5, 1: 0.5}, {1: 0.5, 3: 0.5},
                                     {1: 0.3, 3: 0.7}, {0: 0.8, 3: 0.2},
                                     {2: 0.123, 5: 0.877}])
    @pytest.mark.parametrize("counts", [
        np.zeros(7, dtype=np.int64),
        np.arange(40, dtype=np.int64),
        np.full(300, 1000, dtype=np.int64),
        np.random.default_rng(3).integers(0, 5000, 2000),
    ], ids=["zero", "small", "thousand", "mixed"])
    def test_two_point_matches_multinomial_stream(self, law, counts):
        pmf = pmf_from_dict(law)
        ours, ref = np.random.default_rng(42), np.random.default_rng(42)
        got = pmf.kernel.sum_draws(counts, ours)
        want = ref.multinomial(counts, pmf.probs / pmf.probs.sum()) @ pmf.support
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert ours.integers(2 ** 62, size=4).tolist() == \
            ref.integers(2 ** 62, size=4).tolist()

    def test_wide_support_multinomial(self):
        wide = pmf_from_dict(gw.pmf_from_family(
            "poisson", {"lambda": 4.0}, truncation_K=40).as_dict())
        draws = wide.kernel.sum_draws(np.ones(400_000, dtype=np.int64),
                                      np.random.default_rng(1))
        assert draws.mean() == approx(4.0, abs=0.02)
        for k in (0, 2, 4, 7):
            assert np.mean(draws == k) == approx(wide.prob(k), abs=0.004)

    def test_table_law_keeps_multinomial_stream(self):
        # a family's table given as an explicit law keeps the multinomial
        pmf = pmf_from_dict(gw.pmf_from_family(
            "poisson", {"lambda": 4.0}, truncation_K=40).as_dict())
        counts = np.random.default_rng(3).integers(0, 60, 500)
        ours, ref = np.random.default_rng(42), np.random.default_rng(42)
        got = pmf.kernel.sum_draws(counts, ours)
        want = ref.multinomial(counts, pmf.probs / pmf.probs.sum()) @ pmf.support
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert ours.integers(2 ** 62, size=4).tolist() == \
            ref.integers(2 ** 62, size=4).tolist()

    # per law, the exact pmf of a sum of c i.i.d. draws
    EXACT = {
        "poisson-0.6": (("poisson", {"lambda": 0.6}),
                        lambda c, k: poisson_pmf(0.6 * c, k)),
        "poisson-4": (("poisson", {"lambda": 4.0}),
                      lambda c, k: poisson_pmf(4.0 * c, k)),
        "geometric-0.3": (("geometric", {"a": 0.3}),
                          lambda c, k: negbin_pmf(c, 0.7, k)),
    }

    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_convolution_law_exact(self, name):
        (family, params), exact = self.EXACT[name]
        pmf = gw.pmf_from_family(family, params, truncation_K=40)
        rng = np.random.default_rng(2017)
        # a zero count draws 0, alone or among others (NumPy's negative
        # binomial rejects a zero count)
        for counts in (np.zeros(5, dtype=np.int64),
                       np.array([0, 1, 0, 3, 50, 0], dtype=np.int64)):
            draws = pmf.kernel.sum_draws(counts, rng)
            assert draws.dtype == np.int64
            assert not draws[counts == 0].any()
        above_k = 0
        for c in (1, 3, 50):
            draws = pmf.kernel.sum_draws(np.full(100_000, c, dtype=np.int64),
                                         rng)
            assert_follows_law(draws, lambda k: exact(c, k))
            above_k += int(np.count_nonzero(draws > pmf.max_support))
        assert above_k > 0     # checked above the truncation K too


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

    def test_no_mass_at_zero_rejected(self):
        # mean 1 - 1e-13 is below 1, but with no mass at zero every individual
        # has a child and no tree dies out: rejected before any draw, not by
        # the population cap
        f_spec = {"family": "explicit", "params": {"probs": [[1, 1.0 - 1e-13]]}}
        with pytest.raises(HypothesisError, match="mass at zero"):
            sample_progeny(gw.pmf_from_spec(f_spec), G_ID,
                           np.random.default_rng(0), population_cap=10 ** 4)
        with pytest.raises(HypothesisError, match="mass at zero"):
            replicate(scenario(f=f_spec, g=G_ID_SPEC, cap=10 ** 4))


class TestBatchKernel:
    def test_matches_dwass_within_three_sigma(self):
        rng = np.random.default_rng(7)
        n_draws = 100_000
        z = G_ID.kernel.sum_draws(np.ones(n_draws, dtype=np.int64), rng)
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
        z = G_HALF.kernel.sum_draws(np.ones(100_000, dtype=np.int64), rng)
        ys = _total_progeny_batch(BERN, z, rng, 10 ** 7)
        assert np.all(ys >= z)
        assert np.all(z >= 1)

    def test_batch_cap_trips(self):
        rng = np.random.default_rng(9)
        z = G_ID.kernel.sum_draws(np.ones(1000, dtype=np.int64), rng)
        with pytest.raises(PopulationCapError):
            _total_progeny_batch(BERN, z, rng, 4)

    # laws on {0, 1} and their mass at zero: every lineage is a chain, so a
    # tree from z ancestors has Y - z ~ NegBin(z, p_0), drawn in one step
    CHAINS = {
        "bernoulli-0.3": (gw.pmf_from_family("bernoulli", {"p": 0.3}), 0.7),
        "bernoulli-0.5": (BERN, 0.5),
        "explicit-0.7-0.3": (pmf_from_dict({0: 0.7, 1: 0.3}), 0.7),
    }

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_chain_law_exact(self, name):
        f, p0 = self.CHAINS[name]
        rng = np.random.default_rng(1969)
        for z in (1, 3, 50):
            ys = _total_progeny_batch(f, np.full(100_000, z, dtype=np.int64),
                                      rng, 10 ** 7)
            assert ys.dtype == np.int64 and ys.min() >= z
            assert_follows_law(ys - z, lambda k: negbin_pmf(z, p0, k))

    def test_chain_zero_ancestors_stay_zero(self):
        # NumPy's negative binomial rejects a zero count
        z = np.array([0, 2, 0, 5, 0], dtype=np.int64)
        ys = _total_progeny_batch(BERN, z, np.random.default_rng(4), 10 ** 7)
        assert ys.dtype == np.int64
        assert ys[z == 0].tolist() == [0, 0, 0]
        assert np.all(ys[z > 0] >= z[z > 0])
        assert z.tolist() == [0, 2, 0, 5, 0]

    def test_point_mass_at_zero_keeps_the_ancestors(self):
        z = np.array([1, 3, 50, 0, 7], dtype=np.int64)
        ys = _total_progeny_batch(pmf_from_dict({0: 1.0}), z,
                                  np.random.default_rng(4), 50)
        assert ys.tolist() == z.tolist()

    def test_chain_cap_is_on_totals(self):
        # with no offspring the totals are the ancestors: a total equal to
        # the cap passes, one above it trips
        none = pmf_from_dict({0: 1.0})
        z = np.array([3, 4], dtype=np.int64)
        rng = np.random.default_rng(0)
        assert _total_progeny_batch(none, z, rng, 4).tolist() == [3, 4]
        with pytest.raises(PopulationCapError,
                           match="exceeded the population cap 3"):
            _total_progeny_batch(none, z, rng, 3)
        with pytest.raises(PopulationCapError):
            _total_progeny_batch(BERN, np.full(1000, 2), rng, 6)

    @pytest.mark.parametrize("law", [{0: 1e-19, 1: 1.0}, {1: 1.0}],
                             ids=["p0-1e-19", "p0-0"])
    def test_endless_chains_hit_the_cap(self, law):
        # NumPy refuses these draws (mean near 1e19, or p_0 = 0); the totals
        # lie far beyond the cap either way
        with pytest.raises(PopulationCapError, match="population cap"):
            _total_progeny_batch(pmf_from_dict(law), np.full(4, 3),
                                 np.random.default_rng(0), 10 ** 7)


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


class TestSerialReference:
    """The threaded sampler against ``serial_sums``, element for element."""

    CASES = {
        # both laws two-point (the binomial path), at least 3 chunks per n
        "bernoulli": (BERN_SPEC, G13_SPEC, 500),
        # 41 support points, drawn from the exact convolution laws
        "poisson": (POISSON_SPEC, G13_SPEC, None),
        "geometric-point-start": (GEOMETRIC_SPEC, G_ID_SPEC, None),
    }

    def case(self, name, monkeypatch):
        f, g, chunk_lineages = self.CASES[name]
        if chunk_lineages is not None:
            monkeypatch.setattr(mc, "_CHUNK_LINEAGES", chunk_lineages)
        sc = scenario(f=f, g=g, n_schedule=(5, 12), trials=300, seed=2024)
        model = sc.model()
        width = max(model.f.support.size, model.g.support.size)
        chunks = [-(-sc.trials // max(1, mc._CHUNK_LINEAGES // max(n, width)))
                  for n in sc.n_schedule]
        assert chunk_lineages is None or min(chunks) >= 3
        return sc

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_replicate(self, name, monkeypatch):
        sc = self.case(name, monkeypatch)
        got = [(b.n, b.y_sum, b.z_sum) for b in replicate(sc)]
        assert_same_sums(got, serial_sums(sc, mc._PURPOSE_REPLICATE))

    @pytest.mark.parametrize("name", ["bernoulli", "poisson"])
    def test_tail_ratio_arms(self, name, monkeypatch):
        sc = self.case(name, monkeypatch)
        # the deterministic arm starts every lineage at mu_g = 2 of G13
        det = dataclasses.replace(sc, g_spec={
            "family": "explicit", "params": {"probs": [[2, 1.0]]}})
        calls = spy_replicate_sums(monkeypatch)
        estimator_tail_ratio(sc, 0.3)
        [(arms, result)] = calls       # both arms pooled in one call
        assert [purpose for _, _, purpose in arms] == \
            [mc._PURPOSE_TAIL_RANDOM, mc._PURPOSE_TAIL_DETERMINISTIC]
        assert_same_sums(result,
                         serial_sums(sc, mc._PURPOSE_TAIL_RANDOM)
                         + serial_sums(det, mc._PURPOSE_TAIL_DETERMINISTIC))


class TestScheduling:
    def chunked(self, monkeypatch, **kwargs):
        monkeypatch.setattr(mc, "_CHUNK_LINEAGES", 500)
        return scenario(g=G13_SPEC, **kwargs)

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_output_independent_of_worker_count(self, cpus, monkeypatch):
        sc = self.chunked(monkeypatch, n_schedule=(5, 12, 30), trials=400,
                          seed=17)
        default = replicate(sc)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            again = replicate(sc)
        finally:
            sys.setswitchinterval(interval)
        assert_same_sums([(b.n, b.y_sum, b.z_sum) for b in again],
                         [(b.n, b.y_sum, b.z_sum) for b in default])

    def capped(self, monkeypatch):
        # Y_sum >= Z_sum >= n, so a cap below the largest n trips in every
        # unit of that n; the smaller n stay under it (checked below)
        return self.chunked(monkeypatch, n_schedule=(2, 50), trials=300,
                            seed=7, cap=40)

    def test_cap_in_a_later_unit_propagates(self, monkeypatch):
        sc = self.capped(monkeypatch)
        before = threading.active_count()
        small = replicate(dataclasses.replace(sc, n_schedule=(2,)))
        assert small[0].y_sum.max() <= sc.population_cap
        assert threading.active_count() == before
        with pytest.raises(PopulationCapError):
            replicate(sc)
        assert threading.active_count() == before
        with pytest.raises(PopulationCapError):
            estimator_tail_ratio(sc, 0.3)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_call(self, monkeypatch):
        sc = self.chunked(monkeypatch, n_schedule=(5, 12), trials=300)
        before = threading.active_count()
        replicate(sc)
        assert threading.active_count() == before
        estimator_tail_ratio(sc, 0.3)
        assert threading.active_count() == before


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

    @pytest.mark.parametrize("kind, level", [
        ("mean_ge", math.nan), ("mean_ge", math.inf), ("mean_le", -math.inf),
        ("mean_ge", True), ("estimator_dev", False), ("estimator_dev", -0.5),
        ("estimator_dev", math.nan)])
    def test_meaningless_threshold_level_rejected(self, kind, level):
        with pytest.raises(gw.ConfigError, match="threshold level|deviation"):
            Threshold(kind, level)
        data = dict(scenario().to_json_dict(),
                    thresholds=[{"kind": kind, "level": level}])
        with pytest.raises(gw.ConfigError, match="threshold level|deviation"):
            LdpScenario.from_json_dict(data)

    def test_threshold_level_stored_as_float(self):
        assert Threshold("estimator_dev", 0).level == 0.0
        level = Threshold("mean_ge", 3).level
        assert type(level) is float and level == 3.0

    def test_json_round_trip(self):
        sc = scenario(thresholds=(Threshold("mean_ge", 3.0),
                                  Threshold("estimator_dev", 0.15)))
        again = LdpScenario.from_json_dict(sc.to_json_dict())
        assert again == sc
