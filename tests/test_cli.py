"""End-to-end tests of the command-line interface and its file formats."""

import json
import math

import numpy as np
import pytest

from gwldp import build_model, cli, pmf_from_spec, ratefn
from gwldp import montecarlo as mc
from gwldp import progeny
from gwldp.errors import ConvergenceError

BERN_F = '{"family": "bernoulli", "params": {"p": 0.5}}'
QUAD_F = '{"family": "explicit", "params": {"probs": [[0, 0.25], [2, 0.75]]}}'
G13 = '{"family": "explicit", "params": {"probs": [[1, 0.5], [3, 0.5]]}}'


def run(argv):
    return cli.main(argv)


class TestExtinction:
    def test_prints_minimal_root(self, capsys, tmp_path):
        code = run(["extinction", "--f", QUAD_F, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_subcritical_is_one(self, capsys, tmp_path):
        code = run(["extinction", "--f", BERN_F, "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"


class TestProgenyPmf:
    def test_csv_with_deficit_trailer(self, tmp_path, capsys):
        code = run(["progeny-pmf", "--f", BERN_F, "--k-max", "6",
                    "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "progeny_pmf.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "k,pi_k"
        assert lines[1] == "1,0.5"
        assert lines[2] == "2,0.25"
        assert lines[-1].startswith("# deficit=")
        deficit = float(lines[-1].split("=")[1])
        assert deficit == pytest.approx(sum(0.5 ** k for k in range(7, 1000)),
                                        abs=1e-12)

    def test_deficit_trailer_is_exact_tail(self, tmp_path, capsys):
        # P(Y > 1000) = 2^-1000 for Bernoulli(1/2), far below what
        # 1 - sum(pi) can resolve
        code = run(["progeny-pmf", "--f", BERN_F, "--k-max", "1000",
                    "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "progeny_pmf.csv").read_text().splitlines()
        assert len(lines) == 1002
        assert lines[-1] == "# deficit=9.33263618503e-302"

    def test_supercritical_exit_three(self, tmp_path, capsys):
        code = run(["progeny-pmf", "--f",
                    '{"family": "explicit", "params": {"probs": [[0, 0.2], [2, 0.8]]}}',
                    "--out", str(tmp_path)])
        assert code == 3


class TestRate:
    def test_zero_row_at_offspring_mean(self, tmp_path, capsys):
        code = run(["rate", "--f", BERN_F, "--grid", "0.1:0.9:5",
                    "--target", "offspring", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "rate.csv").read_text().splitlines()
        assert lines[0] == "x,value,argmax_theta,route"
        rows = {float(l.split(",")[0]): l.split(",") for l in lines[1:]}
        assert float(rows[0.5][1]) == pytest.approx(0.0, abs=1e-12)

    def test_progeny_routes_agree(self, tmp_path, capsys):
        values = {}
        for route in ("closed", "direct"):
            code = run(["rate", "--f", BERN_F, "--grid", "1.2:4:8",
                        "--target", "progeny", "--route", route,
                        "--out", str(tmp_path / route)])
            assert code == 0
            lines = (tmp_path / route / "rate.csv").read_text().splitlines()
            values[route] = [float(l.split(",")[1]) for l in lines[1:]]
            assert all(l.split(",")[3] == route for l in lines[1:])
        assert values["closed"] == pytest.approx(values["direct"], abs=1e-6)

    @pytest.mark.parametrize("target, route, call", [
        ("offspring", "closed", lambda m, x: ratefn.rate_offspring(m.f, x)),
        ("initial", "closed", lambda m, x: ratefn.rate_initial(m.g, x)),
        ("progeny", "closed", lambda m, x: ratefn.rate_progeny_closed(m.f, x)),
        ("progeny", "direct", lambda m, x: ratefn.rate_progeny_direct(m.f, x)),
        ("estimator-ratio", "closed", ratefn.rate_estimator_ratio),
        ("estimator-deterministic", "closed",
         lambda m, x: ratefn.rate_estimator_deterministic(m.f, m.mu_g, x)),
        ("estimator-meaninit", "closed", ratefn.rate_estimator_meaninit),
    ])
    def test_rows_match_library_call(self, tmp_path, capsys, target, route,
                                     call):
        # a grid across the supports, so inf and marker cells show up too
        assert run(["rate", "--f", BERN_F, "--g", G13, "--grid", "0:3.5:15",
                    "--target", target, "--route", route,
                    "--out", str(tmp_path)]) == 0
        model = build_model(pmf_from_spec(json.loads(BERN_F)),
                            pmf_from_spec(json.loads(G13)))
        expected = []
        for x in np.linspace(0.0, 3.5, 15).tolist():
            rv = call(model, x)
            expected.append(",".join(map(cli._fmt, (x, rv.value,
                                                    rv.argmax_theta, rv.route))))
        assert (tmp_path / "rate.csv").read_text().splitlines()[1:] == expected


class TestCompare:
    def test_columns_and_ordering(self, tmp_path, capsys):
        code = run(["compare", "--f", BERN_F, "--grid", "0:0.95:20",
                    "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == "x,J_random,J_diamond,I_f,leq_ok,strict"
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[4] == "true"
            j_rand, j_diam = float(cells[1]), float(cells[2])
            assert j_rand <= j_diam + 1e-10


class TestSimulate:
    def scenario_file(self, tmp_path, trials=2000):
        scenario = {
            "f": {"family": "bernoulli", "params": {"p": 0.5}},
            "g": {"family": "explicit", "params": {"probs": [[1, 1.0]]}},
            "n_schedule": [5, 10],
            "trials": trials,
            "thresholds": [{"kind": "mean_ge", "level": 3.0},
                           {"kind": "mean_ge", "level": 50.0}],
            "master_seed": 31415,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        return path

    def test_emits_both_csvs(self, tmp_path, capsys):
        code = run(["simulate", "--config", str(self.scenario_file(tmp_path)),
                    "--out", str(tmp_path)])
        assert code == 0   # censored results are not failures
        rates = (tmp_path / "rates.csv").read_text().splitlines()
        assert rates[0] == ("n,threshold,hits,trials,rate_estimate,"
                            "ci_halfwidth,reference_rate,censored")
        assert len(rates) == 1 + 2 * 2
        impossible = [r for r in rates[1:] if "mean_ge:50" in r]
        assert all(r.endswith("true") for r in impossible)
        est = (tmp_path / "estimators.csv").read_text().splitlines()
        assert est[0] == "n,trial,est_ratio,est_meaninit"
        assert len(est) == 1 + 2 * 2000

    def test_population_cap_exit_three(self, tmp_path, capsys, monkeypatch):
        # several chunks per n, and a cap that only the largest n reaches
        monkeypatch.setattr(mc, "_CHUNK_LINEAGES", 500)
        path = self.scenario_file(tmp_path, trials=300)
        data = json.loads(path.read_text())
        path.write_text(json.dumps(dict(data, n_schedule=[2, 50],
                                        population_cap=40)))
        assert run(["simulate", "--config", str(path),
                    "--out", str(tmp_path)]) == 3
        assert "population cap" in capsys.readouterr().err

    def test_no_mass_at_zero_exit_three(self, tmp_path, capsys):
        # an offspring law with mean below 1 but no mass at zero is rejected
        # by the hypotheses at once, before a tree can reach the cap
        path = self.scenario_file(tmp_path)
        data = json.loads(path.read_text())
        f = {"family": "explicit", "params": {"probs": [[1, 1.0 - 1e-13]]}}
        path.write_text(json.dumps(dict(data, f=f, population_cap=10 ** 4)))
        assert run(["simulate", "--config", str(path),
                    "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "mass at zero" in err and "population cap" not in err

    def test_sure_event_rate_prints_zero(self, tmp_path, capsys):
        # every trial hits both events, so -log(hits/trials)/n is 0, not -0
        path = self.scenario_file(tmp_path, trials=200)
        sure = [{"kind": "mean_ge", "level": 1},
                {"kind": "estimator_dev", "level": 0}]
        path.write_text(json.dumps(dict(json.loads(path.read_text()),
                                        thresholds=sure)))
        assert run(["simulate", "--config", str(path),
                    "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "rates.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            hits, trials, rate = row.split(",")[2:5]
            assert hits == trials == "200"
            assert rate == "0"

    def test_seed_replay_byte_identical(self, tmp_path, capsys):
        self.assert_replay(tmp_path, self.scenario_file(tmp_path, trials=500))

    def test_seed_replay_poisson(self, tmp_path, capsys):
        # Poisson generations come from the exact convolution law, one
        # Poisson draw per trial, not from the truncated table
        cfg = self.scenario_file(tmp_path, trials=500)
        f = {"family": "poisson", "params": {"lambda": 0.6}, "truncation_K": 40}
        cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), f=f)))
        self.assert_replay(tmp_path, cfg)

    @staticmethod
    def assert_replay(tmp_path, cfg):
        for sub in ("a", "b"):
            assert run(["simulate", "--config", str(cfg),
                        "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a" / "rates.csv").read_bytes() == \
            (tmp_path / "b" / "rates.csv").read_bytes()
        assert (tmp_path / "a" / "estimators.csv").read_bytes() == \
            (tmp_path / "b" / "estimators.csv").read_bytes()


class TestVerify:
    def test_fast_checks_pass(self, tmp_path, capsys):
        code = run(["verify", "--checks", "prop3_contraction,prop4_bracket,"
                    "corollary1,remark6", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("prop3_contraction", "prop4_bracket", "corollary1",
                     "remark6"):
            assert f"{name}: pass" in out
        report = (tmp_path / "verify.csv").read_text().splitlines()
        assert report[0] == "check,status,max_deviation,tolerance"
        assert len(report) == 5

    def test_all_checks_pass(self, tmp_path, capsys):
        assert run(["verify", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert all(f"{name}: pass" in out for name in cli.VERIFY_CHECKS)
        assert len((tmp_path / "verify.csv").read_text().splitlines()) == 7

    def test_zero_tolerance_fails_exit_one(self, tmp_path, capsys):
        # prop1's two routes agree only to rounding, so tolerance 0 fails
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"prop1": 0}}))
        assert run(["verify", "--config", str(cfg), "--checks", "prop1,remark6",
                    "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "prop1: FAIL" in out and "remark6: pass" in out
        rows = (tmp_path / "verify.csv").read_text().splitlines()
        assert rows[1].startswith("prop1,FAIL,") and rows[1].endswith(",0")

    def test_unknown_check_rejected(self, tmp_path, capsys):
        assert run(["verify", "--checks", "prop99",
                    "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("tolerances", [
        {"prop1": "abc"}, {"prop1": True}, ["prop1", 1e-9], {"prop99": 1e-9},
        {"prop1": math.nan}, {"prop1": -1e-9}],
        ids=["string", "bool", "list", "unknown-check", "nan", "negative"])
    def test_malformed_tolerances_exit_two(self, tmp_path, capsys, tolerances):
        # a string or a non-object escaped as a traceback with exit 1, the
        # code for a failed check; a boolean or an unknown name was taken
        # in silence, and a NaN or negative tolerance failed its check
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": tolerances}))
        assert run(["verify", "--config", str(cfg), "--checks", "remark6",
                    "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_integer_tolerance_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"prop1": 1}}))
        assert run(["verify", "--config", str(cfg), "--checks", "prop1",
                    "--out", str(tmp_path)]) == 0
        assert "prop1: pass" in capsys.readouterr().out
        rows = (tmp_path / "verify.csv").read_text().splitlines()
        assert rows[1].startswith("prop1,pass,") and rows[1].endswith(",1")

    def test_exhausted_golden_min_exit_four(self, tmp_path, capsys,
                                            monkeypatch):
        # the contraction oracle solves G by Newton steps; one step cannot
        # certify a root, so verify reports a convergence failure
        monkeypatch.setattr(progeny, "NEWTON_MAX_ITER", 1)
        assert run(["verify", "--checks", "prop3_contraction",
                    "--out", str(tmp_path)]) == 4
        assert "convergence failure:" in capsys.readouterr().err


class TestConfigHandling:
    def test_bad_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"command": "rate",')
        assert run(["rate", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_bad_grid_exit_two(self, tmp_path, capsys):
        assert run(["rate", "--f", BERN_F, "--grid", "0.9:0.1:5",
                    "--out", str(tmp_path)]) == 2

    def test_bad_family_exit_two(self, tmp_path, capsys):
        assert run(["rate", "--f", '{"family": "zeta", "params": {}}',
                    "--out", str(tmp_path)]) == 2

    def test_nan_law_exit_two(self, tmp_path, capsys):
        # lambda = 1e400 parses as inf and leaves a NaN table, a config error
        spec = '{"family": "poisson", "params": {"lambda": 1e400}, "truncation_K": 5}'
        with np.errstate(invalid="ignore"):
            assert run(["rate", "--f", spec, "--out", str(tmp_path)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_convergence_failure_exit_four(self, tmp_path, capsys, monkeypatch):
        def explode(cfg):
            raise ConvergenceError("synthetic")
        monkeypatch.setitem(cli._DISPATCH, "rate", explode)
        assert run(["rate", "--f", BERN_F, "--out", str(tmp_path)]) == 4

    def _simulate_with(self, tmp_path, **fields):
        scenario = {
            "f": {"family": "bernoulli", "params": {"p": 0.5}},
            "g": {"family": "explicit", "params": {"probs": [[1, 1.0]]}},
            "n_schedule": [5],
            "trials": 10,
        }
        scenario.update(fields)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        return run(["simulate", "--config", str(path), "--out", str(tmp_path)])

    def test_non_integer_trials_exit_two(self, tmp_path, capsys):
        assert self._simulate_with(tmp_path, trials="many") == 2
        assert "config error:" in capsys.readouterr().err

    def test_non_numeric_threshold_level_exit_two(self, tmp_path, capsys):
        code = self._simulate_with(
            tmp_path, thresholds=[{"kind": "mean_ge", "level": "x"}])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", [
        {"kind": "mean_ge", "level": math.nan},
        {"kind": "mean_ge", "level": math.inf},
        {"kind": "mean_le", "level": -math.inf},
        {"kind": "mean_ge", "level": True},
        {"kind": "estimator_dev", "level": -0.5}])
    def test_meaningless_threshold_level_exit_two(self, tmp_path, capsys,
                                                  threshold):
        # each used to run: NaN gave a censored row with reference_rate 0,
        # inf a reference_rate of nan, a negative deviation a hit in every
        # trial against a reference_rate of 0.693
        assert self._simulate_with(tmp_path, thresholds=[threshold]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert not (tmp_path / "rates.csv").exists()

    def test_non_object_scenario_exit_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "simulate", "scenario": [1, 2]}))
        assert run(["simulate", "--config", str(path),
                    "--out", str(tmp_path)]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        {"n_schedule": [10.7, 20]}, {"trials": 2.9}, {"master_seed": 3.5},
        {"master_seed": -1}, {"population_cap": 1e7 + 0.5},
        {"trials": True}])
    def test_malformed_scenario_integer_exit_two(self, tmp_path, capsys,
                                                 fields):
        # each was truncated by int() (a JSON true read as 1) or, for a
        # negative seed, escaped as a NumPy traceback from SeedSequence
        assert self._simulate_with(tmp_path, **fields) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "whole number" in err

    def test_fractional_config_seed_exit_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3.5}))
        assert run(["rate", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "seed must be a whole number" in capsys.readouterr().err

    def test_negative_seed_flag_exit_two(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "f": json.loads(BERN_F),
            "g": {"family": "explicit", "params": {"probs": [[1, 1.0]]}},
            "n_schedule": [5], "trials": 10}))
        assert run(["simulate", "--config", str(path), "--seed", "-1",
                    "--out", str(tmp_path)]) == 2
        assert "seed must be a whole number >= 0" in capsys.readouterr().err

    def test_integral_float_population_cap_accepted(self, tmp_path, capsys):
        assert self._simulate_with(tmp_path, population_cap=1e7,
                                   trials=10.0, n_schedule=[5.0]) == 0
        scenario = mc.LdpScenario.from_json_dict(
            {"f": json.loads(BERN_F), "g": json.loads(BERN_F),
             "n_schedule": [5.0], "trials": 1e1, "population_cap": 1e7})
        assert scenario.population_cap == 10 ** 7
        assert all(type(v) is int for v in (scenario.population_cap,
                                            scenario.trials,
                                            *scenario.n_schedule))

    def test_fractional_k_max_exit_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_max": 12.5}))
        assert run(["progeny-pmf", "--config", str(path),
                    "--out", str(tmp_path)]) == 2
        assert "k_max must be a whole number" in capsys.readouterr().err

    def test_non_integer_k_max_exit_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_max": "big"}))
        assert run(["progeny-pmf", "--config", str(path),
                    "--out", str(tmp_path)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_dump_config_round_trip(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        code = run(["rate", "--f", BERN_F, "--grid", "0.1:0.9:7",
                    "--target", "offspring", "--out", str(out_a),
                    "--dump-config"])
        assert code == 0
        dumped = capsys.readouterr().out
        json_text = dumped[:dumped.rindex("}") + 1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json_text)
        out_b = tmp_path / "b"
        assert run(["rate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        assert (out_a / "rate.csv").read_bytes() == \
            (out_b / "rate.csv").read_bytes()


class TestCsvConventions:
    def test_lf_endings_and_digits(self, tmp_path, capsys):
        run(["rate", "--f", BERN_F, "--grid", "0:1:3",
             "--target", "offspring", "--out", str(tmp_path)])
        raw = (tmp_path / "rate.csv").read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        # boundary rows carry -log(1/2) at 12 significant digits
        assert "0.69314718056" in text


def _row_oracle(header, rows, trailer=None) -> bytes:
    """The bytes of the row-by-row writer that the column writer replaced."""
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(cli._fmt(v) for v in row) + "\n"
    if trailer is not None:
        text += trailer + "\n"
    return text.encode()


def _estimator_rows(blocks):
    return [(b.n, trial, r, m) for b in blocks
            for trial, (r, m) in enumerate(zip(b.est_ratio, b.est_meaninit))]


EST_HEADER = ["n", "trial", "est_ratio", "est_meaninit"]
# four offspring points and three initial ones: both draws take the
# multinomial branch of the sampler, where Bernoulli(1/2) takes the binomial
MULTI_LAWS = {
    "f": {"family": "explicit",
          "params": {"probs": [[0, 0.6], [1, 0.2], [2, 0.1], [3, 0.1]]}},
    "g": {"family": "explicit",
          "params": {"probs": [[1, 0.5], [2, 0.3], [4, 0.2]]}},
    "n_schedule": [2, 5, 9],
}


class TestCsvWriter:
    def test_simulate_bytes_match_row_oracle(self, tmp_path, capsys):
        for case, laws in (("two_point", {}), ("multinomial", MULTI_LAWS)):
            out = tmp_path / case
            out.mkdir()
            cfg = TestSimulate().scenario_file(out)
            data = dict(json.loads(cfg.read_text()), **laws)
            cfg.write_text(json.dumps(data))
            assert run(["simulate", "--config", str(cfg),
                        "--out", str(out)]) == 0
            scenario = mc.LdpScenario.from_json_dict(data)
            blocks = mc.replicate(scenario)
            assert (out / "estimators.csv").read_bytes() == _row_oracle(
                EST_HEADER, _estimator_rows(blocks))
            rate_rows = [(r.n, r.threshold.label(), r.hits, r.trials,
                          r.rate_estimate, r.ci_halfwidth, r.reference_rate,
                          r.censored)
                         for t in scenario.thresholds
                         for r in mc.empirical_rate(scenario, t, blocks=blocks)]
            assert (out / "rates.csv").read_bytes() == _row_oracle(
                ["n", "threshold", "hits", "trials", "rate_estimate",
                 "ci_halfwidth", "reference_rate", "censored"], rate_rows)

    def test_estimators_match_row_oracle_on_synthetic_blocks(self, tmp_path,
                                                            monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
        rng = np.random.default_rng(11)
        big = 2 ** 62
        # (2,1) and (4,2) share est_ratio 0.5 but not est_meaninit; (6,2)
        # and (6,3) share est_meaninit but not est_ratio
        shared = [(2, 1), (4, 2), (6, 2), (6, 3), (1, 1)]
        near_edge = [(big + 1, 3), (big + 1, big), (big, 3),
                     (big - 7, 1), (2 ** 63 - 1, 5)]
        large = [(2 ** 61 - 1, 3), (2 ** 61 - 2, 1), (2 ** 61 - 1, 1)]
        cases = [(3, shared, 23), (5, shared, 15), (3, near_edge, 22),
                 (40, large, 9), (7, shared[:1], 1)]
        blocks = []
        for n, pairs, size in cases:
            y, z = np.array(pairs, dtype=np.int64)[
                rng.integers(0, len(pairs), size)].T
            blocks.append(mc.ReplicationBlock(n, y.copy(), z.copy(), 1.75))
        path = tmp_path / "estimators.csv"
        cli._write_estimators(str(path), blocks)
        assert path.read_bytes() == _row_oracle(EST_HEADER,
                                                _estimator_rows(blocks))

    def test_estimators_format_budget(self, tmp_path, capsys, monkeypatch):
        """simulate formats at most 2 values per distinct (Y_sum, Z_sum) pair
        and block; a writer formatting per row or per 64-row chunk makes
        hundreds of calls more, and one that bypasses _write_estimators is
        not counted and fails too."""
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 64)
        calls, budget = [], []
        fmt, write = cli._fmt, cli._write_estimators

        def counted_write(path, blocks):
            blocks = list(blocks)
            budget.append(2 * sum(
                len(set(zip(b.y_sum.tolist(), b.z_sum.tolist())))
                for b in blocks))
            monkeypatch.setattr(cli, "_fmt",
                                lambda v: calls.append(v) or fmt(v))
            try:
                write(path, blocks)
            finally:
                monkeypatch.setattr(cli, "_fmt", fmt)

        monkeypatch.setattr(cli, "_write_estimators", counted_write)
        cfg = TestSimulate().scenario_file(tmp_path)
        assert run(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 0
        assert budget and 0 < len(calls) <= budget[0]

    def test_edge_values_match_row_oracle(self, tmp_path):
        rng = np.random.default_rng(5)
        floats = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf,
                           5e-324, -5e-324, 1e-300, 0.1, 1.0 / 3.0, 2.5])
        ints = np.array([2 ** 62, 2 ** 62 + 1, -(2 ** 62), 2 ** 63 - 1,
                         -(2 ** 63), 0, -1, 7], dtype=np.int64)
        mixed = [None, "theta_max", 0.25, -0.0, 3, True, "x y"]
        size = 2 * cli._CHUNK_ROWS + 11   # three slices, the last partial
        columns = (rng.choice(floats, size),
                   rng.choice(ints, size),
                   rng.choice(floats, size).astype(np.float32),
                   rng.choice(ints, size).astype(np.uint64),
                   [bool(b) for b in rng.integers(0, 2, size)],
                   [mixed[i] for i in rng.integers(0, len(mixed), size)])
        header = ["f64", "i64", "f32", "u64", "flag", "mixed"]
        path = tmp_path / "edge.csv"
        cli._write_csv(str(path), header, [columns], trailer="# end")
        assert path.read_bytes() == _row_oracle(header, zip(*columns), "# end")
        text = path.read_text()
        assert "-0," in text and "nan" in text and "-inf" in text
        assert "4.94065645841e-324" in text and "4611686018427387905" in text

    @pytest.mark.parametrize("rows", [7 * 4 + 3, 7 * 4])
    def test_slice_boundaries(self, tmp_path, capsys, monkeypatch, rows):
        argv = ["progeny-pmf", "--f", BERN_F, "--k-max", str(rows)]
        assert run(argv + ["--out", str(tmp_path / "whole")]) == 0
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
        assert run(argv + ["--out", str(tmp_path / "sliced")]) == 0
        raw = (tmp_path / "sliced" / "progeny_pmf.csv").read_bytes()
        assert raw == (tmp_path / "whole" / "progeny_pmf.csv").read_bytes()
        assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")
        lines = raw.decode().split("\n")[:-1]
        assert lines[0] == "k,pi_k"
        assert [int(l.split(",")[0]) for l in lines[1:-1]] == \
            list(range(1, rows + 1))
        assert lines[-1].startswith("# deficit=")
        # blocks follow one another with no row lost or repeated at a seam
        blocks = [(np.arange(rows), np.arange(rows) / 8.0),
                  (np.arange(rows, 2 * rows), np.full(rows, -0.0))]
        path = tmp_path / "blocks.csv"
        cli._write_csv(str(path), ["i", "v"], blocks, trailer="# end")
        expected = [row for cols in blocks for row in zip(*cols)]
        assert path.read_bytes() == _row_oracle(["i", "v"], expected, "# end")

    def test_numpy_bools_print_lowercase(self, tmp_path):
        flags = np.array([True, False, True])
        scalars = [np.True_, np.False_, True]
        path = tmp_path / "bools.csv"
        cli._write_csv(str(path), ["flag", "scalar"], [(flags, scalars)])
        assert path.read_text() == "flag,scalar\ntrue,true\nfalse,false\ntrue,true\n"
