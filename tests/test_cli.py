"""CLI surface: exit codes, file handling, artifact schemas, round trips."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from sconcave.cli import main
from sconcave.mle import FitConfig, fit


@pytest.fixture()
def runner():
    return CliRunner()


class TestSample:
    def test_reproducible_output(self, runner, tmp_path):
        out = tmp_path / "x.txt"
        r1 = runner.invoke(main, ["sample", "--dist", "uniform", "--n", "5",
                                  "--seed", "7", "--out", str(out)])
        assert r1.exit_code == 0
        first = out.read_text()
        runner.invoke(main, ["sample", "--dist", "uniform", "--n", "5",
                             "--seed", "7", "--out", str(out)])
        assert out.read_text() == first
        vals = [float(v) for v in first.split()]
        assert len(vals) == 5 and all(0 <= v <= 1 for v in vals)

    def test_seed_required(self, runner):
        r = runner.invoke(main, ["sample", "--dist", "uniform", "--n", "5"])
        assert r.exit_code != 0

    def test_bad_beta(self, runner):
        r = runner.invoke(main, ["sample", "--dist", "pareto", "--beta", "0.5",
                                 "--n", "5", "--seed", "1"])
        assert r.exit_code == 1

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_nonfinite_beta(self, runner, beta):
        r = runner.invoke(main, ["sample", "--dist", "pareto", "--beta", beta,
                                 "--n", "5", "--seed", "1"])
        assert r.exit_code == 1
        assert "Error:" in r.output and "Traceback" not in r.output


class TestFit:
    def test_two_points(self, runner, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("0\n1\n")
        out = tmp_path / "fit.json"
        r = runner.invoke(main, ["fit", str(data), "--s", "0", "--out", str(out)])
        assert r.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["loglik"] == pytest.approx(0.0, abs=1e-8)
        vals = doc["phi_hat"]["values"]
        assert abs(vals[-1] - vals[0]) <= 1e-6

    def test_empty_file(self, runner, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("")
        r = runner.invoke(main, ["fit", str(data), "--s", "0"])
        assert r.exit_code == 1

    def test_bad_token_names_line(self, runner, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("0.5\nnot-a-number\n1.0\n")
        r = runner.invoke(main, ["fit", str(data), "--s", "0"])
        assert r.exit_code == 1
        assert ":2:" in r.output

    def test_below_threshold(self, runner, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("1.0\n2.0\n3.0\n")
        r = runner.invoke(main, ["fit", str(data), "--s", "-0.75"])
        assert r.exit_code == 1
        assert "4" in r.output  # the threshold is cited

    def test_sample_fit_round_trip(self, runner, tmp_path):
        data = tmp_path / "d.txt"
        out = tmp_path / "fit.json"
        r1 = runner.invoke(main, ["sample", "--dist", "laplace", "--n", "40",
                                  "--seed", "3", "--out", str(data)])
        assert r1.exit_code == 0
        r2 = runner.invoke(main, ["fit", str(data), "--s", "0", "--out", str(out)])
        assert r2.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        res = fit(np.loadtxt(data), FitConfig(s=0.0))
        assert doc["objective"] == res.objective
        assert doc["density"]["transform"] == {"kind": "LogConcave", "s": 0.0}
        r3 = runner.invoke(main, ["fit", str(data), "--s", "-0.5", "--out", str(out)])
        assert r3.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["density"]["transform"] == {"kind": "PowerS", "s": -0.5}

    def test_nonfinite_s(self, runner, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("1.0\n2.0\n3.0\n")
        r = runner.invoke(main, ["fit", str(data), "--s", "inf"])
        assert r.exit_code == 1
        assert "Error:" in r.output
        assert isinstance(r.exception, SystemExit)  # a usage error, not a traceback
        r = runner.invoke(main, ["fit", str(data), "--s", "0", "--grad-tol", "nan"])
        assert r.exit_code == 1
        assert "Error:" in r.output
        assert isinstance(r.exception, SystemExit)


class TestNonexistenceDemo:
    def test_verdict_yes(self, runner, tmp_path):
        out = tmp_path / "ne.json"
        r = runner.invoke(main, ["nonexistence-demo", "--s", "-2",
                                 "--out", str(out)])
        assert r.exit_code == 0
        assert "likelihood unbounded: yes" in r.output
        doc = json.loads(out.read_text())
        lls = [row["loglik"] for row in doc["table"]]
        assert all(b > a for a, b in zip(lls, lls[1:]))
        assert doc["tail_climb"] > 4.0

    def test_rejects_s_above_minus_one(self, runner):
        r = runner.invoke(main, ["nonexistence-demo", "--s", "-0.5"])
        assert r.exit_code == 1

    def test_rejects_an_empty_grid(self, runner):
        r = runner.invoke(main, ["nonexistence-demo", "--s", "-2", "--grid-size", "0"])
        assert r.exit_code == 1
        assert "Error:" in r.output
        assert isinstance(r.exception, SystemExit)

    def test_shifts_nonpositive_data(self, runner, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("-1.0\n0.0\n2.0\n")
        out = tmp_path / "ne.json"
        r = runner.invoke(main, ["nonexistence-demo", "--s", "-2",
                                 "--data", str(data), "--out", str(out)])
        assert r.exit_code == 0
        assert json.loads(out.read_text())["shift_applied"] == 2.0


class TestRateStudy:
    def test_small_study_artifacts(self, runner, tmp_path):
        cfg = {"version": 1, "true_density": "laplace", "s": 0.0,
               "n_grid": [100, 200, 400], "replications": 3, "seed": 12,
               "metrics": ["hellinger"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        prefix = str(tmp_path / "study")
        r = runner.invoke(main, ["rate-study", str(cfg_path), "--out", prefix,
                                 "--format", "csv", "--format", "json",
                                 "--format", "svg"])
        assert r.exit_code == 0, r.output
        csv_text = (tmp_path / "study.csv").read_text().splitlines()
        assert csv_text[0] == "metric,n,replication,value"
        assert len(csv_text) == 1 + 3 * 3
        doc = json.loads((tmp_path / "study.json").read_text())
        assert "hellinger" in doc["slopes"]
        svg = (tmp_path / "study.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg

    def test_jobs_flag(self, runner, tmp_path):
        cfg = {"version": 1, "true_density": "laplace", "s": 0.0,
               "n_grid": [100, 200, 400], "replications": 2, "seed": 12,
               "metrics": ["hellinger"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        r = runner.invoke(main, ["rate-study", str(cfg_path), "--jobs", "2",
                                 "--out", str(tmp_path / "s2"), "--format", "json"])
        assert r.exit_code == 0, r.output
        doc = json.loads((tmp_path / "s2.json").read_text())
        assert doc["config"]["jobs"] == 2

    def test_zero_replications_rejected(self, runner, tmp_path):
        cfg = {"version": 1, "true_density": "laplace", "s": 0.0,
               "n_grid": [100], "replications": 0, "seed": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        r = runner.invoke(main, ["rate-study", str(cfg_path)])
        assert r.exit_code == 1

    def test_unknown_keys_rejected(self, runner, tmp_path):
        cfg = {"version": 1, "true_density": "laplace", "s": 0.0,
               "n_grid": [100], "replications": 1, "seed": 1, "extra": True}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        r = runner.invoke(main, ["rate-study", str(cfg_path)])
        assert r.exit_code == 1


class TestEntropyStudy:
    def test_bounded_concave_study(self, runner, tmp_path):
        cfg = {"version": 1, "class": "bounded_concave",
               "params": {"b1": 0.0, "b2": 1.0, "B": 1.0},
               "eps_grid": [0.2, 0.1, 0.05, 0.025], "r": 1.0, "members": 40}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        prefix = str(tmp_path / "ent")
        r = runner.invoke(main, ["entropy-study", str(cfg_path), "--seed", "5",
                                 "--out", prefix])
        assert r.exit_code == 0, r.output
        rows = (tmp_path / "ent.csv").read_text().splitlines()
        assert rows[0] == ("eps,count_log10,log_cardinality,max_size,size_bound,"
                           "size_slack,covered_fraction")
        assert len(rows) == 5
        doc = json.loads((tmp_path / "ent.json").read_text())
        assert 0.4 <= doc["fitted_exponent"] <= 0.7
        for row in doc["rows"]:
            assert row["covered_fraction"] == 1.0
            assert row["size_bound"] == row["eps"]
            assert row["size_slack"] == pytest.approx(row["max_size"] / row["eps"], rel=1e-15)
            assert 0.0 < row["size_slack"] <= 1.0

    def test_each_cover_built_once(self, runner, tmp_path, monkeypatch):
        # the exponent is fitted from the rows already built; eps = 2.5 gives
        # the trivial bracket (log-cardinality 0), which the fit leaves out
        from sconcave import entropy
        calls = []
        build = entropy.build_cover
        monkeypatch.setattr(entropy, "build_cover",
                            lambda *args: calls.append(args) or build(*args))
        eps_grid = [2.5, 0.2, 0.1, 0.05, 0.025]
        cfg = {"version": 1, "class": "bounded_concave", "eps_grid": eps_grid,
               "r": 1.0, "members": 5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        r = runner.invoke(main, ["entropy-study", str(cfg_path), "--seed", "5",
                                 "--out", str(tmp_path / "ent")])
        assert r.exit_code == 0, r.output
        assert len(calls) == len(eps_grid)
        doc = json.loads((tmp_path / "ent.json").read_text())
        assert doc["rows"][0]["log_cardinality"] == 0.0
        curve = entropy.entropy_curve(entropy.BoundedConcaveClass(0.0, 1.0, 1.0), eps_grid, 1.0)
        assert curve.dropped == 1
        assert doc["fitted_exponent"] == curve.exponent

    def test_local_exponents(self, runner, tmp_path):
        # the slope between consecutive eps falls toward 1/2 with a log factor
        cfg = {"version": 1, "class": "bounded_concave",
               "params": {"b1": 0.0, "b2": 1.0, "B": 1.0},
               "eps_grid": [0.2, 0.1, 0.05, 0.025], "r": 1.0, "members": 5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        r = runner.invoke(main, ["entropy-study", str(cfg_path), "--seed", "5",
                                 "--out", str(tmp_path / "ent")])
        assert r.exit_code == 0, r.output
        local = json.loads((tmp_path / "ent.json").read_text())["local_exponents"]
        assert len(local) == 4 and local[0] is None
        for e in local[1:]:
            assert math.isfinite(e) and 0.45 <= e <= 0.65
        header = (tmp_path / "ent.csv").read_text().splitlines()[0]
        assert "local" not in header

    def test_eps_above_threshold_is_an_error(self, runner, tmp_path):
        cfg = {"version": 1, "class": "bounded_concave",
               "params": {"b1": 0.0, "b2": 1.0, "B": 1.0},
               "eps_grid": [0.5, 0.2, 0.1, 0.05], "r": 1.0, "members": 10}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        r = runner.invoke(main, ["entropy-study", str(cfg_path), "--seed", "5",
                                 "--out", str(tmp_path / "ent")])
        assert r.exit_code == 1
        assert "eps = 0.5" in r.output and "eps_3" in r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)

    @pytest.mark.parametrize("members", [0, -1])
    def test_no_members_is_an_error(self, runner, tmp_path, members):
        # with no members nothing is verified: coverage 1.0 would be vacuous
        cfg = {"version": 1, "class": "bounded_concave",
               "eps_grid": [0.2, 0.1, 0.05], "r": 1.0, "members": members}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        r = runner.invoke(main, ["entropy-study", str(cfg_path), "--seed", "5",
                                 "--out", str(tmp_path / "ent")])
        assert r.exit_code == 1
        assert "Error:" in r.output and "members must be at least 1" in r.output
        assert "Traceback" not in r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert not (tmp_path / "ent.json").exists()

    def test_too_few_eps_is_an_error(self, runner, tmp_path):
        cfg = {"version": 1, "class": "bounded_concave",
               "eps_grid": [0.2, 0.1], "r": 1.0, "members": 5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        r = runner.invoke(main, ["entropy-study", str(cfg_path), "--seed", "5",
                                 "--out", str(tmp_path / "ent")])
        assert r.exit_code == 1
        assert "Error:" in r.output and "fewer than 3 valid eps" in r.output
        assert "Traceback" not in r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)


class TestEnvelopeCheck:
    def test_vacuous_below_two(self, runner, tmp_path):
        out = tmp_path / "env.json"
        r = runner.invoke(main, ["envelope-check", "--s", "-0.5", "--M", "1",
                                 "--seed", "2", "--out", str(out)])
        assert r.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["vacuous"] is True
        assert doc["L"] == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    def test_m5_members_dominated(self, runner, tmp_path):
        out = tmp_path / "env.json"
        r = runner.invoke(main, ["envelope-check", "--s", "-0.5", "--M", "5",
                                 "--members", "25", "--seed", "2",
                                 "--out", str(out)])
        assert r.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["all_dominated"] is True and doc["members_checked"] == 25

    @pytest.mark.parametrize("s_value", ["nan", "inf"])
    def test_nonfinite_s(self, runner, s_value):
        r = runner.invoke(main, ["envelope-check", "--s", s_value, "--M", "5",
                                 "--seed", "2"])
        assert r.exit_code == 1
        assert "Error:" in r.output and "Traceback" not in r.output

    @pytest.mark.parametrize("members", ["0", "-1"])
    def test_no_members_is_an_error(self, runner, members):
        r = runner.invoke(main, ["envelope-check", "--s", "-0.5", "--M", "5",
                                 "--members", members, "--seed", "2"])
        assert r.exit_code == 1
        assert "Error:" in r.output and "Traceback" not in r.output
