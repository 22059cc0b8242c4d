"""Rate studies at desk scale: determinism, slope fitting, rate-equation bookkeeping."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from sconcave.density import reference, sample
from sconcave.mle import FitConfig, fit
from sconcave.rate_harness import (RateStudyConfig, consistency_diagnostics,
                                   derived_seed, entropy_integral, fit_slope,
                                   rate_equation_check, run_rate_study)


class TestFitSlope:
    def test_exact_power_laws(self):
        ns = [100, 200, 400, 800]
        slope, err = fit_slope(ns, [5.0 * n ** -0.4 for n in ns])
        assert slope == pytest.approx(-0.4, abs=1e-12)
        slope2, _ = fit_slope(ns, [2.0 * n ** -0.8 for n in ns])
        assert slope2 == pytest.approx(-0.8, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_slope([10, 20], [1.0, 0.5])

    def test_drops_nonpositive_with_warning(self):
        with pytest.warns(UserWarning):
            slope, _ = fit_slope([10, 20, 40, 80], [1.0, 0.5, 0.0, 0.25])
        assert math.isfinite(slope)

    def test_matches_the_numpy_formula(self):
        def reference_fit(ns, errors):
            x, y = np.log(np.asarray(ns, dtype=float)), np.log(np.asarray(errors, dtype=float))
            xc = x - x.mean()
            sxx = float(np.dot(xc, xc))
            slope = float(np.dot(xc, y)) / sxx
            resid = y - y.mean() - slope * xc
            return slope, math.sqrt(float(np.dot(resid, resid)) / (x.size - 2) / sxx)

        # geometric grids, as studies use; the sums run in another order than
        # numpy's, so agreement is to rounding, within 1e-14 of values of order 1
        rng = np.random.default_rng(3)
        for _ in range(500):
            k = int(rng.integers(3, 9))
            ns = np.round(rng.uniform(20, 400) * rng.uniform(1.5, 4) ** np.arange(k))
            errors = 3.0 * ns ** rng.uniform(-1, -0.2) * np.exp(rng.normal(scale=0.2, size=k))
            got = fit_slope(ns, errors)
            want = reference_fit(ns, errors)
            assert abs(got[0] - want[0]) <= 1e-14 * abs(want[0])
            assert abs(got[1] - want[1]) <= 1e-14 * max(1.0, want[1])

    def test_rejects_unequal_lengths_and_a_single_n(self):
        with pytest.raises(ValueError):
            fit_slope([10, 20, 40], [1.0, 0.5])
        with pytest.raises(ValueError, match="distinct"):
            fit_slope([10, 10, 10], [1.0, 0.5, 0.25])


class TestQuartiles:
    def test_match_percentile_bit_for_bit(self):
        from sconcave.rate_harness import _quartiles
        rng = np.random.default_rng(8)
        table = rng.lognormal(size=(60, 13))
        table[rng.random(table.shape) < 0.3] = np.nan
        table[rng.random(table.shape) < 0.05] = np.inf
        table[:13] = np.where(np.arange(13) < np.arange(13)[:, None], table[:13], np.nan)
        for row, got in zip(table, _quartiles(table)):
            vals = row[np.isfinite(row)]
            if vals.size == 0:
                assert all(math.isnan(q) for q in got)
            else:
                assert got == tuple(float(q) for q in np.percentile(vals, [25, 50, 75]))


class TestRateEquation:
    def test_entropy_integral_closed_form(self, entropy_integral_quadrature):
        for K in (0.5, 1.0, 4.0):
            for delta in (0.1, 1.0):
                exact = entropy_integral(K, delta)
                quad = entropy_integral_quadrature(K, delta)
                assert abs(exact - quad) / exact < 1e-10

    def test_admissible_constant(self):
        out = rate_equation_check(1.0, [100, 1000, 10_000, 100_000])
        assert out["c_admissible"] > 0.1  # c = 0.1 works for K = 1
        # the closed-form threshold solves q(1+q) = 1 with q = (4/3) sqrt(K) c^(5/4)
        q_star = (math.sqrt(5.0) - 1.0) / 2.0
        c_star = (q_star * 3.0 / 4.0) ** 0.8
        assert out["c_admissible"] == pytest.approx(c_star, rel=1e-14)

    @pytest.mark.parametrize("K", [1.0, 3.7, 120.0])
    def test_inequality_tight_at_every_n(self, K):
        # r_n^2 Psi(1/r_n) / sqrt(n) does not depend on n: at c_admissible it
        # is 1 up to rounding, possibly 1 + 1e-15, so the test is two-sided
        ns = [100, 1000, 10_000, 100_000]
        out = rate_equation_check(K, ns)
        assert [row["n"] for row in out["per_n"]] == ns
        for row in out["per_n"]:
            assert abs(row["ratio"] - 1.0) <= 1e-12

    def test_brute_force_scan_agrees(self):
        # the last admissible point of a geometric scan of c lies at most
        # one grid step below c_admissible, and not above it
        K, ns = 3.7, [100, 10_000]
        c_star = rate_equation_check(K, ns)["c_admissible"]
        cs = np.geomspace(c_star * 1e-2, c_star * 1e2, 801)
        step = cs[1] / cs[0]

        def ok(c, n):
            r = c * n ** 0.4
            J = entropy_integral(K, 1.0 / r)
            return r * r * J * (1.0 + J * r * r / math.sqrt(n)) <= math.sqrt(n)

        best = max(c for c in cs if all(ok(c, n) for n in ns))
        assert c_star / step * (1.0 - 1e-12) <= best <= c_star * (1.0 + 1e-12)

    def test_doubling_k_shrinks_range(self):
        ns = [100, 1000, 10_000]
        c1 = rate_equation_check(1.0, ns)["c_admissible"]
        c2 = rate_equation_check(2.0, ns)["c_admissible"]
        c4 = rate_equation_check(4.0, ns)["c_admissible"]
        assert c1 > c2 > c4 > 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            rate_equation_check(0.0, [100])


@pytest.fixture(scope="module")
def small_study():
    cfg = RateStudyConfig(true_density="laplace", s=0.0,
                          n_grid=(100, 200, 400), replications=6, seed=5,
                          metrics=("hellinger", "l1", "loglr", "sup_compact"))
    return cfg, run_rate_study(cfg)


class TestStudyMechanics:

    def test_deterministic(self, small_study):
        cfg, res = small_study
        res2 = run_rate_study(cfg)
        for m in cfg.metrics:
            np.testing.assert_array_equal(res.raw[m], res2.raw[m])

    def test_quantiles_ordered(self, small_study):
        cfg, res = small_study
        for m in cfg.metrics:
            for n in cfg.n_grid:
                q25, q50, q75 = res.quantiles[m][n]
                assert q25 <= q50 <= q75

    def test_l1_hellinger_inequality(self, small_study):
        cfg, res = small_study
        h, l1 = res.raw["hellinger"], res.raw["l1"]
        ok = np.isfinite(h) & np.isfinite(l1)
        assert np.all(l1[ok] <= 2.0 * math.sqrt(2.0) * h[ok] + 1e-9)

    def test_loglr_nonnegative(self, small_study):
        cfg, res = small_study
        lr = res.raw["loglr"]
        assert np.all(lr[np.isfinite(lr)] >= -1e-9)

    def test_quantiles_match_per_row_percentiles(self, small_study):
        cfg, res = small_study
        for m in cfg.metrics:
            for i, n in enumerate(cfg.n_grid):
                row = res.raw[m][i]
                want = np.percentile(row[np.isfinite(row)], [25, 50, 75])
                assert res.quantiles[m][n] == tuple(float(q) for q in want)

    def test_excluded_replication_leaves_row_quartiles(self, monkeypatch):
        from sconcave import rate_harness
        calls = []
        failed = []

        def failing_first(data, cfg):
            # tasks run largest n first: fail the first fit at n = 100
            calls.append(cfg.grad_tol)
            if data.size == 100 and not failed:
                failed.append(data.size)
                raise RuntimeError("solver failure")
            return fit(data, cfg)

        monkeypatch.setattr(rate_harness, "fit", failing_first)
        cfg = RateStudyConfig(true_density="laplace", s=0.0, n_grid=(100, 200, 400),
                              replications=3, seed=5, metrics=("hellinger",),
                              fit_grad_tol=1e-6)
        res = run_rate_study(cfg)
        assert res.excluded == 1
        assert res.exclusions == [{"n": 100, "replication": 0, "seed": derived_seed(5, 0, 0),
                                   "error": "RuntimeError('solver failure')"}]
        assert res.summary_dict()["exclusions"] == res.exclusions
        assert calls == [1e-6] * 9  # the configured tolerance reaches every fit
        row = res.raw["hellinger"][0]
        assert np.isnan(row[0]) and np.all(np.isfinite(row[1:]))
        want = np.percentile(row[1:], [25, 50, 75])
        assert res.quantiles["hellinger"][100] == tuple(float(q) for q in want)

    def test_all_excluded_row_is_nan_and_left_out_of_the_slope(self, monkeypatch):
        from sconcave import rate_harness

        def failing_at_100(data, cfg):
            if data.size == 100:
                raise RuntimeError("solver failure")
            return fit(data, cfg)

        monkeypatch.setattr(rate_harness, "fit", failing_at_100)
        cfg = RateStudyConfig(true_density="laplace", s=0.0, n_grid=(100, 200, 400, 800),
                              replications=2, seed=5, metrics=("hellinger",))
        with pytest.warns(UserWarning, match="dropping 1"):
            res = run_rate_study(cfg)
        assert res.excluded == 2
        q = res.quantiles["hellinger"]
        assert all(math.isnan(v) for v in q[100])
        want = fit_slope(cfg.n_grid[1:], [q[n][1] for n in cfg.n_grid[1:]])
        assert res.slopes["hellinger"] == want

    def test_four_replications_interpolate_like_percentile(self):
        # ranks 0.75, 1.5 and 2.25 of 4: both interpolation branches and t = 1/2
        cfg = RateStudyConfig(true_density="laplace", s=0.0, n_grid=(100, 200, 400),
                              replications=4, seed=8, metrics=("hellinger", "l1"))
        res = run_rate_study(cfg)
        for m in cfg.metrics:
            for i, n in enumerate(cfg.n_grid):
                want = np.percentile(res.raw[m][i], [25, 50, 75])
                assert res.quantiles[m][n] == tuple(float(v) for v in want)

    def test_exclusions_ordered_by_n_then_replication(self, monkeypatch):
        from sconcave import rate_harness

        sizes = []

        def failing_small(data, cfg):
            # fail replications 0 and 1 below n = 400; they run n = 200 first
            sizes.append(data.size)
            if data.size < 400 and sizes.count(data.size) <= 2:
                raise RuntimeError(f"failure at {data.size}")
            return fit(data, cfg)

        monkeypatch.setattr(rate_harness, "fit", failing_small)
        cfg = RateStudyConfig(true_density="laplace", s=0.0, n_grid=(100, 200, 400),
                              replications=3, seed=5, metrics=("hellinger",))
        res = run_rate_study(cfg)
        assert sizes == [400] * 3 + [200] * 3 + [100] * 3
        assert [(e["n"], e["replication"]) for e in res.exclusions] == [
            (100, 0), (100, 1), (200, 0), (200, 1)]
        assert np.all(np.isfinite(res.raw["hellinger"][:, 2]))

    def test_pool_matches_single_process(self):
        # the pool takes tasks largest n first, one at a time; the tables
        # are filled by task index, so both paths give the same study
        base = dict(true_density="pareto", s=-0.5, n_grid=(100, 200, 400, 800),
                    replications=3, seed=11, metrics=("hellinger",))
        one = run_rate_study(RateStudyConfig(**base, jobs=1))
        two = run_rate_study(RateStudyConfig(**base, jobs=2))
        np.testing.assert_array_equal(one.raw["hellinger"], two.raw["hellinger"])
        assert one.quantiles == two.quantiles
        assert one.slopes == two.slopes
        assert one.exclusions == two.exclusions
        assert one.excluded == two.excluded == 0

    def test_seed_derivation_distinct(self):
        seeds = {derived_seed(42, i, j) for i in range(5) for j in range(20)}
        assert len(seeds) == 100

    def test_single_replication_point_values(self):
        cfg = RateStudyConfig(true_density="laplace", s=0.0, n_grid=(100,),
                              replications=1, seed=3, metrics=("hellinger",))
        res = run_rate_study(cfg)
        q25, q50, q75 = res.quantiles["hellinger"][100]
        assert q25 == q50 == q75
        assert math.isnan(res.slopes["hellinger"][0])

    def test_rejects_non_s_concave_truth(self):
        cfg = RateStudyConfig(true_density="pareto", s=0.0, n_grid=(100, 200, 400),
                              replications=1, seed=1, metrics=("hellinger",))
        with pytest.raises(ValueError, match="s-concave"):
            run_rate_study(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RateStudyConfig(true_density="laplace", s=0.0, n_grid=(200, 100),
                            replications=5, seed=1)
        with pytest.raises(ValueError):
            RateStudyConfig(true_density="laplace", s=0.0, n_grid=(100,),
                            replications=0, seed=1)
        with pytest.raises(ValueError):
            RateStudyConfig(true_density="laplace", s=0.0, n_grid=(100,),
                            replications=1, seed=1, metrics=("nope",))

    @pytest.mark.parametrize("name,compact", [
        ("uniform", (-1.0, 1.0)),   # reaches outside [0, 1]
        ("uniform", (0.0, 0.5)),    # touches the support's end
        ("laplace", (1.0, -1.0)),   # reversed
        ("laplace", (0.5, 0.5)),    # empty
    ])
    def test_config_rejects_unusable_compact(self, name, compact):
        kwargs = dict(true_density=name, s=0.0, n_grid=(50, 100, 200),
                      replications=2, seed=1,
                      metrics=("hellinger", "sup_compact"), compact=compact)
        with pytest.raises(ValueError, match="compact interval"):
            RateStudyConfig(**kwargs)
        d = RateStudyConfig(**{**kwargs, "metrics": ("hellinger",)}).to_dict()
        d["metrics"] = ["hellinger", "sup_compact"]
        with pytest.raises(ValueError, match="compact interval"):
            RateStudyConfig.from_dict(d)

    def test_config_accepts_interior_compact(self):
        cfg = RateStudyConfig(true_density="uniform", s=0.0, n_grid=(100,),
                              replications=1, seed=1, compact=(0.25, 0.75),
                              metrics=("sup_compact",))
        assert cfg.compact == (0.25, 0.75)

    def test_config_round_trip_rejects_unknown_keys(self):
        cfg = RateStudyConfig(true_density="laplace", s=0.0, n_grid=(100,),
                              replications=1, seed=1)
        d = cfg.to_dict()
        assert RateStudyConfig.from_dict(d) == cfg
        d["bogus"] = 1
        with pytest.raises(ValueError, match="unknown"):
            RateStudyConfig.from_dict(d)
        d2 = cfg.to_dict()
        d2["version"] = 2
        with pytest.raises(ValueError, match="version"):
            RateStudyConfig.from_dict(d2)

    def test_config_round_trip_keeps_every_field(self):
        import dataclasses
        cfg = RateStudyConfig(true_density="pareto", s=-0.5, n_grid=(50, 70),
                              replications=3, seed=9, metrics=("l1",), beta=4.0,
                              compact=(-0.5, 0.5), jobs=2, fit_grad_tol=1e-9)
        defaults = {f.name: f.default for f in dataclasses.fields(cfg)
                    if f.default is not dataclasses.MISSING}
        assert all(getattr(cfg, k) != v for k, v in defaults.items())
        assert RateStudyConfig.from_dict(cfg.to_dict()) == cfg


def test_benchmark_wrapped_names_resolve():
    # the traced benchmark wraps rate_harness attributes by name (getattr),
    # so a name gone from rate_harness would break only the traced run
    import sconcave.rate_harness as rate_harness
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "measure.py").read_text()
    spans = [ast.literal_eval(node.value) for node in ast.parse(source).body
             if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "RATE_SPANS" for t in node.targets)]
    assert len(spans) == 1 and spans[0]
    assert [name for name in spans[0] if not callable(getattr(rate_harness, name, None))] == []


class TestConsistencyDiagnostics:
    def test_zero_distance_against_self(self):
        dist = reference("laplace")
        data = sample(dist, 200, 4)
        res = fit(data, FitConfig(s=0.0))
        diag = consistency_diagnostics(res, res.density, (-0.5, 0.5))
        assert diag["sup_dist"] == pytest.approx(0.0, abs=1e-12)

    def test_requires_interior_compact(self):
        dist = reference("uniform")
        data = sample(dist, 50, 4)
        res = fit(data, FitConfig(s=0.0))
        with pytest.raises(ValueError):
            consistency_diagnostics(res, dist, (-1.0, 2.0))

    def test_sup_dist_shrinks_with_n(self):
        dist = reference("laplace")
        meds = []
        for i_n, n in enumerate((100, 1600)):
            vals = []
            for j in range(6):
                data = sample(dist, n, derived_seed(11, i_n, j))
                res = fit(data, FitConfig(s=0.0))
                vals.append(consistency_diagnostics(res, dist, (-1, 1))["sup_dist"])
            meds.append(np.median(vals))
        assert meds[1] < meds[0]
