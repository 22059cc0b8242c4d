"""Rate studies at desk scale: determinism, slope fitting, rate-equation bookkeeping."""

import math

import numpy as np
import pytest

from sconcave.density import reference, sample
from sconcave.mle import FitConfig, fit
from sconcave.rate_harness import (RateStudyConfig, consistency_diagnostics,
                                   derived_seed, entropy_integral,
                                   entropy_integral_quadrature, fit_slope,
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


class TestRateEquation:
    def test_entropy_integral_closed_form(self):
        for K in (0.5, 1.0, 4.0):
            for delta in (0.1, 1.0):
                exact = entropy_integral(K, delta)
                quad = entropy_integral_quadrature(K, delta)
                assert abs(exact - quad) / exact < 1e-10

    def test_admissible_constant(self):
        out = rate_equation_check(1.0, [100, 1000, 10_000, 100_000])
        assert out["J_quadrature_relative_error"] < 1e-10
        assert out["c_admissible"] > 0.1  # c = 0.1 works for K = 1
        # the closed-form threshold solves q(1+q) = 1 with q = (4/3) sqrt(K) c^(5/4)
        q_star = (math.sqrt(5.0) - 1.0) / 2.0
        c_star = (q_star * 3.0 / 4.0) ** 0.8
        assert out["c_admissible"] == pytest.approx(c_star, rel=0.05)

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

        def failing_first(data, cfg):
            calls.append(cfg.grad_tol)
            if len(calls) == 1:
                raise RuntimeError("solver failure")
            return fit(data, cfg)

        monkeypatch.setattr(rate_harness, "fit", failing_first)
        cfg = RateStudyConfig(true_density="laplace", s=0.0, n_grid=(100, 200, 400),
                              replications=3, seed=5, metrics=("hellinger",),
                              fit_grad_tol=1e-6)
        res = run_rate_study(cfg)
        assert res.excluded == 1
        assert calls == [1e-6] * 9  # the configured tolerance reaches every fit
        row = res.raw["hellinger"][0]
        assert np.isnan(row[0]) and np.all(np.isfinite(row[1:]))
        want = np.percentile(row[1:], [25, 50, 75])
        assert res.quantiles["hellinger"][100] == tuple(float(q) for q in want)

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
