"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
they also appear in the captured output of failures).  The two Monte Carlo
studies are shared session fixtures, so the whole gate runs the fits once.
"""

import math

import numpy as np
import pytest

from sconcave.density import envelope_for_class, check_envelope, member_of_class
from sconcave.entropy import (BoundedConcaveClass, TailClass, build_cover,
                              entropy_curve, sample_density_class_members,
                              sample_members, verify_bracketing)
from sconcave.mle import FitConfig, demonstrate_nonexistence, fit, objective
from sconcave.rate_harness import (RateStudyConfig, entropy_integral,
                                   rate_equation_check, run_rate_study)
from sconcave.transforms import Transform

N_GRID = (100, 200, 400, 800, 1600, 3200, 6400)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def laplace_study():
    cfg = RateStudyConfig(true_density="laplace", s=0.0, n_grid=N_GRID,
                          replications=100, seed=20260809,
                          metrics=("hellinger", "l1", "loglr", "sup_compact"))
    return run_rate_study(cfg)


@pytest.fixture(scope="session")
def pareto_study():
    cfg = RateStudyConfig(true_density="pareto", s=-0.5, beta=3.0, n_grid=N_GRID,
                          replications=50, seed=777, metrics=("hellinger",))
    return run_rate_study(cfg)


class TestHellingerRate:
    def test_laplace_slope(self, laplace_study):
        slope, _ = laplace_study.slopes["hellinger"]
        report("hellinger-rate (laplace, s=0)", -0.50 <= slope <= -0.30,
               f"median log-log slope {slope:.4f} in [-0.50, -0.30]")

    def test_study_healthy(self, laplace_study):
        total = len(N_GRID) * 100
        report("hellinger-rate study health", not laplace_study.flagged_invalid,
               f"{laplace_study.excluded}/{total} replications excluded (<= 5%)")


class TestSConcaveRate:
    def test_pareto_slope(self, pareto_study):
        slope, _ = pareto_study.slopes["hellinger"]
        report("s-concave rate (pareto beta=3, s=-1/2)", -0.55 <= slope <= -0.25,
               f"median log-log slope {slope:.4f} in [-0.55, -0.25]")

    def test_study_healthy(self, pareto_study):
        total = len(N_GRID) * 50
        report("s-concave study health", not pareto_study.flagged_invalid,
               f"{pareto_study.excluded}/{total} replications excluded (<= 5%)")


class TestLogLikelihoodRatioRate:
    def test_slope(self, laplace_study):
        slope, _ = laplace_study.slopes["loglr"]
        report("log-LR rate (laplace)", -0.95 <= slope <= -0.65,
               f"median log-log slope {slope:.4f} in [-0.95, -0.65]")


class TestL1Rate:
    def test_slope(self, laplace_study):
        slope, _ = laplace_study.slopes["l1"]
        report("L1 rate (laplace)", -0.50 <= slope <= -0.30,
               f"median log-log slope {slope:.4f} in [-0.50, -0.30]")

    def test_per_replication_inequality(self, laplace_study):
        h = laplace_study.raw["hellinger"]
        l1 = laplace_study.raw["l1"]
        ok = np.isfinite(h) & np.isfinite(l1)
        worst = float(np.max(l1[ok] - 2.0 * math.sqrt(2.0) * h[ok]))
        report("L1 <= 2 sqrt(2) H per replication", worst <= 1e-9,
               f"max violation {worst:.3e} <= 1e-9")


class TestNonexistence:
    def test_diverging_path(self):
        path = demonstrate_nonexistence([1.0], -2.0, 8)
        a_vals = [a for a, _ in path]
        lls = [ll for _, ll in path]
        expected_a = [0.25 * (1 - 10.0 ** -k) for k in range(1, 9)]
        grid_ok = np.allclose(a_vals, expected_a, rtol=1e-12)
        increasing = all(b > a for a, b in zip(lls, lls[1:]))
        climb = lls[7] - lls[3]
        report("non-existence (s=-2, data {1})",
               grid_ok and increasing and climb > 4.0,
               f"strictly increasing {increasing}, climb l(8)-l(4) = {climb:.3f} > 4; "
               "path densities integrate to 1 within 1e-10 (checked inside)")


class TestEntropyExponent:
    def test_bounded_concave(self):
        desc = BoundedConcaveClass(0.0, 1.0, 1.0)
        eps_grid = [0.2, 0.1, 0.05, 0.025]
        curve = entropy_curve(desc, eps_grid, 1.0)
        members = sample_members(desc, 200, 4242)
        cover_ok, size_ok = True, True
        for eps in eps_grid:
            bset = build_cover(desc, eps, 1.0)
            rep = verify_bracketing(bset, members)
            cover_ok &= rep.covered_fraction == 1.0
            size_ok &= rep.max_observed_size <= bset.size_bound
        report("entropy exponent (bounded concave, r=1)",
               0.4 <= curve.exponent <= 0.7 and cover_ok and size_ok,
               f"fitted exponent {curve.exponent:.4f} in [0.4, 0.7]; "
               f"coverage 1.0 on 200 members; sizes within the declared bound")

    def test_tail_class(self):
        desc = TailClass(Transform.power(-1.0), 2.0)
        eps_grid = [0.12, 0.06, 0.03, 0.015]
        curve = entropy_curve(desc, eps_grid, 2.0)
        members = sample_members(desc, 200, 99)
        cover_ok, size_ok = True, True
        for eps in eps_grid:
            bset = build_cover(desc, eps, 2.0)
            rep = verify_bracketing(bset, members)
            cover_ok &= rep.covered_fraction == 1.0
            size_ok &= rep.max_observed_size <= bset.size_bound
        report("entropy exponent (tail class, r=2)",
               0.4 <= curve.exponent <= 0.7 and cover_ok and size_ok,
               f"fitted exponent {curve.exponent:.4f} in [0.4, 0.7]; "
               f"coverage 1.0 on 200 members; sizes within the declared bound")

    def test_tail_class_holding_many_densities(self):
        # at M = 2 the class holds only the uniform density on [-1, 1]; at
        # M = 4 the members differ in support and shape
        desc = TailClass(Transform.power(-1.0), 4.0)
        members = sample_members(desc, 100, 99)
        cover_ok, worst = True, 0.0
        for eps in [0.12, 0.06, 0.03, 0.015]:
            bset = build_cover(desc, eps, 2.0)
            rep = verify_bracketing(bset, members)
            cover_ok &= rep.covered_fraction == 1.0
            worst = max(worst, rep.max_observed_size / bset.size_bound)
        report("bracketing coverage (tail class s=-1, M=4, r=2)",
               cover_ok and worst <= 1.0,
               f"coverage 1.0 on 100 members; worst size slack {worst:.3f} <= 1")


class TestEnvelope:
    def test_l_closed_form(self):
        env = envelope_for_class(1.0, Transform.power(-0.5))
        err = abs(env.L - (math.sqrt(2.0) - 1.0))
        report("envelope constant L at (M=1, s=-1/2)", err <= 1e-12,
               f"|L - (sqrt(2)-1)| = {err:.2e} <= 1e-12")

    @pytest.mark.parametrize("s", [-0.5, -0.25, 0.0])
    @pytest.mark.parametrize("M", [1.0, 5.0])
    def test_domination(self, s, M):
        t = Transform.power(s)
        grid = np.linspace(-4.0 * M - 4.0, 4.0 * M + 4.0, 1000)
        # the sandwich class needs mass 2/M on [-1, 1]: it is empty for M < 2
        members = sample_density_class_members(t, M, 200 if M >= 2.0 else 0,
                                               seed=1234)
        ok = all(member_of_class(p, M) and check_envelope(p, M, grid)
                 for p in members)
        label = f"envelope domination (s={s}, M={M})"
        if members:
            report(label, ok, f"200/200 sampled members dominated pointwise")
        else:
            report(label, True, "class is empty (mass constraint); vacuous")


class TestMleUnitTruths:
    def test_two_point_uniform(self):
        res = fit([0.0, 1.0], FitConfig(s=0.0))
        slopes = np.diff(res.phi_hat.values) / np.diff(res.phi_hat.knots)
        slope_ok = float(np.max(np.abs(slopes))) <= 1e-6
        int_ok = abs(res.density.integral - 1.0) <= 1e-8
        report("MLE unit truth: fit({0,1}, s=0) is uniform",
               slope_ok and int_ok,
               f"|slope| = {float(np.max(np.abs(slopes))):.2e} <= 1e-6, "
               f"|integral - 1| = {abs(res.density.integral - 1.0):.2e} <= 1e-8")

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2026)
        data = np.sort(rng.normal(size=15))
        worst = 0.0
        for trial in range(100):
            s = float(rng.choice([0.0, -0.5, -0.25, 0.5]))
            if s == 0:
                vals = rng.normal(scale=0.7, size=15)
            elif s < 0:
                vals = -rng.uniform(0.3, 3.0, size=15)
            else:
                vals = rng.uniform(0.3, 3.0, size=15)
            _, g = objective(vals, data, s)
            fd = np.zeros_like(g)
            for j in range(15):
                e = np.zeros(15)
                e[j] = 1e-6
                fd[j] = (objective(vals + e, data, s)[0]
                         - objective(vals - e, data, s)[0]) / 2e-6
            worst = max(worst, float(np.max(np.abs(fd - g)
                                            / np.maximum(np.abs(g), 1e-8))))
        report("MLE unit truth: gradient vs finite differences",
               worst < 1e-5, f"max relative error {worst:.2e} < 1e-5 "
               "over 100 random feasible points")

    def test_affine_equivariance(self):
        from sconcave.density import reference, sample
        data = sample(reference("laplace"), 60, 17)
        base = fit(data, FitConfig(s=0.0))
        a, b = 1.7, 2.3
        moved = fit(a * data + b, FitConfig(s=0.0))
        grid = np.linspace(float(data.min()), float(data.max()), 401)
        d1 = base.density.pdf(grid)
        d2 = moved.density.pdf(a * grid + b) * a
        rel = float(np.max(np.abs(d1 - d2) / np.maximum(d1, 1e-12)))
        report("MLE unit truth: affine equivariance", rel <= 1e-6,
               f"max relative density mismatch {rel:.2e} <= 1e-6")


class TestRateEquation:
    def test_bookkeeping(self, entropy_integral_quadrature):
        # K from the measured entropy curve of the r=2 tail class
        desc = TailClass(Transform.power(-1.0), 2.0)
        bset = build_cover(desc, 0.05, 2.0)
        K = bset.log_cardinality * math.sqrt(0.05)
        j_err = max(abs(entropy_integral(K, d) - entropy_integral_quadrature(K, d))
                    / entropy_integral(K, d) for d in (0.1, 1.0))
        out = rate_equation_check(K, [100, 1000, 10_000, 100_000])
        tight = all(abs(row["ratio"] - 1.0) <= 1e-12 for row in out["per_n"])
        report("rate equation r_n^2 Psi(1/r_n) <= sqrt(n)",
               j_err <= 1e-10 and out["c_admissible"] > 0 and tight,
               f"J quadrature relative error {j_err:.2e} <= 1e-10; "
               f"admissible c = {out['c_admissible']:.3e} > 0 for all n in "
               "{1e2, 1e3, 1e4, 1e5}")


class TestConsistencyDiagnostics:
    def test_sup_distance_trend(self, laplace_study):
        med_small = laplace_study.quantiles["sup_compact"][100][1]
        med_large = laplace_study.quantiles["sup_compact"][6400][1]
        report("consistency: sup distance on [-1,1] shrinks",
               med_large < med_small,
               f"median sup-dist {med_large:.4f} (n=6400) < {med_small:.4f} (n=100)")

    def test_sup_of_fit_bounded(self, laplace_study):
        sup_phat = laplace_study.sup_phat[-1]  # n = 6400 row
        sup_phat = sup_phat[np.isfinite(sup_phat)]
        frac = float(np.mean(sup_phat <= 0.5 + 0.2))
        report("consistency: sup of fit near the true mode height",
               frac >= 0.90,
               f"{frac:.0%} of n=6400 replications within +0.2 of the mode height")
