"""MLE unit truths: oracles on tiny samples, gradients, equivariance, nonexistence."""

import math

import numpy as np
import pytest

from sconcave.density import hellinger, reference, sample
from sconcave.mle import (FitConfig, UnsupportedInstanceError, demonstrate_nonexistence,
                          existence_threshold, fit, loglik_ratio, objective)


@pytest.fixture(scope="module")
def two_point_result():
    return fit([0.0, 1.0], FitConfig(s=0.0))


class TestTwoPointFit:
    """For data {0, 1} at s = 0 the estimator is the uniform density."""

    @pytest.fixture()
    def result(self, two_point_result):
        return two_point_result

    def test_flat(self, result):
        slopes = np.diff(result.phi_hat.values) / np.diff(result.phi_hat.knots)
        assert np.max(np.abs(slopes)) <= 1e-6

    def test_unit_integral(self, result):
        assert abs(result.density.integral - 1.0) <= 1e-8

    def test_loglik_zero(self, result):
        assert result.loglik == pytest.approx(0.0, abs=1e-8)

    def test_grid_search_oracle(self):
        # profile objective over slope b: f(b) = b/2 - log((e^b - 1)/b)
        def f(b):
            if abs(b) < 1e-12:
                return 0.0
            return b / 2.0 - math.log((math.exp(b) - 1.0) / b)

        grid = np.linspace(-5, 5, 20001)
        best = max(grid, key=f)
        assert abs(best) < 1e-3
        assert f(0.0) == pytest.approx(0.0)


class TestThreePointFit:
    def test_against_symmetric_oracle(self):
        data = [0.0, 0.5, 1.0]
        res = fit(data, FitConfig(s=0.0))

        # symmetric two-parameter profile: values (w, w + d, w); concavity
        # of the tent requires d >= 0
        def obj(d):
            if abs(d) < 1e-12:
                return 0.0
            z = (math.exp(d) - 1.0) / d
            return d / 3.0 - math.log(z)

        grid = np.linspace(0.0, 3.0, 100001)
        oracle = max(obj(d) for d in grid)
        assert res.loglik == pytest.approx(oracle, abs=1e-4)


class TestObjective:
    def test_flat_values(self):
        L, g = objective([0.0, 0.0], [0.0, 1.0], 0.0)
        assert L == pytest.approx(-1.0)
        L2, _ = objective([-1.0, -1.0], [0.0, 1.0], -0.5)
        assert L2 == pytest.approx(-1.0)

    def test_shift_calculus_identity(self):
        # moving all values by +t gives L(t) = t - e^t, maximal at t = 0
        for t in (-0.5, 0.0, 0.5):
            L, _ = objective([t, t], [0.0, 1.0], 0.0)
            assert L == pytest.approx(t - math.exp(t))

    @pytest.mark.parametrize("s", [0.0, -0.5, -0.25, 0.5])
    def test_gradient_matches_finite_differences(self, s):
        rng = np.random.default_rng(int(abs(s) * 100) + 1)
        data = np.sort(rng.normal(size=12))
        worst = 0.0
        for _ in range(100):
            if s == 0:
                vals = rng.normal(scale=0.8, size=12)
            elif s < 0:
                vals = -rng.uniform(0.3, 3.0, size=12)
            else:
                vals = rng.uniform(0.3, 3.0, size=12)
            L, g = objective(vals, data, s)
            fd = np.zeros_like(g)
            for j in range(vals.size):
                e = np.zeros_like(vals)
                e[j] = 1e-6
                fd[j] = (objective(vals + e, data, s)[0]
                         - objective(vals - e, data, s)[0]) / 2e-6
            rel = np.max(np.abs(fd - g) / np.maximum(np.abs(g), 1e-8))
            worst = max(worst, rel)
        assert worst < 1e-5

    def test_range_violation(self):
        with pytest.raises(ValueError):
            objective([0.5, -1.0], [0.0, 1.0], -0.5)


def _concavify(x, v, anchor_w):
    """Project values onto the concave cone: PAV on slopes, mean-anchored."""
    from scipy.optimize import isotonic_regression
    if v.size <= 2:
        return v.copy()
    dx = np.diff(x)
    iso = isotonic_regression(np.diff(v) / dx, weights=dx, increasing=False).x
    rebuilt = np.concatenate(([0.0], np.cumsum(iso * dx)))
    rebuilt += np.average(v - rebuilt, weights=anchor_w)
    return rebuilt


class TestFitProperties:
    def test_affine_equivariance(self):
        data = sample(reference("laplace"), 50, 9)
        cfg = FitConfig(s=0.0)
        base = fit(data, cfg)
        a, b = 2.5, -3.0
        moved = fit(a * data + b, cfg)
        grid = np.linspace(data.min(), data.max(), 301)
        d1 = base.density.pdf(grid)
        d2 = moved.density.pdf(a * grid + b) * a
        assert np.max(np.abs(d1 - d2) / np.maximum(d1, 1e-12)) < 1e-6

    def test_support_is_data_range(self):
        data = sample(reference("gaussian"), 40, 3)
        res = fit(data, FitConfig(s=0.0))
        assert res.density.support == (data.min(), data.max())

    def test_single_knot_perturbation_certificate(self):
        # no single-knot poke, projected back onto the concave cone, gains;
        # the second input once certified only through a perturbation drain
        from sconcave.mle import _Problem
        from sconcave.rate_harness import derived_seed
        for n, seed in ((60, 21), (6400, derived_seed(20260809, 6, 16))):
            data = sample(reference("laplace"), n, seed)
            res = fit(data, FitConfig(s=0.0))
            assert res.converged
            prob = _Problem(data, 0.0)
            v = res.phi_hat.eval(prob.knots)
            base, _ = prob.value_and_grad(v)
            rng = np.random.default_rng(0)
            for j in rng.choice(prob.n_knots, size=min(25, prob.n_knots), replace=False):
                for sgn in (1.0, -1.0):
                    w = v.copy()
                    w[j] += sgn * 1e-4
                    w = _concavify(prob.knots, w, prob.weights)
                    val, _ = prob.value_and_grad(w)
                    assert val <= base + 1e-8

    def test_monotone_class_nesting(self):
        data = sample(reference("laplace"), 50, 9)
        l0 = fit(data, FitConfig(s=0.0)).loglik
        lm = fit(data, FitConfig(s=-0.5)).loglik
        assert lm >= l0 - 1e-8

    def test_loglik_ratio_nonnegative_vs_truth(self):
        dist = reference("laplace")
        data = sample(dist, 200, 5)
        res = fit(data, FitConfig(s=0.0))
        assert loglik_ratio(res, dist, data) >= -1e-9

    def test_loglik_ratio_zero_against_self(self):
        data = sample(reference("uniform"), 30, 2)
        res = fit(data, FitConfig(s=0.0))
        assert loglik_ratio(res, res.density, data) == pytest.approx(0.0, abs=1e-12)

    def test_loglik_ratio_rejects_vanishing_reference(self):
        data = [0.0, 0.5, 1.0, 2.0]
        res = fit(data, FitConfig(s=0.0))
        u = reference("uniform")  # vanishes at 2.0
        with pytest.raises(ValueError):
            loglik_ratio(res, u, data)

    def test_hellinger_sanity_on_moderate_sample(self):
        dist = reference("laplace")
        data = sample(dist, 400, 11)
        res = fit(data, FitConfig(s=0.0))
        assert res.converged
        assert hellinger(res.density, dist) < 0.12


class TestExistence:
    def test_thresholds(self):
        assert existence_threshold(0.0) == 2
        assert existence_threshold(0.5) == 2
        assert existence_threshold(-0.5) == 2         # gamma = 2
        assert existence_threshold(-0.75) == 4        # gamma = 4/3: ratio exactly 4
        assert existence_threshold(-0.9) == 10        # gamma = 10/9: ratio exactly 10
        assert existence_threshold(-0.7) == 4         # gamma = 10/7: ratio 10/3 -> 4

    def test_below_threshold_raises(self):
        with pytest.raises(UnsupportedInstanceError):
            fit([1.0], FitConfig(s=0.0))
        with pytest.raises(UnsupportedInstanceError):
            fit([1.0, 2.0, 3.0], FitConfig(s=-0.75))

    def test_degenerate_data(self):
        with pytest.raises(UnsupportedInstanceError):
            fit([1.0, 1.0, 1.0], FitConfig(s=0.0))

    def test_config_rejects_s_at_minus_one(self):
        with pytest.raises(ValueError):
            FitConfig(s=-1.0)


class TestNonexistence:
    def test_critical_scale_value(self):
        # r = 1/2 gives (1 - r)^(1/(1-r)) = 0.25
        path = demonstrate_nonexistence([1.0], -2.0, 4)
        a_crit = 0.25
        for k, (a, _) in enumerate(path, start=1):
            assert a == pytest.approx(a_crit * (1 - 10.0 ** -k), rel=1e-12)

    def test_strictly_increasing_and_divergent(self):
        path = demonstrate_nonexistence([1.0], -2.0, 8)
        lls = [ll for _, ll in path]
        assert all(b > a for a, b in zip(lls, lls[1:]))
        assert lls[7] - lls[3] > 3.0

    def test_path_integrals_exact(self):
        # the closed form b_r^(1-r) / (1-r) equals one by construction;
        # re-verify numerically for a few scales
        from scipy import integrate as sintegrate
        r, b_r = 0.5, 0.25
        for a in (0.1, 0.2):
            val, _ = sintegrate.quad(lambda x: a * (b_r - a * x) ** -r,
                                     0.0, b_r / a, limit=200)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_rejects_wrong_s_and_data(self):
        with pytest.raises(ValueError):
            demonstrate_nonexistence([1.0], -0.5)
        with pytest.raises(ValueError):
            demonstrate_nonexistence([-1.0, 2.0], -2.0)


def _kink_setup(s, seed=3, n=40, m=7):
    from sconcave.mle import _ActiveSet, _Problem
    rng = np.random.default_rng(seed)
    data = np.round(rng.normal(size=n), 2)  # rounding leaves ties: weights differ
    prob = _Problem(data, s)
    kinks = rng.choice(np.arange(1, prob.n_knots - 1), size=m - 2, replace=False)
    active = _ActiveSet(prob, kinks)
    if s == 0:
        u = rng.normal(scale=0.8, size=m)
    elif s < 0:
        u = -rng.uniform(0.3, 3.0, size=m)
    else:
        u = rng.uniform(0.3, 3.0, size=m)
    T = np.column_stack([np.interp(prob.knots, active.xk, e) for e in np.eye(m)])
    return data, active, u, T


class TestKinkSpaceKernel:
    """value_grad_hess against the full-space objective at expand(u)."""

    @pytest.mark.parametrize("s", [0.0, -0.5, 0.5])
    def test_value_and_gradient(self, s):
        for seed in range(5):
            data, active, u, T = _kink_setup(s, seed)
            val, grad, _, _ = active.value_grad_hess(u)
            full_val, full_grad = objective(active.expand(u), data, s)
            assert val == pytest.approx(full_val, rel=1e-12, abs=0)
            np.testing.assert_allclose(grad, T.T @ full_grad, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("s", [0.0, -0.5, 0.5])
    def test_hessian_matches_gradient_differences(self, s):
        for seed in range(5):
            _, active, u, _ = _kink_setup(s, seed)
            _, _, diag, off = active.value_grad_hess(u)
            H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            h = 1e-6
            fd = np.column_stack([
                (active.value_grad_hess(u + h * e)[1]
                 - active.value_grad_hess(u - h * e)[1]) / (2 * h)
                for e in np.eye(u.size)])
            scale = np.max(np.abs(H))
            np.testing.assert_allclose(fd, H, rtol=0, atol=1e-7 * scale)

    def test_segment_ends_are_exact(self):
        # kinks sit on segment boundaries with lam = 0; the last knot has lam = 1
        _, active, u, _ = _kink_setup(0.0)
        np.testing.assert_array_equal(active.expand(u)[active.kinks], u)
        assert active.lam[active.kinks[:-1]].tolist() == [0.0] * (u.size - 1)
        assert active.lam[-1] == 1.0


class TestSecondDerivativeKernels:
    """E'' and g'' against quadrature on both sides of their series switches."""

    POINTS = [0.0, 1e-5, -1e-5, 9e-3, -9e-3, 1.1e-2, -1.1e-2, 0.049, -0.049,
              0.051, -0.051, 0.7, -0.7, 6.0, -6.0]

    def test_exprel_second(self):
        from scipy import integrate as sintegrate
        from sconcave.mle import _exprel
        d = np.array(self.POINTS)
        E, Ep, Epp = _exprel(d, second=True)
        E0, Ep0 = _exprel(d)
        np.testing.assert_array_equal(E, E0)
        np.testing.assert_array_equal(Ep, Ep0)
        want = [sintegrate.quad(lambda t: t * t * math.exp(di * t), 0, 1,
                                epsabs=0, epsrel=1e-13)[0] for di in d]
        np.testing.assert_allclose(Epp, want, rtol=1e-11)

    @pytest.mark.parametrize("q", [-2.0, 2.0, -4.0, 10.0 / 3.0])
    def test_power_mean_second(self, q):
        from scipy import integrate as sintegrate
        from sconcave.mle import _power_mean_g
        rho = np.array(self.POINTS[:-1])  # rho > -1
        g, gp, gpp = _power_mean_g(rho, q, second=True)
        g0, gp0 = _power_mean_g(rho, q)
        np.testing.assert_array_equal(g, g0)
        np.testing.assert_array_equal(gp, gp0)
        want = [q * (q - 1) * sintegrate.quad(lambda t: t * t * (1 + r * t) ** (q - 2), 0, 1,
                                              epsabs=0, epsrel=1e-13)[0] for r in rho]
        np.testing.assert_allclose(gpp, want, rtol=1e-9)


class TestKnownDefects:
    """Fixed-seed regressions for fits that raised, overran their budget or
    claimed convergence above ``grad_tol``."""

    def test_repair_guard_covers_slope_resolution(self):
        from sconcave.mle import _repair_concavity
        # a linear function over a 1e-9 gap: rounding makes its slopes jitter
        x = np.array([-2.280258602312189, -1.19582816467109, -1.0027376871264224,
                      -1.0027376861264223, 0.7668178889702638, 1.1818079443533893])
        out = _repair_concavity(x, 5.0 - 0.5 * x)
        assert np.all(np.diff(np.diff(out) / np.diff(x)) <= 0)

    @pytest.mark.parametrize("law, n, seed", [
        ("laplace", 6400, "derived"), ("laplace", 25600, 1), ("laplace", 25600, 3),
        ("laplace", 25600, 5), ("gaussian", 25600, 5)])
    def test_fit_certifies_at_grad_tol(self, law, n, seed):
        # these fits once returned converged=True with kkt_residual above grad_tol
        from sconcave.rate_harness import derived_seed
        if seed == "derived":
            seed = derived_seed(20260809, 6, 16)  # acceptance replication (n index 6, rep 16)
        cfg = FitConfig(s=0.0)
        res = fit(sample(reference(law), n, seed=seed), cfg)
        assert res.converged and res.kkt_residual <= cfg.grad_tol
        assert abs(res.density.integral - 1.0) <= 1e-8
        assert res.iterations <= cfg.max_iterations

    @pytest.mark.parametrize("cap", [5, 20, 50])
    def test_iteration_budget_is_hard(self, cap):
        data = sample(reference("pareto"), 1600, seed=3)
        res = fit(data, FitConfig(s=-0.5, max_iterations=cap))
        assert res.iterations <= cap
        assert not res.converged
        assert abs(res.density.integral - 1.0) <= 1e-8
