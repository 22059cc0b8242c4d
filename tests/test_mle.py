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
        for values, s in (([0.5, -1.0], -0.5), ([-math.inf, -1.0], -0.5),
                          ([math.inf, 1.0], 0.5), ([math.inf, 1.0], 0.0)):
            with pytest.raises(ValueError):
                objective(values, [0.0, 1.0], s)

    def test_stored_kernel_values(self, bench_fixture):
        # the benchmark's nine fixed objective points and their committed values
        specs, load = bench_fixture
        stored = load("objective_kernel.json")
        for sk, s in specs.KERNEL_S.items():
            for nk, n in specs.KERNEL_N.items():
                want = stored[f"mle.objective.{sk}.{nk}.us"]
                x, v = specs.kernel_inputs(s, n)
                value, grad = objective(v, x, s)
                assert value == pytest.approx(want["value"], rel=1e-12, abs=0)
                assert np.linalg.norm(grad) == pytest.approx(want["grad_norm"], rel=1e-12, abs=0)


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

    def test_config_rejects_nonfinite_s(self):
        for s in (math.inf, math.nan):
            with pytest.raises(ValueError):
                FitConfig(s=s)

    def test_config_rejects_nonfinite_grad_tol(self):
        for grad_tol in (math.inf, math.nan):
            with pytest.raises(ValueError):
                FitConfig(s=0.0, grad_tol=grad_tol)

    @pytest.mark.parametrize("max_iterations", [0, -3, 2.5])
    def test_config_rejects_a_budget_below_one_evaluation(self, max_iterations):
        # 0 and -3 returned the flat pilot, 2.5 spent 3 evaluations
        with pytest.raises(ValueError, match="max_iterations"):
            FitConfig(s=0.0, max_iterations=max_iterations)


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

    def test_rejects_a_grid_below_two_points(self):
        for size in (0, 1):
            with pytest.raises(ValueError, match="at least 2"):
                demonstrate_nonexistence([1.0], -2.0, size)


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


def _assert_same_set(got, want):
    """An _ActiveSet changed in place equals a fresh build, bit for bit."""
    for name in ("kinks", "xk", "dxk", "seg", "off"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    if got.prob.s == 0:
        np.testing.assert_array_equal(got.data_grad, want.data_grad)
    else:
        assert got.wts.shape == (5, got.prob.n_knots) and got.wts.flags.c_contiguous
        np.testing.assert_array_equal(got.wts, want.wts)


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

    @pytest.mark.parametrize("s", [0.0, -0.5, 0.5])
    def test_flat_kink_drop_carries_the_evaluation(self, s):
        # a kink on its neighbours' line: the chain-rule state is the fresh
        # one, and the set that lost the kink in place is a fresh build
        from sconcave.mle import _ActiveSet, _drop_flat_kink
        for seed in range(5):
            _, base, u, _ = _kink_setup(s, seed)
            for k in range(1, u.size - 1):  # the first and last interior kink too
                active = _ActiveSet(base.prob, base.kinks)
                xk = active.xk
                mu = (xk[k] - xk[k - 1]) / (xk[k + 1] - xk[k - 1])
                u_flat = u.copy()
                u_flat[k] = (1.0 - mu) * u[k - 1] + mu * u[k + 1]
                u_red, carried = _drop_flat_kink(
                    active, u_flat, k, active.value_grad_hess(u_flat))
                np.testing.assert_array_equal(u_red, np.delete(u_flat, k))
                fresh = _ActiveSet(base.prob, np.delete(base.kinks, k))
                _assert_same_set(active, fresh)
                want = fresh.value_grad_hess(u_red)
                assert carried[0] == pytest.approx(want[0], rel=1e-12, abs=0)
                for got, w in zip(carried[1:], want[1:]):
                    np.testing.assert_allclose(got, w, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("s", [0.0, -0.5, 0.5])
    def test_insertions_match_a_fresh_build(self, s):
        # 1-3 new kinks, some in one segment, some in the end segments; a
        # drop after them must match a fresh build as well
        from sconcave.mle import _ActiveSet
        first = last = False
        for seed in range(12):
            _, base, _, _ = _kink_setup(s, seed)
            rng = np.random.default_rng(100 + seed)
            free = np.setdiff1d(np.arange(1, base.prob.n_knots - 1), base.kinks)
            for size in (1, 2, 3):
                picks = [rng.choice(free, size=size, replace=False)]
                picks.append(free[:size])   # crowd the first segment
                picks.append(free[-size:])  # and the last
                for new in picks:
                    active = _ActiveSet(base.prob, base.kinks)
                    active.insert(new)
                    kinks = np.union1d(base.kinks, new)
                    _assert_same_set(active, _ActiveSet(base.prob, kinks))
                    first |= kinks[1] != base.kinks[1]
                    last |= kinks[-2] != base.kinks[-2]
                    k = int(rng.integers(1, kinks.size - 1))
                    active.drop(k)
                    _assert_same_set(active, _ActiveSet(base.prob, np.delete(kinks, k)))
        assert first and last  # new first and last interior kinks were covered

    @pytest.mark.parametrize("s", [0.0, -0.5, 0.5])
    def test_expand_is_interp(self, s):
        # expand reads the stored offsets; it must give np.interp's bits at
        # every knot, the last one included, on fresh sets and after moves
        rng = np.random.default_rng(31)
        for seed in range(8):
            _, active, u, _ = _kink_setup(s, seed, m=int(rng.integers(2, 12)))
            for move in ("fresh", "insert", "drop"):
                if move == "insert":
                    free = np.setdiff1d(np.arange(1, active.prob.n_knots - 1), active.kinks)
                    active.insert(rng.choice(free, size=3, replace=False))
                elif move == "drop" and active.kinks.size > 2:
                    active.drop(int(rng.integers(1, active.kinks.size - 1)))
                u = u[0] + (active.xk - active.xk[0]) * 0.01 + rng.normal(
                    scale=0.05, size=active.kinks.size)
                if s != 0:
                    u = np.abs(u) + 0.3 if s > 0 else -np.abs(u) - 0.3
                got = active.expand(u)
                np.testing.assert_array_equal(got, np.interp(active.prob.knots, active.xk, u))
                assert got[-1] == u[-1]

    @pytest.mark.parametrize("s, bad", [(-0.5, 0.0), (-0.5, -1e-11), (0.5, 0.0), (0.5, -0.2)])
    def test_kink_value_outside_the_range(self, s, bad):
        # outside h's capped range [lo, hi] the objective is -inf, decided on
        # the kink values before any knot is evaluated (and without a warning)
        _, active, u, _ = _kink_setup(s, 3)
        for k in (0, u.size // 2, u.size - 1):
            u_bad = u.copy()
            u_bad[k] = bad
            assert active.value_grad_hess(u_bad) == (-math.inf, None, None, None)

    def test_segment_ends_are_exact(self):
        # kinks sit on segment boundaries at offset 0 (lam = 0); the last
        # knot sits at the full length of the last segment (lam = 1)
        _, active, u, _ = _kink_setup(0.0)
        np.testing.assert_array_equal(active.expand(u)[active.kinks], u)
        assert active.off[active.kinks[:-1]].tolist() == [0.0] * (u.size - 1)
        assert active.off[-1] == active.dxk[-1]


def _max_step_reference(active, u, du):
    """The array form of _ActiveSet.max_step: the range cap, then the first
    smallest step that closes a rising kink."""
    t_cap = math.inf
    for bound, grow in ((active.prob.hi, du > 1e-300), (active.prob.lo, du < -1e-300)):
        if math.isfinite(bound) and np.any(grow):
            with np.errstate(divide="ignore"):
                t_cap = min(t_cap, float(np.min(np.abs(bound - u[grow]) / np.abs(du[grow]))))
    if active.kinks.size < 3:
        return t_cap, None
    s0 = np.diff(u) / active.dxk
    ds = np.diff(du) / active.dxk
    c0, dc = np.diff(s0), np.diff(ds)
    rising = np.nonzero(dc > 1e-14)[0]
    if rising.size == 0:
        return t_cap, None
    t_i = np.maximum(0.0, -c0[rising]) / dc[rising]
    k = int(np.argmin(t_i))
    if t_cap < t_i[k]:
        return t_cap, None
    return float(t_i[k]), int(rising[k]) + 1


def _picks_reference(down, kinks, batch):
    """The full-sort pick of new kinks: all rates sorted, fastest first,
    equal rates highest knot first."""
    down = down.copy()
    inner = kinks[(kinks > 0) & (kinks < down.size + 1)]
    down[inner - 1] = -math.inf
    order = np.argsort(down, kind="stable")[::-1]
    threshold = 0.3 * down[order[0]] if down[order[0]] > 0 else math.inf
    picked = []
    for o in order:
        if down[o] <= 0 or down[o] < threshold or len(picked) >= batch:
            break
        knot = int(o) + 1
        if picked and any(abs(knot - t) <= 1 for t in picked):
            continue
        picked.append(knot)
    return picked


class TestRoundBookkeeping:
    """The float step bound and the partial-sort pick against their array
    and full-sort forms, exactly."""

    def test_max_step_matches_the_array_form(self):
        rng = np.random.default_rng(20261021)
        seen = set()
        for trial in range(600):
            s = (0.0, -0.5, 0.5)[trial % 3]
            _, active, u, _ = _kink_setup(s, trial % 10, m=int(rng.integers(2, 12)))
            m = u.size
            kind = int(rng.integers(4))
            du = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3)
            if kind == 1:  # slopes only fall: no kink rises
                du = -(active.xk - active.xk.mean()) ** 2
            elif kind == 2:  # flat u: every rising kink closes at t = 0, a tie
                u = np.full(m, u[0])
            elif kind == 3 and s != 0:  # push toward h's zero point: the cap binds
                du = du - 1e3 * np.sign(u) * np.abs(du).max()
            got = active.max_step(u, du)
            want = _max_step_reference(active, u, du)
            assert got == want
            rising = np.sum(np.diff(np.diff(du) / active.dxk) > 1e-14)
            if rising == 0:
                seen.add("no rising kink")
            elif got[1] is None:
                seen.add("cap binds")
            elif kind == 2 and rising >= 2:
                seen.add("tie")
        assert seen == {"no rising kink", "cap binds", "tie"}

    def test_kink_picks_match_the_full_sort(self, monkeypatch):
        from sconcave import mle
        rng = np.random.default_rng(5)
        _, active, _, _ = _kink_setup(0.0, 1, n=60, m=9)
        prob, kinks = active.prob, active.kinks
        grad = np.zeros(prob.n_knots)
        counts = {"none": 0, "full batch": 0}
        for trial in range(300):
            size = prob.n_knots - 2
            kind = trial % 3
            if kind == 0:
                down = rng.normal(size=size)
            elif kind == 1:  # a few levels: many equal rates
                down = rng.integers(-2, 4, size=size) * 0.25
            else:  # no knot ascends
                down = -np.abs(rng.normal(size=size)) * (rng.random(size) < 0.7)
            monkeypatch.setattr(mle, "_hinge_rates", lambda p, g, d=down: -d)
            _, picks = mle._certify(prob, grad, kinks)
            want = _picks_reference(down, kinks, mle.KINK_BATCH)
            assert picks.tolist() == want
            counts["none"] += not want
            counts["full batch"] += len(want) == mle.KINK_BATCH
        assert counts["none"] >= 100 and counts["full batch"] >= 50


class TestTridiagonalSolve:
    """_solve_tridiagonal against scipy.linalg.solveh_banded, bit for bit."""

    @staticmethod
    def _systems(seed, count=400):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            m = int(rng.integers(2, 61))
            mag = lambda size: 10.0 ** rng.uniform(-8, 8, size=size)  # noqa: E731
            e = mag(m - 1) * rng.choice([-1.0, 1.0], size=m - 1)
            d = mag(m)
            if rng.random() < 0.5:  # diagonally dominant: positive definite
                d += np.abs(np.concatenate(([0.0], e))) + np.abs(np.concatenate((e, [0.0])))
            b = mag(m) * rng.choice([-1.0, 1.0], size=m)
            yield d, e, b

    def test_matches_solveh_banded(self):
        from scipy.linalg import LinAlgError, solveh_banded
        from sconcave.mle import _solve_tridiagonal
        solved = rejected = 0
        for d, e, b in self._systems(20261020):
            got = _solve_tridiagonal(d, e, b)
            try:
                want = solveh_banded(np.vstack((np.concatenate(([0.0], e)), d)), b)
            except LinAlgError:
                assert got is None
                rejected += 1
                continue
            assert got is not None and np.array_equal(got, want, equal_nan=True)
            solved += 1
        assert solved > 100 and rejected > 20  # both outcomes are exercised

    def test_leaves_inputs_unchanged(self):
        from sconcave.mle import _solve_tridiagonal
        d, e, b = np.array([4.0, 5.0, 6.0]), np.array([1.0, -2.0]), np.array([1.0, 2.0, 3.0])
        copies = d.copy(), e.copy(), b.copy()
        _solve_tridiagonal(d, e, b)
        for arr, copy in zip((d, e, b), copies):
            np.testing.assert_array_equal(arr, copy)

    def test_nonfinite_solution_is_rejected(self):
        # a positive definite A whose solution overflows: the Newton step is
        # rejected like an indefinite one
        from sconcave.mle import _solve_tridiagonal
        d, e, b = np.array([1e-300, 1.0]), np.array([0.0]), np.array([1e300, 1.0])
        assert _solve_tridiagonal(d, e, b) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["d", "e", "b"])
    def test_nonfinite_input_raises(self, bad, where):
        from sconcave.mle import _solve_tridiagonal
        args = {"d": np.array([4.0, 5.0, 6.0]), "e": np.array([1.0, -2.0]),
                "b": np.array([1.0, 2.0, 3.0])}
        args[where][1] = bad
        with pytest.raises(ValueError):
            _solve_tridiagonal(args["d"], args["e"], args["b"])


class TestSecondDerivativeKernels:
    """E'' and g'' against quadrature on both sides of their series switches."""

    POINTS = [0.0, 1e-5, -1e-5, 9e-3, -9e-3, 1.1e-2, -1.1e-2, 0.049, -0.049,
              0.051, -0.051, 0.7, -0.7, 6.0, -6.0]

    def test_exprel_second(self):
        from scipy import integrate as sintegrate
        from sconcave.density import _exprel
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
        from sconcave.density import _power_mean_g
        ratio = 1.0 + np.array(self.POINTS[:-1])  # rho > -1
        rho = ratio - 1.0
        g, gp, gpp = _power_mean_g(ratio, q, second=True)
        g0, gp0 = _power_mean_g(ratio, q)
        np.testing.assert_array_equal(g, g0)
        np.testing.assert_array_equal(gp, gp0)
        want = [q * (q - 1) * sintegrate.quad(lambda t: t * t * (1 + r * t) ** (q - 2), 0, 1,
                                              epsabs=0, epsrel=1e-13)[0] for r in rho]
        np.testing.assert_allclose(gpp, want, rtol=1e-9)


class TestSeriesBranches:
    """The kernels skip a series branch that no entry needs; each entry gets
    the same bits alone as inside an array that needs both branches."""

    # both sides of the 1e-4, 1e-2 and 0.05 switches, plus far entries
    POINTS = [0.0, 3e-5, -3e-5, 9.9e-5, -1.01e-4, 5e-3, -5e-3, 1.1e-2, -0.049, 0.051,
              0.3, -0.7, 2.5, -6.0]

    def test_exprel(self):
        from sconcave.density import _exprel
        d = np.array(self.POINTS)
        for second in (False, True):
            mixed = _exprel(d, second)
            for i in range(d.size):
                alone = _exprel(d[i:i + 1], second)
                for a, b in zip(alone, mixed):
                    assert a.tobytes() == b[i:i + 1].tobytes(), (d[i], second)

    @pytest.mark.parametrize("q", [-2.0, -1.0, 2.0, -10.0 / 7.0, 4.0])
    def test_power_mean_g(self, q):
        from sconcave.density import _power_mean_g
        ratio = 1.0 + np.array(self.POINTS[:-1])  # rho > -1
        ratio = np.concatenate((ratio, [1e-9, 40.0]))  # steep segments
        for second in (False, True):
            mixed = _power_mean_g(ratio, q, second)
            for i in range(ratio.size):
                alone = _power_mean_g(ratio[i:i + 1], q, second)
                for a, b in zip(alone, mixed):
                    assert a.tobytes() == b[i:i + 1].tobytes(), (ratio[i], second)


class TestKnownDefects:
    """Fixed-seed regressions for fits that raised, overran their budget or
    claimed convergence above ``grad_tol``."""

    def test_repair_guard_covers_slope_resolution(self):
        from sconcave.mle import _bent_kinks
        # a linear function over a 1e-9 gap: rounding makes its slopes jitter;
        # the final kink set keeps the ends and only kinks whose slope drops
        x = np.array([-2.280258602312189, -1.19582816467109, -1.0027376871264224,
                      -1.0027376861264223, 0.7668178889702638, 1.1818079443533893])
        v = 5.0 - 0.5 * x
        keep = _bent_kinks(x, v)
        assert keep[0] == 0 and keep[-1] == x.size - 1
        assert np.all(np.diff(np.diff(v[keep]) / np.diff(x[keep])) < 0)
        np.testing.assert_array_equal(_bent_kinks(x[keep], v[keep]), np.arange(keep.size))

    def test_final_kinks_stay_in_the_transform_range(self):
        # the former slope repair moved a kink value to -1.26e-6, below h's
        # zero point at s = 1.5, and fit raised DomainError
        res = fit(np.random.default_rng(2).exponential(size=40) * 1e6, FitConfig(s=1.5))
        assert np.min(res.phi_hat.values) > 0
        assert abs(res.density.integral - 1.0) <= 1e-8

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
        slopes = np.diff(res.phi_hat.values) / np.diff(res.phi_hat.knots)
        assert np.all(np.diff(slopes) < 0)  # every interior knot bends

    @pytest.mark.xfail(strict=True, reason="a batch of 8 crowded kinks stalls the fit; "
                       "ROADMAP item 4's one kink per segment converges it")
    def test_log_concave_fit_does_not_stall(self):
        # a rate-laplace benchmark sample (run seed 702, study 208, n index 4):
        # the last round adds 8 kinks at knots 932-946, Newton drops back to
        # the same objective, and the stall rule ends the fit 3.4e-6 nats
        # short, with KKT 1.1e-6; grad_tol=1e-9 reaches the maximizer
        res = fit(sample(reference("laplace"), 3200, 3534249276), FitConfig(s=0.0))
        assert res.converged
        assert res.objective >= -2.699429676913 - 1e-9

    def test_kink_value_at_zero_is_outside_the_domain(self):
        # a Newton trial put a kink value at exactly 0.0, above hi = -1e-10,
        # and the objective took log(0): under -W error::RuntimeWarning the fit
        # raised; the budget still stops it uncertified (ROADMAP item 1)
        res = fit(sample(reference("pareto", 1.5), 800, 2), FitConfig(s=-0.9))
        assert res.iterations <= 2000
        assert abs(res.density.integral - 1.0) <= 1e-8

    @pytest.mark.xfail(strict=True, reason="the fit spends its budget and ends with a raw "
                       "integral gap above INTEGRAL_TOL; ROADMAP items 1 and 4")
    def test_pareto_fit_closes_its_integral_gap(self):
        # rate-pareto benchmark study 5 at run seed 601 (study seed 1041577528),
        # n = 6400, replication 0: KKT 8.1e-10 passes grad_tol, but the raw
        # integral gap is 7.0e-5 after all 2000 evaluations, so the study
        # excludes it; grad_tol=1e-9 with 20000 evaluations does not converge
        res = fit(sample(reference("pareto", 3.0), 6400, 45186480), FitConfig(s=-0.5))
        assert res.converged

    @pytest.mark.parametrize("law, beta, s, n, seed", [
        ("gaussian", 3.0, 0.0, 400, 1), ("pareto", 3.0, -0.5, 800, 2)])
    @pytest.mark.parametrize("cap", [2, 3, 5, 7, 10, 20, 50])
    def test_budget_stop_returns_only_bent_knots(self, law, beta, s, n, seed, cap):
        # a fit stopped by the budget once returned kinks inserted after the
        # last solve: never solved, they bent by rounding only (-2.5e-16)
        res = fit(sample(reference(law, beta), n, seed), FitConfig(s=s, max_iterations=cap))
        assert res.iterations <= cap
        slopes = np.diff(res.phi_hat.values) / np.diff(res.phi_hat.knots)
        assert np.all(np.diff(slopes) < -1e-12 * np.max(np.abs(slopes)))


class TestOnePassPerRound:
    """Each kink round evaluates the objective once and reads one pass of
    hinge rates, for the certificate and the next kinks alike; the returned
    iterate is not evaluated again."""

    @pytest.mark.parametrize("law, s, n, cap", [
        ("laplace", 0.0, 800, 2000), ("pareto", -0.5, 800, 2000),
        ("gaussian", 0.5, 200, 2000), ("gaussian", 0.0, 400, 7)])
    def test_calls_per_round(self, monkeypatch, law, s, n, cap):
        from sconcave import mle
        calls = {"round": 0, "value": 0, "hinge": 0}

        def counted(key, f):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mle, "_reduced_newton", counted("round", mle._reduced_newton))
        monkeypatch.setattr(mle, "_hinge_rates", counted("hinge", mle._hinge_rates))
        monkeypatch.setattr(mle._Problem, "value_and_grad",
                            counted("value", mle._Problem.value_and_grad))
        fit(sample(reference(law), n, seed=4), FitConfig(s=s, max_iterations=cap))
        assert calls["round"] >= 2
        assert calls["value"] == calls["round"]
        assert calls["hinge"] == calls["round"]
