"""Transform evaluation, inversion, the assumption table, and the s-concavity test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sconcave.density import reference
from sconcave.transforms import (Transform, TransformDomainError, check_assumptions,
                                 check_s_concavity)


class TestConstruction:
    # (s, y0_tilde, yinf_tilde, alpha, beta) as derived from s alone; the
    # exp member (s = 0 or -0.0) stores s = 0.0
    @pytest.mark.parametrize("s,expected", [
        (-2.5, (-2.5, -math.inf, 0.0, 0.4, 0.4)),
        (-1.0, (-1.0, -math.inf, 0.0, 1.0, 1.0)),
        (-0.5, (-0.5, -math.inf, 0.0, 2.0, 2.0)),
        (0.0, (0.0, -math.inf, math.inf, 2.0, None)),
        (-0.0, (0.0, -math.inf, math.inf, 2.0, None)),
        (0.25, (0.25, 0.0, math.inf, 2.0, None)),
        (0.5, (0.5, 0.0, math.inf, 2.0, None)),
        (2.0, (2.0, 0.0, math.inf, 2.0, None)),
    ])
    def test_derived_attributes(self, s, expected):
        t = Transform.power(s)
        assert (t.s, t.y0_tilde, t.yinf_tilde, t.alpha, t.beta) == expected
        assert math.copysign(1.0, t.s) == math.copysign(1.0, expected[0])

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_s(self, s):
        with pytest.raises(ValueError):
            Transform.power(s)


class TestEval:
    def test_log_concave_at_zero(self):
        assert Transform.power(0.0).eval(0.0) == 1.0

    def test_negative_power(self):
        assert Transform.power(-0.5).eval(-2.0) == pytest.approx(0.25, rel=1e-14)

    def test_positive_power(self):
        assert Transform.power(0.5).eval(4.0) == pytest.approx(16.0, rel=1e-14)

    def test_extended_values(self):
        t = Transform.power(-0.5)
        assert t.eval(-math.inf) == 0.0
        assert t.eval(0.0) == math.inf
        assert t.eval(5.0) == math.inf
        tp = Transform.power(2.0)
        assert tp.eval(-3.0) == 0.0
        assert tp.eval(math.inf) == math.inf

    def test_total_on_extended_reals(self):
        for t in (Transform.power(0.0), Transform.power(-0.5), Transform.power(2.0)):
            for y in (-math.inf, -1e300, -1.0, 0.0, 1.0, 1e300, math.inf):
                v = t.eval(y)
                assert v >= 0.0  # no exception, nonnegative extended value


class TestInverse:
    def test_values(self):
        t = Transform.power(-0.5)
        assert t.inverse(1.0) == pytest.approx(-1.0, rel=1e-14)
        assert t.inverse(0.25) == pytest.approx(-2.0, rel=1e-14)
        assert Transform.power(0.0).inverse(math.e) == pytest.approx(1.0, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(TransformDomainError):
            Transform.power(-0.5).inverse(0.0)
        with pytest.raises(TransformDomainError):
            Transform.power(0.0).inverse(-1.0)

    @pytest.mark.parametrize("t", [Transform.power(0.0), Transform.power(-0.5),
                                   Transform.power(-0.25), Transform.power(1.5)])
    def test_round_trip_grid(self, t):
        lo = t.y0_tilde if math.isfinite(t.y0_tilde) else -20.0
        hi = t.yinf_tilde if math.isfinite(t.yinf_tilde) else 20.0
        ys = np.linspace(lo + 1e-3, hi - 1e-3, 1000)
        for y in ys:
            u = t.eval(float(y))
            assert t.inverse(u) == pytest.approx(y, rel=1e-10, abs=1e-10)

    def test_inverse_nondecreasing(self):
        t = Transform.power(-0.5)
        us = np.geomspace(1e-6, 1e6, 200)
        ys = np.asarray([t.inverse(float(u)) for u in us])
        assert np.all(np.diff(ys) >= 0)


class TestAssumptions:
    def test_negative_half(self):
        rep = check_assumptions(Transform.power(-0.5))
        assert rep["T1"].status == "pass"
        assert rep["T3"].status == "pass"
        assert rep["T3"].witness == pytest.approx(2.0, abs=0.05)

    def test_log_concave(self):
        rep = check_assumptions(Transform.power(0.0))
        assert rep["T1"].status == "pass"
        assert rep["T4"].status == "pass"
        assert rep["T2"].status == "vacuous"

    def test_super_linear_power_fails_t2(self):
        rep = check_assumptions(Transform.power(2.0))
        assert rep["T2"].status == "fail"
        assert check_assumptions(Transform.power(0.5))["T2"].status == "pass"
        # h' ~ y^(1/s - 1) is unbounded at 0+ for every s > 1, however close
        rep = check_assumptions(Transform.power(1.03))
        assert rep["T2"].status == "fail"
        assert rep["T2"].witness == pytest.approx(1.0 / 1.03 - 1.0, rel=1e-15)

    def test_boundary_pole_fails_t3(self):
        # exact pole order 1 cannot satisfy the strict beta > 1 requirement
        rep = check_assumptions(Transform.power(-1.0))
        assert rep["T3"].status == "fail"

    def test_pole_just_above_one_passes_t3(self):
        rep = check_assumptions(Transform.power(-0.999))
        assert rep["T3"].status == "pass"
        assert rep["T3"].witness == pytest.approx(1.0 / 0.999, rel=1e-15)


class TestGeneralizedMean:
    def test_arithmetic_geometric_min(self, generalized_mean):
        assert generalized_mean(1.0, 2.0, 4.0, 0.5) == pytest.approx(3.0)
        assert generalized_mean(0.0, 1.0, 4.0, 0.5) == pytest.approx(2.0)
        assert generalized_mean(-math.inf, 2.0, 4.0, 0.3) == 2.0

    @given(a=st.floats(0.01, 50.0), b=st.floats(0.01, 50.0),
           theta=st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing_in_s(self, generalized_mean, a, b, theta):
        ss = [-8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0]
        vals = [generalized_mean(s, a, b, theta) for s in ss]
        assert all(v2 >= v1 - 1e-9 * max(1.0, v1)
                   for v1, v2 in zip(vals, vals[1:]))

    def test_zero_handling(self, generalized_mean):
        # M_s(a, 0) = 0 at every s, also for s > 0, where the weighted power
        # sum alone would give ((1-theta) a^s)^(1/s) > 0
        for s in (-math.inf, -0.5, 0.0, 0.5, 2.0):
            assert generalized_mean(s, 0.0, 3.0, 0.5) == 0.0
            assert generalized_mean(s, 3.0, 0.0, 0.25) == 0.0


# The reference laws and indices s of the rate-study truth check
LAWS = [("gaussian", 3.0), ("laplace", 3.0), ("uniform", 3.0),
        ("pareto", 1.5), ("pareto", 3.0), ("pareto", 5.0)]
S_GRID = [-0.99, -0.9, -2.0 / 3.0, -0.6, -0.5, -1.0 / 3.0, -0.33, -0.25, -0.2,
          -0.1, 0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0]


def study_grid(dist):
    """The 41-point grid on which ``run_rate_study`` checks its truth."""
    lo, hi = dist.support if math.isfinite(dist.support[0]) else (-8.0, 8.0)
    return np.linspace(lo, hi, 41)


def uniform01(x):
    return 1.0 if 0.0 <= x <= 1.0 else 0.0


class TestSConcavity:
    def test_uniform_any_s(self):
        grid = np.linspace(0.01, 0.99, 21)
        assert check_s_concavity(uniform01, -0.5, grid)

    def test_gaussian_log_concave(self):
        p = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        assert check_s_concavity(p, 0.0, np.linspace(-3, 3, 25))

    def test_bimodal_mixture_fails(self):
        c = lambda x: 1.0 / (math.pi * (1.0 + x * x))
        p = lambda x: 0.5 * c(x - 5.0) + 0.5 * c(x + 5.0)
        assert not check_s_concavity(p, 0.0, np.linspace(-10, 10, 31))

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_uniform_positive_s_with_zeros(self, s):
        # the uniform density is s-concave for every s; the grid reaches
        # outside its support, where p = 0
        assert check_s_concavity(uniform01, s, np.linspace(-0.5, 1.5, 41))

    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.5])
    def test_support_not_an_interval_fails(self, s, s_concavity_scan):
        p = lambda x: 1.0 if 0.0 <= x <= 1.0 or 2.0 <= x <= 3.0 else 0.0
        grid = np.linspace(-0.5, 3.5, 41)
        assert not check_s_concavity(p, s, grid)
        assert not s_concavity_scan(p, s, grid)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="3 points"):
            check_s_concavity(uniform01, 0.0, [0.2, 0.4])
        with pytest.raises(ValueError, match="increasing"):
            check_s_concavity(uniform01, 0.0, [0.2, 0.6, 0.4])
        with pytest.raises(ValueError, match="nonnegative"):
            check_s_concavity(lambda x: x, 0.0, [-1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="vanishes"):
            check_s_concavity(uniform01, 0.0, [2.0, 3.0, 4.0])

    @pytest.mark.parametrize("name,beta", LAWS)
    def test_agrees_with_pairwise_scan(self, name, beta, s_concavity_scan):
        dist = reference(name, beta)
        grid = study_grid(dist)
        got = [check_s_concavity(dist.pdf, s, grid) for s in S_GRID]
        want = [s_concavity_scan(dist.pdf, s, grid) for s in S_GRID]
        assert got == want

    @pytest.mark.parametrize("name,beta,s_pass,s_fail", [
        ("pareto", 3.0, -1.0 / 3.0, -0.33),
        ("pareto", 1.5, -2.0 / 3.0, -0.6),
        ("gaussian", 3.0, 0.0, 0.05),
        ("laplace", 3.0, 0.0, 0.05),
    ])
    def test_index_boundaries(self, name, beta, s_pass, s_fail, s_concavity_scan):
        # the largest s is -1/beta for Pareto and 0 for Gaussian and Laplace
        dist = reference(name, beta)
        grid = study_grid(dist)
        for check in (check_s_concavity, s_concavity_scan):
            assert check(dist.pdf, s_pass, grid)
            assert not check(dist.pdf, s_fail, grid)


class TestNesting:
    # an s-concave density is r-concave for every r < s
    def test_gaussian_into_negative_class(self):
        p = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        assert check_s_concavity(p, -0.5, np.linspace(-4, 4, 101))

    def test_uniform(self):
        assert check_s_concavity(uniform01, -0.9, np.linspace(-0.5, 1.5, 41))

    def test_symmetric_pareto(self):
        p = lambda x: (1.0 + abs(x)) ** -3.0  # normalization is irrelevant here
        assert check_s_concavity(p, -0.5, np.linspace(-6, 6, 201))

    def test_bimodal_fails(self):
        c = lambda x: 1.0 / (math.pi * (1.0 + x * x))
        p = lambda x: 0.5 * c(x - 5.0) + 0.5 * c(x + 5.0)
        assert not check_s_concavity(p, -0.5, np.linspace(-10, 10, 101))

    @pytest.mark.parametrize("name,beta", LAWS)
    def test_passes_below_largest_s(self, name, beta):
        dist = reference(name, beta)
        grid = study_grid(dist)
        verdicts = [check_s_concavity(dist.pdf, s, grid) for s in S_GRID]
        top = max(s for s, ok in zip(S_GRID, verdicts) if ok)
        assert all(ok for s, ok in zip(S_GRID, verdicts) if s <= top)


class TestMonotonicity:
    @pytest.mark.parametrize("t", [Transform.power(0.0), Transform.power(-0.5),
                                   Transform.power(0.5), Transform.power(-2.0)])
    def test_eval_nondecreasing(self, t):
        lo = t.y0_tilde if math.isfinite(t.y0_tilde) else -50.0
        hi = t.yinf_tilde if math.isfinite(t.yinf_tilde) else 50.0
        ys = np.linspace(lo + 1e-9, hi - 1e-9, 400)
        vals = np.asarray([t.eval(float(y)) for y in ys])
        assert np.all(np.diff(vals) >= -1e-12)
