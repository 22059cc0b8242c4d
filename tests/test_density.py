"""Transformed densities: integration oracle checks, distances, envelopes, samplers."""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from scipy import integrate as sintegrate

from sconcave.concave_fn import DomainError, PiecewiseConcave, sample_random
from sconcave.density import (TransformedDensity, _segment_partials,
                              check_envelope, envelope_for_class, hellinger, l1_distance,
                              member_of_class, reference, sample, upper_bound_f)
from sconcave.transforms import Transform


def make_density(s, knots, values):
    t = Transform.power(s)
    return TransformedDensity(t, PiecewiseConcave(np.asarray(knots, float),
                                                  np.asarray(values, float)))


def reference_cdf(dist, x):
    """Closed-form cdf of a reference law: the oracle for the samplers."""
    if dist.name == "gaussian":
        from scipy.special import ndtr
        return ndtr(x)
    if dist.name == "laplace":
        return np.where(x < 0, 0.5 * np.exp(x), 1.0 - 0.5 * np.exp(-x))
    if dist.name == "uniform":
        return np.clip(x, 0.0, 1.0)
    half = 0.5 * np.power(1.0 + np.abs(x), -(dist.beta - 1.0))
    return np.where(x < 0, half, 1.0 - half)


def quadrature_oracle(dens):
    """Independent adaptive quadrature of the density over its support."""
    lo, hi = dens.support
    total = 0.0
    knots = dens.phi.knots
    for a, b in zip(knots[:-1], knots[1:]):
        val, _ = sintegrate.quad(lambda x: float(dens.pdf(x)), a, b,
                                 epsabs=1e-13, limit=200)
        total += val
    return total


class TestIntegrate:
    def test_uniform_log(self):
        assert make_density(0.0, [0, 1], [0, 0]).integral == pytest.approx(1.0)

    def test_constant_power(self):
        assert make_density(-0.5, [0, 1], [-1, -1]).integral == pytest.approx(1.0)

    def test_exponential_slope(self):
        d = make_density(0.0, [0, 1], [0, -1])
        assert d.integral == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_logarithmic_branch(self):
        # 1/s + 1 = 0 at s = -1: the antiderivative is logarithmic
        d = make_density(-1.0, [0.0, 1.0], [-1.0, -3.0])
        exact = math.log(3.0) / 2.0
        assert d.integral == pytest.approx(exact, rel=1e-12)

    def test_domain_error_at_pole(self):
        with pytest.raises(DomainError):
            make_density(-0.5, [0, 1], [-1.0, 0.0])
        with pytest.raises(DomainError):
            make_density(0.5, [0, 1], [0.0, 1.0])

    @pytest.mark.parametrize("s", [0.0, -0.25, -0.5, -0.75])
    def test_matches_quadrature_oracle(self, s):
        rng = np.random.default_rng(hash(s) % 2 ** 31)
        for trial in range(100):
            phi = sample_random(-1.0, 2.0, 0.8, int(rng.integers(3, 9)),
                                int(rng.integers(0, 2 ** 31)))
            values = phi.values if s == 0 else phi.values - 2.0
            d = make_density(s, phi.knots, values)
            assert d.integral == pytest.approx(quadrature_oracle(d), rel=1e-8)


def decimal_segment(dx, vl, vr, s):
    """(integral, d/dvl, d/dvr) of h(phi) over one linear segment, at 60 digits.

    Closed forms and their analytic derivatives in stdlib decimal arithmetic;
    quadrature loses all digits on segments where |phi| spans eight decades.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        dx, vl, vr = Decimal(dx), Decimal(vl), Decimal(vr)
        if s == 0:
            d, el, er = vr - vl, vl.exp(), vr.exp()
            return (dx * (er - el) / d, dx * (er - el - d * el) / d ** 2,
                    dx * (d * er - er + el) / d ** 2)
        sign = -1 if s < 0 else 1
        ul, ur = (-vl, -vr) if s < 0 else (vl, vr)
        q, d = 1 / Decimal(s), ur - ul
        if q == -1:
            a = ur.ln() - ul.ln()
            return dx * a / d, sign * dx * (a - d / ul) / d ** 2, sign * dx * (d / ur - a) / d ** 2
        a = ur ** (q + 1) - ul ** (q + 1)
        return (dx * a / ((q + 1) * d),
                sign * dx * (a - (q + 1) * ul ** q * d) / ((q + 1) * d ** 2),
                sign * dx * ((q + 1) * ur ** q * d - a) / ((q + 1) * d ** 2))


class TestSegmentKernel:
    """``_segment_partials`` against the decimal oracle.

    |rho| = |ratio - 1| sits at 1e-11, 1e-8 and on both sides of the series
    switches at 1e-4, 1e-2 and 0.05; s != 0 also takes end ratios from 1e-10
    to 1e10, as on the tails of heavy-tailed fits and on steep s > 0 segments.
    """

    RHO = [1e-11, 1e-8, 9e-5, 1.1e-4, 9e-3, 1.1e-2, 0.049, 0.051, 0.3]

    @classmethod
    def segments(cls, s):
        if s == 0:
            return [(vl, vl + sg * r) for vl in (-1.0, 0.0, 5.0)
                    for r in cls.RHO + [2.0, 30.0] for sg in (1, -1)]
        sign = -1.0 if s < 0 else 1.0
        out = [(sign * u, sign * u * (1 + sg * r)) for u in (1.0, 1e4, 1e8)
               for r in cls.RHO for sg in (1, -1)]
        ratios = (1e-10, 1e-6, 1e-3, 0.1, 10.0, 1e3, 1e6, 1e10)
        out += [(sign * u, sign * u * k) for u in (1e-2, 1.0, 1e4, 1e8) for k in ratios
                if s > 0 or 1e-2 <= u * k <= 1e8]
        return out + [(3.0, 1e8), (1e8, 3.0)] if s > 0 else out

    @pytest.mark.parametrize("s", [0.0, -1 / 3, -0.5, -0.7, -0.9, 0.25, 0.5])
    def test_matches_decimal_oracle(self, s):
        segs = self.segments(s)
        vl, vr = (np.array(side) for side in zip(*segs))
        got = _segment_partials(np.full(vl.size, 0.37), vl, vr, s)
        for k, (a, b) in enumerate(segs):
            want = decimal_segment(0.37, a, b, s)
            err = [float(abs(Decimal(float(g[k])) - w) / abs(w)) for g, w in zip(got, want)]
            assert err[0] <= 1e-11, (a, b, err)
            steep = s != 0 and not 0.5 <= b / a <= 2.0
            assert max(err[1:]) <= (1e-10 if steep else 1e-7), (a, b, err)

    def test_steep_heavy_tail_segment(self):
        got = _segment_partials(np.ones(1), np.array([-1e8]), np.array([-3.0]), -0.5)
        for g, w in zip(got, decimal_segment(1.0, -1e8, -3.0, -0.5)):
            assert abs(Decimal(float(g[0])) - w) <= Decimal("1e-12") * abs(w)

    def test_steep_segment_at_small_positive_s(self):
        # from its small end, ul^q underflowed to 0 and the integral was nan
        got = _segment_partials(np.ones(1), np.array([1e-10]), np.array([1.0]), 0.01)
        for g, w in zip(got, decimal_segment(1.0, 1e-10, 1.0, 0.01)):
            assert abs(Decimal(float(g[0])) - w) <= Decimal("1e-12") * abs(w)
        assert make_density(0.01, [0, 1], [1e-10, 1.0]).integral == pytest.approx(1 / 101)

    def test_near_flat_power_integral(self):
        d = make_density(-0.5, [0, 1], [-1, -(1 + 1e-8)])
        want = decimal_segment(1.0, -1.0, -(1 + 1e-8), -0.5)[0]
        assert abs(Decimal(d.integral) - want) <= Decimal("1e-12") * want


class TestNormalize:
    def test_flat_log(self):
        d = make_density(0.0, [0, 2], [0, 0]).normalize()
        assert d.integral == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(d.phi.values, -math.log(2.0))

    def test_power_scaling(self):
        d = make_density(-0.5, [0, 2], [-1, -1]).normalize()
        assert d.integral == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(d.phi.values, -math.sqrt(2.0))

    def test_idempotent(self):
        d = make_density(0.0, [0, 1], [0.3, -1.2]).normalize()
        again = d.normalize()
        assert again is d

    def test_preserves_support_and_concavity(self):
        d = make_density(-0.5, [0, 1, 3], [-1.0, -0.5, -4.0]).normalize()
        assert d.support == (0.0, 3.0)
        assert d.integral == pytest.approx(1.0, abs=1e-10)


class TestHellinger:
    def test_identity(self):
        d = make_density(0.0, [0, 1], [0, 0])
        assert hellinger(d, d) == pytest.approx(0.0, abs=1e-9)

    def test_two_uniforms(self):
        u1 = make_density(0.0, [0, 1], [0, 0])
        u2 = make_density(0.0, [0, 2], [0, 0]).normalize()
        assert hellinger(u1, u2) == pytest.approx(math.sqrt(1 - 1 / math.sqrt(2)),
                                                  abs=1e-7)

    def test_shifted_gaussians(self):
        g = reference("gaussian")

        class Shifted:
            support = (-math.inf, math.inf)

            def breakpoints(self):
                return [1.0]

            def pdf(self, x):
                return g.pdf(np.asarray(x) - 1.0)

        expected = math.sqrt(1 - math.exp(-1 / 8))
        assert hellinger(g, Shifted()) == pytest.approx(expected, abs=1e-7)

    def test_metric_properties(self):
        ds = [make_density(0.0, [0, 1], [0, 0]),
              make_density(0.0, [0, 2], [0, -1]).normalize(),
              make_density(-0.5, [-1, 1], [-1.5, -1.2]).normalize()]
        for a in ds:
            for b in ds:
                hab, hba = hellinger(a, b), hellinger(b, a)
                assert hab == pytest.approx(hba, abs=1e-12)
                assert 0.0 <= hab <= 1.0
        for a in ds:
            for b in ds:
                for c in ds:
                    assert hellinger(a, c) <= hellinger(a, b) + hellinger(b, c) + 1e-7

    def test_bare_callable_is_not_a_density(self):
        d = make_density(0.0, [0, 1], [0, 0])
        with pytest.raises(TypeError, match="function"):
            hellinger(d, lambda x: 1.0)
        with pytest.raises(TypeError, match="function"):
            l1_distance(lambda x: 1.0, d)


class TestL1:
    def test_identity_and_disjoint(self):
        u1 = make_density(0.0, [0, 1], [0, 0])
        u3 = make_density(0.0, [1, 2], [0, 0])
        assert l1_distance(u1, u1) == pytest.approx(0.0, abs=1e-9)
        assert l1_distance(u1, u3) == pytest.approx(2.0, abs=1e-7)

    def test_nested_uniforms(self):
        u1 = make_density(0.0, [0, 1], [0, 0])
        u2 = make_density(0.0, [0, 2], [0, 0]).normalize()
        assert l1_distance(u1, u2) == pytest.approx(1.0, abs=1e-7)


class TestEnvelope:
    def test_l_closed_form(self):
        env = envelope_for_class(1.0, Transform.power(-0.5))
        assert env.L == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_tail_value(self):
        env = envelope_for_class(1.0, Transform.power(-0.5))
        x = 3.0
        expected = (1.0 + (math.sqrt(2) - 1) * x / 2.0) ** -2
        assert env(x) == pytest.approx(expected, rel=1e-12)
        assert env(0.0) == 1.0

    def test_uniform_member_dominated(self):
        # uniform on [-1.5, 1.5]: height 1/3, in the M = 3 class
        d = make_density(0.0, [-1.5, 1.5], [0, 0]).normalize()
        assert member_of_class(d, 3.0)
        assert check_envelope(d, 3.0, np.linspace(-5, 5, 1001))

    def test_triangular_member(self):
        d = make_density(0.0, [-1.2, 0.0, 1.2],
                         [-3.0, 0.0, -3.0]).normalize()
        assert member_of_class(d, 10.0)  # edge value ~0.108 needs 1/M below it
        assert check_envelope(d, 10.0, np.linspace(-5, 5, 1001))

    def test_log_transform_envelope(self):
        env = envelope_for_class(1.0, Transform.power(0.0))
        assert env.L == pytest.approx(math.log(2.0), abs=1e-12)
        xs = np.linspace(3.0, 40.0, 100)
        # polynomial envelope dominates the exact exponential bound
        exact = np.exp(-env.L * xs / 2.0)
        assert np.all(env(xs) >= exact)
        for M in (1.0, 5.0):
            # sup of M e^{1+y} y^2 over y <= -1, attained at y = -2
            D = envelope_for_class(M, Transform.power(0.0)).D
            assert D == pytest.approx(4.0 * M / math.e, rel=1e-15)


class TestMemberOfClass:
    def test_uniform_cases(self):
        u15 = make_density(0.0, [-1.5, 1.5], [0, 0]).normalize()
        assert member_of_class(u15, 3.0)
        u01 = make_density(0.0, [0, 1], [0, 0])
        assert not member_of_class(u01, 10.0)  # vanishes at -1

    def test_gaussian_like(self):
        xs = np.linspace(-6, 6, 241)
        d = TransformedDensity(Transform.power(0.0),
                               PiecewiseConcave(xs, -0.5 * xs ** 2)).normalize()
        assert not member_of_class(d, 3.0)  # min on [-1,1] is ~0.242 < 1/3
        assert member_of_class(d, 5.0)

    def test_requires_normalized(self):
        d = make_density(0.0, [0, 2], [0, 0])
        with pytest.raises(ValueError):
            member_of_class(d, 3.0)


class TestUpperBound:
    def test_ordering_precondition(self):
        d = make_density(0.0, [0, 1, 2], [-1.0, 0.0, -1.0]).normalize()
        with pytest.raises(DomainError):
            upper_bound_f(d, 0.2, 0.4, 0.6)  # increasing region

    @pytest.mark.parametrize("s", [0.0, -0.5])
    def test_dominates_on_descending_triples(self, s):
        vals = [-1.0, -0.5, -3.0] if s else [0.0, 0.5, -2.0]
        d = make_density(s, [0.0, 1.0, 3.0], vals).normalize()
        rng = np.random.default_rng(5)
        count = 0
        for _ in range(1000):
            x0 = rng.uniform(1.0, 1.5)
            x1 = rng.uniform(x0 + 0.05, 2.2)
            x = rng.uniform(x1 + 0.05, 2.95)
            ph = [d.phi.eval(v) for v in (x0, x1, x)]
            if not (ph[2] < ph[1] < ph[0]):
                continue
            bound = upper_bound_f(d, x0, x1, x)
            assert bound >= d.pdf(x) * (1 - 1e-9)
            count += 1
        assert count > 100


class TestSamplers:
    def test_reproducible(self):
        a = sample(reference("uniform"), 5, 123)
        b = sample(reference("uniform"), 5, 123)
        np.testing.assert_array_equal(a, b)
        assert np.all((a >= 0) & (a <= 1))

    def test_pareto_mean_abs(self):
        x = sample(reference("pareto", 3.0), 10_000, 99)
        assert np.abs(x).mean() == pytest.approx(1.0, abs=0.08)

    def test_gaussian_variance(self):
        x = sample(reference("gaussian"), 10_000, 7)
        assert 0.94 <= x.var() <= 1.06

    def test_pareto_requires_heavy_beta(self):
        with pytest.raises(DomainError):
            reference("pareto", 0.9)

    @pytest.mark.parametrize("name", ["gaussian", "laplace", "uniform", "pareto"])
    def test_kolmogorov_distance(self, name):
        dist = reference(name)
        n = 4096
        x = np.sort(sample(dist, n, 31))
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        cdf = reference_cdf(dist, x)
        ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
        assert ks <= 2.0 / math.sqrt(n)

    @pytest.mark.parametrize("name", ["gaussian", "laplace", "uniform", "pareto"])
    def test_sequence_inputs_match_arrays(self, name):
        # lists and tuples once reached float() and raised TypeError
        dist = reference(name)
        x, u = [-1.5, 0.0, 0.25, 2.0], [0.05, 0.2, 0.5, 0.9]
        for method, pts in ((dist.pdf, x), (dist.inverse_cdf, u)):
            want = method(np.asarray(pts))
            assert isinstance(want, np.ndarray) and want.shape == (4,)
            for seq in (pts, tuple(pts)):
                got = method(seq)
                assert isinstance(got, np.ndarray)
                np.testing.assert_array_equal(got, want)
            for k, p in enumerate(pts):
                for scalar in (p, np.float64(p)):
                    got = method(scalar)
                    assert type(got) is float and got == want[k]


class TestEnvelopeDomination:
    @pytest.mark.parametrize("s", [-0.5, -0.25, 0.0])
    @pytest.mark.parametrize("M", [1.0, 5.0])
    def test_random_members(self, s, M):
        from sconcave.entropy import sample_density_class_members
        t = Transform.power(s)
        # the sandwich class is empty below M = 2 (mass constraint); the
        # envelope statement is then vacuous and only the construction runs
        members = sample_density_class_members(t, M, 200 if M >= 2 else 0, 11)
        env = envelope_for_class(M, t)
        assert env.L > 0
        grid = np.linspace(-4 * M - 4, 4 * M + 4, 1000)
        for p in members:
            assert member_of_class(p, M)
            assert check_envelope(p, M, grid)
