"""Piecewise-linear concave functions: evaluation, restriction, sampling, and
the array helpers for superlevel sets, restriction and clipping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sconcave.concave_fn import (DomainError, PiecewiseConcave, _clipped_above, _restricted,
                                 _superlevel_set, sample_random)


def tent():
    return PiecewiseConcave(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))


def superlevel(phi, y):
    return _superlevel_set(phi.knots, phi.values, y)


def restrict_range(phi, y_lo, y_hi=math.inf):
    """phi restricted to its superlevel set at y_lo and clipped above at y_hi,
    as the transformed cover's locate composes the array helpers."""
    knots, values = _restricted(phi.knots, phi.values, *superlevel(phi, y_lo))
    return PiecewiseConcave(*_clipped_above(knots, values, y_hi))


def slopes(phi):
    return np.diff(phi.values) / np.diff(phi.knots)


class TestConstruction:
    def test_rejects_nonconcave(self):
        with pytest.raises(ValueError, match="not concave"):
            PiecewiseConcave(np.array([0.0, 1.0, 2.0]), np.array([0.0, -1.0, 0.5]))

    def test_rejects_tied_knots(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseConcave(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))

    def test_single_knot(self):
        phi = PiecewiseConcave(np.array([0.5]), np.array([2.0]))
        assert phi.eval(0.5) == 2.0
        assert phi.eval(0.6) == -math.inf


class TestEval:
    def test_interpolation_and_outside(self):
        flat = PiecewiseConcave(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        assert flat.eval(0.5) == 0.0
        assert flat.eval(2.0) == -math.inf
        assert tent().eval(1.5) == pytest.approx(0.5)

    def test_endpoints_attained(self):
        phi = tent()
        assert phi.eval(0.0) == 0.0
        assert phi.eval(2.0) == 0.0


class TestRestrictDomain:
    def test_tent_left_half(self):
        res = tent().restrict_domain((0.0, 1.0))
        assert res.domain == (0.0, 1.0)
        assert res.eval(0.5) == pytest.approx(0.5)

    def test_superset_is_identity(self):
        res = tent().restrict_domain((-5.0, 5.0))
        np.testing.assert_array_equal(res.knots, tent().knots)

    def test_interpolated_endpoints(self):
        lin = PiecewiseConcave(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        res = lin.restrict_domain((0.25, 0.75))
        np.testing.assert_allclose(res.knots, [0.25, 0.75])
        np.testing.assert_allclose(res.values, [0.25, 0.75])

    def test_empty_intersection(self):
        with pytest.raises(DomainError):
            tent().restrict_domain((5.0, 6.0))

    def test_agrees_with_masked_eval(self):
        phi = sample_random(0.0, 1.0, 1.0, 9, 3)
        res = phi.restrict_domain((0.2, 0.7))
        xs = np.linspace(0.0, 1.0, 200)
        for x in xs:
            if 0.2 <= x <= 0.7:
                assert res.eval(float(x)) == pytest.approx(phi.eval(float(x)), abs=1e-12)
            else:
                assert res.eval(float(x)) == -math.inf


class TestSuperlevel:
    def test_tent_levels(self):
        assert superlevel(tent(), 0.5) == pytest.approx((0.5, 1.5))
        assert superlevel(tent(), 2.0) is None
        assert superlevel(tent(), -10.0) == (0.0, 2.0)

    def test_monotone_shrinking(self):
        phi = sample_random(0.0, 1.0, 1.0, 10, 17)
        levels = np.linspace(-1.0, 1.0, 15)
        prev = None
        for y in levels:
            cur = superlevel(phi, float(y))
            if prev is not None and cur is not None:
                assert cur[0] >= prev[0] - 1e-12
                assert cur[1] <= prev[1] + 1e-12
            if cur is None:
                break
            prev = cur


class TestRestrictRange:
    def test_tent_above_half(self):
        res = restrict_range(tent(), 0.5, math.inf)
        assert res.domain == pytest.approx((0.5, 1.5))
        assert min(res.values) >= 0.5 - 1e-12

    def test_clip_above(self):
        knots, values = _clipped_above(tent().knots, tent().values, 0.5)
        assert float(np.max(values)) == pytest.approx(0.5)
        # plateau inserted exactly at the crossings
        assert 0.5 in knots and 1.5 in knots

    def test_compose_superlevel_and_clip(self):
        lin = PiecewiseConcave(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        res = restrict_range(lin, 0.25, 0.75)
        assert res.domain == pytest.approx((0.25, 1.0))
        xs = np.linspace(0.25, 1.0, 50)
        expected = np.minimum(xs, 0.75)
        np.testing.assert_allclose(res.eval(xs), expected, atol=1e-12)

    def test_empty_superlevel_raises(self):
        # the empty superlevel set is None; restricting off the domain raises
        assert superlevel(tent(), 2.5) is None
        with pytest.raises(DomainError):
            _restricted(tent().knots, tent().values, 2.5, 2.6)


class TestSampleRandom:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, seed):
        phi = sample_random(-1.0, 2.0, 1.5, 8, seed)
        assert phi.knots[0] == -1.0 and phi.knots[-1] == 2.0
        assert np.max(np.abs(phi.values)) <= 1.5
        d = slopes(phi)
        assert np.all(np.diff(d) <= 1e-12 * max(1.0, np.max(np.abs(d))))

    def test_deterministic(self):
        a = sample_random(0.0, 1.0, 1.0, 8, 42)
        b = sample_random(0.0, 1.0, 1.0, 8, 42)
        np.testing.assert_array_equal(a.knots, b.knots)
        np.testing.assert_array_equal(a.values, b.values)

    def test_many_seeds_stay_bounded(self):
        worst = max(np.max(np.abs(sample_random(0.0, 1.0, 1.0, 7, s).values))
                    for s in range(1000))
        assert worst <= 1.0

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            sample_random(1.0, 0.0, 1.0, 5, 0)
        with pytest.raises(DomainError):
            sample_random(0.0, 1.0, -1.0, 5, 0)


class TestOperationOutputsConcave:
    @given(seed=st.integers(0, 3000), y=st.floats(-0.9, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_restrict_range_keeps_concavity(self, seed, y):
        phi = sample_random(0.0, 1.0, 1.0, 9, seed)
        top = float(np.max(phi.values))
        if top <= y:
            return
        res = restrict_range(phi, y, 0.5 * (y + top))
        d = slopes(res)
        if d.size >= 2:
            assert np.all(np.diff(d) <= 1e-12 * max(1.0, np.max(np.abs(d))))


def _restrict_loop(phi, lo, hi):
    """Reference: the masked restriction with ends from two ``eval`` calls."""
    a, b = max(lo, float(phi.knots[0])), min(hi, float(phi.knots[-1]))
    inner = (phi.knots > a) & (phi.knots < b)
    return (np.concatenate(([a], phi.knots[inner], [b])),
            np.concatenate(([phi.eval(a)], phi.values[inner], [phi.eval(b)])))


def _clip_loop(phi, y_hi):
    """Reference: the knot-by-knot clip, crossings inserted between knots."""
    plateau = superlevel(phi, y_hi)
    xs, vs = [float(phi.knots[0])], [min(float(phi.values[0]), y_hi)]
    for x, v in zip(phi.knots[1:].tolist(), phi.values[1:].tolist()):
        for cx in plateau:
            if xs[-1] < cx < x:
                xs.append(cx)
                vs.append(y_hi)
        xs.append(x)
        vs.append(min(v, y_hi))
    keep = [0] + [i for i in range(1, len(xs)) if xs[i] > xs[i - 1]]
    return np.asarray(xs)[keep], np.asarray(vs)[keep]


class TestArrayFormsMatchLoops:
    @given(seed=st.integers(0, 3000), lo=st.floats(-0.2, 0.99), width=st.floats(1e-9, 1.4))
    @settings(max_examples=150, deadline=None)
    def test_restrict_domain(self, seed, lo, width):
        phi = sample_random(0.0, 1.0, 1.0, 9, seed)
        lo = float(phi.knots[2]) if seed % 5 == 0 else lo  # an end on a knot
        hi = max(lo, 0.0) + width
        res = phi.restrict_domain((lo, hi))
        xs, vs = _restrict_loop(phi, lo, hi)
        np.testing.assert_array_equal(res.knots, xs)
        np.testing.assert_array_equal(res.values, vs)

    @given(seed=st.integers(0, 3000), frac=st.floats(0.0, 1.0), on_knot=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_clip_above(self, seed, frac, on_knot):
        phi = sample_random(0.0, 1.0, 1.0, 9, seed)
        low, top = float(phi.values.min()), float(phi.values.max())
        y = (float(phi.values[int(frac * (phi.knots.size - 1))]) if on_knot
             else low + frac * (top - low))
        knots, values = _clipped_above(phi.knots, phi.values, y)
        if y >= top:
            assert knots is phi.knots and values is phi.values
            return
        xs, vs = _clip_loop(phi, y)
        np.testing.assert_array_equal(knots, xs)
        np.testing.assert_array_equal(values, vs)


class TestSerialization:
    def test_json_round_trip(self):
        phi = tent()
        back = PiecewiseConcave.from_dict(phi.to_dict())
        np.testing.assert_array_equal(back.knots, phi.knots)
        np.testing.assert_array_equal(back.values, phi.values)
