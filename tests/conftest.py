"""Shared test oracles."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest
from scipy import integrate


@pytest.fixture(scope="session")
def entropy_integral_quadrature():
    """Independent quadrature of J(delta) = integral_0^delta sqrt(K eps^(-1/2)) deps.

    The integrand has an integrable singularity at 0; adaptive quadrature
    resolves it to about 1e-13, which checks ``rate_harness.entropy_integral``.
    """
    def quad(K: float, delta: float) -> float:
        val, _ = integrate.quad(lambda e: math.sqrt(K * e ** -0.5), 0.0, delta,
                                limit=400, epsabs=1e-13, epsrel=1e-13)
        return val
    return quad


def _generalized_mean(s: float, a: float, b: float, theta: float) -> float:
    """Order-s mean M_s(a, b; theta) of (a, b) with weights (1-theta, theta).

    s = 0 is the geometric mean and s = -inf the minimum.  The mean is 0
    whenever ab = 0, at every s, as in Dharmadhikari & Joag-Dev (1988).
    """
    if a < 0 or b < 0:
        raise ValueError("generalized_mean requires nonnegative a, b")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if a == 0.0 or b == 0.0:
        return 0.0
    if s == -math.inf:
        return min(a, b)
    if s == 0.0:
        return a ** (1.0 - theta) * b ** theta
    return ((1.0 - theta) * a ** s + theta * b ** s) ** (1.0 / s)


@pytest.fixture(scope="session")
def generalized_mean():
    """The order-s generalized mean with weights (1-theta, theta)."""
    return _generalized_mean


@pytest.fixture(scope="session")
def s_concavity_scan():
    """Pairwise generalized-mean scan for s-concavity, O(n^2) ``p`` calls.

    True iff ``p((1-t) x_i + t x_j) >= M_s(p(x_i), p(x_j); t)`` for every
    grid pair i < j and every probed t, up to a relative 1e-9.  An
    independent check of ``transforms.check_s_concavity``, which tests the
    concavity of h_s^{-1}(p) instead.
    """
    def scan(p, s, grid, thetas=(0.25, 0.5, 0.75)):
        xs = [float(x) for x in grid]
        pv = [p(x) for x in xs]
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                for theta in thetas:
                    lhs = p((1.0 - theta) * xs[i] + theta * xs[j])
                    rhs = _generalized_mean(s, pv[i], pv[j], theta)
                    if lhs < rhs - 1e-9 * max(1.0, rhs):
                        return False
        return True
    return scan


@pytest.fixture
def bench_fixture(monkeypatch):
    """The benchmark's ``specs`` module and a loader of its committed fixtures, read-only."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_specs", bench / "specs.py")
    specs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, specs)  # dataclasses look it up
    spec.loader.exec_module(specs)
    return specs, lambda name: json.loads((bench / "fixtures" / name).read_text())
