"""Shared test oracles."""

import math

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
