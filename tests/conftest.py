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


@pytest.fixture
def bench_fixture(monkeypatch):
    """The benchmark's ``specs`` module and a loader of its committed fixtures, read-only."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_specs", bench / "specs.py")
    specs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, specs)  # dataclasses look it up
    spec.loader.exec_module(specs)
    return specs, lambda name: json.loads((bench / "fixtures" / name).read_text())
