"""The public namespace: every exported name resolves, a star import works, and
a cold start loads no scipy module: importing the package and its CLI, then
running Laplace and Pareto rate studies, needs neither quadrature, special
functions nor linear algebra from scipy."""

import os
import subprocess
import sys

import sconcave


def test_every_exported_name_resolves():
    missing = [name for name in sconcave.__all__ if not hasattr(sconcave, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from sconcave import *", namespace)
    assert set(sconcave.__all__) <= set(namespace)


_COLD_START = """
import sys
import sconcave, sconcave.cli
from sconcave.rate_harness import RateStudyConfig, run_rate_study
run_rate_study(RateStudyConfig(
    true_density="laplace", s=0.0, n_grid=(50, 100, 200), replications=1, seed=5,
    metrics=("hellinger", "l1", "loglr", "sup_compact")))
run_rate_study(RateStudyConfig(
    true_density="pareto", s=-0.5, n_grid=(50, 100, 200), replications=1, seed=5,
    metrics=("hellinger",)))
print(sorted(m for m in ("scipy.special", "scipy.linalg", "scipy.integrate")
             if m in sys.modules))
"""


def test_cold_start_leaves_out_scipy():
    # the MLE and the rate studies stand on numpy alone; scipy loads only for
    # the Gaussian reference's inverse cdf, the entropy counts and the test oracles
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", _COLD_START],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
