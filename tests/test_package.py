"""The public namespace: every exported name resolves, a star import works, and
importing the package loads no quadrature module."""

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


def test_import_leaves_out_scipy_integrate():
    # quadrature is a test oracle only; importing the package must not pay for it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sconcave, sys; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
