"""Regenerate the committed fixtures under ``fixtures/``.

Run from the repository root, once, on the commit whose outputs the
benchmark should hold later commits to:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_fixtures.py

- ``objective_fits.json``: for each rate workload and grid point, the
  objective, log-likelihood, KKT residual and knot count of the fixed
  objective-gate fit.  Later solvers must not return a lower objective.
- ``objective_kernel.json``: ``mle.objective`` value and gradient norm at the
  nine kernel timing points.
- ``entropy_log_cardinality.json``: ``log_cardinality`` of every cover the
  entropy-cover workload builds, which does not depend on the seed.
"""

from __future__ import annotations

import json

import numpy as np

import specs
from sconcave import mle
from sconcave.density import reference, sample
from sconcave.entropy import build_cover
from sconcave.mle import FitConfig


def objective_fits() -> dict:
    out = {}
    for name, wl in specs.RATE_WORKLOADS.items():
        dist = reference(wl.true_density, wl.beta)
        rows = []
        for _, n, data_seed in specs.gate_inputs(wl, specs.RATE_GRID):
            row = {"n": n, "rep": 0, "data_seed": data_seed}
            try:
                res = mle.fit(sample(dist, n, data_seed), FitConfig(s=wl.s))
            except Exception as exc:  # recorded, and skipped by the gate
                row.update(objective=None, error=repr(exc))
            else:
                row.update(objective=res.objective, loglik=res.loglik,
                           kkt_residual=res.kkt_residual,
                           knots=int(res.phi_hat.knots.size),
                           converged=bool(res.converged))
            rows.append(row)
            print(name, row, flush=True)
        out[name] = rows
    return out


def objective_kernel() -> dict:
    out = {}
    for sk, s in specs.KERNEL_S.items():
        for nk, n in specs.KERNEL_N.items():
            x, v = specs.kernel_inputs(s, n)
            value, grad = mle.objective(v, x, s)
            out[f"mle.objective.{sk}.{nk}.us"] = {
                "value": float(value), "grad_norm": float(np.linalg.norm(grad))}
    return out


def entropy_log_cardinality() -> dict:
    out = {}
    for spec in specs.ENTROPY_CLASSES:  # the smoke grids are subsets of these
        for eps in spec.eps_grid:
            bset = build_cover(spec.descriptor(), eps, spec.r)
            out[f"{spec.label}:{eps!r}"] = float(bset.log_cardinality)
    return out


def main() -> None:
    specs.FIXTURE_DIR.mkdir(exist_ok=True)
    for fname, make in (("objective_kernel.json", objective_kernel),
                        ("entropy_log_cardinality.json", entropy_log_cardinality),
                        ("objective_fits.json", objective_fits)):
        (specs.FIXTURE_DIR / fname).write_text(
            json.dumps(make(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
