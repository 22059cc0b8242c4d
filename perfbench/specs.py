"""Workload definitions and seeded inputs shared by the benchmark and its fixtures.

Every input is a pure function of a seed, so the same ``--seed`` gives the
same studies, members and fits.  The fixed inputs (objective-gate fits and
kernel points) do not depend on ``--seed``; their expected outputs are
committed under ``fixtures/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"

RATE_GRID = (200, 400, 800, 1600, 3200, 6400)
SMOKE_RATE_GRID = RATE_GRID[:4]
MIN_STUDIES = 3           # a run times at least this many studies (for a median)
TRACED_TOP_FITS = 12      # traced fits at the largest n, for the tail percentile
TRACED_ENTROPY_STUDIES = 3

# fixed inputs of the objective gate: one replication per grid point
GATE_SEED = 31337

# kernel timing points for ``mle.objective``
KERNEL_S = {"s0": 0.0, "sneg": -0.5, "spos": 0.5}
KERNEL_N = {"n1e3": 1_000, "n1e4": 10_000, "n1e5": 100_000}
KERNEL_DATA_SEED = 2718


@dataclass(frozen=True)
class RateWorkload:
    name: str
    key: int
    true_density: str
    s: float
    metrics: Tuple[str, ...]
    jobs: int
    replications: int     # per study; a run pools the replications of its studies
    slope_band: Tuple[float, float]
    beta: float = 3.0


@dataclass(frozen=True)
class EntropyClassSpec:
    label: str
    r: float
    eps_grid: Tuple[float, ...]
    members: int

    def descriptor(self):
        from sconcave.entropy import BoundedConcaveClass, TailClass
        from sconcave.transforms import Transform
        if self.label == "bounded":
            return BoundedConcaveClass(0.0, 1.0, 1.0)
        return TailClass(Transform.power(-1.0), 2.0)


RATE_WORKLOADS = {
    # One replication per study keeps a rare slow fit (tens of knots) to one
    # study of many, so the median study time stays steady.  The Laplace
    # band: see README ("Slope bands") for why the lower edge is -0.65.
    "rate-laplace": RateWorkload("rate-laplace", 1, "laplace", 0.0,
                                 ("hellinger", "l1", "loglr", "sup_compact"),
                                 jobs=1, replications=1, slope_band=(-0.65, -0.30)),
    # Three replications make 18 tasks, which the jobs=2 pool takes in order
    # in chunks of four; the last two chunks hold the n=3200 and n=6400 fits,
    # so the straggler tail shows.
    "rate-pareto": RateWorkload("rate-pareto", 2, "pareto", -0.5, ("hellinger",),
                                jobs=2, replications=3, slope_band=(-0.55, -0.25)),
}

ENTROPY_CLASSES = (
    EntropyClassSpec("bounded", 1.0, (0.2, 0.1, 0.05, 0.025), 200),
    EntropyClassSpec("tail", 2.0, (0.12, 0.06, 0.03, 0.015), 200),
)
SMOKE_ENTROPY_CLASSES = (
    EntropyClassSpec("bounded", 1.0, (0.2, 0.1, 0.05), 10),
    EntropyClassSpec("tail", 2.0, (0.12, 0.06, 0.03), 10),
)
ENTROPY_KEY = 3
EXPONENT_BAND = (0.4, 0.7)

WORKLOADS = tuple(RATE_WORKLOADS) + ("entropy-cover",)


def study_seed(seed: int, workload_key: int, study: int) -> int:
    """Seed of the ``study``-th study of a run, derived from the run seed."""
    ss = np.random.SeedSequence([int(seed), workload_key, study])
    return int(ss.generate_state(1)[0] % (2 ** 31 - 1))


def rate_grid(smoke: bool) -> Tuple[int, ...]:
    return SMOKE_RATE_GRID if smoke else RATE_GRID


def entropy_classes(smoke: bool):
    return SMOKE_ENTROPY_CLASSES if smoke else ENTROPY_CLASSES


def gate_inputs(workload: RateWorkload, grid: Tuple[int, ...]):
    """(n index, n, data seed) of the fixed fits the objective gate re-runs."""
    from sconcave.rate_harness import derived_seed
    return [(i, n, derived_seed(GATE_SEED + workload.key, i, 0))
            for i, n in enumerate(grid)]


def kernel_inputs(s: float, n: int):
    """Sorted data and feasible knot values for one ``objective`` timing point."""
    rng = np.random.default_rng(KERNEL_DATA_SEED + n)
    x = np.unique(rng.normal(size=n))
    if s == 0:
        v = -0.5 * x ** 2
    elif s < 0:
        v = -(1.0 + 0.5 * np.abs(x))
    else:
        v = np.maximum(1.0 - 0.1 * x ** 2, 1e-3)
    return x, v
