"""Monte Carlo verification of the estimator's convergence rates.

Runs replicated fits over a geometric grid of sample sizes against a known
truth, collects Hellinger / L1 / log-likelihood-ratio / sup-norm errors, and
fits log-log slopes of the medians.  Also checks the entropy-integral rate
bookkeeping: with bracketing entropy K eps^(-1/2), the local modulus solves
r_n^2 Psi(1/r_n) <= sqrt(n) at r_n proportional to n^(2/5).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .density import ReferenceDistribution, hellinger, l1_distance, reference, sample
from .mle import FitConfig, FitResult, fit, loglik_ratio
from .transforms import check_s_concavity

METRICS = ("hellinger", "l1", "loglr", "sup_compact")


@dataclass(frozen=True)
class RateStudyConfig:
    """Configuration of a replicated rate study (fully seed-determined)."""

    true_density: str
    s: float
    n_grid: Tuple[int, ...]
    replications: int
    seed: int
    metrics: Tuple[str, ...] = ("hellinger", "l1", "loglr")
    beta: float = 3.0  # Pareto tail parameter when true_density == "pareto"
    compact: Tuple[float, float] = (-1.0, 1.0)
    jobs: int = 1
    fit_grad_tol: float = 1e-7

    def __post_init__(self):
        if len(self.n_grid) == 0 or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be nonempty and increasing")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.seed < 0 or self.jobs < 1 or not 0 < self.fit_grad_tol < math.inf:
            raise ValueError("need seed >= 0, jobs >= 1 and a positive finite fit_grad_tol, "
                             f"got {self.seed}, {self.jobs} and {self.fit_grad_tol}")
        bad = [m for m in self.metrics if m not in METRICS]
        if bad:
            raise ValueError(f"unknown metrics {bad}; choose from {METRICS}")
        if "sup_compact" in self.metrics:
            (lo, hi), (a, b) = self.compact, self.distribution.support
            if not a < lo < hi < b:
                raise ValueError(f"compact interval {self.compact} must have lo < hi "
                                 f"and lie strictly inside the support {(a, b)}")

    @property
    def distribution(self) -> ReferenceDistribution:
        return reference(self.true_density, self.beta)

    def to_dict(self) -> dict:
        return {"version": 1, "true_density": self.true_density, "s": self.s,
                "n_grid": list(self.n_grid), "replications": self.replications,
                "seed": self.seed, "metrics": list(self.metrics),
                "beta": self.beta, "compact": list(self.compact),
                "jobs": self.jobs, "fit_grad_tol": self.fit_grad_tol}

    @staticmethod
    def from_dict(d: dict) -> "RateStudyConfig":
        d = dict(d)
        version = d.pop("version", None)
        if version != 1:
            raise ValueError(f"unsupported config version {version!r}")
        known = {"true_density", "s", "n_grid", "replications", "seed",
                 "metrics", "beta", "compact", "jobs", "fit_grad_tol"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        for key in ("n_grid", "metrics", "compact"):
            if key in d:
                d[key] = tuple(d[key])
        return RateStudyConfig(**d)


@dataclass
class RateStudyResult:
    config: RateStudyConfig
    quantiles: Dict[str, Dict[int, Tuple[float, float, float]]]
    slopes: Dict[str, Tuple[float, float]]
    raw: Dict[str, np.ndarray]  # metric -> (n_grid x replications) table
    excluded: int
    flagged_invalid: bool
    sup_phat: Optional[np.ndarray] = None
    # per excluded replication: n, replication, seed, error text or "not converged"
    exclusions: List[dict] = field(default_factory=list)

    def summary_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "slopes": {m: {"slope": s, "stderr": e} for m, (s, e) in self.slopes.items()},
            "quantiles": {m: {str(n): list(q) for n, q in per_n.items()}
                          for m, per_n in self.quantiles.items()},
            "excluded_replications": self.excluded,
            "exclusions": self.exclusions,
            "flagged_invalid": self.flagged_invalid,
        }


def derived_seed(seed: int, n_index: int, rep_index: int) -> int:
    """Stable per-replication seed: spawn key (n index, replication index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(n_index, rep_index))
    return int(ss.generate_state(1)[0])


def _one_replication(args) -> dict:
    cfg, dist, fit_cfg, n, seed = args
    data = sample(dist, n, seed)
    try:
        res = fit(data, fit_cfg)
    except Exception as exc:  # pragma: no cover - solver failures are data
        return {"converged": False, "error": repr(exc)}
    out = {"converged": bool(res.converged)}
    if "hellinger" in cfg.metrics:
        out["hellinger"] = hellinger(res.density, dist)
    if "l1" in cfg.metrics:
        out["l1"] = l1_distance(res.density, dist)
    if "loglr" in cfg.metrics:
        out["loglr"] = loglik_ratio(res, dist, data)
    if "sup_compact" in cfg.metrics:
        diag = consistency_diagnostics(res, dist, cfg.compact)
        out["sup_compact"] = diag["sup_dist"]
        out["sup_phat"] = diag["sup_phat"]
    return out


def run_rate_study(cfg: RateStudyConfig) -> RateStudyResult:
    """Replicated fits over the sample-size grid with per-metric slopes.

    Deterministic for a fixed config and seed; replications are independent
    work items and may run in parallel (``cfg.jobs``).  Fit cost grows with n,
    so tasks run largest n first, replications ascending within each n, and
    the pool hands them out one at a time: the longest fits start first and
    the short ones fill in behind them.  The truth, the fit configuration and
    every replication's seed are made once per study and travel with the
    tasks.  Non-converged fits are excluded from the tables, each with a
    record in ``exclusions``, ordered by (n, replication); more than 5% of
    them flags the study.  Quartiles are taken over each row's finite entries
    (``_quartiles``).
    """
    dist = cfg.distribution
    grid = np.linspace(*(dist.support if math.isfinite(dist.support[0])
                         else (-8.0, 8.0)), 41)
    if not check_s_concavity(dist.pdf, cfg.s, grid):
        raise ValueError(
            f"{cfg.true_density} is not s-concave for s = {cfg.s}")
    fit_cfg = FitConfig(s=cfg.s, grad_tol=cfg.fit_grad_tol)
    cells = [(i, j) for i in reversed(range(len(cfg.n_grid))) for j in range(cfg.replications)]
    seeds = [derived_seed(cfg.seed, i, j) for i, j in cells]
    tasks = [(cfg, dist, fit_cfg, cfg.n_grid[i], seed) for (i, _), seed in zip(cells, seeds)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_one_replication, tasks, chunksize=1))
    else:
        results = [_one_replication(t) for t in tasks]

    shape = (len(cfg.n_grid), cfg.replications)
    raw = {m: np.full(shape, np.nan) for m in cfg.metrics}
    sup_phat = np.full(shape, np.nan) if "sup_compact" in cfg.metrics else None
    exclusions = []
    for (i, j), seed, res in zip(cells, seeds, results):
        if not res.get("converged", False):
            exclusions.append({"n": cfg.n_grid[i], "replication": j, "seed": seed,
                               "error": res.get("error", "not converged")})
            continue
        for m in cfg.metrics:
            raw[m][i, j] = res[m]
        if sup_phat is not None:
            sup_phat[i, j] = res["sup_phat"]
    exclusions.sort(key=lambda e: (e["n"], e["replication"]))
    excluded = len(exclusions)
    flagged = excluded > 0.05 * len(tasks)

    quantiles: Dict[str, Dict[int, Tuple[float, float, float]]] = {}
    slopes: Dict[str, Tuple[float, float]] = {}
    for m in cfg.metrics:
        per_n = dict(zip(cfg.n_grid, _quartiles(raw[m])))
        quantiles[m] = per_n
        try:
            slopes[m] = fit_slope(cfg.n_grid, [q50 for _, q50, _ in per_n.values()])
        except ValueError:
            slopes[m] = (math.nan, math.nan)
    return RateStudyResult(config=cfg, quantiles=quantiles, slopes=slopes,
                           raw=raw, excluded=excluded, flagged_invalid=flagged,
                           sup_phat=sup_phat, exclusions=exclusions)


def _quartiles(table: np.ndarray) -> List[Tuple[float, float, float]]:
    """25th, 50th and 75th percentiles of each row's finite entries.

    np.percentile's linear method, bit for bit: the value at fractional
    rank t = q (k - 1) of the k sorted entries is a + (b - a) t below
    t = 1/2 and b - (b - a)(1 - t) from it on.  A row with no finite entry
    gives NaN.
    """
    out = []
    for row in table.tolist():
        vals = sorted(v for v in row if math.isfinite(v))
        k = len(vals)
        if k <= 1:
            out.append(tuple(vals * 3) if vals else (math.nan,) * 3)
            continue
        qs = []
        for q in (0.25, 0.5, 0.75):
            rank = q * (k - 1)
            i = int(rank)
            t = rank - i
            a, b = vals[i], vals[min(i + 1, k - 1)]
            qs.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
        out.append(tuple(qs))
    return out


def fit_slope(ns: Sequence[float], errors: Sequence[float]
              ) -> Tuple[float, float]:
    """Least-squares slope (with standard error) of log error against log n.

    On Python floats: the grids are a handful of points.
    """
    if len(ns) != len(errors):
        raise ValueError("ns and errors must have the same length")
    pairs = [(float(n), float(e)) for n, e in zip(ns, errors)]
    kept = [(n, e) for n, e in pairs if math.isfinite(e) and e > 0 and n > 0]
    if len(kept) < len(pairs):
        import warnings
        warnings.warn(f"dropping {len(pairs) - len(kept)} nonpositive "
                      "error values from the slope fit", stacklevel=2)
    if len(kept) < 3:
        raise ValueError("need at least 3 positive (n, error) pairs")
    x = [math.log(n) for n, _ in kept]
    y = [math.log(e) for _, e in kept]
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    xc = [xi - x_mean for xi in x]
    sxx = sum(c * c for c in xc)
    if sxx == 0.0:
        raise ValueError("need at least 2 distinct n")
    slope = sum(c * yi for c, yi in zip(xc, y)) / sxx
    resid = [yi - y_mean - slope * c for c, yi in zip(xc, y)]
    return slope, math.sqrt(sum(r * r for r in resid) / (len(x) - 2) / sxx)


def consistency_diagnostics(fit_result: FitResult, p0,
                            compact: Tuple[float, float]) -> dict:
    """Sup distance to the truth on a compact inner interval, and sup of the fit."""
    pdf0 = p0.pdf if hasattr(p0, "pdf") else p0
    lo, hi = compact
    support = getattr(p0, "support", (-math.inf, math.inf))
    if not (support[0] < lo and hi < support[1]):
        raise ValueError("compact interval must lie strictly inside the support")
    grid = np.linspace(lo, hi, 1024)
    sup_dist = float(np.max(np.abs(fit_result.density.pdf(grid)
                                   - np.asarray(pdf0(grid), dtype=float))))
    sup_phat = float(np.max(fit_result.density.pdf(fit_result.phi_hat.knots)))
    return {"sup_dist": sup_dist, "sup_phat": sup_phat}


# ----------------------------------------------------------------------
# Rate-equation bookkeeping
# ----------------------------------------------------------------------

def entropy_integral(K: float, delta: float) -> float:
    """J(delta) = integral_0^delta sqrt(K eps^(-1/2)) deps = (4/3) sqrt(K) delta^(3/4)."""
    return (4.0 / 3.0) * math.sqrt(K) * delta ** 0.75


def rate_equation_check(K: float, n_grid: Sequence[int]) -> dict:
    """The largest c for which r_n = c n^(2/5) solves the local-modulus inequality.

    With Psi(delta) = J(delta) (1 + J(delta)/(delta^2 sqrt(n))), the ratio
    r_n^2 Psi(1/r_n) / sqrt(n) equals q + q^2 with q = (4/3) sqrt(K) c^(5/4)
    at every n, so r_n^2 Psi(1/r_n) <= sqrt(n) holds iff q <= (sqrt(5) - 1)/2.
    Returns that c as ``c_admissible`` and, per n, the ratio evaluated at it,
    which is 1 up to rounding.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    q_star = (math.sqrt(5.0) - 1.0) / 2.0
    c_star = (3.0 * q_star / (4.0 * math.sqrt(K))) ** 0.8
    rows = []
    for n in n_grid:
        r_n = c_star * n ** 0.4
        delta = 1.0 / r_n
        J = entropy_integral(K, delta)
        psi = J * (1.0 + J / (delta ** 2 * math.sqrt(n)))
        rows.append({"n": int(n), "ratio": r_n ** 2 * psi / math.sqrt(n)})
    return {"per_n": rows, "c_admissible": c_star}
