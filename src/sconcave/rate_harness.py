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
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate as _sintegrate

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
        bad = [m for m in self.metrics if m not in METRICS]
        if bad:
            raise ValueError(f"unknown metrics {bad}; choose from {METRICS}")

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

    def summary_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "slopes": {m: {"slope": s, "stderr": e} for m, (s, e) in self.slopes.items()},
            "quantiles": {m: {str(n): list(q) for n, q in per_n.items()}
                          for m, per_n in self.quantiles.items()},
            "excluded_replications": self.excluded,
            "flagged_invalid": self.flagged_invalid,
        }


def derived_seed(seed: int, n_index: int, rep_index: int) -> int:
    """Stable per-replication seed: spawn key (n index, replication index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(n_index, rep_index))
    return int(ss.generate_state(1)[0])


def _one_replication(args) -> dict:
    cfg, n_index, rep_index = args
    dist = cfg.distribution
    n = cfg.n_grid[n_index]
    data = sample(dist, n, derived_seed(cfg.seed, n_index, rep_index))
    try:
        res = fit(data, FitConfig(s=cfg.s, grad_tol=cfg.fit_grad_tol))
    except Exception as exc:  # pragma: no cover - solver failures are data
        return {"converged": False, "error": repr(exc)}
    out = {"converged": bool(res.converged)}
    if "hellinger" in cfg.metrics or "l1" in cfg.metrics:
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
    work items and may run in parallel (``cfg.jobs``).  Non-converged fits
    are excluded from the tables; more than 5% of them flags the study.
    """
    dist = cfg.distribution
    grid = np.linspace(*(dist.support if math.isfinite(dist.support[0])
                         else (-8.0, 8.0)), 41)
    if not check_s_concavity(lambda x: float(dist.pdf(x)), cfg.s, grid):
        raise ValueError(
            f"{cfg.true_density} is not s-concave for s = {cfg.s}")
    tasks = [(cfg, i, j)
             for i in range(len(cfg.n_grid)) for j in range(cfg.replications)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_one_replication, tasks, chunksize=4))
    else:
        results = [_one_replication(t) for t in tasks]

    shape = (len(cfg.n_grid), cfg.replications)
    raw = {m: np.full(shape, np.nan) for m in cfg.metrics}
    sup_phat = np.full(shape, np.nan) if "sup_compact" in cfg.metrics else None
    excluded = 0
    for ((_, i, j), res) in zip(tasks, results):
        if not res.get("converged", False):
            excluded += 1
            continue
        for m in cfg.metrics:
            raw[m][i, j] = res[m]
        if sup_phat is not None:
            sup_phat[i, j] = res["sup_phat"]
    total = len(tasks)
    flagged = excluded > 0.05 * total

    quantiles: Dict[str, Dict[int, Tuple[float, float, float]]] = {}
    slopes: Dict[str, Tuple[float, float]] = {}
    complete = [m for m in cfg.metrics if np.isfinite(raw[m]).all()]
    tables = {}
    if complete:  # every row of every complete table in one call
        stacked = np.percentile(np.stack([raw[m] for m in complete]), [25, 50, 75], axis=2)
        tables = dict(zip(complete, stacked.transpose(1, 2, 0)))
    for m in cfg.metrics:
        if m not in tables:
            rows = []
            for vals in raw[m]:
                vals = vals[np.isfinite(vals)]
                rows.append(np.percentile(vals, [25, 50, 75]) if vals.size
                            else (math.nan, math.nan, math.nan))
            tables[m] = rows
        per_n = {n: tuple(float(q) for q in row) for n, row in zip(cfg.n_grid, tables[m])}
        quantiles[m] = per_n
        try:
            slopes[m] = fit_slope(cfg.n_grid, [q50 for _, q50, _ in per_n.values()])
        except ValueError:
            slopes[m] = (math.nan, math.nan)
    return RateStudyResult(config=cfg, quantiles=quantiles, slopes=slopes,
                           raw=raw, excluded=excluded, flagged_invalid=flagged,
                           sup_phat=sup_phat)


def fit_slope(ns: Sequence[float], errors: Sequence[float]
              ) -> Tuple[float, float]:
    """Least-squares slope (with standard error) of log error against log n."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = np.isfinite(errors) & (errors > 0) & (ns > 0)
    if keep.sum() < len(errors):
        import warnings
        warnings.warn(f"dropping {len(errors) - int(keep.sum())} nonpositive "
                      "error values from the slope fit", stacklevel=2)
    ns, errors = ns[keep], errors[keep]
    if ns.size < 3:
        raise ValueError("need at least 3 positive (n, error) pairs")
    x, y = np.log(ns), np.log(errors)
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    if sxx == 0.0:
        raise ValueError("need at least 2 distinct n")
    slope = float(np.dot(xc, y)) / sxx
    resid = y - y.mean() - slope * xc
    return slope, math.sqrt(float(np.dot(resid, resid)) / (x.size - 2) / sxx)


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


def entropy_integral_quadrature(K: float, delta: float) -> float:
    """Independent quadrature of the entropy integral (endpoint singularity)."""
    val, _ = _sintegrate.quad(lambda e: math.sqrt(K * e ** -0.5), 0.0, delta,
                              limit=400, epsabs=1e-13, epsrel=1e-13)
    return val


def rate_equation_check(K: float, n_grid: Sequence[int],
                        c_grid: Optional[Sequence[float]] = None) -> dict:
    """Verify that r_n = c n^(2/5) solves the local-modulus inequality.

    With Psi(delta) = J(delta) (1 + J(delta)/(delta^2 sqrt(n))), report for
    each n the admissible range of c with r_n^2 Psi(1/r_n) <= sqrt(n), plus
    the quadrature cross-check of the closed-form J.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    if c_grid is None:
        # center the scan on the scale where the inequality turns over,
        # q (1 + q) = 1 at q = (4/3) sqrt(K) c^(5/4)
        c_pivot = (3.0 / (4.0 * math.sqrt(K))) ** 0.8
        c_grid = np.geomspace(c_pivot * 1e-4, c_pivot * 1e4, 641)
    c_grid = np.asarray(c_grid, dtype=float)
    j_err = max(abs(entropy_integral(K, d) - entropy_integral_quadrature(K, d))
                / entropy_integral(K, d) for d in (0.1, 1.0))
    rows = []
    admissible_all = np.ones(c_grid.shape, dtype=bool)
    for n in n_grid:
        sqrt_n = math.sqrt(n)
        ok = np.zeros(c_grid.shape, dtype=bool)
        for k, c in enumerate(c_grid):
            r_n = c * n ** 0.4
            delta = 1.0 / r_n
            J = entropy_integral(K, delta)
            psi = J * (1.0 + J / (delta ** 2 * sqrt_n))
            ok[k] = r_n ** 2 * psi <= sqrt_n
        admissible_all &= ok
        c_max = float(c_grid[ok].max()) if ok.any() else 0.0
        rows.append({"n": int(n), "c_max": c_max})
    c_star = float(c_grid[admissible_all].max()) if admissible_all.any() else 0.0
    return {"J_quadrature_relative_error": float(j_err),
            "per_n": rows, "c_admissible": c_star}
