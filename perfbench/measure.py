"""Measuring process of the benchmark: one workload at one seed.

Start it through ``run.py``, which pins BLAS to one thread before numpy is
imported, times set-up in fresh interpreters and prints the result line.

``--trace 0``: studies of the workload, each with its own seed derived
from ``--seed``, run back to back until ``--seconds`` of study time have
passed (at least three, for a median).  ``study_s`` is the median study wall
time.  Between studies, spread evenly over the study time, the process
prints a set-up probe request and waits until the launcher has timed one
set-up in a fresh interpreter and answers ``go``.

``--trace 1``: a fixed number of studies, each run at ``jobs=1`` with the
toolkit's public functions wrapped in spans under the names their calling
module uses; on the rate workloads the first ones then run again untraced,
as configured, so both runs of a study see the same host speed.  Then the
objective gate re-runs the fixed fits of ``fixtures/objective_fits.json``
and ``mle.objective`` is timed at nine fixed points whose values are
checked against ``fixtures/objective_kernel.json``.

Both modes check the untraced outputs: the pooled Hellinger slope lies in
its band (rate workloads); the committed ``log_cardinality`` values and the
entropy exponent band hold (``entropy-cover``).

The last line of stdout is a JSON object.  Its ``attempted`` and ``failed``
count study calls and the ones that raised; replications a study excluded
and (member, eps) checks it left uncovered are outputs of the study, measured
by ``ok_frac``.  The exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import specs
from spans import Tracer, span_cost_s

from sconcave import entropy as ent
from sconcave import mle, rate_harness
from sconcave.density import NORMALIZED_TOL, hellinger, reference, sample
from sconcave.mle import FitConfig
from sconcave.rate_harness import RateStudyConfig, derived_seed, fit_slope

GATE_TOL = 1e-9          # objective may not drop below the fixture by more
KERNEL_RTOL = 1e-12      # stored objective values, relative
ACCOUNTING_TOL = 0.01    # wrapped functions must cover the traced study time
TAIL_BEYOND = 10         # tail percentile keeps at least this many fits beyond it
REFERENCE_STUDIES = 2     # untraced studies timed for rate_harness.pool_efficiency
REFERENCE_BUDGET_S = 40.0  # ... only while the traced phase is younger than this
SETUP_PROBES = 14        # set-up probes per untraced run (2 at smoke size)
PROBE_REQUEST = "@probe"  # answered by the launcher with "go"

END_TO_END_UNITS = {"study_s": "s", "ok_frac": "frac", "peak_rss_mb": "MB"}

KERNEL_METRICS = [f"mle.objective.{sk}.{nk}.us"
                  for sk in specs.KERNEL_S for nk in specs.KERNEL_N]
PER_LAYER_UNITS = {
    "mle.fit.calls": "count", "mle.fit.s": "s", "mle.fit.share": "frac",
    "mle.fit.n6400.p50_ms": "ms", "mle.fit.n6400.tail_ms": "ms",
    "mle.fit.evals": "count", "mle.fit.evals_max": "count",
    "mle.fit.kinks_mean": "count", "mle.fit.uncertified": "count",
    "mle.fit.objective_deficit_max": "nat",
    "mle.loglik_ratio.s": "s",
    **{name: "us" for name in KERNEL_METRICS},
    "density.sample.s": "s", "density.hellinger.s": "s",
    "density.l1_distance.s": "s",
    "rate_harness.run_rate_study.self_s": "s",
    "rate_harness.consistency_diagnostics.s": "s",
    "rate_harness.pool_efficiency": "frac",
    "transforms.check_s_concavity.s": "s",
    "entropy.sample_members.s": "s", "entropy.sample_members.calls": "count",
    "entropy.build_cover.s": "s", "entropy.build_cover.calls": "count",
    "entropy.locate.s": "s", "entropy.locate.calls": "count",
    "entropy.verify_bracketing.self_s": "s",
    "entropy.entropy_curve.s": "s", "entropy.entropy_curve.calls": "count",
    "entropy.size_slack.bounded": "ratio", "entropy.size_slack.tail": "ratio",
    "trace.overhead_frac": "frac",
}

RATE_ONLY_METRICS = ("mle.fit.calls", "mle.fit.s", "mle.fit.n6400.p50_ms",
                     "mle.fit.n6400.tail_ms", "mle.fit.evals", "mle.fit.evals_max",
                     "mle.fit.kinks_mean", "mle.fit.uncertified",
                     "mle.fit.objective_deficit_max", "rate_harness.pool_efficiency")

# rate_harness attribute -> span name (layer.function)
RATE_SPANS = {
    "fit": "mle.fit",
    "loglik_ratio": "mle.loglik_ratio",
    "sample": "density.sample",
    "hellinger": "density.hellinger",
    "l1_distance": "density.l1_distance",
    "consistency_diagnostics": "rate_harness.consistency_diagnostics",
    "check_s_concavity": "transforms.check_s_concavity",
}
LAYER_PARTS = {
    "mle": ["mle.fit", "mle.loglik_ratio"],
    "density": ["density.sample", "density.hellinger", "density.l1_distance"],
    "rate_harness": ["rate_harness.run_rate_study",
                     "rate_harness.consistency_diagnostics"],
    "transforms": ["transforms.check_s_concavity"],
    "entropy": ["entropy.sample_members", "entropy.build_cover",
                "entropy.verify_bracketing", "entropy.locate",
                "entropy.entropy_curve"],
}


class Checks:
    def __init__(self):
        self.rows = []

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.rows.append({"name": name, "ok": bool(ok), "detail": detail})
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)

    @property
    def ok(self) -> bool:
        return all(row["ok"] for row in self.rows)


def load_fixture(name: str) -> dict:
    return json.loads((specs.FIXTURE_DIR / name).read_text())


def relative_error(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), math.ulp(1.0))


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------

def environment(root: Path) -> dict:
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = git_head(root / ".git")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def git_head(git_dir: Path) -> str:
    """Commit of a git checkout, read from its files (no child process)."""
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git_dir / ref).is_file():
            return (git_dir / ref).read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child (pool worker), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ----------------------------------------------------------------------
# Rate workloads
# ----------------------------------------------------------------------

def fit_annotator(attrs, args, res):
    data, cfg = args[0], args[1]
    attrs["n"] = int(np.asarray(data).size)
    attrs["grad_tol"] = cfg.grad_tol
    if res is None:
        return
    attrs.update(iterations=int(res.iterations), converged=bool(res.converged),
                 kkt_residual=float(res.kkt_residual),
                 objective=float(res.objective), loglik=float(res.loglik),
                 knots=int(res.phi_hat.knots.size),
                 integral=float(res.density.integral))


def tail_percentile(count: int):
    """Highest percentile with at least TAIL_BEYOND of ``count`` samples beyond it."""
    if count <= TAIL_BEYOND:
        return None
    return math.floor(100.0 * (count - TAIL_BEYOND) / count)


class RateRun:
    def __init__(self, wl: specs.RateWorkload, seed: int, smoke: bool):
        self.wl = wl
        self.seed = seed
        self.smoke = smoke
        self.grid = specs.rate_grid(smoke)
        self.reps = 1 if smoke else wl.replications
        self.dist = reference(wl.true_density, wl.beta)

    def config(self, study: int, jobs: int) -> RateStudyConfig:
        wl = self.wl
        return RateStudyConfig(
            true_density=wl.true_density, s=wl.s, beta=wl.beta,
            n_grid=self.grid, replications=self.reps,
            seed=specs.study_seed(self.seed, wl.key, study),
            metrics=wl.metrics, jobs=jobs)

    def warm_up(self) -> None:
        cfg = self.config(0, 1)
        data = sample(self.dist, self.grid[0], derived_seed(cfg.seed, 0, 0))
        res = mle.fit(data, FitConfig(s=self.wl.s))
        hellinger(res.density, self.dist)

    def study(self, i: int):
        return rate_harness.run_rate_study(self.config(i, self.wl.jobs))

    def timed_study(self, i: int) -> float:
        t0 = perf_counter()
        self.study(i)
        return perf_counter() - t0

    def check(self, results, checks: Checks) -> dict:
        tables = np.concatenate([r.raw["hellinger"] for r in results], axis=1)
        medians = [float(np.median(row[np.isfinite(row)])) if np.isfinite(row).any()
                   else math.nan for row in tables]
        slope, stderr = fit_slope(self.grid, medians)
        lo, hi = self.wl.slope_band
        label = f"hellinger slope ({self.wl.name}, {tables.shape[1]} pooled replications)"
        if self.smoke:
            checks.add(label, True, f"{slope:.4f} (band not applied at smoke size)")
        else:
            checks.add(label, lo <= slope <= hi,
                       f"{slope:.4f} +- {stderr:.4f} in [{lo}, {hi}]")
        replications = len(self.grid) * self.reps * len(results)
        excluded = sum(r.excluded for r in results)
        print(f"excluded replications: {excluded} of {replications}", flush=True)
        return {"units": replications, "bad": excluded,
                "detail": {"hellinger_slope": slope, "slope_stderr": stderr,
                           "excluded": excluded, "replications": replications}}

    def traced(self, checks: Checks):
        """Traced studies at jobs=1; the first ones also run untraced as configured.

        The untraced run of study i follows its traced run, so both see the
        same host speed.  It is skipped once the traced phase has used
        REFERENCE_BUDGET_S, so a rare fit that takes tens of seconds cannot
        push the run past its time limit.  If that skips them all, the
        quickest traced study gets a reference run at the end.
        """
        tracer = Tracer()
        wl = self.wl
        names = {attr: (span, fit_annotator if attr == "fit" else None)
                 for attr, span in RATE_SPANS.items()}
        results, traced_times, reference_times = [], [], {}
        start = perf_counter()
        for i in range(1 if self.smoke else -(-specs.TRACED_TOP_FITS // self.reps)):
            with tracer.patched(rate_harness, names):
                tracer.study = i
                t0 = perf_counter()
                with tracer.span("rate_harness.run_rate_study"):
                    results.append(rate_harness.run_rate_study(self.config(i, 1)))
                traced_times.append(perf_counter() - t0)
                tracer.study = None
            if i < REFERENCE_STUDIES and perf_counter() - start < REFERENCE_BUDGET_S:
                reference_times[i] = self.timed_study(i)
        if not reference_times:  # a slow first study spent the budget
            quickest = int(np.argmin(traced_times))
            reference_times[quickest] = self.timed_study(quickest)

        fits = tracer.by_name("mle.fit")
        done = [f["attrs"] for f in fits if "objective" in f["attrs"]]
        off = [a for a in done if abs(a["integral"] - 1.0) > NORMALIZED_TOL]
        checks.add("fit densities normalized", not off,
                   f"{len(done) - len(off)}/{len(done)} traced fits with "
                   f"|integral - 1| <= {NORMALIZED_TOL:g}")
        deficit = objective_gate(self, checks)

        n_top = self.grid[-1]
        top_ms = sorted(1e3 * (f["end"] - f["start"]) for f in fits
                        if f["attrs"]["n"] == n_top)
        pct = tail_percentile(len(top_ms))
        tail = float(np.percentile(top_ms, pct)) if pct is not None else max(top_ms)
        notes = [f"mle.fit.n6400.*: {len(top_ms)} traced fits at n={n_top}; tail_ms is "
                 + (f"p{pct}, the highest percentile with >= {TAIL_BEYOND} fits beyond it"
                    if pct is not None else
                    f"the max (fewer than {TAIL_BEYOND + 1} fits, no percentile has "
                    f"{TAIL_BEYOND} beyond it)")]

        fit_s_per_study = [sum(f["end"] - f["start"] for f in fits if f["study"] == i)
                           for i in range(len(traced_times))]
        ratios = [fit_s_per_study[i] / (wl.jobs * t) for i, t in reference_times.items()]
        notes.append(f"rate_harness.pool_efficiency: untraced reference runs of studies "
                     f"{sorted(reference_times)} at jobs={wl.jobs}")
        uncertified = sum(1 for f in fits
                          if "objective" not in f["attrs"]
                          or not f["attrs"]["converged"]
                          or f["attrs"]["kkt_residual"] > f["attrs"]["grad_tol"])
        metrics = {
            "mle.fit.calls": len(fits),
            "mle.fit.s": sum(fit_s_per_study),
            "mle.fit.n6400.p50_ms": float(np.median(top_ms)),
            "mle.fit.n6400.tail_ms": tail,
            "mle.fit.evals": sum(a["iterations"] for a in done),
            "mle.fit.evals_max": max((a["iterations"] for a in done), default=0),
            "mle.fit.kinks_mean": float(np.mean([a["knots"] for a in done])) if done else 0.0,
            "mle.fit.uncertified": uncertified,
            "mle.fit.objective_deficit_max": deficit,
            "rate_harness.pool_efficiency": statistics.median(ratios),
        }
        return results, tracer, traced_times, metrics, notes


def objective_gate(run: RateRun, checks: Checks) -> float:
    """Re-run the fixed fits; no objective may fall below the fixture."""
    entries = {e["n"]: e for e in
               load_fixture("objective_fits.json")[run.wl.name]}
    worst = -math.inf
    bad = []
    inputs = specs.gate_inputs(run.wl, run.grid)
    for _, n, data_seed in inputs:
        want = entries[n]
        if want["data_seed"] != data_seed:
            raise ValueError(f"fixture input mismatch at n={n}")
        data = sample(run.dist, n, data_seed)
        try:
            res = mle.fit(data, FitConfig(s=run.wl.s))
        except Exception as exc:  # a raise loses the certified result
            if want["objective"] is not None:
                bad.append(f"n={n} raised {exc!r}")
            continue
        if abs(res.density.integral - 1.0) > NORMALIZED_TOL:
            bad.append(f"n={n} integral {res.density.integral!r}")
        if want["objective"] is None:
            continue
        deficit = want["objective"] - res.objective
        worst = max(worst, deficit)
        if deficit > GATE_TOL:
            bad.append(f"n={n} objective {res.objective!r} < fixture "
                       f"{want['objective']!r}")
    checks.add("objective gate", not bad,
               f"{len(inputs)} fixed fits; max deficit {worst:.3e} <= {GATE_TOL:g}"
               + ("" if not bad else "; " + "; ".join(bad)))
    return worst if math.isfinite(worst) else 0.0


def kernel_timings(checks: Checks, smoke: bool) -> dict:
    """Median per-call time of the public ``objective`` at nine fixed points."""
    stored = load_fixture("objective_kernel.json")
    out, worst = {}, 0.0
    budget = 0.02 if smoke else 0.15
    for sk, s in specs.KERNEL_S.items():
        for nk, n in specs.KERNEL_N.items():
            name = f"mle.objective.{sk}.{nk}.us"
            x, v = specs.kernel_inputs(s, n)
            value, grad = mle.objective(v, x, s)
            want = stored[name]
            worst = max(worst, relative_error(value, want["value"]),
                        relative_error(float(np.linalg.norm(grad)), want["grad_norm"]))
            times = []
            t_end = perf_counter() + budget
            while len(times) < 3 or perf_counter() < t_end:
                t0 = perf_counter()
                mle.objective(v, x, s)
                times.append(perf_counter() - t0)
            out[name] = 1e6 * statistics.median(times)
    checks.add("objective kernel values", worst <= KERNEL_RTOL,
               f"9 points; max relative error {worst:.2e} <= {KERNEL_RTOL:g}")
    return out


# ----------------------------------------------------------------------
# Entropy workload
# ----------------------------------------------------------------------

class EntropyRun:
    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.classes = [(c, c.descriptor()) for c in specs.entropy_classes(smoke)]

    def member_seed(self, study: int, index: int) -> int:
        return specs.study_seed(self.seed, specs.ENTROPY_KEY * 10 + index, study)

    def warm_up(self) -> None:
        for idx, (spec, desc) in enumerate(self.classes):
            members = ent.sample_members(desc, 5, self.member_seed(0, idx))
            ent.verify_bracketing(ent.build_cover(desc, spec.eps_grid[0], spec.r),
                                  members)

    def study(self, i: int, api=None):
        """The entropy-study path for both classes; ``api`` swaps in wrappers."""
        api = api or {}
        sample_members = api.get("sample_members", ent.sample_members)
        build_cover = api.get("build_cover", ent.build_cover)
        verify = api.get("verify_bracketing", ent.verify_bracketing)
        curve_fn = api.get("entropy_curve", ent.entropy_curve)
        wrap_locate = api.get("locate")
        out = []
        for idx, (spec, desc) in enumerate(self.classes):
            members = sample_members(desc, spec.members, self.member_seed(i, idx))
            rows = []
            for eps in spec.eps_grid:
                bset = build_cover(desc, eps, spec.r)
                if wrap_locate is not None:
                    bset = dataclasses.replace(bset, locate=wrap_locate(bset.locate))
                rows.append((eps, bset, verify(bset, members)))
            out.append((spec, members, rows, curve_fn(desc, spec.eps_grid, spec.r)))
        return out

    def summarize(self, raw):
        """Per (class, eps) numbers of one study; drops members and covers."""
        rows = []
        for spec, members, covers, curve in raw:
            for eps, bset, rep in covers:
                rows.append({"key": f"{spec.label}:{eps!r}", "label": spec.label,
                             "smallest": eps == spec.eps_grid[-1],
                             "log_cardinality": bset.log_cardinality,
                             "checks": len(members),
                             "uncovered": self.uncovered(bset, members, rep),
                             "slack": rep.max_observed_size / bset.size_bound,
                             "exponent": curve.exponent})
        return rows

    @staticmethod
    def uncovered(bset, members, rep) -> int:
        """Members not covered or with a bracket above ``size_bound``."""
        if rep.covered_fraction == 1.0 and rep.max_observed_size <= bset.size_bound:
            return 0
        # rare: re-check one member at a time, outside any span
        bset = dataclasses.replace(bset, locate=getattr(bset.locate, "__wrapped__",
                                                        bset.locate))
        bad = 0
        for member in members:
            one = ent.verify_bracketing(bset, [member])
            bad += one.covered_fraction < 1.0 or one.max_observed_size > bset.size_bound
        return bad

    def check(self, results, checks: Checks) -> dict:
        want = load_fixture("entropy_log_cardinality.json")
        rows = [row for result in results for row in result]
        mismatched = sorted({f"{r['key']} {r['log_cardinality']!r} != {want.get(r['key'])!r}"
                             for r in rows if r["log_cardinality"] != want.get(r["key"])})
        checks.add("log_cardinality fixture", not mismatched,
                   f"{len({r['key'] for r in rows})} committed values matched exactly"
                   if not mismatched else "; ".join(mismatched[:4]))
        exponents = {}
        for r in rows:
            exponents.setdefault(r["label"], set()).add(r["exponent"])
        flat = {label: sorted(vals) for label, vals in exponents.items()}
        lo, hi = specs.EXPONENT_BAND
        checks.add("entropy exponent", all(lo <= e <= hi for v in flat.values() for e in v),
                   f"{ {k: [round(e, 4) for e in v] for k, v in flat.items()} } "
                   f"in [{lo}, {hi}]")
        slack = {}
        for r in rows:
            if r["smallest"]:
                slack[r["label"]] = max(slack.get(r["label"], 0.0), r["slack"])
        checked = sum(r["checks"] for r in rows)
        uncovered = sum(r["uncovered"] for r in rows)
        print(f"uncovered (member, eps) checks: {uncovered} of {checked}", flush=True)
        return {"units": checked, "bad": uncovered,
                "detail": {"exponents": flat, "size_slack": slack,
                           "uncovered": uncovered, "checks": checked}}

    def traced(self, checks: Checks):
        tracer = Tracer()
        api = {name: tracer.wrap(f"entropy.{name}", getattr(ent, name))
               for name in ("sample_members", "build_cover", "verify_bracketing",
                            "entropy_curve")}
        api["locate"] = lambda fn: tracer.wrap("entropy.locate", fn)
        results, traced_times = [], []
        for i in range(1 if self.smoke else specs.TRACED_ENTROPY_STUDIES):
            tracer.study = i
            t0 = perf_counter()
            raw = self.study(i, api)
            traced_times.append(perf_counter() - t0)
            tracer.study = None
            results.append(self.summarize(raw))
            del raw
        # no fits here: the rate-only mle and pool metrics are 0
        return results, tracer, traced_times, dict.fromkeys(RATE_ONLY_METRICS, 0.0), []


# ----------------------------------------------------------------------
# Per-layer metrics and share accounting
# ----------------------------------------------------------------------

def layer_metrics(tracer: Tracer, traced_times, checks: Checks) -> dict:
    totals = tracer.totals()

    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0.0)

    study_total = sum(traced_times)
    metrics = {
        "mle.loglik_ratio.s": get("mle.loglik_ratio"),
        "density.sample.s": get("density.sample"),
        "density.hellinger.s": get("density.hellinger"),
        "density.l1_distance.s": get("density.l1_distance"),
        "rate_harness.run_rate_study.self_s": get("rate_harness.run_rate_study", "self_s"),
        "rate_harness.consistency_diagnostics.s": get("rate_harness.consistency_diagnostics"),
        "transforms.check_s_concavity.s": get("transforms.check_s_concavity"),
        "entropy.verify_bracketing.self_s": get("entropy.verify_bracketing", "self_s"),
        "mle.fit.share": get("mle.fit") / study_total,
    }
    for name in ("sample_members", "build_cover", "locate", "entropy_curve"):
        metrics[f"entropy.{name}.s"] = get(f"entropy.{name}")
        metrics[f"entropy.{name}.calls"] = get(f"entropy.{name}", "calls")

    print(f"traced study_s total {study_total:.4f} s over {len(traced_times)} studies; "
          "layer self time as a share of it:", flush=True)
    accounted = 0.0
    for layer, parts in LAYER_PARTS.items():
        self_s = sum(get(p, "self_s") for p in parts)
        accounted += self_s
        print(f"  {layer:<13} {self_s:10.4f} s  {self_s / study_total:7.2%}", flush=True)
    print(f"  {'(outside)':<13} {study_total - accounted:10.4f} s  "
          f"{1 - accounted / study_total:7.2%}", flush=True)
    # the root span's self time is harness code that no wrapper covers
    root_self = get("rate_harness.run_rate_study", "self_s")
    unaccounted = (study_total - accounted + root_self) / study_total
    checks.add("share accounting", abs(unaccounted) <= ACCOUNTING_TOL,
               f"wrapped public functions cover {1 - unaccounted:.4%} of traced "
               f"study_s; run_rate_study self time and time outside any span "
               f"{unaccounted:.4%} (at most {ACCOUNTING_TOL:.0%})")
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def make_run(workload: str, seed: int, smoke: bool):
    if workload in specs.RATE_WORKLOADS:
        return RateRun(specs.RATE_WORKLOADS[workload], seed, smoke)
    return EntropyRun(seed, smoke)


def request_probe() -> None:
    """Wait while the launcher times one set-up in a fresh interpreter."""
    print(PROBE_REQUEST, flush=True)
    if sys.stdin.readline().strip() != "go":
        raise RuntimeError("no answer to a set-up probe request (start through run.py)")


def untraced_studies(run, seconds: float, probes: int):
    """Studies back to back; probe ``i`` runs once ``i * seconds / probes`` of study time passed.

    A study that raises is a failed operation: it is counted and reported,
    its time counts toward ``seconds`` but not toward ``study_s``.
    """
    summarize = getattr(run, "summarize", lambda raw: raw)
    times, results = [], []
    failed, spent, probed = 0, 0.0, 0
    while True:
        while probed < probes and probed * seconds <= probes * spent:
            request_probe()
            probed += 1
        if spent >= seconds and (len(times) >= specs.MIN_STUDIES
                                 or spent >= 2 * seconds):
            break
        i = len(times) + failed
        t0 = perf_counter()
        try:
            raw = run.study(i)
        except Exception as exc:
            spent += perf_counter() - t0
            failed += 1
            print(f"study {i} raised {exc!r}", flush=True)
            continue
        times.append(perf_counter() - t0)
        spent += times[-1]
        results.append(summarize(raw))
        del raw
    return times, results, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    run = make_run(args.workload, args.seed, args.smoke)
    run.warm_up()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    root = Path.cwd()
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = environment(root)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    checks = Checks()
    if args.trace == 0:
        times, results, failed = untraced_studies(run, args.seconds,
                                                  2 if args.smoke else SETUP_PROBES)
        print(f"untraced: {len(times)} studies, wall s "
              + ", ".join(f"{t:.4f}" for t in times), flush=True)
        if not times:
            checks.add("studies completed", False, f"all {failed} studies raised")
            return 1
    else:
        # fixed size: a study that raises ends the run without a result
        results, tracer, times, metrics, notes = run.traced(checks)
        failed = 0
        print(f"traced: {len(times)} studies, wall s "
              + ", ".join(f"{t:.4f}" for t in times), flush=True)
    summary = run.check(results, checks)
    # an operation is one study call; excluded replications and uncovered
    # checks are outputs of a study that completed, measured by ok_frac
    attempted = len(times) + failed
    if args.trace == 0:
        metrics = {"study_s": statistics.median(times),
                   "ok_frac": 1.0 - summary["bad"] / summary["units"],
                   "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END_UNITS
        notes = []
    else:
        metrics.update(layer_metrics(tracer, times, checks))
        metrics["trace.overhead_frac"] = len(tracer.spans) * span_cost_s() / sum(times)
        metrics.update(kernel_timings(checks, args.smoke))
        slack = summary["detail"].get("size_slack", {})
        metrics["entropy.size_slack.bounded"] = slack.get("bounded", 0.0)
        metrics["entropy.size_slack.tail"] = slack.get("tail", 0.0)
        notes.append("mle.objective.*.us time the public objective(), which "
                     "includes the np.unique knot set-up: an upper bound on the "
                     "kernel's own time")
        notes.append("trace.overhead_frac: spans x the measured cost of one span "
                     "around a no-op call, over the traced study time")
        notes.append("layers not run by this workload report 0")
        units = PER_LAYER_UNITS
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.spans.json")
    for note in notes:
        print("note: " + note, flush=True)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    result = {"correct": checks.ok, "attempted": int(attempted), "failed": int(failed),
              "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                          for name in units}}
    report = {**result, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "checks": checks.rows,
              "notes": notes, "study_times_s": times, "summary": summary["detail"]}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    print(json.dumps(result), flush=True)
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
