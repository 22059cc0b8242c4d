"""Command-line surface: fit, sample, studies, envelope checks, and plots.

Exit codes: 0 success, 1 usage or data error, 2 degraded success (a fit that
did not converge but produced a usable result).
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import density as _density
from . import entropy as _entropy
from . import mle as _mle
from . import rate_harness as _rate
from .transforms import Transform

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGRADED = 2


class CliError(click.ClickException):
    exit_code = EXIT_ERROR


def _load_data(path: str) -> np.ndarray:
    """One finite real per line; a single-column CSV header is skipped."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip().split(",")[0].strip()
            if not token:
                continue
            try:
                values.append(float(token))
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise CliError(f"{path}:{lineno}: cannot parse {token!r} as a number")
    if not values:
        raise CliError(f"{path}: no data")
    arr = np.asarray(values)
    if np.any(~np.isfinite(arr)):
        raise CliError(f"{path}: data contains non-finite values")
    return arr


def _write_json(obj, out: str) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out == "-":
        click.echo(text)
    else:
        Path(out).write_text(text + "\n")


def _svg_loglog_plot(xs, ys, slope, intercept, title: str) -> str:
    """Minimal static SVG: log-log points plus the fitted line."""
    lx, ly = np.log10(xs), np.log10(ys)
    w, h, pad = 480, 320, 45
    x0, x1 = float(lx.min()), float(lx.max())
    y0, y1 = float(ly.min()), float(ly.max())
    x1 += 1e-9
    y1 += 1e-9

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (w - 2 * pad)

    def sy(v):
        return h - pad - (v - y0) / (y1 - y0) * (h - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<text x="{w/2}" y="18" text-anchor="middle" font-size="13">{title}</text>',
             f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>']
    ln = math.log(10.0)
    fit_y0 = (slope * (x0 * ln) + intercept) / ln
    fit_y1 = (slope * (x1 * ln) + intercept) / ln
    parts.append(f'<line x1="{sx(x0)}" y1="{sy(fit_y0)}" x2="{sx(x1)}" '
                 f'y2="{sy(fit_y1)}" stroke="steelblue" stroke-width="1.5"/>')
    for vx, vy in zip(lx, ly):
        parts.append(f'<circle cx="{sx(vx)}" cy="{sy(vy)}" r="3.5" fill="crimson"/>')
    parts.append(f'<text x="{w-pad}" y="{h-10}" text-anchor="end" font-size="11">'
                 f'slope = {slope:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


@click.group()
def main():
    """Shape-constrained density estimation toolkit."""


@main.command("fit")
@click.argument("data_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--s", "s_value", type=float, required=True,
              help="class index; 0 is the log-concave case")
@click.option("--out", default="-", help="output path for the fit JSON ('-' = stdout)")
@click.option("--grad-tol", type=float, default=1e-7, show_default=True)
def cmd_fit(data_file, s_value, out, grad_tol):
    """Maximum likelihood fit of an s-concave density to the data file."""
    data = _load_data(data_file)
    try:
        result = _mle.fit(data, _mle.FitConfig(s=s_value, grad_tol=grad_tol))
    except (_mle.UnsupportedInstanceError, ValueError) as exc:
        raise CliError(str(exc))
    _write_json(result.to_dict(), out)
    if not result.converged:
        click.echo("warning: fit did not converge to tolerance", err=True)
        sys.exit(EXIT_DEGRADED)


@main.command("sample")
@click.option("--dist", type=click.Choice(["gaussian", "laplace", "uniform", "pareto"]),
              required=True)
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, required=True,
              help="required; all randomness flows from this seed")
@click.option("--beta", type=float, default=3.0, show_default=True,
              help="tail exponent for the symmetric Pareto family")
@click.option("--out", default="-")
def cmd_sample(dist, n, seed, beta, out):
    """Draw reference-distribution samples, one float per line."""
    try:
        values = _density.sample(_density.reference(dist, beta), n, seed)
    except ValueError as exc:
        raise CliError(str(exc))
    text = "\n".join(f"{v:.17g}" for v in values)
    if out == "-":
        click.echo(text)
    else:
        Path(out).write_text(text + "\n")


@main.command("rate-study")
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", default="rate_study", show_default=True,
              help="output prefix for the CSV table / JSON summary / SVG plot")
@click.option("--format", "formats", multiple=True,
              type=click.Choice(["csv", "json", "svg"]), default=("csv", "json"))
@click.option("--jobs", type=int, default=None,
              help="parallel replication workers (overrides the config)")
def cmd_rate_study(config_file, out, formats, jobs):
    """Run a replicated convergence-rate study from a JSON config."""
    try:
        doc = json.loads(Path(config_file).read_text())
        if jobs is not None:
            doc["jobs"] = jobs
        cfg = _rate.RateStudyConfig.from_dict(doc)
        result = _rate.run_rate_study(cfg)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc))
    if "csv" in formats:
        with open(f"{out}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "n", "replication", "value"])
            for metric, table in result.raw.items():
                for i, n in enumerate(cfg.n_grid):
                    for j in range(cfg.replications):
                        writer.writerow([metric, n, j, f"{table[i, j]:.12g}"])
    if "json" in formats:
        _write_json(result.summary_dict(), f"{out}.json")
    if "svg" in formats:
        metric = cfg.metrics[0]
        medians = np.asarray([result.quantiles[metric][n][1] for n in cfg.n_grid])
        slope, _ = result.slopes[metric]
        keep = np.isfinite(medians) & (medians > 0)
        ns = np.asarray(cfg.n_grid, dtype=float)[keep]
        med = medians[keep]
        intercept = float(np.mean(np.log(med) - slope * np.log(ns)))
        Path(f"{out}.svg").write_text(_svg_loglog_plot(
            ns, med, slope, intercept, f"{metric} vs n ({cfg.true_density})"))
    if result.flagged_invalid:
        click.echo("warning: more than 5% of replications excluded", err=True)
        sys.exit(EXIT_DEGRADED)


@main.command("entropy-study")
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", default="entropy_study", show_default=True)
@click.option("--seed", type=int, required=True)
def cmd_entropy_study(config_file, out, seed):
    """Bracketing-entropy curve with per-eps coverage verification."""
    try:
        raw = json.loads(Path(config_file).read_text())
        if raw.get("version") != 1:
            raise CliError(f"unsupported config version {raw.get('version')!r}")
        known = {"version", "class", "eps_grid", "r", "members", "params"}
        unknown = set(raw) - known
        if unknown:
            raise CliError(f"unknown config keys {sorted(unknown)}")
        descriptor = _descriptor_from_config(raw)
        r = float(raw["r"])
        eps_grid = [float(e) for e in raw["eps_grid"]]
        n_members = int(raw.get("members", 200))
        if n_members < 1:
            raise ValueError(f"members must be at least 1, got {n_members}")
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"bad entropy config: {exc}")
    members = _entropy.sample_members(descriptor, n_members, seed)
    rows = []
    for eps in eps_grid:
        try:
            bset = _entropy.build_cover(descriptor, eps, r)
        except ValueError as exc:  # ThresholdError and HypothesisError among them
            raise CliError(f"eps = {eps}: {exc}")
        rep = _entropy.verify_bracketing(bset, members)
        rows.append({"eps": eps, "log_cardinality": bset.log_cardinality,
                     "max_size": rep.max_observed_size, "size_bound": bset.size_bound,
                     "size_slack": rep.max_observed_size / bset.size_bound,
                     "covered_fraction": rep.covered_fraction})
    try:
        exponent = _entropy._fitted_exponent([row["eps"] for row in rows],
                                             [row["log_cardinality"] for row in rows])
    except ValueError as exc:
        raise CliError(str(exc))
    with open(f"{out}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "count_log10", "log_cardinality", "max_size",
                         "size_bound", "size_slack", "covered_fraction"])
        for row in rows:
            writer.writerow([row["eps"], row["log_cardinality"] / math.log(10.0),
                             row["log_cardinality"], f"{row['max_size']:.8g}",
                             f"{row['size_bound']:.8g}", f"{row['size_slack']:.8g}",
                             row["covered_fraction"]])
    _write_json({"fitted_exponent": exponent, "local_exponents": _local_exponents(rows),
                 "rows": rows}, f"{out}.json")


def _local_exponents(rows) -> list:
    """Slope of log(log_cardinality) against log(1/eps) from each row's
    predecessor; None for the first row and where a count is not positive."""
    out = [None]
    for prev, row in zip(rows, rows[1:]):
        n0, n1 = prev["log_cardinality"], row["log_cardinality"]
        if n0 > 0 and n1 > 0 and prev["eps"] != row["eps"]:
            out.append((math.log(n1) - math.log(n0))
                       / (math.log(1.0 / row["eps"]) - math.log(1.0 / prev["eps"])))
        else:
            out.append(None)
    return out


def _descriptor_from_config(raw: dict):
    kind = raw["class"]
    p = raw.get("params", {})
    if kind == "bounded_concave":
        return _entropy.BoundedConcaveClass(p.get("b1", 0.0), p.get("b2", 1.0),
                                            p.get("B", 1.0))
    if kind == "lipschitz_concave":
        return _entropy.LipschitzConcaveClass(p.get("a", 0.0), p.get("b", 1.0),
                                              p.get("B", 1.0), p.get("Gamma", 1.0))
    if kind == "transformed_compact":
        return _entropy.TransformedCompactClass(
            Transform.power(p.get("s", 0.0)),
            p.get("b1", 0.0), p.get("b2", 1.0), p.get("B", 1.0))
    if kind == "tail_class":
        return _entropy.TailClass(
            Transform.power(p.get("s", 0.0)),
            p.get("M", 2.0))
    raise CliError(f"unknown class {kind!r}")


@main.command("envelope-check")
@click.option("--s", "s_value", type=float, required=True)
@click.option("--M", "m_value", type=float, required=True)
@click.option("--members", type=int, default=200, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", default="-")
def cmd_envelope_check(s_value, m_value, members, seed, out):
    """Check the class envelope against randomized members."""
    try:
        if members < 1:
            raise ValueError(f"members must be at least 1, got {members}")
        t = Transform.power(s_value)
        env = _density.envelope_for_class(m_value, t)
    except ValueError as exc:
        raise CliError(str(exc))
    sampled = _entropy.sample_density_class_members(t, m_value, members, seed) \
        if m_value >= 2.0 else []
    grid = np.linspace(-4.0 * m_value - 4.0, 4.0 * m_value + 4.0, 1000)
    ok = all(_density.check_envelope(p, m_value, grid) for p in sampled)
    _write_json({"s": s_value, "M": m_value, "L": env.L,
                 "members_checked": len(sampled), "all_dominated": bool(ok),
                 "vacuous": len(sampled) == 0}, out)
    if not ok:
        raise CliError("envelope violated by a sampled member")


@main.command("nonexistence-demo")
@click.option("--s", "s_value", type=float, required=True,
              help="class index, must be below -1")
@click.option("--data", "data_file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="optional data file; default is the single point 1.0")
@click.option("--grid-size", type=int, default=8, show_default=True)
@click.option("--threshold", type=float, default=4.0, show_default=True,
              help="required log-likelihood climb over the second half of the path")
@click.option("--out", default="-")
def cmd_nonexistence_demo(s_value, data_file, grid_size, threshold, out):
    """Tabulate the diverging likelihood path for s < -1."""
    data = _load_data(data_file) if data_file else np.asarray([1.0])
    shift = 0.0
    if np.min(data) <= 0:
        shift = 1.0 - float(np.min(data))  # affine-equivariant repositioning
        data = data + shift
    try:
        path = _mle.demonstrate_nonexistence(data, s_value, grid_size)
    except ValueError as exc:
        raise CliError(str(exc))
    lls = [ll for _, ll in path]
    increasing = all(b > a for a, b in zip(lls, lls[1:]))
    climb = lls[-1] - lls[max(0, len(lls) // 2 - 1)]
    verdict = increasing and climb > threshold
    _write_json({"s": s_value, "shift_applied": shift,
                 "table": [{"a": a, "loglik": ll} for a, ll in path],
                 "strictly_increasing": increasing, "tail_climb": climb,
                 "likelihood_unbounded": "yes" if verdict else "no"}, out)
    click.echo(f"likelihood unbounded: {'yes' if verdict else 'no'}")


if __name__ == "__main__":
    main()
