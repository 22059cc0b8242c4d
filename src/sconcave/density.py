"""Transformed densities p = h(phi), their integrals, distances, and envelopes.

Integration of a piecewise-linear ``phi`` through a power-family transform has
closed forms per segment; adaptive quadrature is kept as an independent oracle
in the test suite.  Hellinger and L1 distances integrate piecewise between the
union of knots so the integrand is smooth on every subinterval.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy import integrate as _sintegrate
from scipy import special as _sspecial

from .concave_fn import DomainError, PiecewiseConcave
from .transforms import (KIND_LOG, KIND_POWER, Transform,
                         UnsupportedTransformError)

NORMALIZED_TOL = 1e-8
ENVELOPE_SLACK = 1e-9
TAIL_DENSITY_CUTOFF = 1e-12

# 16-point Gauss-Legendre nodes/weights on [0, 1], used for per-segment
# quadrature of smooth integrands (distance computations).
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


class NumericError(RuntimeError):
    """Quadrature failed to reach its tolerance within budget."""


# ----------------------------------------------------------------------
# Segment integrals
# ----------------------------------------------------------------------

def _segment_integrals(transform: Transform, knots: np.ndarray,
                       values: np.ndarray) -> np.ndarray:
    """Closed-form integral of h(phi) over each linear segment of phi."""
    dx = np.diff(knots)
    vl, vr = values[:-1], values[1:]
    kind = transform.kind
    if kind == KIND_LOG:
        c = transform.exp_scale
        a, b = c * vl, c * vr
        d = b - a
        out = np.empty_like(d)
        near = np.abs(d) <= 1e-9
        out[near] = np.exp(0.5 * (a + b))[near] * (1.0 + d[near] ** 2 / 24.0)
        far = ~near
        out[far] = np.exp(a[far]) * np.expm1(d[far]) / d[far]
        return dx * out
    if kind == KIND_POWER:
        s = transform.s
        q = 1.0 / s
        if s < 0:
            if np.any(values >= 0):
                raise DomainError("phi must stay strictly negative for s < 0")
            ul, ur = -vl, -vr
        else:
            if np.any(values <= 0):
                raise DomainError("phi must stay strictly positive for s > 0")
            ul, ur = vl, vr
        out = np.empty_like(ul)
        near = np.abs(ur - ul) <= 1e-9 * np.maximum(ul, ur)
        um = 0.5 * (ul + ur)
        out[near] = um[near] ** q
        far = ~near
        if np.any(far):
            a, b = ul[far], ur[far]
            if q == -1.0:
                out[far] = (np.log(b) - np.log(a)) / (b - a)
            else:
                out[far] = (b ** (q + 1.0) - a ** (q + 1.0)) / ((b - a) * (q + 1.0))
        return dx * out
    # general transform: per-segment adaptive quadrature
    out = np.empty_like(dx)
    for i in range(dx.size):
        f = lambda x: transform.eval(float(values[i] + (values[i + 1] - values[i])
                                           * (x - knots[i]) / dx[i]))
        out[i], _ = _sintegrate.quad(f, knots[i], knots[i + 1], epsabs=1e-12, limit=200)
    return out


@dataclass(frozen=True)
class TransformedDensity:
    """Density p = h(phi) for a concave piecewise-linear phi.

    The integral over the support is computed at construction and cached;
    build with ``normalize`` when a probability density is needed.
    """

    transform: Transform
    phi: PiecewiseConcave
    integral: float = field(init=False)

    def __post_init__(self):
        t, phi = self.transform, self.phi
        vmax = float(np.max(phi.values))
        vmin = float(np.min(phi.values))
        if vmax >= t.yinf_tilde:
            raise DomainError(
                f"phi reaches {vmax}, at or above the transform pole {t.yinf_tilde}")
        if vmin <= t.y0_tilde:
            raise DomainError(
                f"phi reaches {vmin}, at or below the transform zero point {t.y0_tilde}")
        if phi.knots.size == 1:
            total = 0.0
        else:
            total = float(np.sum(_segment_integrals(t, phi.knots, phi.values)))
        if not (math.isfinite(total) and total > 0):
            raise DomainError(f"integral of h(phi) is {total}; need finite and positive")
        object.__setattr__(self, "integral", total)

    @property
    def support(self) -> Tuple[float, float]:
        return self.phi.domain

    @property
    def is_normalized(self) -> bool:
        return abs(self.integral - 1.0) <= NORMALIZED_TOL

    def __call__(self, x):
        return self.pdf(x)

    def pdf(self, x):
        scalar = np.isscalar(x) or isinstance(x, float)
        xa = np.asarray([x] if scalar else x, dtype=float)
        out = np.zeros_like(xa)
        lo, hi = self.support
        inside = (xa >= lo) & (xa <= hi)
        if np.any(inside):
            out[inside] = self.transform._eval_array(self.phi.eval(xa[inside]))
        return float(out[0]) if scalar else out

    def breakpoints(self) -> np.ndarray:
        return self.phi.knots

    def normalize(self) -> "TransformedDensity":
        """Rescale onto the unit-integral slice of the density cone.

        The exponential kind shifts phi by -log(Z); power kinds scale phi by
        Z^(-s), which preserves concavity and the support.
        """
        if self.is_normalized:
            return self
        z = self.integral
        t = self.transform
        if t.kind == KIND_LOG:
            new_vals = self.phi.values - math.log(z) / t.exp_scale
        elif t.kind == KIND_POWER:
            new_vals = self.phi.values * z ** (-t.s)
        else:
            raise UnsupportedTransformError("normalize supports power and log kinds")
        return TransformedDensity(t, PiecewiseConcave(self.phi.knots, new_vals))

    def to_dict(self) -> dict:
        t = self.transform
        kind = {"power": "PowerS", "log": "LogConcave", "general": "General"}[t.kind]
        return {"transform": {"kind": kind, "s": t.s if t.kind == KIND_POWER else 0.0},
                "knots": self.phi.knots.tolist(),
                "values": self.phi.values.tolist()}


# ----------------------------------------------------------------------
# Distances
# ----------------------------------------------------------------------

def _as_view(obj) -> Tuple[Callable[[np.ndarray], np.ndarray], Tuple[float, float], np.ndarray]:
    """Normalize a density argument to (vectorized pdf, support, breakpoints)."""
    if isinstance(obj, TransformedDensity):
        return obj.pdf, obj.support, obj.breakpoints()
    if hasattr(obj, "pdf") and hasattr(obj, "support"):
        bp = np.asarray(getattr(obj, "breakpoints", lambda: [])(), dtype=float)
        f = obj.pdf
        return (lambda x: np.asarray(f(np.asarray(x, dtype=float)))), tuple(obj.support), bp
    if callable(obj):
        f = np.vectorize(obj, otypes=[float])
        return (lambda x: f(x)), (-math.inf, math.inf), np.asarray([])
    raise TypeError(f"cannot interpret {type(obj).__name__} as a density")


def _integration_edges(p, q) -> np.ndarray:
    """Panel edges covering both supports, with geometric tail extension.

    Infinite tails are truncated where both densities fall below
    ``TAIL_DENSITY_CUTOFF``; panels double in width out to the cutoff.
    """
    fp, sp, bp = _as_view(p)
    fq, sq, bq = _as_view(q)

    def both_small(x):
        return max(float(fp(np.asarray([x]))[0]), float(fq(np.asarray([x]))[0])) \
            < TAIL_DENSITY_CUTOFF

    finite = [v for v in (sp[0], sp[1], sq[0], sq[1]) if math.isfinite(v)]
    finite += [float(bp.min()), float(bp.max())] if bp.size else []
    finite += [float(bq.min()), float(bq.max())] if bq.size else []
    base_lo = min(finite) if finite else -1.0
    base_hi = max(finite) if finite else 1.0
    left_tail, right_tail = [], []
    if not (math.isfinite(sp[0]) and math.isfinite(sq[0])):
        step, x = max(1.0, 0.05 * (base_hi - base_lo)), base_lo
        while not both_small(x) and x > base_lo - 1e8:
            x -= step
            step *= 2.0
            left_tail.append(x)
    if not (math.isfinite(sp[1]) and math.isfinite(sq[1])):
        step, x = max(1.0, 0.05 * (base_hi - base_lo)), base_hi
        while not both_small(x) and x < base_hi + 1e8:
            x += step
            step *= 2.0
            right_tail.append(x)
    lo = left_tail[-1] if left_tail else base_lo
    hi = right_tail[-1] if right_tail else base_hi
    edges = np.concatenate((
        [base_lo, base_hi], left_tail, right_tail,
        bp[(bp > lo) & (bp < hi)], bq[(bq > lo) & (bq < hi)]))
    return np.unique(edges)


def _piecewise_gl(fn: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> float:
    """Gauss-Legendre panel quadrature between consecutive edges (vectorized)."""
    widths = np.diff(edges)
    keep = widths > 0
    lefts = edges[:-1][keep]
    w = widths[keep]
    xs = lefts[:, None] + w[:, None] * _GL_X[None, :]
    vals = fn(xs.ravel()).reshape(xs.shape)
    return float(np.sum(vals @ _GL_W * w))


def _refine_edges(edges: np.ndarray, min_panels: int = 64) -> np.ndarray:
    """Split wide panels so the total panel count is at least min_panels."""
    if edges.size - 1 >= min_panels:
        return edges
    out = [edges[0]]
    total = edges[-1] - edges[0]
    for a, b in zip(edges[:-1], edges[1:]):
        n_sub = max(1, int(math.ceil((b - a) / total * min_panels)))
        out.extend(np.linspace(a, b, n_sub + 1)[1:])
    return np.asarray(out)


def hellinger(p, q) -> float:
    """Hellinger distance H with H^2 = 0.5 * integral (sqrt p - sqrt q)^2."""
    fp, _, _ = _as_view(p)
    fq, _, _ = _as_view(q)
    edges = _refine_edges(_integration_edges(p, q))
    h2 = 0.5 * _piecewise_gl(
        lambda x: (np.sqrt(np.maximum(fp(x), 0.0)) - np.sqrt(np.maximum(fq(x), 0.0))) ** 2,
        edges)
    h2 = min(max(h2, 0.0), 1.0)
    return math.sqrt(h2)


def l1_distance(p, q) -> float:
    """Total L1 distance between two densities, in [0, 2]."""
    fp, _, _ = _as_view(p)
    fq, _, _ = _as_view(q)
    edges = _refine_edges(_integration_edges(p, q), min_panels=256)
    val = _piecewise_gl(lambda x: np.abs(fp(x) - fq(x)), edges)
    return min(max(val, 0.0), 2.0)


# ----------------------------------------------------------------------
# Class membership and envelopes
# ----------------------------------------------------------------------

def member_of_class(p: TransformedDensity, M: float) -> bool:
    """Membership in the M-sandwich class: sup p <= M and p >= 1/M on [-1, 1]."""
    if not p.is_normalized:
        raise ValueError("member_of_class requires a normalized density")
    if M <= 0:
        raise ValueError("M must be positive")
    # piecewise structure: the sup over the support is attained at a knot
    sup_p = float(np.max(p.pdf(p.phi.knots)))
    if sup_p > M * (1.0 + ENVELOPE_SLACK):
        return False
    grid = np.linspace(-1.0, 1.0, 512)
    inner_knots = p.phi.knots[(p.phi.knots > -1.0) & (p.phi.knots < 1.0)]
    grid = np.unique(np.concatenate((grid, inner_knots)))
    vals = p.pdf(grid)
    return bool(np.min(vals) >= 1.0 / M * (1.0 - ENVELOPE_SLACK))


@dataclass(frozen=True)
class EnvelopeFn:
    """Upper envelope for the M-sandwich class of a transform.

    Constant M inside |x| < cutoff; beyond the cutoff the power family uses
    the exact form (M^s + L|x|/(2M))^(1/s) and general transforms use
    D (1 + L|x|/(2M))^(-alpha).
    """

    M: float
    transform: Transform
    L: float
    D: float
    alpha: float
    cutoff: float

    def __call__(self, x):
        scalar = np.isscalar(x) or isinstance(x, float)
        xa = np.abs(np.asarray([x] if scalar else x, dtype=float))
        out = np.full_like(xa, self.M)
        tail = xa >= self.cutoff
        if np.any(tail):
            t = self.transform
            if t.kind == KIND_POWER and t.s < 0:
                s = t.s
                out[tail] = (self.M ** s + self.L * xa[tail] / (2.0 * self.M)) ** (1.0 / s)
            else:
                out[tail] = self.D * (1.0 + self.L * xa[tail] / (2.0 * self.M)) ** (-self.alpha)
        return float(out[0]) if scalar else out

    def tail_params(self) -> Tuple[float, float, float]:
        """(D, L, alpha) with envelope(x) = D (1 + L|x|/(2M))^(-alpha) beyond the cutoff.

        The exact power-family form is re-expressed in this canonical shape.
        """
        t = self.transform
        if t.kind == KIND_POWER and t.s < 0:
            return self.M, self.L * self.M ** (-t.s), -1.0 / t.s
        return self.D, self.L, self.alpha


def envelope_for_class(M: float, t: Transform) -> EnvelopeFn:
    """Envelope of the M-sandwich class for transform t.

    ``L`` is the inverse-transform gap between density levels 1/M and 1/(2M).
    For non-power transforms the tail constant D comes from probing
    ``h`` (normalized so that h^{-1}(M) = -1) against ``(-y)^(-alpha)`` on
    a geometric grid down to -2^20.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    if t.y0_tilde > -math.inf:
        raise UnsupportedTransformError(
            "envelope needs a transform vanishing only at -inf (tail hypothesis)")
    L = t.inverse(1.0 / M) - t.inverse(1.0 / (2.0 * M))
    if not L > 0:
        raise UnsupportedTransformError("inverse transform gap L must be positive")
    cutoff = 2.0 * M + 1.0
    alpha = t.alpha
    if t.kind == KIND_POWER and t.s < 0:
        D = 1.0
    else:
        # shift h so the normalized transform satisfies h_M^{-1}(M) = -1
        shift = 1.0 + t.inverse(M)
        ys = -np.power(2.0, np.linspace(0.0, 20.0, 257))
        hv = np.asarray([t.eval(float(y + shift)) for y in ys])
        ratio = hv * np.power(-ys, alpha)
        ok = np.isfinite(ratio)
        if not np.any(ok):
            raise UnsupportedTransformError("tail probe found no finite h values")
        D = float(np.max(ratio[ok])) * 1.01
    env = EnvelopeFn(M=M, transform=t, L=L, D=D, alpha=alpha, cutoff=cutoff)
    seam_ratio = M / max(env(cutoff), 1e-300)
    if seam_ratio > 20.0:
        warnings.warn(
            f"envelope drops by x{seam_ratio:.3g} at the seam |x| = {cutoff}",
            stacklevel=2)
    return env


def check_envelope(p: TransformedDensity, M: float, grid: Sequence[float]) -> bool:
    """Pointwise envelope domination of p on the grid (with a 1e-9 slack)."""
    env = envelope_for_class(M, p.transform)
    xa = np.asarray(grid, dtype=float)
    return bool(np.all(p.pdf(xa) <= env(xa) * (1.0 + ENVELOPE_SLACK)))


def upper_bound_f(p: TransformedDensity, x0: float, x1: float, x: float) -> float:
    """Chord-based upper bound on p(x) from two interior evaluation points.

    Requires x0 < x1 < x (or the mirrored ordering) with strictly decreasing
    finite phi along the triple.
    """
    if not ((x0 < x1 < x) or (x < x1 < x0)):
        raise DomainError("need x0 < x1 < x or x < x1 < x0")
    ph0, ph1, phx = (p.phi.eval(v) for v in (x0, x1, x))
    if not (-math.inf < phx < ph1 < ph0 < math.inf):
        raise DomainError("need -inf < phi(x) < phi(x1) < phi(x0) < inf")
    lo, hi = (x0, x) if x0 < x else (x, x0)
    seg = p.phi.restrict_domain((max(lo, p.support[0]), min(hi, p.support[1])))
    mass = TransformedDensity(p.transform, seg).integral
    f_at = mass if x > x0 else -mass  # F(x) - F(x0) with sign of the sweep
    h = p.transform
    arg = ph0 - h.eval(ph1) * (ph0 - ph1) / f_at * (x - x0)
    return h.eval(arg)


# ----------------------------------------------------------------------
# Reference distributions and sampling
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceDistribution:
    """A named reference law with closed-form pdf and inverse cdf."""

    name: str
    beta: float = 3.0  # tail exponent of the symmetric Pareto family

    def __post_init__(self):
        if self.name not in ("gaussian", "laplace", "uniform", "pareto"):
            raise ValueError(f"unknown reference distribution {self.name!r}")
        if self.name == "pareto" and self.beta <= 1.0:
            raise DomainError("symmetric Pareto requires beta > 1")

    @property
    def support(self) -> Tuple[float, float]:
        return (0.0, 1.0) if self.name == "uniform" else (-math.inf, math.inf)

    def breakpoints(self):
        if self.name == "uniform":
            return [0.0, 1.0]
        if self.name == "gaussian":
            return [0.0]
        return [0.0]  # laplace and pareto kink at the origin

    def pdf(self, x):
        xa = np.asarray(x, dtype=float)
        if self.name == "gaussian":
            out = np.exp(-0.5 * xa * xa) / math.sqrt(2.0 * math.pi)
        elif self.name == "laplace":
            out = 0.5 * np.exp(-np.abs(xa))
        elif self.name == "uniform":
            out = np.where((xa >= 0.0) & (xa <= 1.0), 1.0, 0.0)
        else:
            b = self.beta
            out = 0.5 * (b - 1.0) * np.power(1.0 + np.abs(xa), -b)
        return out if isinstance(x, np.ndarray) else float(out)

    def cdf(self, x):
        xa = np.asarray(x, dtype=float)
        if self.name == "gaussian":
            out = _sspecial.ndtr(xa)
        elif self.name == "laplace":
            out = np.where(xa < 0, 0.5 * np.exp(xa), 1.0 - 0.5 * np.exp(-xa))
        elif self.name == "uniform":
            out = np.clip(xa, 0.0, 1.0)
        else:
            b = self.beta
            half = 0.5 * np.power(1.0 + np.abs(xa), -(b - 1.0))
            out = np.where(xa < 0, half, 1.0 - half)
        return out if isinstance(x, np.ndarray) else float(out)

    def inverse_cdf(self, u):
        ua = np.asarray(u, dtype=float)
        if self.name == "gaussian":
            out = _sspecial.ndtri(ua)  # rational-approximation inverse normal cdf
        elif self.name == "laplace":
            out = np.where(ua < 0.5, np.log(2.0 * ua), -np.log(2.0 * (1.0 - ua)))
        elif self.name == "uniform":
            out = ua
        else:
            b = self.beta
            w = np.abs(2.0 * ua - 1.0)
            mag = np.power(1.0 - w, -1.0 / (b - 1.0)) - 1.0
            out = np.sign(2.0 * ua - 1.0) * mag
        return out if isinstance(u, np.ndarray) else float(out)

    @property
    def mode_height(self) -> float:
        return float(self.pdf(0.0)) if self.name != "uniform" else 1.0


def reference(name: str, beta: float = 3.0) -> ReferenceDistribution:
    return ReferenceDistribution(name=name, beta=beta)


def sample(dist: ReferenceDistribution, n: int, seed: int) -> np.ndarray:
    """n inverse-cdf draws from a reference law, deterministic per seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    u = np.clip(u, 1e-15, 1.0 - 1e-15)
    return dist.inverse_cdf(u)
