"""Transformed densities p = h(phi), their integrals, distances, and envelopes.

Integration of a piecewise-linear ``phi`` through the exponential or a power
transform has closed forms per segment.  One kernel, ``_segment_partials``,
returns them with their partials in the end values; it gives
``TransformedDensity.integral`` and the MLE objective of ``sconcave.mle``.
Hellinger and L1 distances integrate piecewise between the union of knots so
the integrand is smooth on every subinterval.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np

from .concave_fn import DomainError, PiecewiseConcave
from .transforms import Transform, UnsupportedTransformError

NORMALIZED_TOL = 1e-8
ENVELOPE_SLACK = 1e-9
TAIL_DENSITY_CUTOFF = 1e-12

# 16-point Gauss-Legendre nodes/weights on [0, 1], used for per-segment
# quadrature of smooth integrands (distance computations).
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


# ----------------------------------------------------------------------
# Segment integrals: closed forms and their partials
# ----------------------------------------------------------------------

def _piecewise(near: np.ndarray, series: Callable, closed: Callable,
               *args: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The tuple ``series(*args)`` on the entries under the mask ``near`` and
    ``closed(*args)`` on the rest.

    Each entry gets its branch's formula whatever else the arrays hold; a
    branch that no entry needs is not evaluated, and the masked copies are
    made only when both are.
    """
    if not near.any():
        return closed(*args)
    if near.all():
        return series(*args)
    far = ~near
    outs = []
    for on_near, on_far in zip(series(*(a[near] for a in args)),
                               closed(*(a[far] for a in args))):
        out = np.empty_like(args[0])
        out[near], out[far] = on_near, on_far
        outs.append(out)
    return tuple(outs)


def _exprel(d: np.ndarray, second: bool = False) -> Tuple[np.ndarray, ...]:
    """E(d) = (exp(d)-1)/d and its derivative, stable near d = 0.

    With ``second`` also returns E''(d) = integral_0^1 t^2 exp(d t) dt.  Its
    closed form cancels to O(eps/d^2), so it switches to the series
    sum_k d^k / (k! (k+3)) below |d| = 0.05, where both err by about 1e-13.
    """
    E, Ep = _piecewise(
        np.abs(d) < 1e-4,
        lambda dn: (1.0 + dn / 2.0 + dn ** 2 / 6.0 + dn ** 3 / 24.0 + dn ** 4 / 120.0,
                    0.5 + dn / 3.0 + dn ** 2 / 8.0 + dn ** 3 / 30.0),
        lambda df: (np.expm1(df) / df, (np.exp(df) * (df - 1.0) + 1.0) / df ** 2),
        d)
    if not second:
        return E, Ep
    Epp, = _piecewise(
        np.abs(d) < 0.05,
        lambda dn: (1.0 / 3.0 + dn * (1.0 / 4.0 + dn * (1.0 / 10.0 + dn * (
            1.0 / 36.0 + dn * (1.0 / 168.0 + dn * (1.0 / 960.0 + dn / 6480.0))))),),
        lambda df: ((np.expm1(df) * (df * (df - 2.0) + 2.0) + df * (df - 2.0)) / df ** 3,),
        d)
    return E, Ep, Epp


def _power_mean_g(ratio: np.ndarray, q: float, second: bool = False
                  ) -> Tuple[np.ndarray, ...]:
    """g(rho) = integral_0^1 (1 + rho t)^q dt and g' at rho = ratio - 1, stable near 0.

    The closed forms use ``ratio`` for 1 + rho: ratio - 1 rounds a tiny ratio
    away (|phi| falling steeply); on [0.5, 2] rho is exact and the two agree.
    With ``second`` also returns g''.  Differentiating rho g' + g = ratio^q gives
    rho g'' = q ratio^(q-1) - 2 g', which cancels to O(eps/rho^2); below
    |rho| = 1e-2 the series sum_k q (q-1) ... (q-k-1) rho^k / (k! (k+3)) is used.
    """
    rho = ratio - 1.0

    def closed(rf, af):
        if q == -1.0:
            return np.log(af) / rf, (rf / af - np.log(af)) / rf ** 2
        return ((np.power(af, q + 1.0) - 1.0) / (rf * (q + 1.0)),
                (np.power(af, q) * rf * (q + 1.0)
                 - (np.power(af, q + 1.0) - 1.0)) / (rf ** 2 * (q + 1.0)))

    g, gp = _piecewise(
        np.abs(rho) < 1e-4,
        lambda rn, an: (1.0 + q * rn / 2.0 + q * (q - 1.0) * rn ** 2 / 6.0
                        + q * (q - 1.0) * (q - 2.0) * rn ** 3 / 24.0,
                        q / 2.0 + q * (q - 1.0) * rn / 3.0
                        + q * (q - 1.0) * (q - 2.0) * rn ** 2 / 8.0),
        closed, rho, ratio)
    if not second:
        return g, gp

    def series(rn, an, gpn):
        coefs, falling, fact = [], q * (q - 1.0), 1.0
        for k in range(7):
            coefs.append(falling / (fact * (k + 3.0)))
            falling *= q - k - 2.0
            fact *= k + 1.0
        acc = np.full_like(rn, coefs[-1])
        for c in reversed(coefs[:-1]):
            acc = acc * rn + c
        return acc,

    gpp, = _piecewise(
        np.abs(rho) < 1e-2, series,
        lambda rf, af, gpf: ((q * np.power(af, q - 1.0) - 2.0 * gpf) / rf,),
        rho, ratio, gp)
    return g, gp, gpp


def _swap_where(flip, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(x, y) with the entries under the mask flip exchanged; as is for None."""
    if flip is None:
        return x, y
    return np.where(flip, y, x), np.where(flip, x, y)


def _segment_partials(dx: np.ndarray, vl: np.ndarray, vr: np.ndarray, s: float,
                      second: bool = False) -> Tuple[np.ndarray, ...]:
    """Integrals of h(phi) over linear segments and their partials in the end values.

    h is exp for s = 0 and the power transform |phi|^(1/s) otherwise.  Returns
    (seg, d_l, d_r), and with ``second`` also (d_ll, d_lr, d_rr).  Only d_rr
    needs a kernel's second derivative; the other two follow from Euler
    relations, differentiated in each end value: the integral scales by e^t
    under the shift (vl, vr) -> (vl + t, vr + t) for s = 0, so d_l + d_r = seg,
    and is homogeneous of degree q = 1/s in |phi| otherwise, so
    |vl| d_l + |vr| d_r = q seg.
    """
    if s == 0:
        E, Ep, *Epp = _exprel(vr - vl, second)
        scale = dx * np.exp(vl)
        seg = scale * E
        d_l = scale * (E - Ep)
        d_r = scale * Ep
        if not second:
            return seg, d_l, d_r
        d_rr = scale * Epp[0]
        d_lr = d_r - d_rr
        return seg, d_l, d_r, d_l - d_lr, d_lr, d_rr
    q = 1.0 / s
    ul, ur = (-vl, -vr) if s < 0 else (vl, vr)
    # an s > 0 segment rising more than 2x is taken from its larger end, where
    # ul^q cannot underflow; its end partials swap back below
    flip = ur > 2.0 * ul if s > 0 else None
    ul, ur = _swap_where(flip, ul, ur)
    ratio = ur / ul
    g, gp, *gpp = _power_mean_g(ratio, q, second)
    scale = dx * np.power(ul, q)
    seg = scale * g
    scale = scale / ul
    i_l = scale * (q * g - gp * ratio)
    i_r = scale * gp
    sign = -1.0 if s < 0 else 1.0
    d_l, d_r = _swap_where(flip, sign * i_l, sign * i_r)
    if not second:
        return seg, d_l, d_r
    d_rr = scale / ul * gpp[0]
    d_lr = ((q - 1.0) * i_r - ur * d_rr) / ul
    d_ll = ((q - 1.0) * i_l - ur * d_lr) / ul
    d_ll, d_rr = _swap_where(flip, d_ll, d_rr)
    return seg, d_l, d_r, d_ll, d_lr, d_rr


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
        v = phi.values
        total = float(np.sum(_segment_partials(np.diff(phi.knots), v[:-1], v[1:], t.s)[0]))
        if not (math.isfinite(total) and total > 0):
            raise DomainError(f"integral of h(phi) is {total}; need finite and positive")
        object.__setattr__(self, "integral", total)

    @property
    def support(self) -> Tuple[float, float]:
        return self.phi.domain

    @property
    def is_normalized(self) -> bool:
        return abs(self.integral - 1.0) <= NORMALIZED_TOL

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

        At s = 0 phi shifts by -log(Z); otherwise phi scales by Z^(-s),
        which preserves concavity and the support.
        """
        if self.is_normalized:
            return self
        z = self.integral
        t = self.transform
        if t.s == 0:
            new_vals = self.phi.values - math.log(z)
        else:
            new_vals = self.phi.values * z ** (-t.s)
        return TransformedDensity(t, PiecewiseConcave(self.phi.knots, new_vals))

    def to_dict(self) -> dict:
        t = self.transform
        return {"transform": {"kind": "LogConcave" if t.s == 0 else "PowerS", "s": t.s},
                "knots": self.phi.knots.tolist(),
                "values": self.phi.values.tolist()}


# ----------------------------------------------------------------------
# Distances
# ----------------------------------------------------------------------

def _as_view(obj) -> Tuple[Callable[[np.ndarray], np.ndarray], Tuple[float, float], np.ndarray]:
    """Normalize a density argument to (vectorized pdf, support, breakpoints)."""
    if not (hasattr(obj, "pdf") and hasattr(obj, "support")):
        raise TypeError(f"cannot interpret {type(obj).__name__} as a density")
    bp = np.asarray(getattr(obj, "breakpoints", lambda: [])(), dtype=float)
    f = obj.pdf
    return (lambda x: np.asarray(f(np.asarray(x, dtype=float)))), tuple(obj.support), bp


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
    # phi is concave and h increasing, so the minimum over [-1, 1] is at an end
    ends = p.pdf(np.array([-1.0, 1.0]))
    return bool(np.min(ends) >= 1.0 / M * (1.0 - ENVELOPE_SLACK))


@dataclass(frozen=True)
class EnvelopeFn:
    """Upper envelope for the M-sandwich class of a transform.

    Constant M inside |x| < cutoff; beyond the cutoff s < 0 uses the exact
    form (M^s + L|x|/(2M))^(1/s) and s = 0 uses D (1 + L|x|/(2M))^(-alpha),
    with alpha the transform's declared tail exponent.
    """

    M: float
    transform: Transform
    L: float
    D: float
    cutoff: float

    def __call__(self, x):
        scalar = np.isscalar(x) or isinstance(x, float)
        xa = np.abs(np.asarray([x] if scalar else x, dtype=float))
        out = np.full_like(xa, self.M)
        tail = xa >= self.cutoff
        if np.any(tail):
            t = self.transform
            if t.s < 0:
                s = t.s
                out[tail] = (self.M ** s + self.L * xa[tail] / (2.0 * self.M)) ** (1.0 / s)
            else:
                out[tail] = self.D * (1.0 + self.L * xa[tail] / (2.0 * self.M)) ** (-t.alpha)
        return float(out[0]) if scalar else out

    def tail_params(self) -> Tuple[float, float, float]:
        """(D, L, alpha) with envelope(x) = D (1 + L|x|/(2M))^(-alpha) beyond the cutoff.

        The exact power-family form is re-expressed in this canonical shape.
        """
        t = self.transform
        if t.s < 0:
            return self.M, self.L * self.M ** (-t.s), -1.0 / t.s
        return self.D, self.L, t.alpha


def envelope_for_class(M: float, t: Transform) -> EnvelopeFn:
    """Envelope of the M-sandwich class for transform t.

    ``L`` is the inverse-transform gap between density levels 1/M and 1/(2M).
    For s = 0 the tail constant D = 4M/e is the exact supremum of
    ``h(y) (-y)^alpha`` over y <= -1, with h normalized so that
    h^{-1}(M) = -1, that is ``M e^{1+y} y^2``, attained at y = -2.
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
    D = 1.0 if t.s < 0 else 4.0 * M / math.e
    env = EnvelopeFn(M=M, transform=t, L=L, D=D, cutoff=cutoff)
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

    Reproduces the chord bound on h-concave densities of Doss & Wellner
    (arXiv 1306.1438), a step toward their envelopes: with F the cdf of p,
    ``p(x) <= h(phi(x0) - h(phi(x1)) (phi(x0) - phi(x1)) (x - x0) / (F(x) - F(x0)))``.
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
        if self.name == "pareto" and not (math.isfinite(self.beta) and self.beta > 1.0):
            raise DomainError(f"symmetric Pareto requires a finite beta > 1, got {self.beta}")

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
        return float(out) if np.ndim(x) == 0 else out

    def inverse_cdf(self, u):
        ua = np.asarray(u, dtype=float)
        if self.name == "gaussian":
            from scipy.special import ndtri  # rational-approximation inverse normal cdf
            out = ndtri(ua)
        elif self.name == "laplace":
            out = np.where(ua < 0.5, np.log(2.0 * ua), -np.log(2.0 * (1.0 - ua)))
        elif self.name == "uniform":
            out = ua
        else:
            b = self.beta
            w = np.abs(2.0 * ua - 1.0)
            mag = np.power(1.0 - w, -1.0 / (b - 1.0)) - 1.0
            out = np.sign(2.0 * ua - 1.0) * mag
        return float(out) if np.ndim(u) == 0 else out


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
