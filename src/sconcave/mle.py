"""Maximum likelihood over s-concave classes (s > -1) via a penalized cone program.

The integral constraint is folded into the objective: densities h(phi) form a
cone under positive scaling, so maximizing

    L(phi) = mean_i log h(phi(X_i)) - integral h(phi)

over concave piecewise-linear phi with knots at the data points yields a
maximizer whose integral is automatically 1.  The solver is an active-set
method in kink space: phi is linear between its kinks, so on a fixed kink set
the objective, its gradient and its exact tridiagonal Hessian depend on the
kink values only.  Damped Newton steps solve each reduced problem; kinks enter
through an exact tangent-cone (hinge) certificate and leave when they flatten.

For s < -1 no maximizer exists; ``demonstrate_nonexistence`` evaluates the
diverging one-parameter likelihood path that witnesses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .concave_fn import PiecewiseConcave
from .density import TransformedDensity
from .transforms import Transform

VALUE_CAP = 1e-10  # keep phi strictly inside the transform range


class UnsupportedInstanceError(ValueError):
    """Sample does not meet the existence threshold for the requested class."""


@dataclass(frozen=True)
class FitConfig:
    """Solver configuration for the s-concave MLE."""

    s: float
    max_iterations: int = 2000
    grad_tol: float = 1e-7
    # cone stationarity ties the integral gap to grad_tol * sqrt(n); the
    # default leaves room for samples up to ~10^10 points
    integral_tol: float = 1e-5
    backtrack_shrink: float = 0.5

    def __post_init__(self):
        if not self.s > -1.0:
            raise ValueError("the MLE requires s > -1")
        if self.grad_tol <= 0 or self.integral_tol <= 0:
            raise ValueError("tolerances must be positive")

    @property
    def transform(self) -> Transform:
        return Transform.log_concave() if self.s == 0.0 else Transform.power(self.s)


@dataclass(frozen=True)
class FitResult:
    phi_hat: PiecewiseConcave
    density: TransformedDensity
    loglik: float
    iterations: int
    converged: bool
    kkt_residual: float
    objective: float

    def to_dict(self) -> dict:
        return {
            "phi_hat": self.phi_hat.to_dict(),
            "density": self.density.to_dict(),
            "loglik": self.loglik,
            "iterations": self.iterations,
            "converged": self.converged,
            "kkt_residual": self.kkt_residual,
        }


def existence_threshold(s: float) -> int:
    """Minimal sample size for the MLE to exist (fractional thresholds round up)."""
    if s >= 0:
        return 2
    gamma = -1.0 / s
    if gamma <= 1.0:
        return 10 ** 9  # s <= -1: no finite sample suffices
    # fractional thresholds round up; the small slack absorbs fp noise in
    # the ratio (e.g. gamma = 4/3 must give exactly 4)
    return max(2, math.ceil(gamma / (gamma - 1.0) - 1e-9))


# ----------------------------------------------------------------------
# Objective: per-segment closed forms and their partials
# ----------------------------------------------------------------------

def _exprel(d: np.ndarray, second: bool = False) -> Tuple[np.ndarray, ...]:
    """E(d) = (exp(d)-1)/d and its derivative, stable near d = 0.

    With ``second`` also returns E''(d) = integral_0^1 t^2 exp(d t) dt.  Its
    closed form cancels to O(eps/d^2), so it switches to the series
    sum_k d^k / (k! (k+3)) below |d| = 0.05, where both err by about 1e-13.
    """
    E = np.empty_like(d)
    Ep = np.empty_like(d)
    near = np.abs(d) < 1e-4
    dn = d[near]
    E[near] = 1.0 + dn / 2.0 + dn ** 2 / 6.0 + dn ** 3 / 24.0 + dn ** 4 / 120.0
    Ep[near] = 0.5 + dn / 3.0 + dn ** 2 / 8.0 + dn ** 3 / 30.0
    far = ~near
    df = d[far]
    E[far] = np.expm1(df) / df
    Ep[far] = (np.exp(df) * (df - 1.0) + 1.0) / df ** 2
    if not second:
        return E, Ep
    Epp = np.empty_like(d)
    near = np.abs(d) < 0.05
    dn = d[near]
    Epp[near] = 1.0 / 3.0 + dn * (1.0 / 4.0 + dn * (1.0 / 10.0 + dn * (
        1.0 / 36.0 + dn * (1.0 / 168.0 + dn * (1.0 / 960.0 + dn / 6480.0)))))
    df = d[~near]
    Epp[~near] = (np.expm1(df) * (df * (df - 2.0) + 2.0) + df * (df - 2.0)) / df ** 3
    return E, Ep, Epp


def _power_mean_g(rho: np.ndarray, q: float, second: bool = False
                  ) -> Tuple[np.ndarray, ...]:
    """g(rho) = integral_0^1 (1 + rho t)^q dt and g', stable near rho = 0.

    With ``second`` also returns g''.  Differentiating rho g' + g = (1+rho)^q
    gives rho g'' = q (1+rho)^(q-1) - 2 g', which cancels to O(eps/rho^2); below
    |rho| = 1e-2 the series sum_k q (q-1) ... (q-k-1) rho^k / (k! (k+3)) is used.
    """
    g = np.empty_like(rho)
    gp = np.empty_like(rho)
    near = np.abs(rho) < 1e-4
    rn = rho[near]
    g[near] = (1.0 + q * rn / 2.0 + q * (q - 1.0) * rn ** 2 / 6.0
               + q * (q - 1.0) * (q - 2.0) * rn ** 3 / 24.0)
    gp[near] = (q / 2.0 + q * (q - 1.0) * rn / 3.0
                + q * (q - 1.0) * (q - 2.0) * rn ** 2 / 8.0)
    far = ~near
    rf = rho[far]
    if q == -1.0:
        g[far] = np.log1p(rf) / rf
        gp[far] = (rf / (1.0 + rf) - np.log1p(rf)) / rf ** 2
    else:
        g[far] = (np.power(1.0 + rf, q + 1.0) - 1.0) / (rf * (q + 1.0))
        gp[far] = (np.power(1.0 + rf, q) * rf * (q + 1.0)
                   - (np.power(1.0 + rf, q + 1.0) - 1.0)) / (rf ** 2 * (q + 1.0))
    if not second:
        return g, gp
    gpp = np.empty_like(rho)
    near = np.abs(rho) < 1e-2
    coefs, falling, fact = [], q * (q - 1.0), 1.0
    for k in range(7):
        coefs.append(falling / (fact * (k + 3.0)))
        falling *= q - k - 2.0
        fact *= k + 1.0
    rn = rho[near]
    acc = np.full_like(rn, coefs[-1])
    for c in reversed(coefs[:-1]):
        acc = acc * rn + c
    gpp[near] = acc
    rf = rho[~near]
    gpp[~near] = (q * np.power(1.0 + rf, q - 1.0) - 2.0 * gp[~near]) / rf
    return g, gp, gpp


def _segment_partials(dx: np.ndarray, vl: np.ndarray, vr: np.ndarray, s: float,
                      second: bool = False) -> Tuple[np.ndarray, ...]:
    """Integrals of h(phi) over linear segments and their partials in the end values.

    Returns (seg, d_l, d_r), and with ``second`` also (d_ll, d_lr, d_rr).  Only
    d_rr needs a kernel's second derivative; the other two follow from Euler
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
    rho = ur / ul - 1.0
    g, gp, *gpp = _power_mean_g(rho, q, second)
    scale = dx * np.power(ul, q)
    seg = scale * g
    scale = scale / ul
    i_l = scale * (q * g - gp * (1.0 + rho))
    i_r = scale * gp
    sign = -1.0 if s < 0 else 1.0
    if not second:
        return seg, sign * i_l, sign * i_r
    d_rr = scale / ul * gpp[0]
    d_lr = ((q - 1.0) * i_r - ur * d_rr) / ul
    d_ll = ((q - 1.0) * i_l - ur * d_lr) / ul
    return seg, sign * i_l, sign * i_r, d_ll, d_lr, d_rr


class _Problem:
    """Penalized MLE objective on the knot-value parametrization."""

    def __init__(self, data: np.ndarray, s: float):
        knots, counts = np.unique(np.asarray(data, dtype=float), return_counts=True)
        if knots.size < 2:
            raise UnsupportedInstanceError("data must contain at least two distinct points")
        self.knots = knots
        self.weights = counts / counts.sum()
        self.dx = np.diff(knots)
        self.s = s
        self.transform = Transform.log_concave() if s == 0 else Transform.power(s)

    @property
    def n_knots(self) -> int:
        return self.knots.size

    def feasible(self, v: np.ndarray) -> bool:
        if self.s == 0:
            return bool(np.all(np.isfinite(v)))
        if self.s < 0:
            return bool(np.all(v <= -VALUE_CAP))
        return bool(np.all(v >= VALUE_CAP))

    def clip_range(self, v: np.ndarray) -> np.ndarray:
        if self.s == 0:
            return v
        if self.s < 0:
            return np.minimum(v, -VALUE_CAP)
        return np.maximum(v, VALUE_CAP)

    def value_and_grad(self, v: np.ndarray) -> Tuple[float, np.ndarray]:
        """Objective mean-loglik-minus-integral and its gradient."""
        w, s = self.weights, self.s
        with np.errstate(over="ignore"):
            if s == 0:
                term1 = float(np.dot(w, v))
                g1 = w.copy()
            else:
                u = -v if s < 0 else v
                term1 = float(np.dot(w, np.log(u)) * (1.0 / s))
                g1 = 1.0 / (s * v) * w
            seg, d_l, d_r = _segment_partials(self.dx, v[:-1], v[1:], s)
        total = float(np.sum(seg))
        if not math.isfinite(total) or not math.isfinite(term1):
            return -math.inf, np.full_like(v, np.nan)
        grad = g1.copy()
        grad[:-1] -= d_l
        grad[1:] -= d_r
        return term1 - total, grad


def objective(values: Sequence[float], data: Sequence[float], s: float
              ) -> Tuple[float, np.ndarray]:
    """Penalized objective and gradient at the given knot values.

    Knots are the sorted unique data points; ties contribute multiplicity
    weights.  ``values`` must match the unique-knot count and respect the
    transform range.
    """
    prob = _Problem(np.asarray(data, dtype=float), s)
    v = np.asarray(values, dtype=float)
    if v.shape != prob.knots.shape:
        raise ValueError(f"expected {prob.n_knots} values (unique data points)")
    if not prob.feasible(v):
        raise ValueError("values violate the transform range for this s")
    return prob.value_and_grad(v)


# ----------------------------------------------------------------------
# Concavity repair and the optimality certificate
# ----------------------------------------------------------------------

def _repair_concavity(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Forward pass removing fp-level slope increases between near-coincident kinks.

    The guard exceeds the floating-point resolution of the repaired slope,
    so the slopes recomputed from the returned values never increase.
    """
    dx = np.diff(x)
    slopes = np.diff(v) / dx
    if not np.any(np.diff(slopes) > 0):
        return v
    out = v.copy()
    eps = np.finfo(float).eps
    s_prev = (out[1] - out[0]) / dx[0]
    for j in range(1, dx.size):
        s_j = (out[j + 1] - out[j]) / dx[j]
        if s_j > s_prev:
            guard = (1e-13 * max(1.0, abs(s_prev))
                     + 4.0 * eps * max(abs(out[j]), abs(out[j + 1])) / dx[j])
            out[j + 1] = out[j] + (s_prev - guard) * dx[j]
            s_j = (out[j + 1] - out[j]) / dx[j]
        s_prev = s_j
    return out


def _hinge_rates(x: np.ndarray, grad: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Directional derivatives along the normalized hinges (x - x_j)_+.

    Suffix sums give every interior knot j in O(n).  Returns (j, rate), where
    each hinge is normalized by its Euclidean length over the knots.
    """
    n = x.size

    def suffix(a):
        return np.concatenate((np.cumsum(a[::-1])[::-1], [0.0]))

    g_suf, gx_suf = suffix(grad), suffix(grad * x)
    x_suf, x2_suf = suffix(x), suffix(x * x)
    cnt_suf = np.arange(n, -1, -1, dtype=float)
    j = np.arange(1, n - 1)
    pair = gx_suf[j + 1] - x[j] * g_suf[j + 1]
    norm2 = x2_suf[j + 1] - 2.0 * x[j] * x_suf[j + 1] + x[j] ** 2 * cnt_suf[j + 1]
    return j, pair / np.sqrt(np.maximum(norm2, 1e-300))


def _kkt_certificate(prob: _Problem, grad: np.ndarray, kinks: np.ndarray) -> float:
    """Exact tangent-cone optimality certificate at a kink-space iterate.

    Concave piecewise-linear vectors are nonnegative combinations of affine
    parts and negative hinges (x - x_j)_+, so the tangent cone at phi is
    generated by +/- affine directions, -hinge_j at every interior knot, and
    +hinge_j where phi bends.  phi is linear between its kinks, so slack is
    decided by kink membership: +hinge_j enters only at the interior kinks
    of the current set, never at a knot whose interpolated value rounds to a
    slope drop.  Returns the largest normalized directional derivative over
    the generators, or 0 when none ascends.
    """
    x = prob.knots
    best = 0.0
    for d in (np.ones(x.size), x - x.mean()):
        best = max(best, abs(float(np.dot(grad, d))) / float(np.linalg.norm(d)))
    if x.size >= 3:
        _, rate = _hinge_rates(x, grad)
        best = max(best, float(np.max(-rate)))  # removing slope drop: always feasible
        inner = kinks[(kinks > 0) & (kinks < x.size - 1)]
        if inner.size:
            best = max(best, float(np.max(rate[inner - 1])))  # rate[k] is knot k + 1
    return best


# ----------------------------------------------------------------------
# Solver
# ----------------------------------------------------------------------

# The certificate is cheap to tighten while Newton converges quadratically:
# refine to TARGET_TOL * grad_tol, solving each kink set to INNER_TOL * grad_tol.
INNER_TOL = 1e-4
TARGET_TOL = 1e-3


def _pilot_values(prob: _Problem) -> np.ndarray:
    """Feasible start: the flat function matching the uniform density on the range."""
    x = prob.knots
    level = prob.transform.inverse(1.0 / (x[-1] - x[0]))
    v = np.full(x.size, level)
    return prob.clip_range(v)


class _ActiveSet:
    """A kink set and the objective restricted to it (kink space).

    phi is linear between kinks, so knot i on kink segment seg[i] with
    barycentric weight lam[i] has value (1 - lam) u[seg] + lam u[seg + 1] for
    kink values u.  The knot-to-kink map T is never formed.
    """

    def __init__(self, prob: _Problem, kinks: np.ndarray):
        self.prob = prob
        self.kinks = np.unique(np.concatenate(([0, prob.n_knots - 1], kinks)))
        x = prob.knots
        self.xk = x[self.kinks]
        self.dxk = np.diff(self.xk)
        m = self.kinks.size
        self.seg = np.minimum(np.searchsorted(self.xk, x, side="right") - 1, m - 2)
        self.lam = (x - self.xk[self.seg]) / self.dxk[self.seg]
        self.om = 1.0 - self.lam
        w = prob.weights
        if prob.s == 0:
            self.data_grad = self._pull_back(w)  # T^T w: the data term is linear
        else:
            self.hess_w = (w * self.om * self.om, w * self.lam * self.lam,
                           w * self.lam * self.om)

    def _pull_back(self, r: np.ndarray) -> np.ndarray:
        """T^T r for a per-knot vector r."""
        m = self.kinks.size
        return (np.bincount(self.seg, r * self.om, minlength=m)
                + np.bincount(self.seg + 1, r * self.lam, minlength=m))

    def expand(self, u: np.ndarray) -> np.ndarray:
        return np.interp(self.prob.knots, self.xk, u)

    def value_grad_hess(self, u: np.ndarray
                        ) -> Tuple[float, Optional[np.ndarray], Optional[np.ndarray],
                                   Optional[np.ndarray]]:
        """Objective, gradient and tridiagonal Hessian in kink space.

        Returns (value, grad, diag, off) with off the superdiagonal; the value
        is -inf (and the rest None) outside the domain of the objective.
        """
        s = self.prob.s
        m = u.size
        with np.errstate(over="ignore"):
            if s == 0:
                term1 = float(np.dot(self.data_grad, u))
                grad = self.data_grad.copy()
                diag = np.zeros(m)
                off = np.zeros(m - 1)
            else:
                v = self.expand(u)
                w = self.prob.weights
                term1 = float(np.dot(w, np.log(-v if s < 0 else v)) * (1.0 / s))
                # first and second v-derivatives of log h(v) = log(|v|) / s
                r = 1.0 / (s * v)
                c = -r / v
                grad = self._pull_back(r * w)
                w_ll, w_rr, w_lr = self.hess_w
                diag = (np.bincount(self.seg, c * w_ll, minlength=m)
                        + np.bincount(self.seg + 1, c * w_rr, minlength=m))
                off = np.bincount(self.seg, c * w_lr, minlength=m - 1)
            seg, d_l, d_r, d_ll, d_lr, d_rr = _segment_partials(
                self.dxk, u[:-1], u[1:], s, second=True)
        total = float(np.sum(seg))
        if not math.isfinite(total) or not math.isfinite(term1):
            return -math.inf, None, None, None
        grad[:-1] -= d_l
        grad[1:] -= d_r
        diag[:-1] -= d_ll
        diag[1:] -= d_rr
        off -= d_lr
        return term1 - total, grad, diag, off

    def max_step(self, u: np.ndarray, du: np.ndarray) -> Tuple[float, Optional[int]]:
        """Largest t keeping kink slopes nonincreasing; returns (t, tight kink)."""
        t_cap = self._cap_step(u, du)
        if self.kinks.size < 3:
            return t_cap, None
        s0 = np.diff(u) / self.dxk
        ds = np.diff(du) / self.dxk
        c0 = np.diff(s0)          # current slope increases (<= 0)
        dc = np.diff(ds)          # change per unit step
        rising = np.nonzero(dc > 1e-14)[0]
        if rising.size == 0:
            return t_cap, None
        t_i = np.maximum(0.0, -c0[rising]) / dc[rising]
        k = int(np.argmin(t_i))
        if t_cap < t_i[k]:
            return t_cap, None
        return float(t_i[k]), int(rising[k]) + 1  # kink index inside self.kinks

    def _cap_step(self, u: np.ndarray, du: np.ndarray) -> float:
        s = self.prob.s
        if s == 0:
            return math.inf
        if s < 0:
            room = -VALUE_CAP - u
            grow = du > 1e-300
        else:
            room = u - VALUE_CAP
            grow = du < -1e-300
        if not np.any(grow):
            return math.inf
        with np.errstate(divide="ignore"):
            t = np.abs(room[grow]) / np.abs(du[grow])
        return float(np.min(t))


def _reduced_newton(prob: _Problem, active: _ActiveSet, u: np.ndarray,
                    cfg: FitConfig, inner_tol: float, budget: int
                    ) -> Tuple[_ActiveSet, np.ndarray, int]:
    """Maximize the objective over the current kink set in at most ``budget`` evaluations.

    Damped Newton steps on the kink values use the exact tridiagonal Hessian,
    factored in O(m).  Kinks whose concavity constraint blocks a step at zero
    length lie on a segment, so removing them does not change the function;
    the solver drops them in place and re-solves until the kink-space
    gradient meets the inner tolerance or no step improves.  Once a step's
    predicted gain is below the resolution of the objective, the step counts
    as improving when it shrinks the gradient.
    """
    from scipy.linalg import LinAlgError, solveh_banded

    evals = 0
    stale = True
    damping = 1e-10
    for _ in range(100):
        if stale:
            if evals >= budget:
                break
            val, grad, diag, off = active.value_grad_hess(u)
            evals += 1
            stale = False
        g_max = float(np.max(np.abs(grad)))
        if g_max <= inner_tol or evals >= budget:
            break
        scale_h = max(1e-12, float(np.max(np.abs(diag))))
        du = None
        trial = damping
        for _ in range(8):
            band = np.vstack((np.concatenate(([0.0], -off)), trial * scale_h - diag))
            try:
                cand = solveh_banded(band, grad)
            except LinAlgError:
                trial *= 100.0
                continue
            if np.all(np.isfinite(cand)) and float(np.dot(cand, grad)) > 0:
                du, damping = cand, max(trial * 0.3, 1e-10)
                break
            trial *= 100.0
        if du is None:
            du = grad  # steepest ascent in the reduced space
        moved = False
        for direction in (du, grad if du is not grad else None):
            if direction is None:
                continue
            t_max, tight = active.max_step(u, direction)
            if t_max <= 1e-12 and tight is not None:
                # lossless removal: the blocking kink is flat on a segment
                active = _ActiveSet(prob, np.delete(active.kinks, tight))
                u = np.delete(u, tight)
                moved = stale = True
                break
            t = min(1.0, t_max)
            noise = 1e-14 * max(1.0, abs(val)) / float(np.dot(grad, direction))
            for _ in range(30):
                if t <= 0 or evals >= budget:
                    break
                u_try = u + t * direction
                trial_eval = active.value_grad_hess(u_try)
                evals += 1
                val_try, grad_try = trial_eval[:2]
                if math.isfinite(val_try) and (
                        val_try > val
                        or (t <= noise and float(np.max(np.abs(grad_try))) < g_max)):
                    u = u_try
                    val, grad, diag, off = trial_eval
                    moved = True
                    break
                t *= cfg.backtrack_shrink
            if moved:
                if tight is not None and t >= 0.999 * t_max and active.kinks.size > 2:
                    # the step flattened this kink exactly: remove it
                    active = _ActiveSet(prob, np.delete(active.kinks, tight))
                    u = np.delete(u, tight)
                    stale = True
                break
        if not moved:
            break
    return active, u, evals


def _new_kink_candidates(prob: _Problem, grad: np.ndarray, kinks: np.ndarray,
                         batch: int = 8) -> np.ndarray:
    """Knots with the strongest downward-hinge ascent rates, spaced apart."""
    if prob.n_knots < 3:
        return np.asarray([], dtype=int)
    j, rate = _hinge_rates(prob.knots, grad)
    rate = -rate
    rate[np.isin(j, kinks)] = -math.inf
    order = np.argsort(rate)[::-1]
    threshold = 0.3 * rate[order[0]] if rate[order[0]] > 0 else math.inf
    picked = []
    for o in order:
        if rate[o] <= 0 or rate[o] < threshold or len(picked) >= batch:
            break
        knot = int(j[o])
        # space batch members out; the top candidate is always taken
        if picked and any(abs(knot - t) <= 1 for t in picked):
            continue
        picked.append(knot)
    return np.asarray(picked, dtype=int)


def fit(data: Sequence[float], cfg: FitConfig) -> FitResult:
    """Compute the s-concave MLE of the sample.

    Active-set scheme in kink space, one loop of three steps:

    1. Damped Newton steps with the exact tridiagonal Hessian maximize the
       objective over the values of the current kinks, dropping kinks that
       flatten.
    2. The tangent-cone certificate measures the best ascent rate over the
       generators, with slack at the current kinks only.
    3. The knots whose hinges ascend fastest join the kink set, or the loop
       stops: when the certificate meets a target tighter than ``grad_tol``,
       when no knot ascends, or when the objective stalls.

    The fit returns the best iterate certified at ``grad_tol``, else the last.
    ``converged`` means the returned iterate meets the certificate at
    ``grad_tol`` and integrates to 1 within ``integral_tol``.  The loop spends
    at most ``max_iterations`` objective evaluations.

    Raises
    ------
    UnsupportedInstanceError
        If the sample is too small for the class or degenerate.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("data must be a nonempty 1-d sequence")
    if np.any(~np.isfinite(arr)):
        raise ValueError("data must be finite")
    n_min = existence_threshold(cfg.s)
    if arr.size < n_min:
        raise UnsupportedInstanceError(
            f"s = {cfg.s} needs at least {n_min} observations, got {arr.size}")
    prob = _Problem(arr, cfg.s)

    v = _pilot_values(prob)
    active = _ActiveSet(prob, np.asarray([], dtype=int))  # start affine
    u = v[active.kinks]
    iterations = 0
    budget = cfg.max_iterations
    best = None  # (objective, kink set, kink values) of the best certified iterate
    prev_val = -math.inf
    while iterations < budget:
        active, u, evals = _reduced_newton(prob, active, u, cfg,
                                           INNER_TOL * cfg.grad_tol, budget - iterations)
        iterations += evals
        v = active.expand(u)
        cur_val, grad = prob.value_and_grad(v)
        kkt = _kkt_certificate(prob, grad, active.kinks)
        stalled = not cur_val > prev_val
        prev_val = cur_val
        if kkt <= cfg.grad_tol and (best is None or cur_val > best[0]):
            best = (cur_val, active, u)
        if best is not None and kkt <= TARGET_TOL * cfg.grad_tol:
            break
        # add the knots with the strongest certified bends, re-solve
        new_kinks = (np.asarray([], dtype=int) if stalled
                     else _new_kink_candidates(prob, grad, active.kinks))
        if new_kinks.size == 0:
            break
        active = _ActiveSet(prob, np.concatenate((active.kinks, new_kinks)))
        u = v[active.kinks]

    if best is not None:
        _, active, u = best
    val, grad = prob.value_and_grad(active.expand(u))
    kkt = _kkt_certificate(prob, grad, active.kinks)
    converged = kkt <= cfg.grad_tol

    # the kink representation is exact and avoids fp slope noise at data knots
    phi_final = PiecewiseConcave(active.xk, _repair_concavity(active.xk, u))
    raw = TransformedDensity(prob.transform, phi_final)
    integral_gap = abs(raw.integral - 1.0)
    density = raw.normalize()
    loglik = float(np.dot(prob.weights, np.log(density.pdf(prob.knots))))
    if integral_gap > cfg.integral_tol:
        converged = False
    return FitResult(
        phi_hat=density.phi, density=density, loglik=loglik,
        iterations=iterations, converged=converged, kkt_residual=kkt,
        objective=val)


def loglik_ratio(fit_result: FitResult, p0, data: Sequence[float]) -> float:
    """Mean log-likelihood ratio of the fit against a reference density."""
    arr = np.asarray(data, dtype=float)
    pdf0 = p0.pdf if hasattr(p0, "pdf") else p0
    denom = np.asarray(pdf0(arr), dtype=float)
    if np.any(denom <= 0):
        raise ValueError("reference density vanishes at a data point")
    num = fit_result.density.pdf(arr)
    return float(np.mean(np.log(num) - np.log(denom)))


# ----------------------------------------------------------------------
# Non-existence for s < -1
# ----------------------------------------------------------------------

def demonstrate_nonexistence(data: Sequence[float], s: float,
                             a_grid_size: int = 8) -> list:
    """Likelihood path showing the MLE does not exist for s < -1.

    Returns [(a_k, loglik_k)] on the geometric grid a_k approaching the
    critical scale from below; the log-likelihood increases without bound.
    Every path density integrates to one exactly, which is re-verified
    numerically here.
    """
    if not s < -1.0:
        raise ValueError("non-existence demonstration requires s < -1")
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise ValueError("data must be nonempty")
    if np.any(arr <= 0):
        raise ValueError("data must be strictly positive (shift first; "
                         "the construction is affine-equivariant)")
    r = -1.0 / s  # in (0, 1)
    b_r = (1.0 - r) ** (1.0 / (1.0 - r))
    x_max = float(arr.max())
    a_crit = b_r / x_max
    out = []
    for k in range(1, a_grid_size + 1):
        a = a_crit * (1.0 - 10.0 ** (-k))
        # integral of a(b_r - a x)^(-r) over [0, b_r/a]; equals 1 by the choice of b_r
        total = a * (b_r ** (1.0 - r)) / (a * (1.0 - r))
        if abs(total - 1.0) > 1e-10:
            raise AssertionError(f"path density at a={a} integrates to {total}")
        ll = float(np.sum(np.log(a) - r * np.log(b_r - a * arr)))
        out.append((a, ll))
    return out
