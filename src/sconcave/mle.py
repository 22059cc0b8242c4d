"""Maximum likelihood over s-concave classes (s > -1) via a penalized cone program.

The integral constraint is folded into the objective: densities h(phi) form a
cone under positive scaling, so maximizing

    L(phi) = mean_i log h(phi(X_i)) - integral h(phi)

over concave piecewise-linear phi with knots at the data points: at a
maximizer the integral is automatically 1.  The solver is an active-set
method in kink space: phi is linear between its kinks, so on a fixed kink set
the objective, its gradient and its exact tridiagonal Hessian depend on the
kink values only.  Damped Newton steps solve each reduced problem; kinks enter
through an exact tangent-cone (hinge) certificate and leave when they flatten.
Segment integrals come from the closed-form kernel of ``sconcave.density``.
L is concave only for 0 <= s <= 1 (log|v| / s is convex for s < 0, the
integral of h concave for s > 1); elsewhere the certificate proves only
first-order stationarity, not a maximum.

For s < -1 no maximizer exists; ``demonstrate_nonexistence`` evaluates the
diverging one-parameter likelihood path that witnesses it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .concave_fn import PiecewiseConcave
from .density import TransformedDensity, _segment_partials
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

    def __post_init__(self):
        if not -1.0 < self.s < math.inf:
            raise ValueError(f"the MLE requires -1 < s < inf, got s = {self.s}")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        if not (isinstance(self.max_iterations, numbers.Integral) and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations}")


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
            "objective": self.objective,
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
# Objective
# ----------------------------------------------------------------------

def _tail_sums(a: np.ndarray) -> np.ndarray:
    """Entry k is the sum of a[k + 2:]: the sum past interior knot k + 1."""
    return np.cumsum(a[::-1])[::-1][2:]


class _Problem:
    """Penalized MLE objective on the knot-value parametrization; the one
    check of the data for ``fit`` and ``objective``."""

    def __init__(self, data: Sequence[float], s: float):
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
            raise ValueError("data must be a nonempty 1-d sequence of finite numbers")
        knots, counts = np.unique(arr, return_counts=True)
        if knots.size < 2:
            raise UnsupportedInstanceError("data must contain at least two distinct points")
        self.knots = knots
        self.weights = counts / counts.sum()
        self.dx = np.diff(knots)
        self.s = s
        self.transform = t = Transform.power(s)
        self.lo, self.hi = t.y0_tilde + VALUE_CAP, t.yinf_tilde - VALUE_CAP

    @property
    def n_knots(self) -> int:
        return self.knots.size

    @cached_property
    def affine_generators(self) -> Tuple[Tuple[np.ndarray, float], ...]:
        """The tangent cone's affine directions 1 and x - mean(x), each with its length."""
        x = self.knots
        return tuple((d, float(np.linalg.norm(d))) for d in (np.ones(x.size), x - x.mean()))

    @cached_property
    def hinge_norm(self) -> np.ndarray:
        """Length over the knots of each interior hinge (x - x_j)_+, knot k + 1 at k."""
        x = self.knots
        xj = x[1:-1]
        norm2 = (_tail_sums(x * x) - 2.0 * xj * _tail_sums(x)
                 + xj ** 2 * _tail_sums(np.ones(x.size)))
        return np.sqrt(np.maximum(norm2, 1e-300))

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
    transform range.  Raises ``ValueError`` when the data are not a nonempty
    1-d sequence of finite numbers, or ``values`` do not fit them.
    """
    prob = _Problem(data, s)
    v = np.asarray(values, dtype=float)
    if v.shape != prob.knots.shape:
        raise ValueError(f"expected {prob.n_knots} values (unique data points)")
    if not np.all(np.isfinite(v) & (prob.lo <= v) & (v <= prob.hi)):
        raise ValueError("values violate the transform range for this s")
    return prob.value_and_grad(v)


# ----------------------------------------------------------------------
# Final kink set and the optimality certificate
# ----------------------------------------------------------------------

def _bent_kinks(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indices of the kinks that bend: both ends and each interior kink where
    the slope drops.

    An interior kink whose slope does not drop (rounding can leave one when
    the budget stops Newton) is dropped, so phi there becomes the line between
    its neighbours; the drop repeats until every remaining kink bends.  Kept
    kinks keep their values, so phi stays inside h's range.
    """
    keep = np.arange(x.size)
    while keep.size > 2:
        bends = np.diff(np.diff(v[keep]) / np.diff(x[keep])) < 0
        if np.all(bends):
            break
        keep = np.concatenate((keep[:1], keep[1:-1][bends], keep[-1:]))
    return keep


def _hinge_rates(prob: _Problem, grad: np.ndarray) -> np.ndarray:
    """Rates along the normalized hinges (x - x_j)_+, knot k + 1 at k, in O(n)."""
    x = prob.knots
    return (_tail_sums(grad * x) - x[1:-1] * _tail_sums(grad)) / prob.hinge_norm


def _certify(prob: _Problem, grad: np.ndarray, kinks: np.ndarray
             ) -> Tuple[float, np.ndarray]:
    """Exact tangent-cone optimality certificate at a kink-space iterate, and
    the knots to add next, from one pass of hinge rates.

    Concave piecewise-linear vectors are nonnegative combinations of affine
    parts and negative hinges (x - x_j)_+, so the tangent cone at phi is
    generated by +/- affine directions, -hinge_j at every interior knot, and
    +hinge_j where phi bends.  phi is linear between its kinks, so slack is
    decided by kink membership: +hinge_j enters only at the interior kinks
    of the current set, never at a knot whose interpolated value rounds to a
    slope drop.  The certificate is the largest normalized directional
    derivative over the generators, or 0 when none ascends.  Zero proves a
    maximum only for 0 <= s <= 1, where the objective is concave; otherwise
    only stationarity.  The new kinks are up to ``KINK_BATCH`` spaced-apart
    knots whose -hinge_j ascends within a factor 0.3 of the fastest, taken
    fastest first.  The threshold comes from the largest rate, so only the
    knots at or above it are sorted, not all n.
    """
    x = prob.knots
    kkt = 0.0
    for d, norm in prob.affine_generators:
        kkt = max(kkt, abs(float(np.dot(grad, d))) / norm)
    picked = []
    if x.size >= 3:
        down = -_hinge_rates(prob, grad)
        kkt = max(kkt, float(np.max(down)))  # removing slope drop: always feasible
        inner = kinks[(kinks > 0) & (kinks < x.size - 1)]
        if inner.size:
            kkt = max(kkt, float(np.max(-down[inner - 1])))
        down[inner - 1] = -math.inf
        top = float(np.max(down))
        if top > 0:
            # order only the candidates within the factor, fastest first;
            # equal rates go highest knot first
            cand = np.flatnonzero(down >= 0.3 * top)
            order = cand[np.argsort(down[cand], kind="stable")[::-1]]
            for o in order.tolist():
                if len(picked) >= KINK_BATCH:
                    break
                knot = o + 1
                # space batch members out; the top candidate is always taken
                if picked and any(abs(knot - t) <= 1 for t in picked):
                    continue
                picked.append(knot)
    return kkt, np.asarray(picked, dtype=int)


# ----------------------------------------------------------------------
# Solver
# ----------------------------------------------------------------------

# The certificate is cheap to tighten while Newton converges quadratically:
# refine to TARGET_TOL * grad_tol, solving each kink set to INNER_TOL * grad_tol.
INNER_TOL = 1e-4
TARGET_TOL = 1e-3
# cone stationarity ties the integral gap to grad_tol * sqrt(n); the
# bound leaves room for samples up to ~10^10 points
INTEGRAL_TOL = 1e-5
# most knots one kink round adds
KINK_BATCH = 8


def _pilot_values(prob: _Problem) -> np.ndarray:
    """Feasible start: the flat function matching the uniform density on the range."""
    x = prob.knots
    level = prob.transform.inverse(1.0 / (x[-1] - x[0]))
    return np.clip(np.full(x.size, level), prob.lo, prob.hi)


def _without(a: np.ndarray, k: int) -> np.ndarray:
    """A copy of a without entry k (np.delete, minus its overhead on small arrays)."""
    return np.concatenate((a[:k], a[k + 1:]))


class _ActiveSet:
    """A kink set and the objective restricted to it (kink space).

    phi is linear between kinks, so knot i on kink segment seg[i], at offset
    off[i] = x_i - xk[seg] with barycentric weight lam[i] = off / dxk[seg], has
    value (1 - lam) u[seg] + lam u[seg + 1] for kink values u.  The
    knot-to-kink map T is never formed.  At s = 0 the data term is linear and
    each kink keeps its right- and left-segment weight sums.  Otherwise the
    C-contiguous (5, n) array ``wts`` holds the per-knot weights w om, w lam,
    w om^2, w lam^2 and w lam om (om = 1 - lam), so one stacked segment sum
    gives the data term's gradient and tridiagonal Hessian.  The constructor
    and ``insert`` fill these over all knots (``_build``).  ``drop`` runs
    inside Newton, so it updates in place: ``_refit`` on the merged segment's
    knots and a shift of the later segment indices, bit-identical to a fresh build.
    """

    def __init__(self, prob: _Problem, kinks: np.ndarray):
        self.prob = prob
        n = prob.n_knots
        self.seg = np.empty(n, dtype=np.intp)
        self.off = np.empty(n)
        if prob.s != 0:
            self.wts = np.empty((5, n))
        self._build(np.unique(np.concatenate(([0, n - 1], kinks))))

    def _build(self, kinks: np.ndarray) -> None:
        """Set the sorted kinks; fill seg, off and the data weights over all knots."""
        self._set_kinks(kinks)
        if self.prob.s == 0:
            self._w_right, self._w_left = np.zeros(kinks.size), np.zeros(kinks.size)
        self._refit(0, kinks.size - 2)

    def _set_kinks(self, kinks: np.ndarray) -> None:
        self.kinks = kinks
        self.xk = self.prob.knots[kinks]
        self.dxk = np.diff(self.xk)
        self._dxk = self.dxk.tolist()

    def _knot_span(self, a: int, b: int) -> Tuple[int, int]:
        """Knot index range [i0, i1) of kink segments a..b; the last segment
        also holds the last knot."""
        end = self.kinks[b + 1] if b + 1 < self.kinks.size - 1 else self.prob.n_knots
        return int(self.kinks[a]), int(end)

    def _refit(self, a: int, b: int) -> None:
        """Rewrite seg, off and the data weights on the knots of segments a..b."""
        i0, i1 = self._knot_span(a, b)
        ends = self.kinks[a:b + 2].copy()
        ends[-1] = i1
        seg = np.repeat(np.arange(a, b + 1), np.diff(ends))
        off = self.prob.knots[i0:i1] - self.xk[seg]
        lam = off / self.dxk[seg]
        om = 1.0 - lam
        self.seg[i0:i1], self.off[i0:i1] = seg, off
        w = self.prob.weights[i0:i1]
        if self.prob.s == 0:
            self._w_right[a:b + 1] = np.bincount(seg - a, w * om, minlength=b - a + 1)
            self._w_left[a + 1:b + 2] = np.bincount(seg - a, w * lam, minlength=b - a + 1)
        else:
            wo, wl, wo2, wl2, wlo = self.wts[:, i0:i1]
            np.multiply(w, om, out=wo)
            np.multiply(w, lam, out=wl)
            np.multiply(wo, om, out=wo2)
            np.multiply(wl, lam, out=wl2)
            np.multiply(wl, om, out=wlo)

    def drop(self, k: int) -> None:
        """Remove interior kink k: segments k - 1 and k merge."""
        self._set_kinks(_without(self.kinks, k))
        if self.prob.s == 0:
            self._w_right = _without(self._w_right, k)
            self._w_left = _without(self._w_left, k)
        end = self._knot_span(k - 1, k - 1)[1]
        self.seg[end:] -= 1  # the later segments move left by one
        self._refit(k - 1, k - 1)

    def insert(self, knots: np.ndarray) -> None:
        """Add knot indices that are not kinks yet, and rebuild the set."""
        self._build(np.union1d(self.kinks, knots))

    @property
    def data_grad(self) -> np.ndarray:
        """T^T w at s = 0: the data term is linear, so this is its gradient."""
        return self._w_right + self._w_left

    def expand(self, u: np.ndarray) -> np.ndarray:
        """phi at every knot: ``np.interp(knots, xk, u)``, bit for bit, from the
        stored offsets."""
        seg = self.seg
        v = ((u[1:] - u[:-1]) / self.dxk)[seg] * self.off + u[seg]
        v[-1] = u[-1]
        return v

    def value_grad_hess(self, u: np.ndarray
                        ) -> Tuple[float, Optional[np.ndarray], Optional[np.ndarray],
                                   Optional[np.ndarray]]:
        """Objective, gradient and tridiagonal Hessian in kink space.

        Returns (value, grad, diag, off) with off the superdiagonal; the value
        is -inf (and the rest None) outside the domain of the objective.  At
        s != 0 that includes any kink value outside h's capped range [lo, hi]:
        every knot value is a convex combination of kink values, so checking
        the m kinks decides it before the pass over the n knots.
        """
        s = self.prob.s
        m = u.size
        with np.errstate(over="ignore"):
            if s == 0:
                grad = self.data_grad
                term1 = float(np.dot(grad, u))
                diag = np.zeros(m)
                off = np.zeros(m - 1)
            else:
                uu = u.tolist()
                if not self.prob.lo <= min(uu) <= max(uu) <= self.prob.hi:
                    return -math.inf, None, None, None
                v = self.expand(u)
                term1 = float(np.dot(self.prob.weights, np.log(-v if s < 0 else v)) * (1.0 / s))
                # first and second v-derivatives of log h(v) = log(|v|) / s
                r = 1.0 / (s * v)
                c = -r / v
                # one stacked segment sum: rows r w om, r w lam, then c times
                # the three Hessian weights
                prod = np.empty_like(self.wts)
                np.multiply(self.wts[:2], r, out=prod[:2])
                np.multiply(self.wts[2:], c, out=prod[2:])
                sums = np.add.reduceat(prod, self.kinks[:-1], axis=1)
                grad = np.zeros(m)
                grad[:-1] = sums[0]
                grad[1:] += sums[1]
                diag = np.zeros(m)
                diag[:-1] = sums[2]
                diag[1:] += sums[3]
                off = sums[4]
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
        """Largest t keeping kink slopes nonincreasing; returns (t, tight kink).

        On Python floats: m is small, so numpy's per-call overhead would
        dominate.  Ties go to the first kink.
        """
        u, du = u.tolist(), du.tolist()
        t_cap = self._cap_step(u, du)
        dx = self._dxk
        s0 = [(b - a) / h for a, b, h in zip(u, u[1:], dx)]
        ds = [(b - a) / h for a, b, h in zip(du, du[1:], dx)]
        t_min, tight = math.inf, None
        for i in range(len(dx) - 1):
            dc = ds[i + 1] - ds[i]  # change per unit step of a slope increase (<= 0)
            if dc > 1e-14:
                t = max(0.0, -(s0[i + 1] - s0[i])) / dc
                if tight is None or t < t_min:
                    t_min, tight = t, i + 1  # kink index inside self.kinks
        if tight is None or t_cap < t_min:
            return t_cap, None
        return t_min, tight

    def _cap_step(self, u: list, du: list) -> float:
        """Largest t keeping u + t du inside the capped range [lo, hi] of h."""
        lo, hi = self.prob.lo, self.prob.hi
        up, down = math.isfinite(hi), math.isfinite(lo)
        t = math.inf
        for a, d in zip(u, du):
            if up and d > 1e-300:
                t = min(t, abs(hi - a) / abs(d))
            elif down and d < -1e-300:
                t = min(t, abs(lo - a) / abs(d))
        return t


def _drop_flat_kink(active: _ActiveSet, u: np.ndarray, k: int, state: tuple
                    ) -> Tuple[np.ndarray, tuple]:
    """Drop interior kink k, which lies on the line between its neighbours.

    With mu = (x_k - x_{k-1}) / (x_{k+1} - x_{k-1}) the kink value is
    u_k = (1 - mu) u_{k-1} + mu u_{k+1}, so phi is unchanged and the reduced
    objective is the current one composed with that linear map.  The value
    carries over; the gradient and the tridiagonal Hessian (diag, off) follow
    by the chain rule in O(m).  ``active`` loses the kink in place; the
    reduced kink values and state are returned.
    """
    val, grad, diag, off = state
    xk = active.xk
    mu = (xk[k] - xk[k - 1]) / (xk[k + 1] - xk[k - 1])
    nu = 1.0 - mu
    g = _without(grad, k)
    g[k - 1] += nu * grad[k]
    g[k] += mu * grad[k]
    d = _without(diag, k)
    d[k - 1] += 2.0 * nu * off[k - 1] + nu * nu * diag[k]
    d[k] += 2.0 * mu * off[k] + mu * mu * diag[k]
    e = _without(off, k)  # e[k - 1] now couples kinks k - 1 and k + 1
    e[k - 1] = mu * off[k - 1] + nu * off[k] + mu * nu * diag[k]
    active.drop(k)
    return _without(u, k), (val, g, d, e)


def _solve_tridiagonal(d: np.ndarray, e: np.ndarray, b: np.ndarray
                       ) -> Optional[np.ndarray]:
    """Solve A x = b for the symmetric tridiagonal A with diagonal d, off-diagonal e.

    An O(m) L D L^T factorization in LAPACK ``ptsv``'s operation order, so
    the result matches ``scipy.linalg.solveh_banded`` bit for bit.  Returns
    None when A is not positive definite or the solution is not finite;
    raises ValueError on a non-finite input.  Runs on Python floats: m is
    small, so numpy's per-call overhead would dominate.
    """
    d, e, x = d.tolist(), e.tolist(), b.tolist()
    if not all(map(math.isfinite, d + e + x)):
        raise ValueError("array must not contain infs or NaNs")
    m = len(d)
    for i in range(m - 1):
        if not d[i] > 0:
            return None
        ei = e[i]
        e[i] = ei / d[i]
        d[i + 1] = d[i + 1] - e[i] * ei
    if not d[m - 1] > 0:
        return None
    for i in range(1, m):
        x[i] = x[i] - x[i - 1] * e[i - 1]
    x[m - 1] = x[m - 1] / d[m - 1]
    for i in range(m - 2, -1, -1):
        x[i] = x[i] / d[i] - x[i + 1] * e[i]
    if not all(map(math.isfinite, x)):
        return None
    return np.asarray(x)


def _reduced_newton(active: _ActiveSet, u: np.ndarray, inner_tol: float, budget: int
                    ) -> Tuple[np.ndarray, int]:
    """Maximize the objective over the current kink set in at most ``budget`` evaluations.

    Damped Newton steps on the kink values use the exact tridiagonal Hessian,
    factored in O(m).  Kinks whose concavity constraint blocks a step at zero
    length lie on a segment, so removing them does not change the function;
    the solver drops them in place and re-solves until the kink-space
    gradient meets the inner tolerance or no step improves.  A drop carries
    the evaluation over by the chain rule (``_drop_flat_kink``) when the kink
    is flat: at a zero-length block, or when the accepted step is exactly the
    one that flattens it.  A step cut short at t = 1 leaves the kink bent, so
    that drop is evaluated afresh.  Once a step's predicted gain is below the
    resolution of the objective, the step counts as improving when it shrinks
    the gradient.  Drops change ``active`` in place; returns the kink values
    and the evaluations spent.
    """
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
            cand = _solve_tridiagonal(trial * scale_h - diag, -off, grad)
            if cand is not None and float(np.dot(cand, grad)) > 0:
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
                u, (val, grad, diag, off) = _drop_flat_kink(
                    active, u, tight, (val, grad, diag, off))
                moved = True
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
                t *= 0.5
            if moved:
                if tight is not None and t >= 0.999 * t_max and active.kinks.size > 2:
                    # the step flattened this kink: remove it; unless the step
                    # reached it exactly the kink still bends, so re-evaluate
                    u, (val, grad, diag, off) = _drop_flat_kink(
                        active, u, tight, (val, grad, diag, off))
                    stale = t != t_max
                break
        if not moved:
            break
    return u, evals


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
       when no knot ascends, when the objective stalls, or when fewer than
       the two evaluations that moving a new kink takes remain.

    Steps 2 and 3 read one pass of hinge rates.  The budget is checked
    before kinks join, so the returned iterate is always a solved and
    certified one, and its numbers are kept, not recomputed.

    The fit returns the best iterate certified at ``grad_tol``, else the last.
    ``converged`` means the returned iterate meets the certificate at
    ``grad_tol`` and integrates to 1 within ``INTEGRAL_TOL``: the MLE for
    0 <= s <= 1, a stationary point that need not be the maximizer otherwise.
    The loop spends at most ``max_iterations`` objective evaluations.

    Raises
    ------
    UnsupportedInstanceError
        If the sample is too small for the class or degenerate.
    """
    arr = np.asarray(data, dtype=float)
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
    # (objective, certificate, kink positions, kink values) of the best
    # certified iterate and of the last one solved
    best = last = None
    prev_val = -math.inf
    while True:
        u, evals = _reduced_newton(active, u, INNER_TOL * cfg.grad_tol, budget - iterations)
        iterations += evals
        v = active.expand(u)
        cur_val, grad = prob.value_and_grad(v)
        kkt, new_kinks = _certify(prob, grad, active.kinks)
        last = (cur_val, kkt, active.xk, u)
        stalled = not cur_val > prev_val
        prev_val = cur_val
        if kkt <= cfg.grad_tol and (best is None or cur_val > best[0]):
            best = last
        if best is not None and kkt <= TARGET_TOL * cfg.grad_tol:
            break
        # moving a new kink takes two evaluations: the new set's, then a step
        if stalled or new_kinks.size == 0 or budget - iterations < 2:
            break
        # add the knots with the strongest certified bends, re-solve
        active.insert(new_kinks)
        u = v[active.kinks]

    val, kkt, xk, u = best if best is not None else last
    converged = best is not None

    # the kink representation is exact and avoids fp slope noise at data knots
    keep = _bent_kinks(xk, u)
    phi_final = PiecewiseConcave(xk[keep], u[keep])
    raw = TransformedDensity(prob.transform, phi_final)
    integral_gap = abs(raw.integral - 1.0)
    density = raw.normalize()
    loglik = float(np.dot(prob.weights, np.log(density.pdf(prob.knots))))
    if integral_gap > INTEGRAL_TOL:
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
    if a_grid_size < 2:
        raise ValueError(f"a_grid_size must be at least 2, got {a_grid_size}")
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
