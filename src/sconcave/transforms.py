"""Increasing transformations of concave functions and the power family.

A transform ``h`` maps the extended reals onto ``[0, inf]``, is nondecreasing,
and turns a concave function ``phi`` into a nonnegative density candidate
``h(phi)``.  The power family covers the classical cases::

    s = 0 :  h(y) = exp(y)                 (log-concave)
    s < 0 :  h(y) = (-y)^(1/s) for y < 0   (heavy-tailed classes)
    s > 0 :  h(y) = y^(1/s)    for y > 0   (compactly supported classes)

Each transform carries its limit points (where h hits 0 and infinity), a
declared tail exponent ``alpha`` and, when the upper limit point is finite,
a pole exponent ``beta``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

# Module-wide tolerances.  Closed-form identities are checked near machine
# precision; finite differences and asymptotic slope fits get looser bounds.
TOL_CLOSED_FORM = 1e-12
TOL_ROUND_TRIP = 1e-10
TOL_FINITE_DIFF = 1e-6
TOL_INEQUALITY = 1e-9
SLOPE_FIT_MARGIN = 0.05

KIND_POWER = "power"
KIND_LOG = "log"
KIND_GENERAL = "general"


class TransformDomainError(ValueError):
    """Argument outside the valid domain of a transform operation."""


class UnsupportedTransformError(ValueError):
    """Transform does not satisfy the hypotheses an operation requires."""


@dataclass(frozen=True)
class Transform:
    """An increasing concave-function transformation.

    Attributes
    ----------
    kind : str
        One of ``"power"``, ``"log"``, ``"general"``.
    s : float or None
        Power-family index (``kind == "power"`` only).
    exp_scale : float
        Rate ``c`` in ``h(y) = exp(c*y)`` for the log kind (1.0 by default;
        square roots halve it).
    y0_tilde, yinf_tilde : float
        Limit points: ``h`` is 0 at or below ``y0_tilde`` and infinite at or
        above ``yinf_tilde``.
    alpha : float
        Declared tail exponent: ``h(y) = o(|y|^-alpha)`` as ``y -> -inf``.
        For the power family with s < 0 this is the exact exponent -1/s.
    beta : float or None
        Pole exponent when ``yinf_tilde`` is finite: ``h(y)`` grows like
        ``(yinf_tilde - y)^-beta``.
    """

    kind: str
    s: Optional[float] = None
    exp_scale: float = 1.0
    y0_tilde: float = -math.inf
    yinf_tilde: float = math.inf
    alpha: float = 2.0
    beta: Optional[float] = None
    eval_fn: Optional[Callable[[float], float]] = field(default=None, repr=False)
    inverse_fn: Optional[Callable[[float], float]] = field(default=None, repr=False)
    deriv_fn: Optional[Callable[[float], float]] = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in (KIND_POWER, KIND_LOG, KIND_GENERAL):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == KIND_POWER and (self.s is None or self.s == 0.0):
            raise ValueError("power transform requires a nonzero index s")
        if self.kind == KIND_GENERAL and (self.eval_fn is None or self.inverse_fn is None):
            raise ValueError("general transform requires eval and inverse callbacks")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def power(s: float) -> "Transform":
        """Power-family transform h_s for s != 0 (use log_concave for s = 0)."""
        if s == 0.0:
            return Transform.log_concave()
        if s < 0:
            return Transform(
                kind=KIND_POWER, s=s,
                y0_tilde=-math.inf, yinf_tilde=0.0,
                alpha=-1.0 / s, beta=-1.0 / s,
            )
        return Transform(
            kind=KIND_POWER, s=s,
            y0_tilde=0.0, yinf_tilde=math.inf,
            alpha=2.0, beta=None,
        )

    @staticmethod
    def log_concave(exp_scale: float = 1.0, alpha: float = 2.0) -> "Transform":
        """Exponential transform h(y) = exp(exp_scale * y)."""
        if exp_scale <= 0:
            raise ValueError("exp_scale must be positive")
        return Transform(
            kind=KIND_LOG, exp_scale=exp_scale,
            y0_tilde=-math.inf, yinf_tilde=math.inf,
            alpha=alpha, beta=None,
        )

    @staticmethod
    def general(eval_fn, inverse_fn, *, y0_tilde, yinf_tilde, alpha,
                beta=None, deriv_fn=None) -> "Transform":
        """Transform from user callbacks; derivative defaults to central differences."""
        return Transform(
            kind=KIND_GENERAL, eval_fn=eval_fn, inverse_fn=inverse_fn,
            deriv_fn=deriv_fn, y0_tilde=y0_tilde, yinf_tilde=yinf_tilde,
            alpha=alpha, beta=beta,
        )

    # -- evaluation ------------------------------------------------------

    def __call__(self, y):
        return self.eval(y)

    def eval(self, y):
        """h(y) on the extended reals; 0 at/below y0_tilde, inf at/above yinf_tilde.

        Accepts scalars or numpy arrays.
        """
        if np.isscalar(y) or isinstance(y, float):
            return float(self._eval_array(np.asarray([y], dtype=float))[0])
        return self._eval_array(np.asarray(y, dtype=float))

    def _eval_array(self, y: np.ndarray) -> np.ndarray:
        out = np.empty_like(y)
        below = y <= self.y0_tilde
        above = y >= self.yinf_tilde
        mid = ~(below | above)
        out[below] = 0.0
        out[above] = math.inf
        ym = y[mid]
        with np.errstate(over="ignore", under="ignore"):
            # overflow to inf / underflow to 0 is the extended-real semantics
            if self.kind == KIND_LOG:
                out[mid] = np.exp(self.exp_scale * ym)
            elif self.kind == KIND_POWER:
                s = self.s
                if s < 0:
                    out[mid] = np.power(-ym, 1.0 / s)
                else:
                    out[mid] = np.power(ym, 1.0 / s)
            else:
                out[mid] = [self.eval_fn(v) for v in ym]
        return out

    def inverse(self, u):
        """The increasing inverse of h on its open range.

        Raises
        ------
        TransformDomainError
            If ``u`` is not a positive finite value in the range of h.
        """
        scalar = np.isscalar(u) or isinstance(u, float)
        ua = np.asarray([u] if scalar else u, dtype=float)
        if np.any(ua <= 0) or np.any(~np.isfinite(ua)):
            raise TransformDomainError("inverse requires u in the open range (0, inf)")
        if self.kind == KIND_LOG:
            out = np.log(ua) / self.exp_scale
        elif self.kind == KIND_POWER:
            s = self.s
            out = -np.power(ua, s) if s < 0 else np.power(ua, s)
        else:
            out = np.asarray([self.inverse_fn(v) for v in ua], dtype=float)
        return float(out[0]) if scalar else out

    def derivative(self, y: float) -> float:
        """h'(y) for y strictly between the limit points."""
        if not (self.y0_tilde < y < self.yinf_tilde):
            raise TransformDomainError(
                f"derivative needs y in ({self.y0_tilde}, {self.yinf_tilde}), got {y}")
        if self.kind == KIND_LOG:
            return self.exp_scale * math.exp(self.exp_scale * y)
        if self.kind == KIND_POWER:
            s = self.s
            q = 1.0 / s
            if s < 0:
                return -q * (-y) ** (q - 1.0)
            return q * y ** (q - 1.0)
        if self.deriv_fn is not None:
            return self.deriv_fn(y)
        # central difference with a step scaled to |y|
        step = 1e-6 * max(1.0, abs(y))
        lo = max(y - step, self.y0_tilde + 0.25 * step)
        hi = min(y + step, self.yinf_tilde - 0.25 * step)
        return (self.eval(hi) - self.eval(lo)) / (hi - lo)

    def sqrt(self) -> "Transform":
        """The transform g with g(y)^2 = h(y) pointwise.

        Power index doubles (2s), the exponential rate halves, and the
        declared tail/pole exponents halve.
        """
        if self.kind == KIND_POWER:
            g = Transform.power(2.0 * self.s)
            # keep the halved bookkeeping exponents even for s > 0
            return Transform(
                kind=KIND_POWER, s=2.0 * self.s,
                y0_tilde=g.y0_tilde, yinf_tilde=g.yinf_tilde,
                alpha=self.alpha / 2.0,
                beta=None if self.beta is None else self.beta / 2.0,
            )
        if self.kind == KIND_LOG:
            return Transform.log_concave(exp_scale=self.exp_scale / 2.0,
                                         alpha=self.alpha / 2.0)
        raise UnsupportedTransformError(
            "sqrt of a general transform requires caller-supplied callbacks")


def sqrt_transform(t: Transform) -> Transform:
    """Functional alias for :meth:`Transform.sqrt`."""
    return t.sqrt()


# ----------------------------------------------------------------------
# Assumption checks
# ----------------------------------------------------------------------

@dataclass
class AssumptionCheck:
    name: str
    status: str  # "pass" | "fail" | "vacuous"
    witness: Optional[float] = None
    detail: str = ""


@dataclass
class AssumptionReport:
    checks: list

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def _loglog_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    lx, ly = np.log(xs), np.log(ys)
    return float(np.polyfit(lx, ly, 1)[0])


def check_assumptions(t: Transform) -> AssumptionReport:
    """Probe the tail/pole/boundedness assumptions of a transform.

    Slope fits run on geometric grids (y = -2^k and dyadic approaches to the
    limit points); an assumption passes when the fitted exponent is within
    ``SLOPE_FIT_MARGIN`` of the regime its declared exponent requires.
    Assumptions whose hypothesis does not apply are marked vacuous.
    """
    checks = []

    # T1: h'(y) = o(|y|^-(alpha+1)) as y -> -inf, for the declared alpha.
    if t.y0_tilde == -math.inf:
        ys = -np.power(2.0, np.arange(0, 41, dtype=float))
        pts, vals = [], []
        for y in ys:
            try:
                d = t.derivative(float(y))
            except (TransformDomainError, OverflowError):
                continue
            if 1e-300 < d < 1e300:
                pts.append(-y)
                vals.append(d)
        if len(pts) >= 3:
            # fit on the most asymptotic half of the valid points
            half = max(3, len(pts) // 2)
            slope = _loglog_slope(np.asarray(pts[-half:]), np.asarray(vals[-half:]))
            required = -(t.alpha + 1.0)
            ok = slope <= required + SLOPE_FIT_MARGIN
            checks.append(AssumptionCheck(
                "T1", "pass" if ok else "fail", witness=-slope - 1.0,
                detail=f"log-log slope of h' is {slope:.4g}, needs <= {required:.4g}"))
        else:
            # derivative underflows immediately: decays faster than any polynomial
            checks.append(AssumptionCheck(
                "T1", "pass", witness=math.inf,
                detail="h' underflows on the probe grid (super-polynomial decay)"))
    else:
        checks.append(AssumptionCheck("T1", "vacuous", detail="y0_tilde > -inf"))

    # T2: h' locally bounded above y0_tilde (only binding when y0_tilde finite).
    if t.y0_tilde > -math.inf:
        c = t.y0_tilde + 1.0 if t.yinf_tilde == math.inf else 0.5 * (t.y0_tilde + t.yinf_tilde)
        deltas = np.power(2.0, -np.arange(1, 41, dtype=float)) * (c - t.y0_tilde)
        ds = []
        for delta in deltas:
            try:
                ds.append(t.derivative(t.y0_tilde + float(delta)))
            except (TransformDomainError, OverflowError, ZeroDivisionError):
                ds.append(math.inf)
        ds = np.asarray(ds)
        finite = np.isfinite(ds) & (ds > 0)
        if finite.sum() >= 3:
            slope = _loglog_slope(deltas[finite][-10:], ds[finite][-10:])
            ok = slope >= -SLOPE_FIT_MARGIN  # bounded iff h' does not blow up as delta -> 0
            checks.append(AssumptionCheck(
                "T2", "pass" if ok else "fail", witness=slope,
                detail=f"log-log slope of h'(y0+delta) in delta is {slope:.4g}"))
        else:
            checks.append(AssumptionCheck("T2", "fail", detail="h' not finite near y0_tilde"))
    else:
        checks.append(AssumptionCheck("T2", "vacuous", detail="y0_tilde = -inf"))

    # T3: h(y) ~ (yinf - y)^-beta near a finite yinf_tilde, with beta > 1.
    if t.yinf_tilde < math.inf:
        if t.beta is None:
            checks.append(AssumptionCheck("T3", "fail", detail="no declared pole exponent beta"))
        else:
            deltas = np.power(2.0, -np.arange(1, 41, dtype=float))
            hs = np.asarray([t.eval(t.yinf_tilde - float(d)) for d in deltas])
            finite = np.isfinite(hs) & (hs > 0)
            slope = _loglog_slope(deltas[finite][-10:], hs[finite][-10:])
            ok = abs(slope + t.beta) <= SLOPE_FIT_MARGIN and t.beta > 1.0
            checks.append(AssumptionCheck(
                "T3", "pass" if ok else "fail", witness=-slope,
                detail=f"pole exponent fit {-slope:.4g} vs declared beta {t.beta:.4g}"
                       + ("" if t.beta > 1 else "; beta must exceed 1")))
    else:
        checks.append(AssumptionCheck("T3", "vacuous", detail="yinf_tilde = +inf"))

    # T4: h(y)^gamma * h(-C y) -> 0 as y -> +inf, for some gamma, C > 0.
    if t.yinf_tilde == math.inf:
        ok_pair = None
        for gamma, C in ((1.0, 2.0), (0.5, 1.0), (1.0, 4.0), (2.0, 8.0)):
            ys = np.power(2.0, np.arange(0, 30, dtype=float))
            logs = []  # log of h(y)^gamma * h(-C y); -inf means an exact zero
            for y in ys:
                hy = t.eval(float(y))
                hneg = t.eval(float(-C * y))
                if not math.isfinite(hy):
                    break  # h saturated; judge decay on the finite range
                if hneg == 0.0 or hy == 0.0:
                    logs.append(-math.inf)
                    continue
                logs.append(gamma * math.log(hy) + math.log(hneg))
            if len(logs) >= 3 and logs[-1] < math.log(1e-12):
                ok_pair = (gamma, C)
                break
            if len(logs) >= 3 and math.isfinite(logs[0]) and logs[-1] < logs[0] - 14.0:
                ok_pair = (gamma, C)
                break
        if ok_pair:
            checks.append(AssumptionCheck(
                "T4", "pass", witness=ok_pair[0],
                detail=f"decay witnessed at gamma={ok_pair[0]}, C={ok_pair[1]}"))
        else:
            checks.append(AssumptionCheck("T4", "fail", detail="no probed (gamma, C) pair decays"))
    else:
        checks.append(AssumptionCheck("T4", "vacuous", detail="yinf_tilde < +inf"))

    return AssumptionReport(checks)


# ----------------------------------------------------------------------
# Generalized means and s-concavity checks
# ----------------------------------------------------------------------

def generalized_mean(s: float, a: float, b: float, theta: float) -> float:
    """Order-s mean of (a, b) with weights (1-theta, theta).

    Handles the limit cases s = 0 (geometric) and s = -inf (minimum).
    """
    if a < 0 or b < 0:
        raise ValueError("generalized_mean requires nonnegative a, b")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if s == -math.inf:
        return min(a, b)
    if s == 0.0:
        return a ** (1.0 - theta) * b ** theta
    if a == 0.0 or b == 0.0:
        # x^s blows up at 0 for s < 0: the mean degenerates to 0 there
        if s < 0:
            return 0.0
        return ((1.0 - theta) * a ** s + theta * b ** s) ** (1.0 / s)
    return ((1.0 - theta) * a ** s + theta * b ** s) ** (1.0 / s)


def check_s_concavity(p: Callable[[float], float], s: float,
                      grid: Sequence[float],
                      thetas=(0.25, 0.5, 0.75)) -> bool:
    """Scan the generalized-mean inequality for s-concavity on a grid.

    Returns True iff ``p((1-t)x0 + t x1) >= M_s(p(x0), p(x1); t)`` holds for
    every grid pair and every probed theta, up to ``TOL_INEQUALITY``.
    """
    xs = np.asarray(grid, dtype=float)
    if xs.size < 3:
        raise ValueError("grid must contain at least 3 points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("grid must be sorted strictly increasing")
    pv = np.asarray([p(float(x)) for x in xs], dtype=float)
    if np.any(pv < 0):
        raise ValueError("density must be nonnegative on the grid")
    n = xs.size
    for i in range(n):
        for j in range(i + 1, n):
            for theta in thetas:
                xm = (1.0 - theta) * xs[i] + theta * xs[j]
                lhs = p(float(xm))
                rhs = generalized_mean(s, pv[i], pv[j], theta)
                if lhs < rhs - TOL_INEQUALITY * max(1.0, rhs):
                    return False
    return True


def nesting_check(p, s_target: float, grid: Sequence[float]) -> bool:
    """Check that a density is s_target-concave via the inverse transform.

    Maps density values through the inverse of the target power transform and
    tests concavity of the result on the grid (nonincreasing slopes up to
    ``TOL_INEQUALITY``).  Grid points where the density vanishes (outside the
    support) are skipped with a warning.
    """
    target = Transform.power(s_target) if s_target != 0 else Transform.log_concave()
    xs = np.asarray(grid, dtype=float)
    pdf = p.pdf if hasattr(p, "pdf") else p
    vals = np.asarray([pdf(float(x)) for x in xs], dtype=float)
    keep = vals > 0
    if not np.all(keep):
        warnings.warn(f"nesting_check: skipped {int((~keep).sum())} grid points "
                      "outside the support", stacklevel=2)
    xs, vals = xs[keep], vals[keep]
    if xs.size < 3:
        raise ValueError("fewer than 3 usable grid points")
    psi = np.asarray([target.inverse(float(v)) for v in vals])
    slopes = np.diff(psi) / np.diff(xs)
    scale = max(1.0, float(np.max(np.abs(psi))))
    return bool(np.all(np.diff(slopes) <= TOL_INEQUALITY * scale))
