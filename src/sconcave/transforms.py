"""Increasing transformations of concave functions and the power family.

A transform ``h`` maps the extended reals onto ``[0, inf]``, is nondecreasing,
and turns a concave function ``phi`` into a nonnegative density candidate
``h(phi)``.  The power family covers the classical cases::

    s = 0 :  h(y) = exp(y)                 (log-concave)
    s < 0 :  h(y) = (-y)^(1/s) for y < 0   (heavy-tailed classes)
    s > 0 :  h(y) = y^(1/s)    for y > 0   (compactly supported classes)

A transform stores its index s alone.  Its limit points (where h hits 0 and
infinity), its declared tail exponent ``alpha`` and, when the upper limit
point is finite, its pole exponent ``beta`` are derived from s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

# Relative tolerance of the slope test in check_s_concavity.
TOL_INEQUALITY = 1e-9


class TransformDomainError(ValueError):
    """Argument outside the valid domain of a transform operation."""


class UnsupportedTransformError(ValueError):
    """Transform does not satisfy the hypotheses an operation requires."""


@dataclass(frozen=True)
class Transform:
    """The power-family transform h_s, fixed by its index s.

    Attributes
    ----------
    s : float
        Power-family index, the one settable value (finite; -0.0 is stored
        as 0.0, the exp member).
    y0_tilde, yinf_tilde : float
        Limit points, derived from s: ``h`` is 0 at or below ``y0_tilde`` and
        infinite at or above ``yinf_tilde``.  They are (-inf, 0) for s < 0,
        (0, inf) for s > 0 and (-inf, inf) for s = 0.
    alpha : float
        Declared tail exponent, derived from s: ``h(y) = O(|y|^-alpha)`` as
        ``y -> -inf``.  The exact exponent -1/s for s < 0, else 2.
    beta : float or None
        Pole exponent, derived from s: -1/s for s < 0, where ``h(y)`` grows
        like ``(yinf_tilde - y)^-beta``; None when ``yinf_tilde`` is infinite.
    """

    s: float
    y0_tilde: float = field(init=False)
    yinf_tilde: float = field(init=False)
    alpha: float = field(init=False)
    beta: Optional[float] = field(init=False)

    def __post_init__(self):
        s = float(self.s)
        if not math.isfinite(s):
            raise ValueError(f"transform index s must be finite, got {s}")
        # frozen: the derived attributes are set once, here
        set_ = object.__setattr__
        set_(self, "s", 0.0 if s == 0 else s)
        set_(self, "y0_tilde", -math.inf if s <= 0 else 0.0)
        set_(self, "yinf_tilde", 0.0 if s < 0 else math.inf)
        set_(self, "alpha", -1.0 / s if s < 0 else 2.0)
        set_(self, "beta", -1.0 / s if s < 0 else None)

    @staticmethod
    def power(s: float) -> "Transform":
        """Power-family transform h_s; s = 0 gives the log-concave transform exp."""
        return Transform(s)

    # -- evaluation ------------------------------------------------------

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
            if self.s == 0:
                out[mid] = np.exp(ym)
            elif self.s < 0:
                out[mid] = np.power(-ym, 1.0 / self.s)
            else:
                out[mid] = np.power(ym, 1.0 / self.s)
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
        s = self.s
        if s == 0:
            out = np.log(ua)
        else:
            out = -np.power(ua, s) if s < 0 else np.power(ua, s)
        return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# Assumption table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionCheck:
    status: str  # "pass" | "fail" | "vacuous"
    witness: Optional[float] = None


def check_assumptions(t: Transform) -> Dict[str, AssumptionCheck]:
    """The hypotheses T1-T4 on h_s, read off their closed forms in s.

    These are the assumptions (T.1)-(T.4) that Doss & Wellner (arXiv
    1306.1438) place on the transform h in their rate theorems.

    Returns a dict from name to ``AssumptionCheck``; a hypothesis whose
    premise does not hold for this s is vacuous.

    - T1, ``h'(y) = O(|y|^-(alpha+1))`` as y -> -inf (s <= 0): passes.  For
      s < 0, h' is exactly a constant times ``|y|^-(alpha+1)`` with alpha =
      -1/s, so T1 is read with O, not o.  Witness alpha; inf for s = 0,
      where h' = e^y decays faster than any power.
    - T2, h' bounded above the finite zero point 0 (s > 0): passes iff
      s <= 1.  Witness 1/s - 1, the exponent of h' at 0+.
    - T3, pole order beta = -1/s > 1 at the finite limit point 0 (s < 0):
      passes iff s > -1.  Witness beta.
    - T4, ``h(y)^gamma h(-C y) -> 0`` as y -> inf (s >= 0): passes with
      gamma = 1 and C = 2, since h(-2y) = e^{-2y} for s = 0 and 0 for s > 0.
      Witness gamma.
    """
    s = t.s
    vacuous = AssumptionCheck("vacuous")
    return {
        "T1": AssumptionCheck("pass", t.alpha if s < 0 else math.inf) if s <= 0 else vacuous,
        "T2": AssumptionCheck("pass" if s <= 1 else "fail", 1.0 / s - 1.0) if s > 0 else vacuous,
        "T3": AssumptionCheck("pass" if s > -1 else "fail", t.beta) if s < 0 else vacuous,
        "T4": AssumptionCheck("pass", 1.0) if s >= 0 else vacuous,
    }


# ----------------------------------------------------------------------
# The s-concavity test
# ----------------------------------------------------------------------

def check_s_concavity(p: Callable[[float], float], s: float,
                      grid: Sequence[float]) -> bool:
    """Whether the density p is s-concave on a grid.

    Doss & Wellner (arXiv 1306.1438) call p s-concave when p = h_s(phi) for a
    concave phi: its support {p > 0} is an interval and h_s^{-1}(p) is
    concave there.  This is the generalized-mean inequality
    ``p((1-t)x + t y) >= M_s(p(x), p(y); t)`` of Dharmadhikari & Joag-Dev
    (1988).  The classes nest: M_s is nondecreasing in s, so an s-concave
    density is r-concave for every r < s.

    p is evaluated once per grid point.  True iff the points where p > 0
    are consecutive and ``psi = h_s^{-1}(p)`` there has nonincreasing
    slopes, up to ``TOL_INEQUALITY * max(1, max|psi|)``.
    """
    xs = np.asarray(grid, dtype=float)
    if xs.size < 3:
        raise ValueError("grid must contain at least 3 points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("grid must be sorted strictly increasing")
    pv = np.asarray([p(float(x)) for x in xs], dtype=float)
    if np.any(pv < 0):
        raise ValueError("density must be nonnegative on the grid")
    inside = np.flatnonzero(pv > 0)
    if inside.size == 0:
        raise ValueError("density vanishes on the whole grid")
    if inside[-1] - inside[0] + 1 != inside.size:
        return False  # the support is not an interval
    psi = Transform.power(s).inverse(pv[inside])
    slopes = np.diff(psi) / np.diff(xs[inside])
    scale = max(1.0, float(np.max(np.abs(psi))))
    return bool(np.all(np.diff(slopes) <= TOL_INEQUALITY * scale))
