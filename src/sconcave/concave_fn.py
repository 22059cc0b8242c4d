"""Piecewise-linear closed proper concave functions on the real line.

A function is stored as strictly increasing knots with finite values and is
``-inf`` outside ``[knots[0], knots[-1]]`` (its effective domain).  Slopes
between consecutive knots must be nonincreasing.  All operations return new
objects; instances are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

SLOPE_TOL = 1e-12
NEG_INF = -math.inf


class DomainError(ValueError):
    """Operation applied outside the effective domain."""


def _check_concave(knots: np.ndarray, values: np.ndarray, tol: float) -> None:
    if knots.size >= 3:
        slopes = np.diff(values) / np.diff(knots)
        scale = max(1.0, float(np.max(np.abs(values))), float(np.max(np.abs(slopes))))
        if np.any(np.diff(slopes) > tol * scale):
            worst = float(np.max(np.diff(slopes)))
            raise ValueError(f"slope sequence increases by {worst:.3g}; not concave")


@dataclass(frozen=True, eq=False)
class PiecewiseConcave:
    """Piecewise-linear concave function: knots, values, -inf off-domain."""

    knots: np.ndarray
    values: np.ndarray
    _slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        knots = np.atleast_1d(np.asarray(self.knots, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if knots.ndim != 1 or knots.shape != values.shape:
            raise ValueError("knots and values must be 1-d arrays of equal length")
        if knots.size == 0:
            raise ValueError("need at least one knot")
        if np.any(~np.isfinite(knots)) or np.any(~np.isfinite(values)):
            raise ValueError("knots and values must be finite")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing (merge ties first)")
        _check_concave(knots, values, SLOPE_TOL)
        knots.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        slopes = np.diff(values) / np.diff(knots) if knots.size > 1 else np.empty(0)
        slopes.flags.writeable = False
        object.__setattr__(self, "_slopes", slopes)

    @staticmethod
    def from_points(xs: Sequence[float], vs: Sequence[float]) -> "PiecewiseConcave":
        """Build from possibly tied points; ties are merged keeping the max value."""
        xs = np.asarray(xs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        order = np.argsort(xs, kind="stable")
        xs, vs = xs[order], vs[order]
        ux, inverse = np.unique(xs, return_inverse=True)
        uv = np.full(ux.shape, -np.inf)
        np.maximum.at(uv, inverse, vs)
        return PiecewiseConcave(ux, uv)

    # -- basic queries ----------------------------------------------------

    @property
    def domain(self) -> Tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    @property
    def slopes(self) -> np.ndarray:
        return self._slopes

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """Linear interpolation on the domain, -inf outside (scalar or array)."""
        scalar = np.isscalar(x) or isinstance(x, float)
        xa = np.asarray([x] if scalar else x, dtype=float)
        out = np.interp(xa, self.knots, self.values)
        out[(xa < self.knots[0]) | (xa > self.knots[-1])] = NEG_INF
        return float(out[0]) if scalar else out

    def max_value(self) -> float:
        return float(np.max(self.values))

    # -- restriction operations -------------------------------------------

    def restrict_domain(self, interval: Tuple[float, float]) -> "PiecewiseConcave":
        """Restrict to an interval; value interpolated at the clipped endpoints."""
        lo, hi = float(interval[0]), float(interval[1])
        if lo > hi:
            raise DomainError("interval endpoints out of order")
        a = max(lo, float(self.knots[0]))
        b = min(hi, float(self.knots[-1]))
        if a > b:
            raise DomainError("interval does not meet the effective domain")
        if a == b:
            return PiecewiseConcave(np.asarray([a]), np.asarray([self.eval(a)]))
        inner = (self.knots > a) & (self.knots < b)
        xs = np.concatenate(([a], self.knots[inner], [b]))
        vs = np.concatenate(([self.eval(a)], self.values[inner], [self.eval(b)]))
        return PiecewiseConcave(xs, vs)

    def superlevel_set(self, y: float) -> Optional[Tuple[float, float]]:
        """The interval {x : phi(x) >= y}; None when empty."""
        v = self.values
        if y > float(np.max(v)):
            return None
        k = self.knots
        if self.knots.size == 1:
            return (float(k[0]), float(k[0]))
        above = v >= y
        i_first = int(np.argmax(above))
        i_last = int(len(v) - 1 - np.argmax(above[::-1]))
        if i_first == 0:
            left = float(k[0])
        else:
            # crossing on segment (i_first-1, i_first)
            x0, x1 = k[i_first - 1], k[i_first]
            v0, v1 = v[i_first - 1], v[i_first]
            left = float(x0 + (y - v0) / (v1 - v0) * (x1 - x0))
        if i_last == len(v) - 1:
            right = float(k[-1])
        else:
            x0, x1 = k[i_last], k[i_last + 1]
            v0, v1 = v[i_last], v[i_last + 1]
            right = float(x0 + (y - v0) / (v1 - v0) * (x1 - x0))
        return (left, right)

    def clip_above(self, y_hi: float) -> "PiecewiseConcave":
        """Pointwise min(phi, y_hi), with knots inserted at the crossings."""
        if not math.isfinite(y_hi):
            return self
        if float(np.max(self.values)) <= y_hi:
            return self
        plateau = self.superlevel_set(y_hi)
        xs = [float(self.knots[0])]
        vs = [min(float(self.values[0]), y_hi)]
        for x, v in zip(self.knots[1:], self.values[1:]):
            x, v = float(x), float(v)
            for cx in plateau:
                if xs[-1] < cx < x:
                    xs.append(cx)
                    vs.append(y_hi)
            xs.append(x)
            vs.append(min(v, y_hi))
        # drop duplicates produced when a crossing coincides with a knot
        keep_x, keep_v = [xs[0]], [vs[0]]
        for x, v in zip(xs[1:], vs[1:]):
            if x > keep_x[-1]:
                keep_x.append(x)
                keep_v.append(v)
        return PiecewiseConcave(np.asarray(keep_x), np.asarray(keep_v))

    def restrict_range(self, y_lo: float, y_hi: float = math.inf) -> "PiecewiseConcave":
        """Restrict the domain to {phi >= y_lo} and clip values above at y_hi."""
        region = self.superlevel_set(y_lo)
        if region is None:
            raise DomainError(f"superlevel set at {y_lo} is empty")
        return self.restrict_domain(region).clip_above(y_hi)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"knots": self.knots.tolist(), "values": self.values.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "PiecewiseConcave":
        return PiecewiseConcave(np.asarray(d["knots"]), np.asarray(d["values"]))


def sample_random(b1: float, b2: float, B: float, n_knots: int,
                  seed: int) -> PiecewiseConcave:
    """Random member of the bounded concave class on [b1, b2] with |values| <= B.

    Knots span [b1, b2]; values come from a random start and sorted-decreasing
    slopes, then get affinely squeezed into [-B, B].  Deterministic per seed.
    """
    if not b1 < b2:
        raise DomainError("need b1 < b2")
    if B <= 0:
        raise DomainError("need B > 0")
    if n_knots < 2:
        raise DomainError("need at least 2 knots")
    rng = np.random.default_rng(seed)
    interior = np.sort(rng.uniform(b1, b2, size=n_knots - 2))
    min_sep = 1e-9 * (b2 - b1)
    filtered = [b1]
    for x in interior:  # drop interior knots that crowd a neighbour
        if x - filtered[-1] > min_sep and b2 - x > min_sep:
            filtered.append(float(x))
    filtered.append(b2)
    knots = np.asarray(filtered)
    scale = rng.uniform(0.3, 3.0)
    slopes = np.sort(rng.normal(0.0, scale * 2.0 * B / (b2 - b1), size=knots.size - 1))[::-1]
    values = rng.uniform(-B, B) + np.concatenate(
        ([0.0], np.cumsum(slopes * np.diff(knots))))
    vmin, vmax = float(values.min()), float(values.max())
    if vmax - vmin > 0:
        # positive affine maps preserve concavity; margin keeps fp inside [-B, B]
        margin = 1e-9 * B
        target = rng.uniform(0.5, 1.0) * 2.0 * (B - margin)
        a = min(1.0, target / (vmax - vmin))
        values = values * a
        vmin, vmax = vmin * a, vmax * a
        shift = rng.uniform(-(B - margin) - vmin, (B - margin) - vmax)
        values = values + shift
    else:
        values = np.full_like(values, rng.uniform(-B, B))
    return PiecewiseConcave(knots, values)
