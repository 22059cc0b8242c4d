"""Piecewise-linear closed proper concave functions on the real line.

A function is stored as strictly increasing knots with finite values and is
``-inf`` outside ``[knots[0], knots[-1]]`` (its effective domain).  Slopes
between consecutive knots must be nonincreasing.  All operations return new
objects; instances are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

SLOPE_TOL = 1e-12
NEG_INF = -math.inf


class DomainError(ValueError):
    """Operation applied outside the effective domain."""


def _check_concave(slopes: np.ndarray, values: np.ndarray, tol: float) -> None:
    if slopes.size >= 2:
        scale = max(1.0, float(np.max(np.abs(values))), float(np.max(np.abs(slopes))))
        if np.any(np.diff(slopes) > tol * scale):
            worst = float(np.max(np.diff(slopes)))
            raise ValueError(f"slope sequence increases by {worst:.3g}; not concave")


@dataclass(frozen=True, eq=False)
class PiecewiseConcave:
    """Piecewise-linear concave function: knots, values, -inf off-domain."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.atleast_1d(np.asarray(self.knots, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if knots.ndim != 1 or knots.shape != values.shape:
            raise ValueError("knots and values must be 1-d arrays of equal length")
        if knots.size == 0:
            raise ValueError("need at least one knot")
        if np.any(~np.isfinite(knots)) or np.any(~np.isfinite(values)):
            raise ValueError("knots and values must be finite")
        dk = knots[1:] - knots[:-1]
        if np.any(dk <= 0):
            raise ValueError("knots must be strictly increasing (merge ties first)")
        _check_concave((values[1:] - values[:-1]) / dk, values, SLOPE_TOL)
        knots.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    # -- basic queries ----------------------------------------------------

    @property
    def domain(self) -> Tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def eval(self, x):
        """Linear interpolation on the domain, -inf outside (scalar or array)."""
        scalar = np.isscalar(x) or isinstance(x, float)
        xa = np.asarray([x] if scalar else x, dtype=float)
        out = np.interp(xa, self.knots, self.values)
        out[(xa < self.knots[0]) | (xa > self.knots[-1])] = NEG_INF
        return float(out[0]) if scalar else out

    # -- restriction operations -------------------------------------------

    def restrict_domain(self, interval: Tuple[float, float]) -> "PiecewiseConcave":
        """Restrict to an interval; value interpolated at the clipped endpoints."""
        return PiecewiseConcave(*_restricted(self.knots, self.values, *interval))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"knots": self.knots.tolist(), "values": self.values.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "PiecewiseConcave":
        return PiecewiseConcave(np.asarray(d["knots"]), np.asarray(d["values"]))


def _restricted(knots: np.ndarray, values: np.ndarray, lo: float, hi: float):
    """Knots and values of the restriction to [lo, hi], ends interpolated."""
    lo, hi = float(lo), float(hi)
    if lo > hi:
        raise DomainError("interval endpoints out of order")
    a = max(lo, float(knots[0]))
    b = min(hi, float(knots[-1]))
    if a > b:
        raise DomainError("interval does not meet the effective domain")
    va, vb = np.interp((a, b), knots, values)
    if a == b:
        return np.asarray([a]), np.asarray([va])
    i = np.searchsorted(knots, a, side="right")
    j = np.searchsorted(knots, b, side="left")
    return (np.concatenate(([a], knots[i:j], [b])),
            np.concatenate(([va], values[i:j], [vb])))


def _superlevel_set(knots: np.ndarray, values: np.ndarray,
                    y: float) -> Optional[Tuple[float, float]]:
    """The interval where the piecewise-linear (knots, values) is >= y, or None."""
    v, k = values, knots
    if y > float(np.max(v)):
        return None
    if k.size == 1:
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


def _clipped_above(knots: np.ndarray, values: np.ndarray, y_hi: float):
    """Knots and values of min(phi, y_hi), with knots inserted at the crossings
    strictly between existing knots; the inputs themselves when nothing clips."""
    if not math.isfinite(y_hi) or float(np.max(values)) <= y_hi:
        return knots, values
    cuts = np.unique(_superlevel_set(knots, values, y_hi))
    cuts = cuts[(cuts > knots[0]) & (cuts < knots[-1])]
    at = np.searchsorted(knots, cuts)
    new = knots[at] != cuts
    cuts, at = cuts[new], at[new]
    return np.insert(knots, at, cuts), np.insert(np.minimum(values, y_hi), at, y_hi)


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
