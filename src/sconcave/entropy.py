"""Explicit bracket covers for concave and concave-transformed function classes.

Four nested constructions:

1. Lipschitz bounded concave functions, sup-norm brackets: quantized tangent
   envelopes with adaptively chosen contact points (run x slope-drop budget).
2. Bounded concave functions without a Lipschitz bound, L_r brackets: split
   the domain at mu and 1 - mu, cover the edge rings with constant and
   Lipschitz brackets at geometrically graded resolutions, and the middle
   with a single Lipschitz cover.
3. Transformed classes h(phi) on a compact interval: discretize the range of
   phi at the levels -2^gamma with per-level bracket and support-grid budgets,
   then assemble upper/lower envelopes through h.
4. The heavy-tailed class of transformed densities bounded by M: partition the
   line into a central interval and polynomially growing intervals on both
   sides, give every interval its own cover at a budget shaped by the class
   envelope, and close the far tail with zero and envelope brackets.

Bracket families are combinatorially large, so a BracketSet is stored lazily:
its exact log-cardinality comes from the generator parameter space, and
``locate`` materializes the single bracket containing a given member.  A
level of a transformed cover whose pair lies in the hull the levels above
it already cover contributes no piece, so its sub-cover is neither built
nor located.

Verification is exact.  Each bracket side is a constant, a piecewise-linear
function, h of a clipped one, or the class envelope, so between a piece's
breakpoints, the member's knots and its crossings of h's zero point, both
sides and h^-1 of the member are linear; h is increasing, so a member that
sits between the sides at those points sits between them everywhere.  L_r
sizes integrate by Gauss-Legendre panels between the same breakpoints.  A
bracket forms its pieces' breakpoints once, for both checks; constant sides
are filled in bulk, and only the other sides are evaluated piece by piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .concave_fn import (PiecewiseConcave, _clipped_above, _restricted, _superlevel_set,
                         sample_random)
from .density import (EnvelopeFn, TransformedDensity, _piecewise_gl, envelope_for_class,
                      member_of_class)
from .transforms import Transform

EPS0 = 0.25      # validity threshold of the level-wise transformed cover
EPS_STAR = 0.25  # per-interval threshold in the tail-class partition
EPS3 = 0.25      # validity threshold of the bounded-concave cover
ZETA = 0.95      # level-budget exponent; must lie in (1/(alpha+1), 1), and the
                 # per-level count ratio 2^((1-(alpha+1)*ZETA)/2) shrinks as it
                 # grows, which keeps the cardinality ramp visible at desk
                 # scale close to the square-root law
COVER_TOL = 1e-9


class ThresholdError(ValueError):
    """Requested bracket size is above the construction's validity threshold."""


class HypothesisError(ValueError):
    """Transform violates a hypothesis of the requested construction."""


# ----------------------------------------------------------------------
# Class descriptors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzConcaveClass:
    a: float
    b: float
    B: float
    Gamma: float


@dataclass(frozen=True)
class BoundedConcaveClass:
    b1: float
    b2: float
    B: float


@dataclass(frozen=True)
class TransformedCompactClass:
    transform: Transform
    b1: float
    b2: float
    B: float


@dataclass(frozen=True)
class TailClass:
    transform: Transform
    M: float


# ----------------------------------------------------------------------
# Bracket representation
# ----------------------------------------------------------------------

def _eval_spec(spec, x: np.ndarray) -> np.ndarray:
    kind = spec[0]
    if kind == "const":
        return np.full_like(x, spec[1])
    if kind == "pl":
        _, xs, vs = spec
        return np.interp(x, xs, vs)
    if kind == "hpl_clip":
        _, transform, xs, vs, y_lo, y_hi = spec
        return transform._eval_array(np.clip(np.interp(x, xs, vs), y_lo, y_hi))
    if kind == "env":
        return spec[1](x)
    raise ValueError(f"unknown piece spec {kind!r}")


def _crossings(xs: np.ndarray, vs: np.ndarray, y: float) -> np.ndarray:
    """Points where the piecewise-linear function (xs, vs) crosses the level y."""
    d = vs - y
    i = np.flatnonzero(d[:-1] * d[1:] < 0)
    return xs[i] + d[i] / (d[i] - d[i + 1]) * (xs[i + 1] - xs[i])


@dataclass
class BracketPiece:
    a: float
    b: float
    lower: tuple
    upper: tuple
    exact_size_r: Optional[float] = None  # closed-form integral of (u - l)^r

    def inner_breakpoints(self) -> List[np.ndarray]:
        """The sides' knots in [a, b] and their clip crossings (none for
        constant and envelope sides).

        With the ends these are the piece's breakpoints: between consecutive
        ones each side is h of a function linear in x (h the identity for
        phi-space sides).  The envelope side sits beyond its cutoff, where for
        the power family (s < 0) it is h of a linear one.
        """
        pts = []
        for spec in (self.lower, self.upper):
            if spec[0] == "pl":
                pts.append(spec[1])
            elif spec[0] == "hpl_clip":
                _, _, xs, vs, y_lo, y_hi = spec
                pts += [xs, _crossings(xs, vs, y_lo), _crossings(xs, vs, y_hi)]
        if not pts:
            return []
        x = np.concatenate(pts)
        return [x[(x >= self.a) & (x <= self.b)]]


def _union_breakpoints(pieces: Sequence[BracketPiece], *more: np.ndarray) -> np.ndarray:
    """The sorted union of the pieces' breakpoints and the points in more."""
    pts = [np.array([p.a for p in pieces] + [p.b for p in pieces]), *more]
    for p in pieces:
        pts += p.inner_breakpoints()
    return np.unique(np.concatenate(pts))


def _sides_on(pieces: Sequence[BracketPiece], x: np.ndarray):
    """Both sides of each piece on its slice of the sorted points x.

    Returns (idx, low, up, starts, stops): x[starts[k]:stops[k]] are the points
    of pieces[k] in [a, b]; idx, low and up run through these slices in turn.
    Constant sides fill in one repeat; the others are evaluated on their slice.
    """
    a = np.array([p.a for p in pieces])
    b = np.array([p.b for p in pieces])
    starts, stops = np.searchsorted(x, a), np.searchsorted(x, b, side="right")
    counts = stops - starts
    offsets = np.cumsum(counts) - counts
    idx = np.arange(counts.sum()) + np.repeat(starts - offsets, counts)
    sides = []
    for side in ("lower", "upper"):
        specs = [getattr(p, side) for p in pieces]
        vals = np.repeat(np.array([sp[1] if sp[0] == "const" else math.nan
                                   for sp in specs], dtype=float), counts)
        for sp, i, j, o in zip(specs, starts, stops, offsets):
            if sp[0] != "const" and j > i:
                vals[o:o + j - i] = _eval_spec(sp, x[i:j])
        sides.append(vals)
    return idx, sides[0], sides[1], starts, stops


@dataclass
class Bracket:
    """A lower/upper function pair over an interval, stored piecewise."""

    pieces: List[BracketPiece]

    @cached_property
    def _breakpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted breakpoints of all pieces, and of the pieces without a
        closed-form size: each piece's are formed once, for both checks."""
        rest = _union_breakpoints([p for p in self.pieces if p.exact_size_r is None])
        exact = [p for p in self.pieces if p.exact_size_r is not None]
        return _union_breakpoints(exact, rest), rest

    def size_lr(self, r: float) -> float:
        """L_r size of the bracket: closed forms where pieces carry them,
        Gauss-Legendre panels between the other pieces' breakpoints; at
        r = inf the largest |u - l| at all the breakpoints."""
        if r == math.inf:  # exact: sup-norm covers' sides are linear between them
            _, low, up, _, _ = _sides_on(self.pieces, self._breakpoints[0])
            return float(np.max(np.abs(up - low)))
        rest = [p for p in self.pieces if p.exact_size_r is None]

        def gap_r(x):  # |u - l|^r, summed over the pieces that hold x
            idx, low, up, _, _ = _sides_on(rest, x)
            return np.bincount(idx, np.abs(up - low) ** r, minlength=x.size)

        total = _piecewise_gl(gap_r, self._breakpoints[1])
        total += sum(p.exact_size_r for p in self.pieces if p.exact_size_r is not None)
        return total ** (1.0 / r)


@dataclass
class BracketSet:
    """A bracketing family: exact count plus a member-to-bracket locator.

    Large families are never materialized; ``locate`` produces the single
    bracket assigned to a member, and ``log_cardinality`` is the natural log
    of the generator parameter space the construction draws from.
    """

    class_descriptor: object
    epsilon: float
    r: float
    log_cardinality: float
    size_bound: float
    locate: Callable[[object], Bracket] = field(repr=False)


# ----------------------------------------------------------------------
# Lipschitz concave cover (sup norm): quantized tangent envelopes
# ----------------------------------------------------------------------

def _greedy_contacts(phi: PiecewiseConcave, a: float, b: float, tau: float):
    """Contact points with (run) x (slope drop) <= 4*tau between neighbours."""
    knots, values = _restricted(phi.knots, phi.values, a, b)
    slopes = np.diff(values) / np.diff(knots)
    if knots.size == 1 or slopes.size == 0:
        return [(float(knots[0]), float(values[0]), 0.0)]
    contacts = []
    pos = float(knots[0])
    pos_val = float(values[0])
    pos_slope = float(slopes[0])
    contacts.append((pos, pos_val, pos_slope))
    budget = 4.0 * tau
    first = 0  # segments before the last contact's lie left of pos
    while pos < b - 1e-15:
        nxt = None
        for k in range(first, slopes.size):
            if knots[k + 1] <= pos + 1e-15:
                continue
            s_seg = float(slopes[k])
            drop = pos_slope - s_seg
            if drop <= 0:
                continue  # product stays 0 while the slope has not dropped
            x_star = pos + budget / drop
            if x_star < knots[k + 1] - 1e-15:
                nxt = max(x_star, float(knots[k]), pos)
                first = k
                break
        if nxt is None or nxt >= b:
            break
        # contact at nxt with its left-side slope: the pair bound
        # (run) x (slope drop) / 4 needs the slope just before the contact
        k = int(np.searchsorted(knots, nxt, side="left") - 1)
        k = min(max(k, 0), slopes.size - 1)
        contacts.append((float(nxt), float(np.interp(nxt, knots, values)),
                         float(slopes[k])))
        pos, pos_val, pos_slope = contacts[-1]
    # terminal contact keeps the last stretch honest
    k = slopes.size - 1
    contacts.append((float(knots[-1]), float(values[-1]), float(slopes[k])))
    return contacts


def _min_of_lines(lines: Sequence[Tuple[float, float]], a: float, b: float):
    """Lower envelope of lines (slope, value-at-a) as piecewise-linear arrays.

    Exact: breakpoints are the pairwise intersections that land inside [a, b].
    """
    arr = np.asarray(sorted(set(lines)), dtype=float).reshape(-1, 2)
    s, c = arr[:, 0], arr[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # symmetric in the pair, bit for bit; nan on the diagonal
        xi = a + (c[None, :] - c[:, None]) / (s[:, None] - s[None, :])
    good = np.isfinite(xi) & (xi > a) & (xi < b)
    knots = np.unique(np.concatenate(([a, b], xi[good])))
    vals = np.min(c[:, None] + s[:, None] * (knots[None, :] - a), axis=0)
    return knots, vals


def _count_line_families(k_max: int, n_slope: int, n_intercept: int) -> float:
    """ln of the number of line families: up to k_max distinct decreasing
    slopes from an n_slope menu, each with one of n_intercept intercepts."""
    from scipy.special import gammaln, logsumexp  # deferred: only counts need it

    def term(j: float) -> float:
        return (gammaln(n_slope + 1.0) - gammaln(j + 1.0)
                - gammaln(n_slope - j + 1.0) + j * math.log(n_intercept))

    if k_max <= 1_000_000:
        js = np.arange(1, k_max + 1, dtype=float)
        return float(logsumexp(term(js)))
    # terms grow geometrically in j here; the last one dominates
    top = term(float(k_max))
    ratio = n_intercept * (n_slope - k_max) / k_max
    return top + (math.log1p(1.0 / (ratio - 1.0)) if ratio > 1.0 else math.log(k_max))


def _lipschitz_menus(a, b, B, Gamma, eps):
    tau = eps / 4.0
    sigma = eps / (8.0 * (b - a))
    rho = eps / 8.0
    k_max = int(math.ceil(math.sqrt(2.0 * Gamma * (b - a) / eps))) + 2
    n_slope = 2 * int(math.ceil(Gamma / sigma)) + 1
    c_range = B + Gamma * (b - a) + eps
    n_intercept = int(math.ceil(2.0 * c_range / rho)) + 2
    return tau, sigma, rho, k_max, n_slope, n_intercept


def cover_lipschitz_concave(a: float, b: float, B: float, Gamma: float,
                            eps: float) -> BracketSet:
    """Sup-norm eps-brackets for bounded concave functions with a Lipschitz bound.

    Each member is wrapped by the minimum of at most
    ``ceil(sqrt(2 Gamma (b-a)/eps)) + 2`` quantized tangent lines, so the
    log-cardinality of the family grows like the square root of
    ``(B + Gamma(b-a))/eps`` (up to menu-size log factors).
    """
    if not (a < b and B > 0 and Gamma > 0 and eps > 0):
        raise ValueError("need a < b and positive B, Gamma, eps")
    descriptor = LipschitzConcaveClass(a, b, B, Gamma)
    if eps >= 2.0 * B:
        const = Bracket([BracketPiece(a, b, ("const", -B), ("const", B),
                                      exact_size_r=None)])
        return BracketSet(descriptor, eps, math.inf, 0.0, eps,
                          locate=lambda member: const)
    tau, sigma, rho, k_max, n_slope, n_intercept = _lipschitz_menus(a, b, B, Gamma, eps)
    log_card = _count_line_families(k_max, n_slope, n_intercept)

    def locate(member: PiecewiseConcave) -> Bracket:
        contacts = _greedy_contacts(member, a, b, tau)
        lines = []
        lift = sigma * (b - a) / 2.0
        for xc, vc, sc in contacts:
            s_q = round(sc / sigma) * sigma
            s_q = min(max(s_q, -Gamma - sigma), Gamma + sigma)
            c = vc + s_q * (a - xc) + lift
            c_q = math.ceil(c / rho) * rho
            lines.append((s_q, c_q))
        knots, vals = _min_of_lines(lines, a, b)
        upper = ("pl", knots, vals)
        lower = ("pl", knots, vals - eps / 2.0)
        return Bracket([BracketPiece(a, b, lower, upper)])

    return BracketSet(descriptor, eps, math.inf, log_card, eps, locate=locate)


# ----------------------------------------------------------------------
# Bounded concave cover (L_r): mu-split with graded rings
# ----------------------------------------------------------------------

def _ring_levels(eta: float, r: float, mu: float) -> List[float]:
    """The delta_m sequence strictly below mu (possibly empty)."""
    out = []
    m = 1
    while True:
        d = math.exp(r * ((r + 1.0) / (r + 2.0)) ** (m - 1) * math.log(eta))
        if d >= mu or m > 200:
            break
        out.append(d)
        m += 1
    return out


def _ring_sup_sizes(eta: float, r: float, count: int) -> List[float]:
    out = []
    for m in range(1, count + 1):
        out.append(eta * math.exp(-r * (r + 1.0) ** (m - 2) / (r + 2.0) ** (m - 1)
                                  * math.log(eta)))
    return out


def cover_bounded_concave(b1: float, b2: float, B: float, eps: float, r: float,
                          _allow_shrink: bool = False) -> BracketSet:
    """L_r eps-brackets for bounded concave functions with no Lipschitz bound.

    The domain splits at mu = 2^(-2 (r+1)^2 (r+2)) from either edge: constant
    brackets absorb the first sliver, Lipschitz covers with geometrically
    graded sup-sizes handle the rings, and one Lipschitz cover with slope
    bound 2/mu covers the middle.  Valid for eps below EPS3 times the class
    scale ``B (b2-b1)^{1/r}``.
    """
    if not (b1 < b2 and B > 0 and eps > 0 and r >= 1):
        raise ValueError("need b1 < b2, positive B and eps, r >= 1")
    descriptor = BoundedConcaveClass(b1, b2, B)
    scale = B * (b2 - b1) ** (1.0 / r)
    if eps >= 2.0 * scale:
        # the trivial bracket [-B, B] is already within budget
        const = Bracket([BracketPiece(b1, b2, ("const", -B), ("const", B))])
        return BracketSet(descriptor, eps, r, 0.0, eps,
                          locate=lambda member: const)
    eps_sc = eps / scale
    width = b2 - b1
    if eps_sc > EPS3:
        if not _allow_shrink:
            raise ThresholdError(
                f"eps = {eps} exceeds the validity threshold eps_3 * B (b2-b1)^(1/r)"
                f" = {EPS3 * scale}")
        # coarse regime: constant slivers wide enough to spend half the
        # budget, one Lipschitz cover in between; counts here are small
        mu = min(0.25, eps_sc ** r / 2.0 ** (2.0 * r + 1.0))
        nu = 1.0 - mu
        eta = eps_sc / 2.0
        deltas, alphas = [], []
        delta1 = mu
    else:
        eta = (3.0 / 17.0) ** (1.0 / r) * eps_sc
        mu = math.exp(-2.0 * (r + 1.0) ** 2 * (r + 2.0) * math.log(2.0))
        nu = 1.0 - mu
        deltas = _ring_levels(eta, r, mu)  # delta_1 .. delta_A, all < mu
        alphas = _ring_sup_sizes(eta, r, len(deltas))
        delta1 = eta ** r  # first level even when it already exceeds mu

    def to_x(t: float) -> float:
        return b1 + t * width

    # piece layout in scaled coordinates: [0, d_1] const, rings, [mu, nu], mirror
    const_left_end = min(delta1, mu)
    ring_edges = []  # (lo, hi, Gamma_scaled, sup_size_scaled)
    for m, d in enumerate(deltas):
        hi = deltas[m + 1] if m + 1 < len(deltas) else mu
        ring_edges.append((d, min(hi, mu), 2.0 / d, alphas[m]))

    gamma_mid = 2.0 / mu
    sub_covers = {}

    def lip_cover(lo_t, hi_t, gamma_sc, sup_sc):
        key = (lo_t, hi_t, gamma_sc, sup_sc)
        if key not in sub_covers:
            sub_covers[key] = cover_lipschitz_concave(
                to_x(lo_t), to_x(hi_t), B, gamma_sc * B / width, sup_sc * B)
        return sub_covers[key]

    mid = lip_cover(mu, nu, gamma_mid, eta)
    rings = [lip_cover(lo, hi, g, s) for lo, hi, g, s in ring_edges]
    rings_r = [lip_cover(1.0 - hi, 1.0 - lo, g, s) for lo, hi, g, s in ring_edges]
    log_card = mid.log_cardinality + sum(c.log_cardinality for c in rings + rings_r)

    def locate(member: PiecewiseConcave) -> Bracket:
        pieces: List[BracketPiece] = []
        pieces.append(BracketPiece(to_x(0.0), to_x(const_left_end),
                                   ("const", -B), ("const", B)))
        for cov in rings + [mid] + rings_r:
            pieces.extend(cov.locate(member).pieces)
        pieces.append(BracketPiece(to_x(1.0 - const_left_end), to_x(1.0),
                                   ("const", -B), ("const", B)))
        pieces.sort(key=lambda p: p.a)
        return Bracket(pieces)

    return BracketSet(descriptor, eps, r, log_card, eps, locate=locate)


# ----------------------------------------------------------------------
# Transformed classes on a compact interval: level-wise covers
# ----------------------------------------------------------------------

def _interval_diff(interval, covered):
    """interval minus covered (both (lo, hi) or None): list of intervals."""
    if interval is None:
        return []
    lo, hi = interval
    if hi <= lo:
        return []
    if covered is None:
        return [(lo, hi)]
    clo, chi = covered
    out = []
    if lo < clo:
        out.append((lo, min(hi, clo)))
    if hi > chi:
        out.append((max(lo, chi), hi))
    return [(p, q) for p, q in out if q > p + 1e-300]


def _hull(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (min(a[0], b[0]), max(a[1], b[1]))


def _clip_pieces_to(pieces: List[BracketPiece], lo: float, hi: float
                    ) -> List[BracketPiece]:
    out = []
    for p in pieces:
        a, b = max(p.a, lo), min(p.b, hi)
        if b > a:
            out.append(BracketPiece(a, b, p.lower, p.upper))
    return out


def _phi_piece_to_f(piece: BracketPiece, t: Transform, offset: float,
                    y_lo: float, y_hi: float) -> BracketPiece:
    """Map a phi-space bracket piece through h, clipping values into a level band."""

    def convert(spec):
        kind = spec[0]
        if kind == "const":
            y = min(max(spec[1] + offset, y_lo), y_hi)
            return ("const", t.eval(y))
        if kind == "pl":
            _, xs, vs = spec
            return ("hpl_clip", t, xs, vs + offset, y_lo, y_hi)
        raise ValueError(f"cannot transform piece kind {kind!r}")

    return BracketPiece(piece.a, piece.b, convert(piece.lower), convert(piece.upper))


def cover_transformed(t: Transform, b1: float, b2: float, B: float,
                      eps: float, r: float) -> BracketSet:
    """L_r brackets for transformed functions h(phi) bounded by B on [b1, b2].

    phi is shifted down by ``shift = 1 + h^{-1}(B)``, which puts the height
    bound at level -1, and the shifted range is cut into bands [y_lo, y_hi]
    at the levels -2^g (one band from h's shifted zero point up to -1 when
    that point is finite).  With eps_sc = eps / (B (b2-b1)^(1/r)), each band
    rounds the shifted member's superlevel set at y_lo to a support grid of
    ceil(2 / (eps_sc^r |y_hi|^(r alpha ZETA))) steps across [b1, b2], and
    brackets it between grid points by concave brackets of L_r size
    eps_sc |y_hi|^((alpha+1) ZETA) (b2-b1)^(1/r), mapped through h, with
    plateau rings at the edges.  Grid point l is b1 + l * step, computed
    where needed and never stored; the last one is b2 itself.
    """
    if not (b1 < b2 and B > 0 and eps > 0 and r >= 1):
        raise ValueError("need b1 < b2 and positive B, eps, r >= 1")
    width = b2 - b1
    scale = B * width ** (1.0 / r)
    eps_sc = eps / scale
    if eps_sc > EPS_STAR:
        raise ThresholdError(
            f"eps = {eps} exceeds the validity threshold eps* x B (b2-b1)^(1/r) = "
            f"{EPS_STAR * scale}")
    shift = 1.0 + t.inverse(B)
    alpha = t.alpha
    descriptor = TransformedCompactClass(t, b1, b2, B)

    if t.y0_tilde == -math.inf:
        # ceiling keeps the outside constant h(y_k) at or below eps/EPS0,
        # which the coverage argument for the deepest ring requires
        k_eps = max(1, int(math.ceil(math.log2(abs(
            t.inverse(B * (eps_sc / EPS0)) - shift)))))
        bands = [(-(2.0 ** g), -(2.0 ** (g - 1))) for g in range(1, k_eps + 1)]
        const_out = t.eval(bands[-1][0] + shift)
    else:
        bands = [(-shift, -1.0)]
        const_out = 0.0
    levels = []  # (y_lo, y_hi, budget, plateau h(y_hi), grid step, last index, sub-covers)
    log_card = 0.0
    for y_lo, y_hi in bands:
        budget = eps_sc * abs(y_hi) ** ((alpha + 1.0) * ZETA) * width ** (1.0 / r)
        n_pts = int(math.ceil(2.0 / (eps_sc ** r * abs(y_hi) ** (r * alpha * ZETA)))) + 1
        full = cover_bounded_concave(b1, b2, 0.5 * (y_hi - y_lo), budget, r,
                                     _allow_shrink=True)
        log_card += 2.0 * math.log(n_pts + 2) + full.log_cardinality
        levels.append((y_lo, y_hi, budget, t.eval(y_hi + shift), width / (n_pts - 1),
                       n_pts - 1, {}))

    def locate(member) -> Bracket:
        # member: object with .phi (PiecewiseConcave) in original phi-space,
        # or a PiecewiseConcave directly, or None for the zero function; a
        # member whose domain misses (b1, b2) is the zero function there
        phi = getattr(member, "phi", member)
        if phi is None or phi.knots[-1] <= b1 or phi.knots[0] >= b2:
            return Bracket([BracketPiece(b1, b2, ("const", 0.0), ("const", const_out))])
        knots, values = _restricted(phi.knots, phi.values - shift, b1, b2)  # shifted down
        pieces: List[BracketPiece] = []
        covered = None
        for y_lo, y_hi, budget, plateau, step, last, cache in levels:
            def point(l):
                return b2 if l == last else b1 + l * step

            region = _superlevel_set(knots, values, y_lo)
            has_pair = False
            i_u = None
            if region is not None:
                d_lo = (max(region[0], b1) - b1) / step  # in grid steps
                d_hi = (min(region[1], b2) - b1) / step
                i_u = (point(max(0, math.floor(d_lo))), point(min(last, math.ceil(d_hi))))
                l1 = math.ceil(d_lo - 1e-12)
                l2 = math.floor(d_hi + 1e-12)
                has_pair = l1 < l2
            parts = []  # the pair's parts outside the covered hull
            if has_pair:
                p_lo, p_hi = point(l1), point(l2)
                parts = _interval_diff((p_lo, p_hi), covered)
            if parts:  # locate only where pieces survive
                if (l1, l2) not in cache:
                    cache[l1, l2] = cover_bounded_concave(
                        p_lo, p_hi, 0.5 * (y_hi - y_lo), budget, r, _allow_shrink=True)
                center = 0.5 * (y_lo + y_hi)
                sub_knots, sub_values = _clipped_above(
                    *_restricted(knots, values, p_lo, p_hi), y_hi)
                sub_bracket = cache[l1, l2].locate(
                    PiecewiseConcave(sub_knots, sub_values - center))
                for part_lo, part_hi in parts:
                    for piece in _clip_pieces_to(sub_bracket.pieces, part_lo, part_hi):
                        pieces.append(_phi_piece_to_f(
                            piece, t, center + shift, y_lo + shift, y_hi + shift))
            ring = _interval_diff(i_u, covered)
            if has_pair:
                # subtract covered and the pair in turn: their hull would hide
                # a stretch between the inward-rounded pair and covered
                ring = [q for part in ring for q in _interval_diff(part, (p_lo, p_hi))]
            for part_lo, part_hi in ring:
                pieces.append(BracketPiece(part_lo, part_hi,
                                           ("const", 0.0), ("const", plateau)))
            covered = _hull(covered, i_u)
        for part_lo, part_hi in _interval_diff((b1, b2), covered):
            pieces.append(BracketPiece(part_lo, part_hi,
                                       ("const", 0.0), ("const", const_out)))
        pieces.sort(key=lambda p: p.a)
        return Bracket(pieces)

    return BracketSet(descriptor, eps, r, log_card, eps, locate=locate)


# ----------------------------------------------------------------------
# Heavy-tailed transformed densities: envelope-partitioned cover
# ----------------------------------------------------------------------

def _interval_schedule(env: EnvelopeFn, M: float, eps: float, r: float,
                       alpha: float):
    """The central interval and the polynomial partition of [c0, inf).

    Returns rows (lo, hi, B, A, a), the central interval (-c0, c0) first, each
    with envelope height B, class scale A = B len^(1/r) and budget share
    a = A^(1/(2r+1)); and the envelope's L_r tail mass beyond x.  They stop once
    a zero bracket fits an interval's budget and the tail mass beyond is small.
    """
    d_env, l_env, _ = env.tail_params()
    if alpha <= 1.0 / r:
        raise HypothesisError(
            f"tail exponent alpha = {alpha} must exceed 1/r = {1.0 / r}")
    gamma = max(((2.0 * r + 1.0) / r) * 2.0 / (alpha - 1.0 / r), 1.0)
    c0 = 2.0 * M + 1.0
    big_a = M * (4.0 * M + 2.0) ** (1.0 / r)
    rows = [(-c0, c0, M, big_a, big_a ** (1.0 / (2.0 * r + 1.0)))]

    # tail mass beyond x of env^r, used to stop the enumeration
    def tail_mass(x):
        base = 1.0 + l_env * x / (2.0 * M)
        return (d_env ** r * (2.0 * M / l_env)
                * base ** (1.0 - alpha * r) / (alpha * r - 1.0)) ** (1.0 / r)

    for i in range(1, 10_002):
        lo_nom = float(i) ** gamma
        hi_nom = float(i + 1) ** gamma
        if hi_nom > c0:
            b_i = d_env * (1.0 + lo_nom * l_env / (2.0 * M)) ** (-alpha)
            big_a = b_i * (hi_nom - lo_nom) ** (1.0 / r)
            a_i = big_a ** (1.0 / (2.0 * r + 1.0))
            rows.append((max(lo_nom, c0), hi_nom, b_i, big_a, a_i))
            if eps * a_i > EPS_STAR * big_a and tail_mass(hi_nom) < 0.02 * eps:
                break
    return rows, tail_mass


def cover_tail_class(t: Transform, M: float, eps: float, r: float) -> BracketSet:
    """L_r brackets for the M-sandwich class of t-transformed densities on R.

    The central interval and the polynomially growing tail intervals on both
    sides each get their own cover at the envelope-shaped budget
    ``eps * A_i^(1/(2r+1))``, or a zero bracket where that budget exceeds the
    threshold share of the envelope; an exact envelope bracket closes each far
    tail.  Each interval's cover sees the member's phi as it is, and
    restricts it to that interval.
    """
    if M <= 0 or eps <= 0 or r < 1:
        raise ValueError("need positive M, eps and r >= 1")
    env = envelope_for_class(M, t)
    rows, tail_mass = _interval_schedule(env, M, eps, r, t.alpha)
    log_card = 0.0
    plan = []  # (lo, hi, zero-bracket height or cover), central interval first
    for k, (lo, hi, B, A, a) in enumerate(rows):
        budget = eps * a
        sides = [(lo, hi)] if k == 0 else [(-hi, -lo), (lo, hi)]
        if budget > EPS_STAR * A:
            height = budget / (EPS_STAR * max(hi - lo, 1.0) ** (1.0 / r))
            plan += [(x0, x1, height) for x0, x1 in sides]
        else:
            plan += [(x0, x1, cover_transformed(t, x0, x1, B, budget, r))
                     for x0, x1 in sides]
            # one side's count doubled, in row order: the committed counts
            # depend on the order of this sum
            log_card += len(sides) * plan[-1][2].log_cardinality
    x_end = rows[-1][1]
    tail_size_r = tail_mass(x_end) ** r

    def locate(member) -> Bracket:
        phi = getattr(member, "phi", None)
        pieces = [BracketPiece(-math.inf, -x_end, ("const", 0.0), ("env", env),
                               exact_size_r=tail_size_r),
                  BracketPiece(x_end, math.inf, ("const", 0.0), ("env", env),
                               exact_size_r=tail_size_r)]
        for lo, hi, payload in plan:
            if not isinstance(payload, BracketSet):
                pieces.append(BracketPiece(lo, hi, ("const", 0.0), ("const", payload)))
                continue
            pieces.extend(payload.locate(phi).pieces)
        pieces.sort(key=lambda p: p.a)
        return Bracket(pieces)

    size_bound = eps * (sum(a ** r for *_, a in rows) * 2.0) ** (1.0 / r) / EPS_STAR
    return BracketSet(TailClass(t, M), eps, r, log_card, size_bound, locate=locate)


# ----------------------------------------------------------------------
# Verification and entropy curves
# ----------------------------------------------------------------------

@dataclass
class VerificationReport:
    covered_fraction: float
    max_observed_size: float
    worst_member: Optional[int]
    n_members: int
    vacuous: bool = False


def _covers(bracket: Bracket, member) -> bool:
    """Whether a phi-space or density member lies between the bracket's sides.

    Decided at the breakpoints (module docstring).  A density member is 0 off
    its support: at a piece's ends only the limit from inside the piece counts,
    at a support end inside a piece both one-sided limits do.  A phi-space
    member is unconstrained off its domain.
    """
    phi = getattr(member, "phi", member)
    if not isinstance(phi, PiecewiseConcave):
        raise TypeError(f"cannot interpret member of type {type(member).__name__}")
    t = getattr(member, "transform", None)
    s_lo, s_hi = phi.domain
    cuts = [] if t is None else [_crossings(phi.knots, phi.values, t.y0_tilde)]
    x = np.unique(np.concatenate([bracket._breakpoints[0], phi.knots] + cuts))
    # one-sided limits of the member at x; nan where unconstrained
    v, off = (phi.eval(x), math.nan) if t is None else (t._eval_array(phi.eval(x)), 0.0)
    left = np.where((x > s_lo) & (x <= s_hi), v, off)
    right = np.where((x >= s_lo) & (x < s_hi), v, off)
    peak = np.max(np.abs(phi.values if t is None else t._eval_array(phi.values)))
    tol = COVER_TOL * max(1.0, float(peak))
    idx, low, up, starts, stops = _sides_on(bracket.pieces, x)
    # a stretch of the support in no piece leaves the member uncovered; ends
    # computed on different support grids may sit 1 ulp apart, so gaps up to
    # 1e-12 relative close
    depth = np.cumsum(np.bincount(starts, minlength=x.size)
                      - np.bincount(stops - 1, minlength=x.size))
    hole = (depth[:-1] == 0) & (x[:-1] >= s_lo) & (x[1:] <= s_hi)
    if np.any(hole & (np.diff(x) > 1e-12 * np.abs(x[1:]))):
        return False
    # the left limit counts on (a, b], the right limit on [a, b)
    lim_l = np.where(idx > np.repeat(starts, stops - starts), left[idx], math.nan)
    lim_r = np.where(idx < np.repeat(stops - 1, stops - starts), right[idx], math.nan)
    return not (np.any(low > np.fmin(lim_l, lim_r) + tol)
                or np.any(np.fmax(lim_l, lim_r) > up + tol))


def verify_bracketing(bset: BracketSet, members: Sequence[object]) -> VerificationReport:
    """Exact check that every member sits inside its assigned bracket
    (``_covers``), with the L_r bracket sizes of ``Bracket.size_lr``.  Members
    of a class with a transform must carry it: a bare phi reads as phi-space."""
    if len(members) == 0:
        return VerificationReport(1.0, 0.0, None, 0, vacuous=True)
    density_space = getattr(bset.class_descriptor, "transform", None) is not None
    covered = 0
    max_size = 0.0
    worst = None
    for idx, member in enumerate(members):
        if density_space and getattr(member, "transform", None) is None:
            raise TypeError(f"member {idx} is a bare phi, but the class has a transform")
        bracket = bset.locate(member)
        covered += _covers(bracket, member)
        size = bracket.size_lr(bset.r)
        if size > max_size:
            max_size = size
            worst = idx
    return VerificationReport(covered / len(members), max_size, worst, len(members))


@dataclass
class EntropyCurve:
    eps: np.ndarray
    log_cardinality: np.ndarray
    exponent: float
    dropped: int = 0


def build_cover(descriptor, eps: float, r: float) -> BracketSet:
    """Dispatch a class descriptor to its bracketing construction."""
    if isinstance(descriptor, LipschitzConcaveClass):
        return cover_lipschitz_concave(descriptor.a, descriptor.b, descriptor.B,
                                       descriptor.Gamma, eps)
    if isinstance(descriptor, BoundedConcaveClass):
        return cover_bounded_concave(descriptor.b1, descriptor.b2, descriptor.B,
                                     eps, r)
    if isinstance(descriptor, TransformedCompactClass):
        return cover_transformed(descriptor.transform, descriptor.b1,
                                 descriptor.b2, descriptor.B, eps, r)
    if isinstance(descriptor, TailClass):
        return cover_tail_class(descriptor.transform, descriptor.M, eps, r)
    raise TypeError(f"unknown class descriptor {descriptor!r}")


def _fitted_exponent(eps: Sequence[float], log_cardinality: Sequence[float]) -> float:
    """Least-squares slope of log(log N) against log(1/eps) over the rows with a
    positive count; ValueError when fewer than 3 such rows remain."""
    eps, logs = np.asarray(eps, dtype=float), np.asarray(log_cardinality, dtype=float)
    keep = logs > 0
    if np.count_nonzero(keep) < 3:
        raise ValueError("fewer than 3 valid eps values; cannot fit an exponent")
    return float(np.polyfit(np.log(1.0 / eps[keep]), np.log(logs[keep]), 1)[0])


def entropy_curve(descriptor, eps_grid: Sequence[float], r: float) -> EntropyCurve:
    """log-cardinality along an eps grid with the fitted entropy exponent.

    The exponent is the least-squares slope of log(log N) against log(1/eps)
    (``_fitted_exponent``); the constructions should produce values near one
    half.  An eps whose cover cannot be built or counts no bracket is dropped.
    """
    eps_ok, logs = [], []
    for eps in eps_grid:
        try:
            bset = build_cover(descriptor, float(eps), r)
        except ValueError:  # ThresholdError and HypothesisError among them
            continue
        if bset.log_cardinality > 0:
            eps_ok.append(float(eps))
            logs.append(bset.log_cardinality)
    slope = _fitted_exponent(eps_ok, logs)
    return EntropyCurve(np.asarray(eps_ok), np.asarray(logs), slope,
                        len(eps_grid) - len(eps_ok))


# ----------------------------------------------------------------------
# Member generators for the verification suites
# ----------------------------------------------------------------------

def _random_lipschitz_concave(a, b, B, Gamma, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 12))
    knots = np.concatenate(([a], np.sort(rng.uniform(a, b, k - 2)), [b]))
    knots = np.unique(knots)
    slopes = np.sort(rng.uniform(-Gamma, Gamma, knots.size - 1))[::-1]
    vals = rng.uniform(-B, B) + np.concatenate(([0.0], np.cumsum(slopes * np.diff(knots))))
    vmax, vmin = float(vals.max()), float(vals.min())
    if vmax - vmin > 2.0 * B:
        vals *= (2.0 * B * 0.98) / (vmax - vmin)  # shrinking keeps the slope bound
        vmax, vmin = float(vals.max()), float(vals.min())
    vals += rng.uniform(-B - vmin, B - vmax)
    return PiecewiseConcave(knots, vals)


def sample_members(descriptor, count: int, seed: int) -> list:
    """Random members of a descriptor's class, deterministic per seed."""
    out = []
    if isinstance(descriptor, LipschitzConcaveClass):
        for i in range(count):
            out.append(_random_lipschitz_concave(
                descriptor.a, descriptor.b, descriptor.B, descriptor.Gamma,
                seed * 100_003 + i))
        return out
    if isinstance(descriptor, BoundedConcaveClass):
        for i in range(count):
            out.append(sample_random(descriptor.b1, descriptor.b2, descriptor.B,
                                     int(np.random.default_rng(seed + i).integers(3, 14)),
                                     seed * 100_003 + i))
        return out
    if isinstance(descriptor, TransformedCompactClass):
        t, b1, b2, B = (descriptor.transform, descriptor.b1, descriptor.b2,
                        descriptor.B)
        top = t.inverse(B)
        for i in range(count):
            rng = np.random.default_rng(seed * 100_003 + i)
            lo = rng.uniform(b1, b1 + 0.6 * (b2 - b1))
            hi = rng.uniform(lo + 0.2 * (b2 - b1), b2)
            raw = sample_random(lo, hi, 1.0, int(rng.integers(3, 10)),
                                int(rng.integers(0, 2 ** 31)))
            span = rng.uniform(0.5, 4.0)
            vals = raw.values * span
            vals = vals - vals.max() + top - rng.uniform(0.0, 2.0)
            out.append(_TransformedMember(t, PiecewiseConcave(raw.knots, vals)))
        return out
    if isinstance(descriptor, TailClass):
        return sample_density_class_members(descriptor.transform, descriptor.M,
                                            count, seed)
    raise TypeError(f"unknown class descriptor {descriptor!r}")


def sample_density_class_members(t: Transform, M: float, count: int,
                                 seed: int) -> list:
    """Random members of the M-sandwich density class for transform t.

    The class requires total mass one with p >= 1/M on [-1, 1], so it is
    empty for M < 2 and degenerates to the uniform density on [-1, 1] at
    M = 2 (returned under varying knot layouts).  For M > 2, candidates come
    from random concave functions mapped through t with rejection on the
    class membership test.
    """
    if M < 2.0:
        return []  # mass constraint 2/M > 1 is infeasible
    out = []
    if M <= 2.0 * (1.0 + 1e-9):
        level = t.inverse(0.5)
        for i in range(count):
            rng = np.random.default_rng(seed * 100_003 + i)
            inner = np.sort(rng.uniform(-1.0, 1.0, int(rng.integers(0, 5))))
            knots = np.unique(np.concatenate(([-1.0], inner, [1.0])))
            out.append(TransformedDensity(
                t, PiecewiseConcave(knots, np.full(knots.size, level))))
        return out
    attempt = 0
    while len(out) < count and attempt < count * 500:
        rng = np.random.default_rng(seed * 100_003 + attempt)
        attempt += 1
        half = rng.uniform(1.0, 1.0 + (M - 2.0))
        raw = sample_random(-half, half, 1.0, int(rng.integers(3, 9)),
                            int(rng.integers(0, 2 ** 31)))
        span = rng.uniform(0.05, 1.5)
        vals = raw.values * span
        vals = vals - vals.max() + t.inverse(M * rng.uniform(0.3, 0.95))
        try:
            dens = TransformedDensity(t, PiecewiseConcave(raw.knots, vals))
            dens = dens.normalize()
        except Exception:
            continue
        if member_of_class(dens, M):
            out.append(dens)
    if len(out) < count:
        raise RuntimeError(
            f"could only generate {len(out)}/{count} members of the "
            f"M = {M} class for s = {t.s}")
    return out


class _TransformedMember:
    """A transformed function h(phi) that may not integrate to one."""

    def __init__(self, transform: Transform, phi: PiecewiseConcave):
        self.transform = transform
        self.phi = phi
