"""Bracketing covers: validity, size law, exponent law, and tail behavior."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sconcave import entropy
from sconcave.concave_fn import PiecewiseConcave
from sconcave.density import TransformedDensity, member_of_class
from sconcave.entropy import (BoundedConcaveClass, Bracket, BracketPiece, BracketSet,
                              HypothesisError, LipschitzConcaveClass, TailClass,
                              ThresholdError, TransformedCompactClass, build_cover,
                              cover_bounded_concave, cover_lipschitz_concave,
                              cover_tail_class, cover_transformed, entropy_curve,
                              sample_density_class_members, sample_members,
                              _covers, verify_bracketing)
from sconcave.transforms import Transform


def _wide_member(k, lo, hi):
    """The s = -1 density with 1/p = 2.5 + k (|x| - 1)_+^2 on (lo, hi), normalized.

    Its knots sit on a geometric grid out from -1 and 1, so its support reaches
    into the tail intervals of the M = 4 class (the central one is (-9, 9)).
    """
    knots = np.concatenate((-np.geomspace(-lo, 1.0, 12), np.geomspace(1.0, hi, 12)))
    phi = -(2.5 + k * np.maximum(np.abs(knots) - 1.0, 0.0) ** 2)
    return TransformedDensity(Transform.power(-1.0), PiecewiseConcave(knots, phi)).normalize()


WIDE_MEMBERS = [(100, -792.0, 792.0), (60, -46.0, 322.0), (150, -243.0, 20.0)]


class TestLipschitzCover:
    def test_validity_and_size(self):
        bset = cover_lipschitz_concave(0.0, 1.0, 1.0, 1.0, 0.5)
        members = sample_members(LipschitzConcaveClass(0, 1, 1, 1), 200, 11)
        rep = verify_bracketing(bset, members)
        assert rep.covered_fraction == 1.0
        assert rep.max_observed_size <= 0.5

    def test_size_halves_with_eps(self):
        members = sample_members(LipschitzConcaveClass(0, 1, 1, 1), 60, 3)
        sizes = []
        for eps in (0.4, 0.2):
            rep = verify_bracketing(cover_lipschitz_concave(0, 1, 1, 1, eps),
                                    members)
            assert rep.covered_fraction == 1.0
            sizes.append(rep.max_observed_size)
        assert sizes[1] <= sizes[0]
        assert sizes[0] / sizes[1] <= 4.0  # halving eps halves sizes within x2

    def test_size_is_the_sup_gap_on_a_long_interval(self):
        # a sup-norm cover was once sized in L1: on [0, 4] the eps/2 gap read
        # 4 eps/2 = 0.2, above size_bound 0.1
        bset = cover_lipschitz_concave(0, 4, 1, 1, 0.1)
        members = sample_members(LipschitzConcaveClass(0, 4, 1, 1), 50, 3)
        rep = verify_bracketing(bset, members)
        assert rep.covered_fraction == 1.0
        assert rep.max_observed_size == pytest.approx(0.05, rel=1e-12)
        assert rep.max_observed_size <= bset.size_bound

    def test_exponent_band(self):
        curve = entropy_curve(LipschitzConcaveClass(0, 1, 1, 1),
                              [0.5, 0.25, 0.125, 0.0625], 1.0)
        assert 0.4 <= curve.exponent <= 0.65

    def test_scale_growth(self):
        # doubling B + Gamma(b-a) raises log-cardinality by about sqrt(2)
        n1 = cover_lipschitz_concave(0, 1, 1, 1, 0.1).log_cardinality
        n2 = cover_lipschitz_concave(0, 1, 2, 2, 0.1).log_cardinality
        assert 1.15 <= n2 / n1 <= 1.75

    def test_degenerate_when_eps_huge(self):
        bset = cover_lipschitz_concave(0, 1, 1, 1, 5.0)
        for member in sample_members(LipschitzConcaveClass(0, 1, 1, 1), 3, 5):
            bracket = bset.locate(member)
            assert len(bracket.pieces) == 1
            piece = bracket.pieces[0]
            assert (piece.a, piece.b) == (0, 1)
            assert (piece.lower, piece.upper) == (("const", -1.0), ("const", 1.0))
        assert bset.log_cardinality == 0.0


    def test_envelope_knots_match_the_pairwise_loop(self):
        # reference: the row-by-row intersection loop, with ties and parallels
        inner = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            lines = [(float(rng.integers(-4, 5)) / 4, float(rng.integers(-8, 9)) / 8)
                     for _ in range(int(rng.integers(1, 15)))]
            arr = np.asarray(sorted(set(lines)), dtype=float).reshape(-1, 2)
            s, c = arr[:, 0], arr[:, 1]
            pts = [0.25, 1.5]
            for i in range(s.size - 1):
                with np.errstate(divide="ignore", invalid="ignore"):
                    xi = 0.25 + (c[i + 1:] - c[i]) / (s[i] - s[i + 1:])
                pts.extend(xi[np.isfinite(xi) & (xi > 0.25) & (xi < 1.5)].tolist())
            knots, vals = entropy._min_of_lines(lines, 0.25, 1.5)
            np.testing.assert_array_equal(knots, np.unique(np.asarray(pts)))
            np.testing.assert_array_equal(
                vals, np.min(c[:, None] + s[:, None] * (knots - 0.25), axis=0))
            inner += knots.size > 2
        assert inner >= 20


class TestBoundedConcaveCover:
    def test_mu_value_r1(self):
        mu = math.exp(-2.0 * 4.0 * 3.0 * math.log(2.0))
        assert mu == pytest.approx(2.0 ** -24)
        assert mu == pytest.approx(5.96e-8, rel=1e-2)

    def test_bracketing_500_members(self):
        bset = cover_bounded_concave(0.0, 1.0, 1.0, 0.1, 1.0)
        members = sample_members(BoundedConcaveClass(0, 1, 1), 500, 7)
        rep = verify_bracketing(bset, members)
        assert rep.covered_fraction == 1.0
        assert rep.max_observed_size <= 0.1

    def test_exponent_band(self):
        curve = entropy_curve(BoundedConcaveClass(0, 1, 1),
                              [0.2, 0.1, 0.05, 0.025], 1.0)
        assert 0.4 <= curve.exponent <= 0.65

    def test_threshold_error_names_eps3(self):
        with pytest.raises(ThresholdError, match="eps_3"):
            cover_bounded_concave(0.0, 1.0, 1.0, 0.5, 1.0)

    def test_r2_cover(self):
        bset = cover_bounded_concave(0.0, 1.0, 1.0, 0.1, 2.0)
        members = sample_members(BoundedConcaveClass(0, 1, 1), 100, 3)
        rep = verify_bracketing(bset, members)
        assert rep.covered_fraction == 1.0
        assert rep.max_observed_size <= 0.1

    def test_log_cardinality_monotone_in_eps(self):
        logs = [cover_bounded_concave(0, 1, 1, eps, 1.0).log_cardinality
                for eps in (0.2, 0.1, 0.05)]
        assert logs[0] < logs[1] < logs[2]


class TestTransformedCover:
    def test_bracketing_members(self):
        t = Transform.power(-1.0)
        bset = cover_transformed(t, 0.0, 1.0, 1.0, 0.1, 2.0)
        members = sample_members(TransformedCompactClass(t, 0, 1, 1), 300, 21)
        rep = verify_bracketing(bset, members)
        assert rep.covered_fraction == 1.0
        # the declared size_bound is eps, but the largest bracket here is
        # 2.7 eps; entropy-study reports this ratio as size_slack
        assert rep.max_observed_size <= 4.0 * 0.1

    def test_located_pieces_tile_the_support(self):
        # the level-2 pair, rounded inward on a coarser grid, used to leave
        # (0.555, 0.5556) of member 38's support in no piece; a tail-class
        # bracket tiles the whole line, each interval's cover where it lies
        t = Transform.power(-1.0)
        member = sample_members(TransformedCompactClass(t, 0, 1, 1), 39, 21)[38]
        cases = [(cover_transformed(t, 0.0, 1.0, 1.0, 0.1, 2.0), member, (0.0, 1.0)),
                 (cover_tail_class(t, 4.0, 0.04, 2.0), _wide_member(*WIDE_MEMBERS[1]),
                  (-math.inf, math.inf))]
        for bset, member, (lo, hi) in cases:
            pieces = bset.locate(member).pieces
            assert (pieces[0].a, pieces[-1].b) == (lo, hi)
            for p, q in zip(pieces, pieces[1:]):
                assert abs(q.a - p.b) <= 1e-12 * max(abs(q.a), 1.0), (p.b, q.a)

    def test_member_past_the_interval_is_restricted_in_locate(self):
        # a tail-class member reaches each interval's cover unrestricted
        t = Transform.power(-1.0)
        b1, b2 = -3.0, 5.0
        bset = cover_transformed(t, b1, b2, 1.0, 0.1, 2.0)
        phi = _wide_member(*WIDE_MEMBERS[0]).phi
        assert phi.knots[0] < b1 and phi.knots[-1] > b2
        inside = phi.restrict_domain((b1, b2))
        bracket = bset.locate(phi)
        assert _covers(bracket, SimpleNamespace(transform=t, phi=inside))
        assert bracket.size_lr(2.0) == pytest.approx(bset.locate(inside).size_lr(2.0),
                                                     rel=1e-12, abs=0.0)
        # a domain that misses (b1, b2), or only touches an end, is the zero function
        zero = bset.locate(None).pieces
        for lo, hi in ((6.0, 9.0), (b2, 8.0), (-7.0, b1)):
            outside = PiecewiseConcave(np.array([lo, hi]), np.array([-3.0, -3.0]))
            assert bset.locate(outside).pieces == zero

    def test_no_hole_at_seed_7(self):
        # member 164 sat 0.496 high in a stretch (0.35, 0.35185) with no piece
        t = Transform.power(-1.0)
        bset = cover_transformed(t, 0.0, 1.0, 1.0, 0.1, 2.0)
        members = sample_members(TransformedCompactClass(t, 0, 1, 1), 200, 7)
        assert verify_bracketing(bset, members).covered_fraction == 1.0

    def test_size_constant_stable(self):
        t = Transform.power(-1.0)
        members = sample_members(TransformedCompactClass(t, 0, 1, 1), 60, 5)
        ratios = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            rep = verify_bracketing(cover_transformed(t, 0, 1, 1, eps, 2.0),
                                    members)
            assert rep.covered_fraction == 1.0
            ratios.append(rep.max_observed_size / eps)
        assert max(ratios) <= 1.25 * np.mean(ratios)
        assert min(ratios) >= 0.75 * np.mean(ratios)

    def test_exponent_band(self):
        # the square-root law needs the tail hypothesis alpha > 1 strictly
        # (alpha = 1 is the degenerate boundary where the level series stops
        # converging geometrically), and an eps grid over which the level
        # structure is stable so no construction branch switches mid-curve
        t = Transform.power(-0.5)  # alpha = 2
        curve = entropy_curve(TransformedCompactClass(t, 0.0, 1.0, 1.0),
                              [0.032, 0.027, 0.023, 0.0195], 2.0)
        assert 0.4 <= curve.exponent <= 0.65

    def test_finite_zero_point_branch(self):
        # transforms with a finite lower limit point use the single-level path
        t = Transform.power(0.5)
        bset = cover_transformed(t, 0.0, 1.0, 1.0, 0.1, 2.0)
        members = sample_members(TransformedCompactClass(t, 0, 1, 1), 100, 9)
        rep = verify_bracketing(bset, members)
        assert rep.covered_fraction == 1.0

    def test_threshold_error(self):
        with pytest.raises(ThresholdError):
            cover_transformed(Transform.power(-1.0), 0.0, 1.0, 1.0, 0.5, 2.0)


class TestTailClassCover:
    def test_beta_exponent_formula(self):
        # the envelope-to-budget exponent at r = 2 is one fifth
        r = 2.0
        assert 1.0 / (2.0 * r + 1.0) == pytest.approx(0.2)

    def test_bracketing_and_sizes(self):
        t = Transform.power(-1.0)
        members = sample_members(TailClass(t, 2.0), 200, 33)
        ratios = []
        for eps in (0.12, 0.06, 0.03):
            bset = cover_tail_class(t, 2.0, eps, 2.0)
            rep = verify_bracketing(bset, members)
            assert rep.covered_fraction == 1.0
            ratios.append(rep.max_observed_size / eps)
        assert max(ratios) <= 1.2 * np.mean(ratios)

    def test_members_reaching_the_tail_intervals(self):
        # M = 4 keeps the envelope's seam drop (19x) below the warning level;
        # the lopsided members reach the tail intervals on one side only
        t = Transform.power(-1.0)
        members = [_wide_member(*w) for w in WIDE_MEMBERS]
        assert [m.support for m in members] == [(lo, hi) for _, lo, hi in WIDE_MEMBERS]
        assert all(member_of_class(m, 4.0) for m in members)
        for eps in (0.3, 0.15, 0.08, 0.04):
            bset = cover_tail_class(t, 4.0, eps, 2.0)
            rep = verify_bracketing(bset, members)
            assert rep.covered_fraction == 1.0
            assert rep.max_observed_size <= bset.size_bound

    @pytest.mark.parametrize("s, M", [(-1.0, 4.0), (-0.5, 3.0), (0.0, 4.0)])
    def test_classes_holding_many_densities(self, s, M):
        # at M = 2 the class is the uniform density alone; these sample
        # non-uniform members of different supports by rejection
        descriptor = TailClass(Transform.power(s), M)
        members = sample_members(descriptor, 30, 12)
        assert len({m.support for m in members}) > 1
        for eps in (0.12, 0.03, 1e-3):
            bset = build_cover(descriptor, eps, 2.0)
            rep = verify_bracketing(bset, members)
            assert rep.covered_fraction == 1.0
            assert rep.max_observed_size <= bset.size_bound

    def test_locates_only_levels_that_keep_pieces(self, monkeypatch):
        # a flat M = 2 member has the same superlevel set at every level, so
        # the pairs of the deeper levels lie in the hull the first one covers
        # and their sub-covers need no locate
        build, calls = entropy.cover_bounded_concave, []

        def counted(*args, **kwargs):
            bset = build(*args, **kwargs)

            def locate(member, inner=bset.locate):
                calls.append(member)
                return inner(member)
            return dataclasses.replace(bset, locate=locate)

        monkeypatch.setattr(entropy, "cover_bounded_concave", counted)
        t = Transform.power(-1.0)
        bset = cover_tail_class(t, 2.0, 0.015, 2.0)
        bracket = bset.locate(sample_members(TailClass(t, 2.0), 1, 3)[0])
        bands = {p.lower[4:] for p in bracket.pieces if p.lower[0] == "hpl_clip"}
        assert len(bands) == 1
        assert len(calls) == len(bands)

    def test_committed_log_cardinalities(self, bench_fixture):
        # the benchmark's entropy classes and their committed counts; the
        # counts depend on the order in which the intervals' counts are summed
        specs, load = bench_fixture
        stored = load("entropy_log_cardinality.json")
        keys = []
        for cls in specs.ENTROPY_CLASSES:
            for eps in cls.eps_grid:
                keys.append(f"{cls.label}:{eps!r}")
                bset = build_cover(cls.descriptor(), eps, cls.r)
                assert bset.log_cardinality == stored[keys[-1]], keys[-1]
        assert sorted(keys) == sorted(stored)

    def test_exponent_band(self):
        curve = entropy_curve(TailClass(Transform.power(-1.0), 2.0),
                              [0.12, 0.06, 0.03, 0.015], 2.0)
        assert 0.4 <= curve.exponent <= 0.7

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_size_bound_holds_at_small_eps(self, eps):
        # support grids used to be capped at 4e6 points; from eps = 7.5e-3
        # down the cap froze the plateau rings, and at 1e-4 the largest
        # bracket came to 17.4 eps against a size_bound of 15.5 eps
        descriptor = TailClass(Transform.power(-1.0), 2.0)
        bset = build_cover(descriptor, eps, 2.0)
        rep = verify_bracketing(bset, sample_members(descriptor, 20, 5))
        assert rep.covered_fraction == 1.0
        assert rep.max_observed_size <= bset.size_bound

    def test_support_grids_are_not_stored(self):
        # a stored grid per level came to about 600 MB at eps = 1e-4
        tracemalloc.start()
        try:
            build_cover(TailClass(Transform.power(-1.0), 2.0), 1e-4, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_hypothesis_error(self):
        # s = -2.5 has tail exponent alpha = -1/s = 0.4, below 1/r = 1/2 at r = 2
        with pytest.raises(HypothesisError, match="alpha = 0.4"):
            cover_tail_class(Transform.power(-2.5), 2.0, 0.1, 2.0)

    def test_constant_grows_toward_the_boundary(self):
        # the reported count blows up as the tail exponent drops toward 1/r
        logs = {}
        for alpha, s in ((2.0, -0.5), (1.0, -1.0), (0.6, -1.0 / 0.6)):
            logs[alpha] = cover_tail_class(Transform.power(s), 2.0, 0.05, 2.0
                                           ).log_cardinality
        assert logs[0.6] > logs[1.0] > logs[2.0]


class TestVerifyBracketing:
    def test_vacuous_empty_members(self):
        bset = cover_bounded_concave(0.0, 1.0, 1.0, 0.1, 1.0)
        rep = verify_bracketing(bset, [])
        assert rep.covered_fraction == 1.0
        assert rep.vacuous

    @staticmethod
    def single(descriptor, *pieces):
        bracket = Bracket(list(pieces))
        return BracketSet(descriptor, 0.1, 1.0, 0.0, 1.0, locate=lambda member: bracket)

    @staticmethod
    def uniform_on_half():
        # density 2 on [0, 0.5] and 0 beyond, with its class on [0, 1]
        t = Transform.power(-1.0)
        return (TransformedCompactClass(t, 0, 1, 2),
                TransformedDensity(t, PiecewiseConcave([0.0, 0.5], [-0.5, -0.5])))

    def test_narrow_spike_above_the_member(self):
        # the lower side peaks 1e-6 above a flat member over a 6.7e-5 stretch
        xp = 0.3 + 1e-4 / 3
        lower = ("pl", np.array([0.0, 0.3, xp, 0.3 + 2e-4 / 3, 1.0]),
                 np.array([-1.0, -1.0, 1e-6, -1.0, -1.0]))
        bset = self.single(LipschitzConcaveClass(0, 1, 1, 1),
                           BracketPiece(0.0, 1.0, lower, ("const", 1.0)))
        flat = PiecewiseConcave([0.0, 1.0], [0.0, 0.0])
        assert verify_bracketing(bset, [flat]).covered_fraction == 0.0

    def test_support_end_inside_a_piece(self):
        # just past 0.5 the member is 0 and the lower side is still near 1
        lower = ("pl", np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0, -1.0]))
        desc, member = self.uniform_on_half()
        bset = self.single(desc, BracketPiece(0.0, 1.0, lower, ("const", 3.0)))
        assert verify_bracketing(bset, [member]).covered_fraction == 0.0

    def test_support_end_at_a_piece_start(self):
        desc, member = self.uniform_on_half()
        bset = self.single(desc, BracketPiece(0.0, 0.5, ("const", 1.0), ("const", 3.0)),
                           BracketPiece(0.5, 1.0, ("const", 0.0), ("const", 0.0)))
        assert verify_bracketing(bset, [member]).covered_fraction == 1.0

    def test_stretch_in_no_piece(self):
        desc, member = self.uniform_on_half()
        wide = (("const", -1.0), ("const", 3.0))
        for seam, covered in ((0.3, 0.0), (np.nextafter(0.25, 1.0), 1.0)):
            bset = self.single(desc, BracketPiece(0.0, 0.25, *wide),
                               BracketPiece(seam, 1.0, *wide))
            assert verify_bracketing(bset, [member]).covered_fraction == covered

    def test_clip_crossing_between_knots(self):
        # h(clip(pl, -4, -1)) turns flat at x = 0.5, where the member is at
        # h(-2.4); at the knots 0 and 1 the member is above the lower side
        t = Transform.power(-1.0)
        lower = ("hpl_clip", t, np.array([0.0, 1.0]), np.array([-4.0, 2.0]), -4.0, -1.0)
        bset = self.single(TransformedCompactClass(t, 0, 1, 10),
                           BracketPiece(0.0, 1.0, lower, ("const", 10.0)))
        member = TransformedDensity(t, PiecewiseConcave([0.0, 1.0], [-3.9, -0.9]))
        assert verify_bracketing(bset, [member]).covered_fraction == 0.0

    def test_member_crossing_of_the_zero_point(self):
        # s = 1/2: h(phi) = 0 until phi crosses 0 at x = 0.5, where the lower
        # side is already h(0.25)
        t = Transform.power(0.5)
        lower = ("hpl_clip", t, np.array([0.0, 1.0]), np.array([-0.5, 1.0]), 0.0, 2.0)
        bset = self.single(TransformedCompactClass(t, 0, 1, 10),
                           BracketPiece(0.0, 1.0, lower, ("const", 10.0)))
        member = SimpleNamespace(transform=t, phi=PiecewiseConcave([0.0, 1.0], [-1.0, 1.0]))
        assert verify_bracketing(bset, [member]).covered_fraction == 0.0

    def test_bare_phi_in_a_density_class(self):
        # a bare phi would be read in phi-space against density-space brackets
        desc = TransformedCompactClass(Transform.power(-1.0), 0, 1, 2)
        members = sample_members(desc, 20, 21)
        bset = build_cover(desc, 0.1, 1.0)
        assert verify_bracketing(bset, members).covered_fraction == 1.0
        with pytest.raises(TypeError, match="member 3 "):
            verify_bracketing(bset, members[:3] + [members[3].phi] + members[4:])

    @pytest.mark.parametrize("descriptor, eps, r", [
        (BoundedConcaveClass(0, 1, 1), 0.05, 1.0),
        (TransformedCompactClass(Transform.power(-1.0), 0, 1, 1), 0.05, 2.0),
        (TailClass(Transform.power(-1.0), 2.0), 0.03, 2.0),
        (TailClass(Transform.power(-1.0), 4.0), 0.03, 2.0)])
    def test_matches_a_loop_over_covers_and_sizes(self, descriptor, eps, r):
        # breakpoints formed once per bracket serve both checks unchanged
        bset = build_cover(descriptor, eps, r)
        members = sample_members(descriptor, 25, 8)
        rep = verify_bracketing(bset, members)
        covered, sizes = 0, []
        for member in members:
            bracket = bset.locate(member)
            covered += _covers(bracket, member)
            sizes.append(bracket.size_lr(r))
        assert rep.covered_fraction == covered / len(members)
        assert rep.max_observed_size == max(sizes)
        assert rep.worst_member == sizes.index(max(sizes))

    def test_reports_worst_member(self):
        bset = cover_bounded_concave(0.0, 1.0, 1.0, 0.1, 1.0)
        members = sample_members(BoundedConcaveClass(0, 1, 1), 20, 4)
        rep = verify_bracketing(bset, members)
        assert rep.worst_member is not None
        assert 0 <= rep.worst_member < 20


class TestEntropyCurve:
    def test_insufficient_points(self):
        with pytest.raises(ValueError, match="3 valid"):
            entropy_curve(BoundedConcaveClass(0, 1, 1), [0.2, 0.1], 1.0)

    def test_monotone_log_cardinality(self):
        curve = entropy_curve(BoundedConcaveClass(0, 1, 1),
                              [0.2, 0.1, 0.05, 0.025], 1.0)
        assert np.all(np.diff(curve.log_cardinality) > 0)


class TestMemberGenerators:
    def test_class_empty_below_two(self):
        assert sample_density_class_members(Transform.power(-0.5), 1.0, 50, 1) == []

    def test_singleton_at_two(self):
        members = sample_density_class_members(Transform.power(-1.0), 2.0, 10, 5)
        for m in members:
            grid = np.linspace(-0.99, 0.99, 64)
            np.testing.assert_allclose(m.pdf(grid), 0.5, atol=1e-9)

    def test_roomy_class(self):
        members = sample_density_class_members(Transform.power(-0.5), 5.0, 40, 2)
        assert len(members) == 40
        from sconcave.density import member_of_class
        assert all(member_of_class(m, 5.0) for m in members)
