import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polardet import geometry
from polardet.errors import DegenerateBox
from polardet.geometry import (AREA_EPS, oriented_nms, pairwise_iou,
                               polars_to_quads, quads_to_polar, rotated_iou)

from oracles import (_normalize_angle_reference, clip_iou, clip_iou_matrix,
                     greedy_nms_reference, jittered_scene, mc_iou,
                     polars_to_quads_reference, quads_to_polar_reference,
                     random_rectangle, rect_polar_truth, shoelace)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def rotate_about(corners, center, phi):
    rot = np.array([[math.cos(phi), -math.sin(phi)],
                    [math.sin(phi), math.cos(phi)]])
    return (corners - center) @ rot.T + center


def iou(a, b) -> float:
    """Rotated IoU of two (4, 2) quads, from ``pairwise_iou``."""
    return pairwise_iou(np.asarray(a)[None], np.asarray(b)[None])[0, 0]


def overlap_area(a, b) -> float:
    """Intersection area of two quads, IoU * (A + B) / (1 + IoU) from
    ``pairwise_iou`` and their shoelace areas."""
    v = iou(a, b)
    return v * (shoelace(a) + shoelace(b)) / (1.0 + v)


def normalize(raw) -> np.ndarray:
    return geometry._normalize_angles(np.array(raw, dtype=np.float64))


class TestNormalizeAngles:
    def test_hand_values(self):
        got = normalize([1.25, -math.pi / 2, 2 * math.pi, 5 * math.pi])
        assert got[0] == 1.25 and got[2] == 0.0
        assert got[1] == pytest.approx(3 * math.pi / 2)
        assert got[3] == pytest.approx(math.pi)

    def test_tiny_negative_stays_in_range(self):
        # fmod(-1e-20, 2pi) + 2pi rounds to exactly 2pi; must still be < 2pi
        assert 0.0 <= normalize([-1e-20])[0] < 2 * math.pi

    @given(st.lists(st.floats(-1000.0, 1000.0), max_size=8))
    def test_always_in_range(self, raw):
        a = normalize(raw)
        assert np.all((0.0 <= a) & (a < 2 * math.pi))


# angles at the wrap: signed zeros, +-pi, exact turns, and tiny negatives
# whose fmod + 2*pi rounds to exactly 2*pi
WRAP_ANGLES = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
               -1e-300, -5e-324, -1e-17, -2.0 ** -60, 2.0 ** -60,
               math.nextafter(2 * math.pi, 0.0), math.nextafter(-math.pi, 0.0),
               7.0, -7.0, 1e6, -1e6]


class TestArrayFormsKeepTheBits:
    """The array-valued conversions give the bits of one scalar ``math``
    call per corner."""

    def test_normalize_angles_at_the_wrap(self):
        got = normalize(WRAP_ANGLES)
        want = np.array([_normalize_angle_reference(a) for a in WRAP_ANGLES])
        assert got.tobytes() == want.tobytes()
        assert math.copysign(1.0, got[1]) == -1.0  # -0.0 stays -0.0

    def test_quads_to_polar_on_wrap_corners(self):
        # diamonds whose corner offsets are exactly (1, dy), (0, 1), (-1, dy),
        # (0, -1): atan2 gives -0.0, +-pi and tiny negatives at the wrap
        dys = [0.0, -0.0, -1e-300, -5e-324, -1e-17, 1e-17]
        corners = np.array([[[9.0, dy], [8.0, 1.0], [7.0, dy], [8.0, -1.0]]
                            for dy in dys])
        theta = geometry.quads_to_polar(corners)[2]
        assert np.signbit(theta[1, 0]) and not np.signbit(theta[0, 0])
        for got, want in zip(geometry.quads_to_polar(corners),
                             quads_to_polar_reference(corners)):
            assert got.tobytes() == want.tobytes()

    def test_quads_to_polar_on_random_quads(self):
        rng = np.random.default_rng(5)
        corners = np.concatenate([random_rectangle(rng)[None] for _ in range(300)]
                                 + [rng.uniform(-50, 50, (300, 4, 2))])
        for got, want in zip(geometry.quads_to_polar(corners),
                             quads_to_polar_reference(corners)):
            assert got.tobytes() == want.tobytes()

    def test_polars_to_quads(self):
        rng = np.random.default_rng(6)
        theta = np.concatenate([rng.uniform(-7, 7, (400, 2)),
                                np.array(WRAP_ANGLES[:16]).reshape(-1, 2)])
        pole = rng.uniform(0, 64, (len(theta), 2))
        rho = rng.uniform(0.5, 20, len(theta))
        got = geometry.polars_to_quads(pole, rho, theta)
        assert got.tobytes() == polars_to_quads_reference(pole, rho, theta).tobytes()
        empty = geometry.polars_to_quads(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)))
        assert empty.shape == (0, 4, 2) and empty.dtype == np.float64


class TestAreas:
    def test_unit_square_signed_area_ccw(self):
        # shoelace by hand: 0.5 * ((0-0) + (1-0) + (1-0) + (0-0)) = 1
        assert geometry._shoelace(UNIT_SQUARE) == pytest.approx(1.0)

    def test_clockwise_square_negative(self):
        assert geometry._shoelace(UNIT_SQUARE[::-1]) == pytest.approx(-1.0)

    def test_triangle_area(self):
        # hand value: base 4, height 3 -> 6
        tri = np.array([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)])
        assert geometry._shoelace(tri) == pytest.approx(6.0)


class TestQuadsToPolar:
    def test_axis_aligned_rectangle_hand_values(self):
        # rect centered (3, 2), w=4, h=2; offsets (+-2, +-1)
        # rho = sqrt(5); smallest angles atan2(1,2) and pi - atan2(1,2)
        quad = np.array([[1.0, 1.0], [5.0, 1.0], [5.0, 3.0], [1.0, 3.0]])
        pole, rho, theta = quads_to_polar(quad[None])
        assert pole[0] == pytest.approx([3.0, 2.0])
        assert rho[0] == pytest.approx(math.sqrt(5.0))
        assert theta[0] == pytest.approx([math.atan2(1.0, 2.0),
                                          math.pi - math.atan2(1.0, 2.0)])

    def test_rotated_rectangle_matches_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            cx, cy = rng.uniform(5, 50, 2)
            w, h = rng.uniform(2, 20, 2)
            phi = rng.uniform(0, math.pi)
            corners = rotate_about(
                np.array([[cx + w / 2, cy + h / 2], [cx - w / 2, cy + h / 2],
                          [cx - w / 2, cy - h / 2], [cx + w / 2, cy - h / 2]]),
                np.array([cx, cy]), phi)
            _pole, rho, theta = quads_to_polar(corners[None])
            truth = rect_polar_truth(cx, cy, w, h, phi)
            assert [rho[0], *theta[0]] == pytest.approx(truth, abs=1e-9)

    def test_corner_order_irrelevant(self):
        # any perimeter order (rotated start, either winding) gives the same box
        rng = np.random.default_rng(3)
        corners = random_rectangle(rng)
        perms = [[0, 1, 2, 3], [1, 2, 3, 0], [3, 2, 1, 0], [2, 3, 0, 1], [0, 3, 2, 1]]
        _pole, rho, theta = quads_to_polar(corners[perms])
        assert rho[1:] == pytest.approx(np.full(4, rho[0]))
        assert theta[1:] == pytest.approx(np.tile(theta[0], (4, 1)))

    def test_degenerate_quad_rejected(self):
        line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(DegenerateBox):
            quads_to_polar(line[None])

    def test_mean_radius_absorbs_corner_jitter(self):
        # one corner pushed outward: rho becomes the mean of the distances
        quad = np.array([[1.0, 1.0], [5.0, 1.0], [6.0, 3.5], [1.0, 3.0]])
        rho = quads_to_polar(quad[None])[1][0]
        offsets = quad - quad.mean(axis=0)
        assert rho == pytest.approx(np.hypot(*offsets.T).mean())


class TestPolarsToQuads:
    def test_corner_placement(self):
        quad = polars_to_quads([[10.0, 20.0]], [5.0], [[0.3, 2.0]])[0]
        for corner, t in zip(quad, (0.3, 2.0, 0.3 + math.pi, 2.0 + math.pi)):
            assert corner[0] == pytest.approx(10.0 + 5.0 * math.cos(t))
            assert corner[1] == pytest.approx(20.0 + 5.0 * math.sin(t))

    def test_emitted_quads_are_counterclockwise(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t1 = rng.uniform(0.01, math.pi - 0.1)
            t2 = rng.uniform(t1 + 0.05, math.pi)
            quad = polars_to_quads([[0.0, 0.0]], [rng.uniform(1, 9)], [[t1, t2]])[0]
            assert geometry._shoelace(quad) > 0.0


class TestRoundTrips:
    def test_polar_quad_polar_exact(self):
        rng = np.random.default_rng(1234)
        draws = []
        for _ in range(500):
            t1 = rng.uniform(0.01, math.pi - 0.11)
            t2 = rng.uniform(t1 + 0.05, math.pi - 0.01)
            draws.append((*rng.uniform(10, 50, 2), rng.uniform(0.5, 20), t1, t2))
        draws = np.array(draws)
        pole, rho, theta = quads_to_polar(polars_to_quads(draws[:, :2], draws[:, 2],
                                                          draws[:, 3:]))
        np.testing.assert_allclose(np.column_stack((pole, rho, theta)), draws,
                                   rtol=0, atol=1e-9)

    def test_rectangle_quad_polar_quad_recovers_corners(self):
        rng = np.random.default_rng(99)
        corners = np.array([random_rectangle(rng) for _ in range(300)])
        back = polars_to_quads(*quads_to_polar(corners))
        # same four points, possibly starting elsewhere in the cycle
        dists = np.linalg.norm(corners[:, :, None] - back[:, None], axis=3)
        assert dists.min(axis=2).max() < 1e-6


class TestClipping:
    def test_self_clip_returns_full_area(self):
        assert overlap_area(UNIT_SQUARE, UNIT_SQUARE) == pytest.approx(1.0)

    def test_offset_squares_hand_value(self):
        shifted = UNIT_SQUARE + np.array([0.5, 0.25])
        # overlap is a 0.5 x 0.75 rectangle
        assert overlap_area(UNIT_SQUARE, shifted) == pytest.approx(0.375)

    def test_disjoint_is_empty(self):
        far = UNIT_SQUARE + 10.0
        assert overlap_area(UNIT_SQUARE, far) == 0.0

    def test_winding_of_inputs_does_not_matter(self):
        shifted = (UNIT_SQUARE + np.array([0.3, 0.3]))[::-1]
        assert overlap_area(UNIT_SQUARE, shifted.copy()) == pytest.approx(0.49)


class TestRotatedIoU:
    def test_identical_boxes(self):
        box = random_rectangle(np.random.default_rng(5))
        assert iou(box, box) == pytest.approx(1.0)

    def test_rotated_square_analytic_value(self):
        # unit square vs itself rotated 45 deg: intersection is a regular
        # octagon of area 2(sqrt(2)-1); union = 2 - that; IoU = 1/sqrt(2)
        a = UNIT_SQUARE
        b = rotate_about(UNIT_SQUARE, np.array([0.5, 0.5]), math.pi / 4)
        inter = overlap_area(a, b)
        assert inter == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-6)
        assert iou(a, b) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

    def test_half_overlap_hand_value(self):
        shifted = UNIT_SQUARE + np.array([0.5, 0.0])
        # inter 0.5, union 1.5
        assert iou(UNIT_SQUARE, shifted) == pytest.approx(1.0 / 3.0)

    def test_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            a = random_rectangle(rng, center_range=(10, 30))
            b = random_rectangle(rng, center_range=(10, 30))
            expected = mc_iou(a, b, 200_000, rng)
            assert iou(a, b) == pytest.approx(expected, abs=2e-2)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = random_rectangle(rng, center_range=(10, 25))
            b = random_rectangle(rng, center_range=(10, 25))
            assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_contained(self, seed):
        rng = np.random.default_rng(seed)
        a = random_rectangle(rng, center_range=(10, 25))
        b = random_rectangle(rng, center_range=(10, 25))
        assert 0.0 <= iou(a, b) <= 1.0
        assert overlap_area(a, b) <= min(shoelace(a), shoelace(b)) + 1e-9


def rectangle(cx, cy, w, h, phi, start, reverse):
    """Rotated rectangle with a chosen first corner and winding."""
    offs = np.array([[w / 2, h / 2], [-w / 2, h / 2],
                     [-w / 2, -h / 2], [w / 2, -h / 2]])
    corners = rotate_about(offs, np.zeros(2), phi) + np.array([cx, cy])
    corners = np.roll(corners, start, axis=0)
    return corners[::-1] if reverse else corners


rectangles = st.builds(rectangle, st.floats(0.0, 40.0), st.floats(0.0, 40.0),
                       st.floats(0.5, 20.0), st.floats(0.5, 20.0),
                       st.floats(0.0, math.pi), st.integers(0, 3),
                       st.booleans())


def quads(rects):
    return np.array(rects, dtype=np.float64).reshape(-1, 4, 2)


# left corner at the origin
DIAMOND = np.array([[0.0, 0.0], [0.5, -0.5], [1.0, 0.0], [0.5, 0.5]])
SQUARE_AT = {
    "identical": UNIT_SQUARE,
    "reversed winding": (UNIT_SQUARE + [0.3, 0.3])[::-1],
    "nested": UNIT_SQUARE * 0.5 + 0.25,
    "rotated nested": rotate_about(UNIT_SQUARE * 0.5 + 0.25, [0.5, 0.5], 0.4),
    "touching edge": UNIT_SQUARE + [1.0, 0.0],
    "touching corner": UNIT_SQUARE + [1.0, 1.0],
    "diamond corner on corner": DIAMOND + [1.0, 1.0],
    "diamond corner on edge": DIAMOND + [1.0, 0.5],
    "segment inside": np.array([[0.25, 0.5], [0.75, 0.5], [0.75, 0.5],
                                [0.25, 0.5]]),
    "point": np.full((4, 2), 0.5),
    "far": UNIT_SQUARE + 10.0,
}
EXPECTED_AGAINST_UNIT_SQUARE = {
    "identical": 1.0, "reversed winding": 0.49 / 1.51, "nested": 0.25,
    "rotated nested": 0.25, "touching edge": 0.0, "touching corner": 0.0,
    "diamond corner on corner": 0.0, "diamond corner on edge": 0.0,
    "segment inside": 0.0, "point": 0.0, "far": 0.0,
}


class TestPairwiseIoU:
    @given(st.lists(rectangles, max_size=7), st.lists(rectangles, max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_matches_clip_oracle_and_is_symmetric(self, rects_a, rects_b):
        a, b = quads(rects_a), quads(rects_b)
        with np.errstate(all="raise"):
            got = pairwise_iou(a, b)
            swapped = pairwise_iou(b, a)
        assert got.shape == (len(a), len(b)) and got.dtype == np.float64
        np.testing.assert_allclose(got, clip_iou_matrix(a, b), rtol=0, atol=1e-12)
        assert np.array_equal(got, swapped.T)

    @pytest.mark.parametrize("name", sorted(SQUARE_AT))
    def test_special_cases(self, name):
        a, b = quads([UNIT_SQUARE]), quads([SQUARE_AT[name]])
        with np.errstate(all="raise"):
            got = pairwise_iou(a, b)
            swapped = pairwise_iou(b, a)
            self_iou = pairwise_iou(b, b)
        assert got[0, 0] == pytest.approx(EXPECTED_AGAINST_UNIT_SQUARE[name],
                                          abs=1e-12)
        np.testing.assert_allclose(got, clip_iou_matrix(a, b), rtol=0, atol=1e-12)
        assert np.array_equal(got, swapped.T)
        # a zero-area quad has no IoU with anything, itself included
        assert self_iou[0, 0] == (0.0 if shoelace(SQUARE_AT[name]) == 0.0
                                  else pytest.approx(1.0))

    def test_empty_shapes(self):
        boxes = quads([UNIT_SQUARE, UNIT_SQUARE + 0.5])
        none = np.zeros((0, 4, 2))
        assert pairwise_iou(none, boxes).shape == (0, 2)
        assert pairwise_iou(boxes, none).shape == (2, 0)
        assert pairwise_iou(none, none).shape == (0, 0)

    def test_one_by_one_agrees_with_rotated_iou(self):
        rng = np.random.default_rng(21)
        boxes = np.array([random_rectangle(rng, center_range=(10, 25))
                          for _ in range(12)])
        matrix = pairwise_iou(boxes, boxes)
        for i in range(12):
            for j in range(12):
                assert rotated_iou(boxes[i], boxes[j]) == \
                    pytest.approx(matrix[i, j], abs=1e-15)

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            pairwise_iou(np.zeros((2, 3, 2)), np.zeros((1, 4, 2)))
        bad = quads([UNIT_SQUARE]).copy()
        bad[0, 1, 0] = np.nan
        with pytest.raises(ValueError):
            pairwise_iou(quads([UNIT_SQUARE]), bad)


class TestOrientedNMS:
    def _squares(self, *centers, size=4.0):
        half = size / 2
        return np.array([[[cx - half, cy - half], [cx + half, cy - half],
                          [cx + half, cy + half], [cx - half, cy + half]]
                         for cx, cy in centers]).reshape(-1, 4, 2)

    def test_suppresses_heavy_overlap(self):
        corners = self._squares((10, 10), (10.5, 10), (30, 30))
        assert oriented_nms(corners, [0.9, 0.8, 0.7], [0, 0, 0], 0.5) == [0, 2]

    def test_keeps_everything_below_threshold(self):
        corners = self._squares((10, 10), (16, 10))
        # IoU of 4x4 squares 6 apart is 0
        assert sorted(oriented_nms(corners, [0.5, 0.9], [0, 0], 0.1)) == [0, 1]

    def test_returns_descending_score_order(self):
        corners = self._squares((10, 10), (30, 10), (50, 10))
        assert oriented_nms(corners, [0.2, 0.9, 0.5], [0, 0, 0], 0.5) == [1, 2, 0]

    def test_score_tie_prefers_lower_index(self):
        corners = self._squares((10, 10), (10.2, 10))
        assert oriented_nms(corners, [0.5, 0.5], [0, 0], 0.3) == [0]

    def test_other_class_never_suppresses(self):
        corners = self._squares((10, 10), (10, 10))
        assert oriented_nms(corners, [0.9, 0.8], [0, 1], 0.5) == [0, 1]
        assert oriented_nms(corners, [0.9, 0.8], [1, 1], 0.5) == [0]

    def test_clips_each_unordered_same_class_pair_once(self, monkeypatch):
        # only pairs of one class whose IoU bound reaches the threshold get
        # to the clipping kernel, each once, and never a box against itself
        clipped = []
        clip = geometry._intersection_areas

        def spy(p, q):
            clipped.append(len(p))
            return clip(p, q)

        monkeypatch.setattr(geometry, "_intersection_areas", spy)
        disjoint = self._squares(*((10 * k, 0) for k in range(5)))
        assert oriented_nms(disjoint, [0.5] * 5, [0] * 5, 0.5) == [0, 1, 2, 3, 4]
        assert sum(clipped) == 0
        pair = self._squares((10, 10), (11, 10))  # IoU 0.6
        clipped.clear()
        assert oriented_nms(pair, [0.9, 0.8], [0, 0], 0.5) == [0]
        assert sum(clipped) == 1
        clipped.clear()
        assert oriented_nms(pair, [0.9, 0.8], [0, 1], 0.5) == [0, 1]
        assert sum(clipped) == 0

    def test_no_same_class_overlap_makes_no_clip_call(self, monkeypatch):
        # boxes overlap only across classes: nothing is clipped and every
        # box is kept in stable descending-score order
        clipped = []
        clip = geometry._intersection_areas
        monkeypatch.setattr(geometry, "_intersection_areas",
                            lambda p, q: clipped.append(len(p)) or clip(p, q))
        corners = self._squares((10, 10), (10, 10), (30, 10), (31, 10), (50, 10))
        scores = [0.5, 0.9, 0.5, 0.7, 0.9]
        assert oriented_nms(corners, scores, [0, 1, 0, 1, 0], 0.0) == [1, 4, 3, 0, 2]
        assert clipped == []

    def test_pairs_below_the_bound_are_not_clipped(self, monkeypatch):
        # 4x4 squares 3 apart: bounding boxes overlap, but IoU <= 4/28 < 0.3
        clipped = []
        clip = geometry._intersection_areas
        monkeypatch.setattr(geometry, "_intersection_areas",
                            lambda p, q: clipped.append(len(p)) or clip(p, q))
        corners = self._squares((10, 10), (13, 10))
        assert oriented_nms(corners, [0.9, 0.8], [0, 0], 0.3) == [0, 1]
        assert clipped == []
        assert oriented_nms(corners, [0.9, 0.8], [0, 0], 0.1) == [0]
        assert clipped == [1]

    @pytest.mark.parametrize("side, dx, dy", [(4.0, 0.5, 0.0), (4.0, 1.0, 1.0),
                                              (2.0, 0.5, 0.25), (1.0, 0.5, 0.0),
                                              (8.0, 2.0, 3.0)])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_threshold_at_and_one_ulp_around_the_iou(self, side, dx, dy, ulps):
        # axis-aligned squares: the bound equals the IoU, which is exact
        a = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
        corners = np.stack([a, a + [dx, dy]])
        inter = (side - dx) * (side - dy)
        threshold = inter / (2 * side * side - inter)
        for _ in range(abs(ulps)):
            threshold = np.nextafter(threshold, 2.0 * ulps)
        kept = oriented_nms(corners, [0.9, 0.8], [0, 0], threshold)
        assert kept == ([0] if ulps < 0 else [0, 1])
        assert kept == greedy_nms_reference(corners, [0.9, 0.8], threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.5, 1.0])
    def test_constructed_cases_match_per_class_reference(self, threshold):
        unit = UNIT_SQUARE
        diamond = np.array([[1.0, 0.5], [1.5, 0.0], [2.0, 0.5], [1.5, 1.0]])
        corners = np.stack([
            unit, unit,                          # identical
            unit + [1.0, 0.0],                   # touches box 0 at an edge
            unit + [1.0, 1.0],                   # touches box 0 at a corner
            diamond,                             # touches boxes 0 and 2
            np.full((4, 2), 0.5),                # zero area inside box 0
            unit + [0.5, 0.0],                   # IoU 1/3 with box 0
            unit + [0.5, 0.0],                   # the same, other class
            unit + [10.0, 0.0], unit + [10.25, 0.0],
        ])
        scores = np.array([0.9, 0.8, 0.8, 0.7, 0.6, 0.95, 0.5, 0.5, 0.4, 0.4])
        classes = np.array([0, 0, 0, 0, 0, 0, 0, 1, 0, 0])
        kept = oriented_nms(corners, scores, classes, threshold)
        expected = set()
        for c in (0, 1):
            members = np.flatnonzero(classes == c)
            expected.update(members[greedy_nms_reference(
                corners[members], scores[members].tolist(), threshold)].tolist())
        assert set(kept) == expected
        assert kept == sorted(kept, key=lambda i: (-scores[i], i))
        # identical boxes suppress each other below threshold 1 only
        assert (1 in kept) == (threshold == 1.0)

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError):
            oriented_nms(self._squares((0, 0)), [math.nan], [0], 0.5)

    def test_empty_input(self):
        assert oriented_nms(np.empty((0, 4, 2)), [], [], 0.5) == []

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf,
                                           -0.1, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        disjoint = self._squares(*((10 * k, 0) for k in range(3)))
        with pytest.raises(ValueError):
            oriented_nms(disjoint, [0.5] * 3, [0] * 3, threshold)

    def test_threshold_bounds_accepted(self):
        corners = self._squares((10, 10), (10, 10), (30, 30))
        scores, classes = [0.9, 0.8, 0.7], [0, 0, 0]
        assert oriented_nms(corners, scores, classes, 0.0) == [0, 2]
        assert oriented_nms(corners, scores, classes, 1.0) == [0, 1, 2]

    def test_rotated_squares_sharing_an_edge_do_not_overlap(self):
        # two 3x3 squares at 0.3 rad, the second shifted by the first's edge
        # from corner 1 to corner 0, so they share an edge: the clip kernel
        # gives exactly 0, where the scalar oracle's clip_iou gives 4.9e-17
        a = rotate_about(3.0 * UNIT_SQUARE, [1.5, 1.5], 0.3)
        corners = np.stack([a, a + (a[1] - a[0])])
        assert pairwise_iou(corners[:1], corners[1:])[0, 0] == 0.0
        assert 0.0 < clip_iou(corners[0], corners[1]) < 1e-16
        assert oriented_nms(corners, [0.9, 0.8], [0, 0], 0.0) == [0, 1]

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.75])
    def test_decisions_match_scalar_reference(self, threshold):
        rng = np.random.default_rng(round(threshold * 100))
        suppressed = 0
        for _ in range(15):
            corners, _owner = jittered_scene(rng, num_objects=6, copies=3)
            # one decimal makes score ties, exercising the index tie-break
            scores = np.round(rng.uniform(0.0, 1.0, len(corners)), 1).tolist()
            kept = oriented_nms(corners, scores, [0] * len(corners), threshold)
            assert kept == greedy_nms_reference(corners, scores, threshold)
            suppressed += len(corners) - len(kept)
        assert suppressed > 0

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.75])
    def test_mixed_classes_match_per_class_reference(self, threshold):
        rng = np.random.default_rng(round(threshold * 100) + 7)
        suppressed = 0
        for _ in range(15):
            corners, _owner = jittered_scene(rng, num_objects=6, copies=3)
            scores = np.round(rng.uniform(0.0, 1.0, len(corners)), 1)
            classes = rng.integers(0, 3, len(corners))
            kept = oriented_nms(corners, scores, classes, threshold)
            expected = set()
            for c in range(3):
                members = np.flatnonzero(classes == c)
                expected.update(members[greedy_nms_reference(
                    corners[members], scores[members].tolist(), threshold)].tolist())
            assert set(kept) == expected
            # kept in descending score order, ties by lower index
            assert kept == sorted(kept, key=lambda i: (-scores[i], i))
            suppressed += len(corners) - len(kept)
        assert suppressed > 0


def test_area_eps_guards_degeneracy():
    # a sliver just above the cutoff converts; at the cutoff it raises
    tall = np.array([[0, 0], [1, 0], [1, 2.1 * AREA_EPS], [0, 2.1 * AREA_EPS]])
    quads_to_polar(tall[None])
    flat = np.array([[0, 0], [1, 0], [1, AREA_EPS], [0, AREA_EPS]])
    with pytest.raises(DegenerateBox):
        quads_to_polar(flat[None])
