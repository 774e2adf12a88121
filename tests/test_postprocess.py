import math

import numpy as np
import pytest
from scipy import ndimage

from polardet.encoding import GridConfig, encode_regression
from polardet.errors import ShapeError
from polardet.geometry import Point2, PolarBox, QuadBox, polar_to_quad, quad_to_polar
from polardet.postprocess import (binarize, connected_components, decode_poles,
                                  extract_pole_points, topk_extract, PolePoint)

from oracles import brute_force_components, decode_poles_reference, scan_components


def scipy_components(mask):
    labels, n = ndimage.label(mask, structure=np.ones((3, 3)))
    return [frozenset(map(tuple, np.argwhere(labels == i + 1))) for i in range(n)]


class TestBinarize:
    def test_boundary_value_is_kept(self):
        mask = binarize(np.array([[0.29, 0.3, 0.31]]), 0.3)
        np.testing.assert_array_equal(mask, [[False, True, True]])

    def test_threshold_must_be_interior(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                binarize(np.zeros((2, 2)), bad)


class TestConnectedComponents:
    def test_empty_mask(self):
        assert connected_components(np.zeros((4, 4), dtype=bool)) == []

    def test_single_cell(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 2] = True
        assert connected_components(mask) == [[(1, 2)]]

    def test_diagonal_cells_are_connected(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = True
        comps = connected_components(mask)
        assert len(comps) == 1
        assert comps[0] == [(0, 0), (1, 1), (2, 2)]

    def test_separated_cells_are_not(self):
        mask = np.zeros((3, 4), dtype=bool)
        mask[0, 0] = mask[0, 3] = True
        assert connected_components(mask) == [[(0, 0)], [(0, 3)]]

    def test_matches_scipy_on_random_masks(self):
        rng = np.random.default_rng(0)
        for density in (0.1, 0.4, 0.7):
            for _ in range(20):
                mask = rng.random((12, 15)) < density
                ours = {frozenset(c) for c in connected_components(mask)}
                assert ours == set(scipy_components(mask))

    def test_matches_brute_force_expansion(self):
        rng = np.random.default_rng(1)
        mask = rng.random((10, 10)) < 0.5
        ours = {frozenset(c) for c in connected_components(mask)}
        theirs = {frozenset(c) for c in brute_force_components(mask)}
        assert ours == theirs

    def test_matches_full_scan_exactly(self):
        # the same lists in the same order as visiting every cell row-major
        rng = np.random.default_rng(2)
        for density in (0.05, 0.3, 0.6):
            for _ in range(5):
                mask = rng.random((64, 64)) < density
                assert connected_components(mask) == scan_components(mask)

    def test_full_and_empty_64x64(self):
        full = np.ones((64, 64), dtype=bool)
        assert connected_components(full) == [
            [(r, c) for r in range(64) for c in range(64)]]
        assert connected_components(~full) == []

    def test_deterministic_ordering(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[3, 0] = mask[0, 2] = mask[0, 3] = True
        comps = connected_components(mask)
        # ordered by smallest member; cells sorted within a component
        assert comps == [[(0, 2), (0, 3)], [(3, 0)]]


class TestExtractPolePoints:
    def test_single_blob_peak(self):
        heat = np.zeros((1, 8, 8))
        heat[0, 3:6, 3:6] = 0.4
        heat[0, 4, 5] = 0.9
        poles = extract_pole_points(heat, 0.3)
        assert poles == [PolePoint(0, 5, 4, 0.9)]

    def test_sub_threshold_blob_ignored(self):
        heat = np.zeros((1, 8, 8))
        heat[0, 1, 1] = 0.29
        heat[0, 5, 5] = 0.31
        poles = extract_pole_points(heat, 0.3)
        assert [(p.cell_x, p.cell_y) for p in poles] == [(5, 5)]

    def test_two_blobs_two_poles(self):
        heat = np.zeros((1, 10, 10))
        heat[0, 1, 1] = 0.8
        heat[0, 7, 8] = 0.6
        poles = extract_pole_points(heat, 0.3)
        assert {(p.cell_x, p.cell_y, p.score) for p in poles} == \
            {(1, 1, 0.8), (8, 7, 0.6)}

    def test_merged_blob_yields_one_pole(self):
        # two peaks bridged above threshold collapse to one component
        heat = np.zeros((1, 5, 9))
        heat[0, 2, 1:8] = 0.5
        heat[0, 2, 2] = 0.8
        heat[0, 2, 6] = 0.7
        poles = extract_pole_points(heat, 0.3)
        assert poles == [PolePoint(0, 2, 2, 0.8)]

    def test_peak_tie_breaks_to_smallest_row_col(self):
        heat = np.zeros((1, 6, 6))
        heat[0, 2, 2] = heat[0, 2, 3] = heat[0, 3, 2] = 0.5
        poles = extract_pole_points(heat, 0.3)
        assert poles == [PolePoint(0, 2, 2, 0.5)]

    def test_channels_are_independent(self):
        heat = np.zeros((2, 6, 6))
        heat[0, 1, 1] = 0.9
        heat[1, 1, 1] = 0.8
        poles = extract_pole_points(heat, 0.3)
        assert [(p.class_id, p.cell_x, p.cell_y) for p in poles] == \
            [(0, 1, 1), (1, 1, 1)]

    def test_no_cap_on_count(self):
        heat = np.zeros((1, 20, 20))
        heat[0, ::2, ::2] = 0.5  # 100 isolated cells
        assert len(extract_pole_points(heat, 0.3)) == 100


class TestTopkExtract:
    def test_zero_background_yields_nothing(self):
        assert topk_extract(np.zeros((2, 8, 8)), 10) == []

    def test_takes_k_highest_local_maxima(self):
        heat = np.zeros((1, 10, 10))
        for i, v in enumerate([0.9, 0.8, 0.7, 0.6, 0.5]):
            heat[0, 1, 2 * i + 1] = v
        poles = topk_extract(heat, 3)
        assert [p.score for p in poles] == [0.9, 0.8, 0.7]

    def test_k_larger_than_candidates(self):
        heat = np.zeros((1, 8, 8))
        heat[0, 2, 2] = 0.4
        heat[0, 6, 6] = 0.6
        poles = topk_extract(heat, 100)
        assert len(poles) == 2
        assert poles[0].score == 0.6

    def test_non_maximum_cells_excluded(self):
        heat = np.zeros((1, 8, 8))
        heat[0, 3, 3] = 0.9
        heat[0, 3, 4] = 0.5  # adjacent to a higher cell
        heat[0, 3, 6] = 0.4
        poles = topk_extract(heat, 10)
        assert {(p.cell_x, p.cell_y) for p in poles} == {(3, 3), (6, 3)}

    def test_plateau_ties_break_by_scan_order(self):
        heat = np.zeros((2, 6, 6))
        heat[1, 2, 2] = 0.5
        heat[0, 4, 4] = 0.5
        poles = topk_extract(heat, 1)
        assert poles[0].class_id == 0  # channel before row/col

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            topk_extract(np.zeros((1, 4, 4)), 0)


class TestDecoding:
    def _planes(self, cfg, cells):
        rho = np.zeros((cfg.grid_h, cfg.grid_w))
        t1 = np.zeros_like(rho)
        t2 = np.zeros_like(rho)
        for (cx, cy), vals in cells.items():
            rho[cy, cx], t1[cy, cx], t2[cy, cx] = vals
        return rho, t1, t2

    def test_decode_places_pole_at_cell_center(self):
        cfg = GridConfig(64, 64, 4)
        rho, t1, t2 = self._planes(cfg, {(3, 2): (1.5, 0.5, 2.0)})
        result = decode_poles([PolePoint(0, 3, 2, 0.9)], rho, t1, t2, cfg)
        assert len(result.detections) == 1
        assert result.detections.score.tolist() == [0.9]
        expected = polar_to_quad(PolarBox(Point2(14.0, 10.0), 6.0, 0.5, 2.0))
        np.testing.assert_allclose(result.detections.corners[0], expected.corners)

    def test_radius_rescaled_by_stride(self):
        cfg = GridConfig(128, 128, 8)
        rho, t1, t2 = self._planes(cfg, {(1, 1): (2.0, 0.4, 1.9)})
        result = decode_poles([PolePoint(0, 1, 1, 0.5)], rho, t1, t2, cfg)
        back = quad_to_polar(QuadBox(result.detections.corners[0]))
        assert back.rho == pytest.approx(16.0)

    def test_invalid_regression_dropped_and_counted(self):
        cfg = GridConfig(64, 64, 4)
        rho, t1, t2 = self._planes(cfg, {
            (1, 1): (0.0, 0.5, 2.0),   # nonpositive radius
            (2, 2): (1.0, 2.0, 0.5),   # angles out of order
            (3, 3): (1.0, 0.5, 0.5),   # angles equal
            (4, 4): (1.0, 0.5, 2.0),   # fine
        })
        poles = [PolePoint(0, i, i, 0.5) for i in (1, 2, 3, 4)]
        result = decode_poles(poles, rho, t1, t2, cfg)
        assert result.dropped_invalid == 3
        assert len(result.detections) == 1
        assert result.detections.corners[0].mean(axis=0) == pytest.approx((18.0, 18.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_pole_reference_bit_for_bit(self, dtype, seed):
        rng = np.random.default_rng(seed)
        cfg = GridConfig(64, 48, 4, num_classes=3)
        shape = (cfg.grid_h, cfg.grid_w)
        # about a third of the radii are <= 0 (some exactly 0) and about
        # half of the angle pairs are out of order or equal
        rho = rng.uniform(-2.0, 4.0, shape).astype(dtype)
        rho[rng.random(shape) < 0.1] = 0.0
        t1 = rng.uniform(0.0, math.pi, shape).astype(dtype)
        t2 = rng.uniform(0.0, math.pi, shape).astype(dtype)
        equal = rng.random(shape) < 0.1
        t2[equal] = t1[equal]
        cells = rng.choice(cfg.grid_h * cfg.grid_w, size=60, replace=False)
        poles = [PolePoint(int(rng.integers(3)), int(c % cfg.grid_w),
                           int(c // cfg.grid_w), float(rng.random()))
                 for c in cells]
        result = decode_poles(poles, rho, t1, t2, cfg)
        expected, dropped = decode_poles_reference(poles, rho, t1, t2, cfg.stride)
        assert 0 < dropped < len(poles)
        assert result.dropped_invalid == dropped
        dets = result.detections
        assert len(dets) == len(expected)
        assert dets.corners.dtype == np.float64
        for k, (corners, class_id, score) in enumerate(expected):
            assert dets.corners[k].tobytes() == corners.tobytes()
            assert dets.class_id[k] == class_id
            assert dets.score[k] == score

    def test_empty_pole_list(self):
        cfg = GridConfig(64, 64, 4)
        plane = np.ones((16, 16), dtype=np.float32)
        result = decode_poles([], plane, plane, plane, cfg)
        assert len(result.detections) == 0 and result.dropped_invalid == 0
        assert result.detections.corners.shape == (0, 4, 2)
        assert decode_poles_reference([], plane, plane, plane, 4) == ([], 0)

    def test_nan_radius_is_not_dropped_and_raises(self):
        cfg = GridConfig(64, 64, 4)
        rho, t1, t2 = self._planes(cfg, {(1, 1): (1.0, 0.5, 2.0),
                                         (2, 2): (math.nan, 0.5, 2.0)})
        poles = [PolePoint(0, 1, 1, 0.5), PolePoint(0, 2, 2, 0.5)]
        with pytest.raises(ValueError, match="finite"):
            decode_poles(poles, rho, t1, t2, cfg)
        with pytest.raises(ValueError, match="finite"):
            decode_poles_reference(poles, rho, t1, t2, cfg.stride)

    def test_plane_shape_mismatch_rejected(self):
        cfg = GridConfig(64, 64, 4)
        good = np.zeros((16, 16))
        with pytest.raises(ShapeError):
            decode_poles([], good, good, np.zeros((8, 8)), cfg)

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(21)
        cfg = GridConfig(64, 64, 4, num_classes=2)
        for _ in range(20):
            boxes = []
            cells = set()
            while len(boxes) < 3:
                x, y = rng.uniform(8, 56, 2)
                cell = (int(x // 4), int(y // 4))
                if cell in cells:
                    continue
                cells.add(cell)
                t1 = rng.uniform(0.2, 1.2)
                boxes.append(PolarBox(Point2(x, y), rng.uniform(3, 8), t1,
                                      t1 + rng.uniform(0.5, 1.5),
                                      int(rng.integers(2))))
            sample = encode_regression(boxes, cfg)
            result = decode_poles(extract_pole_points(sample.heatmap, 0.3),
                                  sample.rho, sample.theta1, sample.theta2, cfg)
            dets = result.detections
            assert len(dets) == 3
            assert result.dropped_invalid == 0
            centers = dets.corners.mean(axis=1)
            for box in boxes:
                best = int(np.argmin(np.hypot(centers[:, 0] - box.pole.x,
                                              centers[:, 1] - box.pole.y)))
                back = quad_to_polar(QuadBox(dets.corners[best]))
                assert dets.class_id[best] == box.class_id
                # pole recovered to the cell center, radius and angles exactly
                assert abs(back.pole.x - box.pole.x) <= 2.0
                assert abs(back.pole.y - box.pole.y) <= 2.0
                assert back.rho == pytest.approx(box.rho, abs=1e-9)
                assert back.theta1 == pytest.approx(box.theta1, abs=1e-9)
                assert back.theta2 == pytest.approx(box.theta2, abs=1e-9)
