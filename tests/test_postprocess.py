import math

import numpy as np
import pytest

from polardet.encoding import GridConfig, encode_regression
from polardet.errors import ShapeError
from polardet.geometry import Point2, PolarBox, QuadBox, polar_to_quad, quad_to_polar
from polardet.postprocess import Poles, decode_poles, extract_pole_points

from oracles import (decode_poles_reference, peak_scan_reference, scan_components,
                     target_planes)


def pole_rows(poles: Poles) -> list[tuple]:
    """(class, cell_x, cell_y, score) of each pole, in rank order."""
    return list(zip(poles.class_id.tolist(), poles.cell_x.tolist(),
                    poles.cell_y.tolist(), poles.score.tolist()))


def make_poles(rows) -> Poles:
    """A ``Poles`` array set from (class, cell_x, cell_y, score) rows."""
    table = np.array(rows, dtype=np.float64).reshape(-1, 4)
    class_id, cell_x, cell_y = table[:, :3].astype(np.intp).T
    return Poles(class_id, cell_y, cell_x, table[:, 3])


def touching_row_heatmap() -> np.ndarray:
    """The encoder's target heatmap for a row of 8 boxes of 9 x 13.5 px,
    short sides along x and 2 px apart, centred in a 128 x 128 image."""
    w, h, gap, size = 9.0, 13.5, 2.0, 128
    x0 = (size - (8 * w + 7 * gap)) / 2
    y = (size - h) / 2
    boxes = [quad_to_polar(QuadBox(np.array([[x, y], [x + w, y], [x + w, y + h],
                                             [x, y + h]])))
             for x in x0 + np.arange(8) * (w + gap)]
    return encode_regression(boxes, GridConfig(size, size, 4, 1)).heat[0]


class TestExtractPolePoints:
    def test_single_blob_peak(self):
        heat = np.zeros((1, 8, 8))
        heat[0, 3:6, 3:6] = 0.4
        heat[0, 4, 5] = 0.9
        poles = extract_pole_points(heat, 0.3)
        # the blob's peak ranks first; the flat shoulder's first cell, (3, 3),
        # lies outside the peak's 3x3 window, so it is a maximum of its own
        assert pole_rows(poles) == [(0, 5, 4, 0.9), (0, 3, 3, 0.4)]
        for field in (poles.class_id, poles.cell_y, poles.cell_x):
            assert field.dtype == np.intp
        assert poles.score.dtype == np.float64

    def test_sub_threshold_blob_ignored(self):
        heat = np.zeros((1, 8, 8))
        heat[0, 1, 1] = 0.29
        heat[0, 5, 5] = 0.31
        poles = extract_pole_points(heat, 0.3)
        assert [(x, y) for _c, x, y, _s in pole_rows(poles)] == [(5, 5)]

    def test_boundary_value_is_kept(self):
        heat = np.zeros((1, 1, 5))
        heat[0, 0, ::2] = [0.29, 0.3, 0.31]
        poles = extract_pole_points(heat, 0.3)
        assert pole_rows(poles) == [(0, 4, 0, 0.31), (0, 2, 0, 0.3)]

    def test_threshold_must_be_interior(self):
        for bad in (0.0, 1.0, -0.5, 2.0, math.nan):
            with pytest.raises(ValueError, match="threshold"):
                extract_pole_points(np.zeros((1, 2, 2)), bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_heatmap_rejected(self, value):
        heat = np.zeros((1, 4, 4))
        heat[0, 1, 1] = 0.9
        heat[0, 1, 2] = value
        with pytest.raises(ValueError, match="heatmap must be finite"):
            extract_pole_points(heat, 0.3)

    def test_two_blobs_two_poles(self):
        heat = np.zeros((1, 10, 10))
        heat[0, 1, 1] = 0.8
        heat[0, 7, 8] = 0.6
        poles = extract_pole_points(heat, 0.3)
        assert {(x, y, score) for _c, x, y, score in pole_rows(poles)} == \
            {(1, 1, 0.8), (8, 7, 0.6)}

    def test_bridged_peaks_yield_two_poles(self):
        # two peaks bridged above threshold keep one pole each
        heat = np.zeros((1, 5, 9))
        heat[0, 2, 1:8] = 0.5
        heat[0, 2, 2] = 0.8
        heat[0, 2, 6] = 0.7
        poles = extract_pole_points(heat, 0.3)
        assert pole_rows(poles) == [(0, 2, 2, 0.8), (0, 6, 2, 0.7)]

    def test_touching_row_keeps_one_pole_per_box(self):
        # the 8 Gaussians bridge above 0.3 into one 8-connected component,
        # yet each box's pole cell is a peak of 1
        heat = touching_row_heatmap()
        assert len(scan_components(heat[0] >= 0.3)) == 1
        poles = extract_pole_points(heat, 0.3)
        assert len(poles) == 8
        assert poles.score.tolist() == [1.0] * 8
        assert len(set(poles.cell_x.tolist())) == 8

    def test_peak_tie_breaks_to_smallest_row_col(self):
        heat = np.zeros((1, 6, 6))
        heat[0, 2, 2] = heat[0, 2, 3] = heat[0, 3, 2] = 0.5
        poles = extract_pole_points(heat, 0.3)
        assert pole_rows(poles) == [(0, 2, 2, 0.5)]

    def test_plateau_linked_through_a_later_cell_gives_two_poles(self):
        # (row 2, col 2) and (2, 4) touch only through (3, 3), after both
        heat = np.zeros((1, 6, 6))
        heat[0, 2, 2] = heat[0, 2, 4] = heat[0, 3, 3] = 0.5
        poles = extract_pole_points(heat, 0.3)
        assert pole_rows(poles) == [(0, 2, 2, 0.5), (0, 4, 2, 0.5)]

    def test_constant_plateau_gives_its_first_cell(self):
        poles = extract_pole_points(np.full((2, 64, 64), 0.5), 0.3)
        assert pole_rows(poles) == [(0, 0, 0, 0.5), (1, 0, 0, 0.5)]

    def test_channels_are_independent(self):
        heat = np.zeros((2, 6, 6))
        heat[0, 1, 1] = 0.9
        heat[1, 1, 1] = 0.8
        poles = extract_pole_points(heat, 0.3)
        assert [(c, x, y) for c, x, y, _s in pole_rows(poles)] == \
            [(0, 1, 1), (1, 1, 1)]

    def test_ranked_by_score_then_class_row_col(self):
        heat = np.zeros((2, 8, 8))
        heat[1, 0, 6] = 0.4
        heat[0, 6, 0] = 0.7
        heat[1, 3, 3] = 0.7
        heat[0, 0, 3] = 0.4
        poles = extract_pole_points(heat, 0.3)
        assert pole_rows(poles) == [(0, 0, 6, 0.7), (1, 3, 3, 0.7),
                                    (0, 3, 0, 0.4), (1, 6, 0, 0.4)]

    def test_no_cap_on_count(self):
        heat = np.zeros((1, 20, 20))
        heat[0, ::2, ::2] = 0.5  # 100 isolated cells
        assert len(extract_pole_points(heat, 0.3)) == 100

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scan_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        smooth = rng.random((3, 17, 23))
        # steps of 0.1 and 0.25 make plateaus of equal neighbours
        for heat in (smooth, np.round(smooth * 10.0) / 10.0,
                     np.round(smooth * 4.0) / 4.0):
            for threshold, k in ((0.3, None), (0.05, None), (0.3, 7)):
                poles = extract_pole_points(heat, threshold, k)
                got = list(zip(poles.class_id.tolist(), poles.cell_y.tolist(),
                               poles.cell_x.tolist(), poles.score.tolist()))
                assert got == peak_scan_reference(heat, threshold, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_component_peaks_are_poles(self, seed):
        # each 8-connected component's arg-max (ties to the smallest
        # (row, col)) is a pole, so no object a component found is lost
        rng = np.random.default_rng(10 + seed)
        heat = np.round(rng.random((2, 20, 20)) * 10.0) / 10.0
        poles = extract_pole_points(heat, 0.3)
        found = set(zip(poles.class_id.tolist(), poles.cell_y.tolist(),
                        poles.cell_x.tolist()))
        for c, channel in enumerate(heat):
            for cells in scan_components(channel >= 0.3):
                r, col = max(cells, key=lambda rc: (channel[rc], -rc[0], -rc[1]))
                assert (c, r, col) in found


class TestTopkExtract:
    def test_zero_background_yields_nothing(self):
        assert len(extract_pole_points(np.zeros((2, 8, 8)), 0.3, k=10)) == 0

    def test_takes_k_highest_local_maxima(self):
        heat = np.zeros((1, 10, 10))
        for i, v in enumerate([0.9, 0.8, 0.7, 0.6, 0.5]):
            heat[0, 1, 2 * i + 1] = v
        poles = extract_pole_points(heat, 0.3, k=3)
        assert poles.score.tolist() == [0.9, 0.8, 0.7]

    def test_k_larger_than_candidates(self):
        heat = np.zeros((1, 8, 8))
        heat[0, 2, 2] = 0.4
        heat[0, 6, 6] = 0.6
        poles = extract_pole_points(heat, 0.3, k=100)
        assert len(poles) == 2
        assert poles.score[0] == 0.6

    def test_non_maximum_cells_excluded(self):
        heat = np.zeros((1, 8, 8))
        heat[0, 3, 3] = 0.9
        heat[0, 3, 4] = 0.5  # adjacent to a higher cell
        heat[0, 3, 6] = 0.4
        poles = extract_pole_points(heat, 0.3, k=10)
        assert {(x, y) for _c, x, y, _s in pole_rows(poles)} == {(3, 3), (6, 3)}

    def test_plateau_ties_break_by_scan_order(self):
        heat = np.zeros((2, 6, 6))
        heat[1, 2, 2] = 0.5
        heat[0, 4, 4] = 0.5
        poles = extract_pole_points(heat, 0.3, k=1)
        assert poles.class_id.tolist() == [0]  # channel before row/col

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            extract_pole_points(np.zeros((1, 4, 4)), 0.3, k=0)


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
        result = decode_poles(make_poles([(0, 3, 2, 0.9)]), rho, t1, t2, cfg)
        assert len(result.detections) == 1
        assert result.detections.score.tolist() == [0.9]
        expected = polar_to_quad(PolarBox(Point2(14.0, 10.0), 6.0, 0.5, 2.0))
        np.testing.assert_allclose(result.detections.corners[0], expected.corners)

    def test_radius_rescaled_by_stride(self):
        cfg = GridConfig(128, 128, 8)
        rho, t1, t2 = self._planes(cfg, {(1, 1): (2.0, 0.4, 1.9)})
        result = decode_poles(make_poles([(0, 1, 1, 0.5)]), rho, t1, t2, cfg)
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
        poles = make_poles([(0, i, i, 0.5) for i in (1, 2, 3, 4)])
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
        poles = make_poles([(rng.integers(3), c % cfg.grid_w, c // cfg.grid_w,
                             rng.random()) for c in cells])
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
        result = decode_poles(make_poles([]), plane, plane, plane, cfg)
        assert len(result.detections) == 0 and result.dropped_invalid == 0
        assert result.detections.corners.shape == (0, 4, 2)
        empty = make_poles([])
        assert decode_poles_reference(empty, plane, plane, plane, 4) == ([], 0)

    def test_nan_radius_is_not_dropped_and_raises(self):
        cfg = GridConfig(64, 64, 4)
        rho, t1, t2 = self._planes(cfg, {(1, 1): (1.0, 0.5, 2.0),
                                         (2, 2): (math.nan, 0.5, 2.0)})
        poles = make_poles([(0, 1, 1, 0.5), (0, 2, 2, 0.5)])
        with pytest.raises(ValueError, match="finite"):
            decode_poles(poles, rho, t1, t2, cfg)
        with pytest.raises(ValueError, match="finite"):
            decode_poles_reference(poles, rho, t1, t2, cfg.stride)

    def test_plane_shape_mismatch_rejected(self):
        cfg = GridConfig(64, 64, 4)
        good = np.zeros((16, 16))
        with pytest.raises(ShapeError):
            decode_poles(make_poles([]), good, good, np.zeros((8, 8)), cfg)

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
            targets = encode_regression(boxes, cfg)
            result = decode_poles(extract_pole_points(targets.heat[0], 0.3),
                                  *target_planes(targets), cfg)
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
