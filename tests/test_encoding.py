import math

import numpy as np
import pytest

from polardet import cli
from polardet.encoding import GridConfig, TRUNCATION_SIGMAS, encode_regression
from polardet.errors import (CellCollision, DegenerateBox, OutOfBounds,
                             PolarDetError, UnknownClass)
from polardet.formats import parse_annotations
from polardet.geometry import Point2, PolarBox
from polardet.synthdata import SceneSpec, write_dataset, write_pgm

from oracles import encode_records_reference

TARGET_FIELDS = ("heatmap", "rho", "theta1", "theta2", "pole_mask")


def make_box(x, y, rho=6.0, t1=0.5, t2=2.0, class_id=0):
    return PolarBox(Point2(x, y), rho, t1, t2, class_id)


def pole_cell(pole, cfg):
    ((_class_id, cx, cy),) = encode_regression([make_box(*pole)], cfg).pole_cells
    return cx, cy


def gaussian_heatmap(boxes, cfg):
    return encode_regression(boxes, cfg).heatmap


def reference_heatmap(cfg, entries):
    """Independent render: full-grid formula, truncated at 3 sigma, max-merge.

    entries: (class_id, cell_x, cell_y, sigma_grid_units)
    """
    heat = np.zeros((cfg.num_classes, cfg.grid_h, cfg.grid_w))
    gx, gy = np.meshgrid(np.arange(cfg.grid_w), np.arange(cfg.grid_h))
    for class_id, cx, cy, sigma in entries:
        r2 = (gx - cx) ** 2 + (gy - cy) ** 2
        kernel = np.exp(-r2 / (2.0 * sigma * sigma))
        kernel[r2 > (TRUNCATION_SIGMAS * sigma) ** 2] = 0.0
        heat[class_id] = np.maximum(heat[class_id], kernel)
    return heat


def rect_polar(cx, cy, w, h, phi=0.0, class_id=0):
    """PolarBox of a w x h rectangle; mirrors the closed form used elsewhere."""
    rho = math.hypot(w, h) / 2.0
    beta = math.atan2(h, w)
    t1, t2 = sorted(((beta + phi) % math.pi, (math.pi - beta + phi) % math.pi))
    return PolarBox(Point2(cx, cy), rho, t1, t2, class_id)


class TestGridConfig:
    def test_grid_dimensions(self):
        cfg = GridConfig(64, 32, stride=4, num_classes=3)
        assert cfg.grid_w == 16
        assert cfg.grid_h == 8

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            GridConfig(65, 64, stride=4)

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            GridConfig(64, 64, stride=0)


class TestPoleCell:
    def test_interior_point(self):
        cfg = GridConfig(64, 64, 4)
        assert pole_cell(Point2(10.0, 7.9), cfg) == (2, 1)

    def test_cell_boundary_belongs_to_next_cell(self):
        cfg = GridConfig(64, 64, 4)
        assert pole_cell(Point2(8.0, 4.0), cfg) == (2, 1)

    def test_last_pixel(self):
        cfg = GridConfig(64, 64, 4)
        assert pole_cell(Point2(63.999, 63.999), cfg) == (15, 15)

    def test_outside_raises(self):
        cfg = GridConfig(64, 64, 4)
        with pytest.raises(OutOfBounds):
            pole_cell(Point2(64.0, 10.0), cfg)
        with pytest.raises(OutOfBounds):
            pole_cell(Point2(10.0, -0.01), cfg)


class TestGaussianHeatmap:
    def test_peak_is_exactly_one(self):
        cfg = GridConfig(64, 64, 4)
        heat = gaussian_heatmap([rect_polar(33.0, 21.0, 12.0, 12.0)], cfg)
        assert heat[0, 5, 8] == 1.0
        assert heat.max() == 1.0

    def test_matches_full_grid_formula(self):
        # min side 12.8 px at stride 4 -> sigma 16/15 grid cells; the 3-sigma
        # cutoff (r^2 = 10.24) then sits between integer cell distances, away
        # from the truncation knife edge
        cfg = GridConfig(64, 64, 4)
        box = rect_polar(33.0, 21.0, 18.0, 12.8, phi=0.4)
        heat = gaussian_heatmap([box], cfg)
        expected = reference_heatmap(cfg, [(0, 8, 5, 12.8 / 12.0)])
        np.testing.assert_allclose(heat, expected, atol=1e-12)

    def test_neighbor_cell_value(self):
        cfg = GridConfig(64, 64, 4)
        heat = gaussian_heatmap([rect_polar(33.0, 21.0, 12.0, 12.0)], cfg)
        assert heat[0, 5, 9] == pytest.approx(math.exp(-0.5))
        assert heat[0, 6, 9] == pytest.approx(math.exp(-1.0))

    def test_truncated_beyond_three_sigma(self):
        cfg = GridConfig(64, 64, 4)
        heat = gaussian_heatmap([rect_polar(33.0, 21.0, 12.0, 12.0)], cfg)
        # 4 cells away with sigma 1: r2 = 16 > 9, zeroed despite exp(-8) > 0
        assert heat[0, 5, 12] == 0.0
        nonzero = np.argwhere(heat[0] > 0)
        dist2 = ((nonzero - np.array([5, 8])) ** 2).sum(axis=1)
        assert dist2.max() <= 9

    def test_same_class_merge_is_elementwise_max(self):
        cfg = GridConfig(64, 64, 4)
        boxes = [rect_polar(17.0, 21.0, 12.8, 12.8),
                 rect_polar(33.0, 21.0, 25.6, 25.6)]
        heat = gaussian_heatmap(boxes, cfg)
        expected = reference_heatmap(cfg, [(0, 4, 5, 12.8 / 12.0),
                                           (0, 8, 5, 25.6 / 12.0)])
        np.testing.assert_allclose(heat, expected, atol=1e-12)
        assert heat[0, 5, 4] == 1.0
        assert heat[0, 5, 8] == 1.0

    def test_classes_render_to_their_own_channels(self):
        cfg = GridConfig(64, 64, 4, num_classes=2)
        boxes = [rect_polar(17.0, 21.0, 12.0, 12.0, class_id=0),
                 rect_polar(45.0, 41.0, 12.0, 12.0, class_id=1)]
        heat = gaussian_heatmap(boxes, cfg)
        assert heat[0, 5, 4] == 1.0
        assert heat[1, 5, 4] == 0.0
        assert heat[1, 10, 11] == 1.0
        assert heat[0, 10, 11] == 0.0

    def test_border_window_is_clipped_not_wrapped(self):
        cfg = GridConfig(64, 64, 4)
        heat = gaussian_heatmap([rect_polar(2.0, 2.0, 12.8, 12.8)], cfg)
        expected = reference_heatmap(cfg, [(0, 0, 0, 12.8 / 12.0)])
        np.testing.assert_allclose(heat, expected, atol=1e-12)

    def test_unknown_class_rejected(self):
        cfg = GridConfig(64, 64, 4, num_classes=1)
        with pytest.raises(ValueError):
            gaussian_heatmap([rect_polar(10, 10, 8, 8, class_id=1)], cfg)


class TestEncodeRegression:
    def test_values_at_pole_cell(self):
        cfg = GridConfig(64, 64, 4)
        box = make_box(33.0, 21.0, rho=6.0, t1=0.5, t2=2.0)
        sample = encode_regression([box], cfg)
        assert sample.rho[5, 8] == pytest.approx(1.5)  # 6 px / stride 4
        assert sample.theta1[5, 8] == 0.5
        assert sample.theta2[5, 8] == 2.0
        assert sample.pole_mask[5, 8]
        assert sample.pole_cells == [(0, 8, 5)]

    def test_planes_zero_away_from_poles(self):
        cfg = GridConfig(64, 64, 4)
        sample = encode_regression([make_box(33.0, 21.0)], cfg)
        rho = sample.rho.copy()
        rho[5, 8] = 0.0
        assert not rho.any()
        assert sample.pole_mask.sum() == 1

    def test_two_boxes_two_cells(self):
        cfg = GridConfig(64, 64, 4, num_classes=2)
        a = make_box(10.0, 10.0, rho=4.0, class_id=0)
        b = make_box(40.0, 44.0, rho=8.0, class_id=1)
        sample = encode_regression([a, b], cfg)
        assert sample.rho[2, 2] == pytest.approx(1.0)
        assert sample.rho[11, 10] == pytest.approx(2.0)
        assert set(sample.pole_cells) == {(0, 2, 2), (1, 10, 11)}

    def test_same_cell_collision_names_both_boxes(self):
        cfg = GridConfig(64, 64, 4)
        with pytest.raises(CellCollision, match="0 and 1"):
            encode_regression([make_box(10.0, 10.0), make_box(11.0, 9.0)], cfg)

    def test_zero_length_side_rejected(self):
        cfg = GridConfig(64, 64, 4)
        with pytest.raises(DegenerateBox, match="zero-length side"):
            encode_regression([make_box(33.0, 21.0, t1=0.5, t2=0.5)], cfg)

    def test_empty_image(self):
        cfg = GridConfig(64, 32, 4, num_classes=2)
        sample = encode_regression([], cfg)
        assert sample.heatmap.shape == (2, 8, 16)
        assert not sample.heatmap.any() and not sample.pole_mask.any()
        assert sample.pole_cells == []

    def test_heatmap_consistent_with_standalone_render(self):
        cfg = GridConfig(64, 64, 4, num_classes=2)
        boxes = [rect_polar(17.0, 21.0, 12.0, 9.0, phi=1.0, class_id=0),
                 rect_polar(45.0, 41.0, 16.0, 10.0, phi=2.0, class_id=1)]
        sample = encode_regression(boxes, cfg)
        # min sides 9 and 10 px: sigma 0.75 and 5/6 cells
        expected = reference_heatmap(cfg, [(0, 4, 5, 0.75), (1, 11, 10, 10.0 / 12.0)])
        np.testing.assert_allclose(sample.heatmap, expected, rtol=0, atol=1e-12)


def _encode_both(data, size):
    """The training path's targets for a dataset directory, and the per-box
    reference's; each side is a list of targets or the error it raised."""
    names, image_ids = cli._load_dataset(data)
    records = [parse_annotations((data / "annotations" / f"{i}.txt").read_text()).records
               for i in image_ids]
    try:
        expected = encode_records_reference(records, names,
                                            GridConfig(size, size, 4, len(names)))
    except PolarDetError as exc:
        expected = exc
    try:
        got = [s.target for s in cli._encode_items(data, image_ids, names, 4)[0]]
    except PolarDetError as exc:
        got = exc
    return got, expected


def _assert_same_targets(got, expected):
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        return
    assert len(got) == len(expected)
    for sample, ref in zip(got, expected):
        for name in TARGET_FIELDS:
            a, b = getattr(sample, name), ref[name]
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert sample.pole_cells == ref["pole_cells"]


def _write_scenes(root, annotations, size=64, classes=("a", "b")):
    """A dataset of blank images with the given annotation texts."""
    (root / "images").mkdir(parents=True)
    (root / "annotations").mkdir()
    (root / "classes.txt").write_text("\n".join(classes) + "\n")
    for k, text in enumerate(annotations):
        write_pgm(root / "images" / f"img_{k:05d}.pgm", np.zeros((size, size)))
        (root / "annotations" / f"img_{k:05d}.txt").write_text(text)
    return root


def _square(cx, cy, half=4.0, class_name="a"):
    corners = [cx + half, cy + half, cx - half, cy + half,
               cx - half, cy - half, cx + half, cy - half]
    return " ".join(f"{v:.6f}" for v in corners) + f" {class_name} 0\n"


class TestDatasetEncoding:
    """The training path encodes every scene at once; it must give the
    per-box reference's targets bit for bit, and raise the same errors."""

    @pytest.mark.parametrize("spec, count, seed", [
        (SceneSpec(), 500, 7),
        (SceneSpec(width=256, height=256, num_classes=2, min_objects=45,
                   max_objects=45), 20, 7001),
    ], ids=["reference-500", "crowded-256"])
    def test_bitwise_equal_to_per_box_reference(self, tmp_path, spec, count, seed):
        write_dataset(tmp_path, spec, count, seed)
        got, expected = _encode_both(tmp_path, spec.width)
        assert not isinstance(expected, Exception)
        _assert_same_targets(got, expected)

    @pytest.mark.parametrize("annotations, error", [
        ([_square(20, 20), "10 10 20 10 30 10 40 10 a 0\n"], DegenerateBox),
        ([_square(20, 20), _square(66, 30)], OutOfBounds),
        ([_square(20, 20), _square(30, 30) + _square(10, 10) + _square(11, 9)],
         CellCollision),
        ([_square(20, 20), _square(30, 30, class_name="zzz")], UnknownClass),
        (["", _square(30, 30, class_name="b")], None),
        ([_square(2, 2, half=6.4), _square(62, 61, half=9.0, class_name="b")], None),
    ], ids=["degenerate", "out-of-bounds", "cell-collision", "unknown-class",
            "empty-annotation-file", "kernel-clipped-at-border"])
    def test_error_parity_with_per_box_reference(self, tmp_path, annotations, error):
        got, expected = _encode_both(_write_scenes(tmp_path, annotations), 64)
        if error is None:
            assert not isinstance(expected, Exception)
        else:
            assert isinstance(expected, error)
        _assert_same_targets(got, expected)
