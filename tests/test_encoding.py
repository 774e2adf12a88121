import math

import numpy as np
import pytest

from polardet import cli
from polardet.encoding import (BoxArrays, GridConfig, TRUNCATION_SIGMAS, Targets,
                               _render_heatmaps, encode_boxes, encode_regression)
from polardet.errors import (CellCollision, DegenerateBox, OutOfBounds,
                             PolarDetError, UnknownClass)
from polardet.formats import parse_annotations
from polardet.geometry import quads_to_polar
from polardet.synthdata import SceneSpec, write_dataset, write_pgm

from oracles import annotation_rows, encode_records_reference, render_heatmaps_reference
from test_toynet import encode_scenes


def make_box(x, y, rho=6.0, t1=0.5, t2=2.0, class_id=0):
    """One (class_id, x, y, rho, theta1, theta2) box row."""
    return class_id, x, y, rho, t1, t2


def pole_cell(pole, cfg):
    ((cx, cy),) = encode_scenes([[make_box(*pole)]], cfg).cell.tolist()
    return cx, cy


def gaussian_heatmap(boxes, cfg):
    return encode_scenes([boxes], cfg).heat[0]


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
    """Box row of a w x h rectangle; mirrors the closed form used elsewhere."""
    rho = math.hypot(w, h) / 2.0
    beta = math.atan2(h, w)
    t1, t2 = sorted(((beta + phi) % math.pi, (math.pi - beta + phi) % math.pi))
    return make_box(cx, cy, rho, t1, t2, class_id)


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
        assert pole_cell((10.0, 7.9), cfg) == (2, 1)

    def test_cell_boundary_belongs_to_next_cell(self):
        cfg = GridConfig(64, 64, 4)
        assert pole_cell((8.0, 4.0), cfg) == (2, 1)

    def test_last_pixel(self):
        cfg = GridConfig(64, 64, 4)
        assert pole_cell((63.999, 63.999), cfg) == (15, 15)

    def test_outside_raises(self):
        cfg = GridConfig(64, 64, 4)
        with pytest.raises(OutOfBounds):
            pole_cell((64.0, 10.0), cfg)
        with pytest.raises(OutOfBounds):
            pole_cell((10.0, -0.01), cfg)


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
        targets = encode_scenes([[box]], cfg)
        assert targets.first.tolist() == [0, 1]
        assert targets.class_id.tolist() == [0]
        assert targets.cell.tolist() == [[8, 5]]
        assert targets.value.tolist() == [[1.5, 0.5, 2.0]]  # 6 px / stride 4

    def test_two_boxes_two_cells(self):
        cfg = GridConfig(64, 64, 4, num_classes=2)
        a = make_box(10.0, 10.0, rho=4.0, class_id=0)
        b = make_box(40.0, 44.0, rho=8.0, class_id=1)
        targets = encode_scenes([[a, b]], cfg)
        assert targets.class_id.tolist() == [0, 1]
        assert targets.cell.tolist() == [[2, 2], [10, 11]]
        assert targets.value[:, 0].tolist() == [1.0, 2.0]

    def test_same_cell_collision_names_both_boxes(self):
        cfg = GridConfig(64, 64, 4)
        with pytest.raises(CellCollision, match="0 and 1"):
            encode_scenes([[make_box(10.0, 10.0), make_box(11.0, 9.0)]], cfg)

    def test_zero_length_side_rejected(self):
        cfg = GridConfig(64, 64, 4)
        with pytest.raises(DegenerateBox, match="zero-length side"):
            encode_scenes([[make_box(33.0, 21.0, t1=0.5, t2=0.5)]], cfg)

    def test_empty_image(self):
        cfg = GridConfig(64, 32, 4, num_classes=2)
        targets = encode_scenes([[]], cfg)
        assert targets.heat.shape == (1, 2, 8, 16)
        assert not targets.heat.any()
        assert targets.first.tolist() == [0, 0]
        assert targets.class_id.shape == (0,)
        assert targets.cell.shape == (0, 2) and targets.value.shape == (0, 3)

    def test_one_image_call_is_encode_boxes(self):
        cfg = GridConfig(64, 64, 4, num_classes=2)
        boxes = [make_box(10.0, 10.0, rho=4.0), make_box(40.0, 44.0, rho=8.0, class_id=1)]
        rows = np.array(boxes)
        got = encode_regression(rows[:, 0].astype(np.intp), rows[:, 1:3], rows[:, 3],
                                rows[:, 4:], cfg)
        for have, want in zip(got, encode_scenes([boxes], cfg)):
            assert np.array_equal(have, want)

    def test_heatmap_consistent_with_standalone_render(self):
        cfg = GridConfig(64, 64, 4, num_classes=2)
        boxes = [rect_polar(17.0, 21.0, 12.0, 9.0, phi=1.0, class_id=0),
                 rect_polar(45.0, 41.0, 16.0, 10.0, phi=2.0, class_id=1)]
        heat = gaussian_heatmap(boxes, cfg)
        # min sides 9 and 10 px: sigma 0.75 and 5/6 cells
        expected = reference_heatmap(cfg, [(0, 4, 5, 0.75), (1, 11, 10, 10.0 / 12.0)])
        np.testing.assert_allclose(heat, expected, rtol=0, atol=1e-12)


def _encode_both(data, size):
    """The training path's targets for a dataset directory, and the per-box
    reference's; each side is the targets or the error it raised."""
    names, image_ids = cli._load_dataset(data)
    records = [annotation_rows(parse_annotations(
        (data / "annotations" / f"{i}.txt").read_text())) for i in image_ids]
    try:
        expected = encode_records_reference(records, names,
                                            GridConfig(size, size, 4, len(names)))
    except PolarDetError as exc:
        expected = exc
    try:
        got = cli._encode_items(data, image_ids, names, 4)[1]
    except PolarDetError as exc:
        got = exc
    return got, expected


def _assert_same_targets(got, expected):
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        return
    heat = np.stack([ref["heatmap"] for ref in expected])
    assert (got.heat.dtype, got.heat.shape) == (heat.dtype, heat.shape)
    assert got.heat.tobytes() == heat.tobytes()
    assert got.first[-1] == len(got.class_id) == len(got.cell) == len(got.value)
    for k, ref in enumerate(expected):
        rows = slice(got.first[k], got.first[k + 1])
        cells = [tuple(r) for r in zip(got.class_id[rows].tolist(),
                                       *got.cell[rows].T.tolist())]
        assert cells == ref["pole_cells"]
        assert np.count_nonzero(ref["pole_mask"]) == len(cells)
        _class_id, cx, cy = np.array(cells, dtype=np.intp).reshape(-1, 3).T
        planes = np.stack([ref[name][cy, cx] for name in ("rho", "theta1", "theta2")],
                          axis=1)
        assert got.value[rows].tobytes() == planes.tobytes()


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
        # a zero-area quad is dropped by the parser, before any encoding
        ([_square(20, 20), "10 10 20 10 30 10 40 10 a 0\n"], None),
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


class TestHeatmapScatter:
    """Window samples are max-merged per cell by sorting and a segmented
    max; the bytes must be those of an ``np.maximum.at`` scatter."""

    @staticmethod
    def _assert_same_as_maximum_at(boxes, num_images, cfg):
        cells = (boxes.pole // cfg.stride).astype(np.intp)
        got = _render_heatmaps(boxes, cells, num_images, cfg)
        expected = render_heatmaps_reference(boxes, cells, num_images, cfg)
        assert got.tobytes() == expected.tobytes()
        return got

    def test_reference_scenes(self, tmp_path):
        ids = write_dataset(tmp_path, SceneSpec(), 500, 7)
        names, image_ids = cli._load_dataset(tmp_path)
        gt = cli._read_ground_truth(tmp_path, image_ids, names)
        boxes = BoxArrays(gt.image, gt.class_id, *quads_to_polar(gt.corners))
        heat = self._assert_same_as_maximum_at(boxes, len(ids),
                                               GridConfig(64, 64, 4, len(names)))
        assert np.count_nonzero(heat == 1.0) == len(gt)

    def test_overlapping_windows_in_adjacent_cells(self):
        # three class-0 boxes of two sizes in neighbouring cells of image 0,
        # a class-1 box on one of those cells, an empty image 1 and a box
        # clipped by the border in image 2
        cfg = GridConfig(64, 64, 4, num_classes=2)
        rows = [(0, 0, 22.0, 22.0, 9.0), (0, 0, 26.0, 22.0, 6.0),
                (0, 0, 22.0, 26.0, 9.0), (0, 1, 26.0, 22.0, 7.0),
                (2, 0, 1.0, 62.0, 8.0)]
        image, class_id, x, y, rho = map(np.array, zip(*rows))
        boxes = BoxArrays(image, class_id, np.column_stack([x, y]), rho,
                          np.tile([0.6, 2.1], (len(rows), 1)))
        heat = self._assert_same_as_maximum_at(boxes, 3, cfg)
        assert not heat[1].any()
        # the windows overlap: some cells hold the larger of two Gaussians
        assert heat[0, 0, 5, 5] == heat[0, 0, 5, 6] == heat[0, 0, 6, 5] == 1.0
        assert heat[0, 1, 5, 6] == 1.0

    def test_no_boxes(self):
        cfg = GridConfig(16, 16, 4, num_classes=2)
        none = BoxArrays(np.zeros(0, np.intp), np.zeros(0, np.intp),
                         np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)))
        heat = self._assert_same_as_maximum_at(none, 2, cfg)
        assert heat.shape == (2, 2, 4, 4) and not heat.any()


def three_image_targets():
    """Image 0 has two poles, image 1 none and image 2 one."""
    cfg = GridConfig(64, 64, 4, num_classes=2)
    return encode_scenes([[make_box(10.0, 10.0, rho=4.0),
                           make_box(40.0, 44.0, rho=8.0, class_id=1)],
                          [],
                          [make_box(21.0, 33.0, rho=5.0, t1=0.7, t2=1.9)]], cfg)


class TestTargets:
    def test_rows_run_image_major_in_input_order(self):
        cfg = GridConfig(64, 64, 4)
        poles = [(2, (10.0, 10.0)), (0, (40.0, 44.0)), (2, (21.0, 33.0)),
                 (0, (5.0, 50.0))]
        image, pole = zip(*poles)
        arrays = BoxArrays(np.array(image), np.zeros(4, dtype=np.intp),
                           np.array(pole), np.arange(4.0, 8.0),
                           np.tile([0.5, 2.0], (4, 1)))
        targets = encode_boxes(arrays, 3, cfg)
        assert targets.first.tolist() == [0, 2, 2, 4]
        assert targets.cell.tolist() == [[10, 11], [1, 12], [2, 2], [5, 8]]
        assert targets.value[:, 0].tolist() == [1.25, 1.75, 1.0, 1.5]
        assert targets.heat[0, 0, 11, 10] == targets.heat[2, 0, 2, 2] == 1.0
        assert not targets.heat[1].any()

    def test_take_gathers_images_in_order_with_repeats(self):
        targets = three_image_targets()
        got = targets.take([2, 0, 2, 1])
        assert got.first.tolist() == [0, 1, 3, 4, 4]
        assert got.heat.tobytes() == targets.heat[[2, 0, 2, 1]].tobytes()
        rows = [2, 0, 1, 2]
        assert got.class_id.tolist() == targets.class_id[rows].tolist()
        assert got.cell.tolist() == targets.cell[rows].tolist()
        assert got.value.tobytes() == targets.value[rows].tobytes()

    def test_take_of_images_without_poles(self):
        targets = three_image_targets()
        got = targets.take([1, 1])
        assert got.first.tolist() == [0, 0, 0]
        assert got.heat.shape == (2, 2, 16, 16) and not got.heat.any()
        assert got.cell.shape == (0, 2) and got.value.shape == (0, 3)
        none = targets.take([])
        assert none.heat.shape == (0, 2, 16, 16) and none.first.tolist() == [0]

    def test_take_of_every_image_is_the_targets(self):
        targets = three_image_targets()
        got = targets.take(np.arange(3))
        assert isinstance(got, Targets)
        for a, b in zip(got, targets):
            assert a.tolist() == b.tolist()
