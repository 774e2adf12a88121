import numpy as np
import pytest

from polardet.encoding import GridConfig, encode_regression
from polardet.errors import PlacementError
from polardet.formats import parse_annotations
from polardet.geometry import quad_to_polar, rotated_iou, signed_area
from polardet.synthdata import (SceneSpec, class_names, generate_dataset,
                                generate_scene, read_pgm, write_dataset,
                                write_pgm)

from oracles import read_pgm_reference


class TestSceneSpec:
    def test_defaults_are_valid(self):
        spec = SceneSpec()
        assert spec.width == 64
        assert spec.min_objects <= spec.max_objects

    def test_bad_object_range_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(min_objects=3, max_objects=2)
        with pytest.raises(ValueError):
            SceneSpec(min_objects=0, max_objects=0)

    def test_tiny_sides_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(side_range=(1.0, 5.0))

    def test_class_intensities_increase_and_stay_in_range(self):
        spec = SceneSpec(num_classes=4)
        vals = [spec.class_intensity(c) for c in range(4)]
        assert vals == sorted(vals)
        assert all(0.0 < v <= 1.0 for v in vals)
        assert min(vals) > spec.background + 0.2


class TestGenerateScene:
    def test_deterministic_given_seed(self):
        spec = SceneSpec()
        img1, boxes1 = generate_scene(spec, np.random.default_rng(5))
        img2, boxes2 = generate_scene(spec, np.random.default_rng(5))
        np.testing.assert_array_equal(img1, img2)
        assert len(boxes1) == len(boxes2)
        for a, b in zip(boxes1, boxes2):
            np.testing.assert_array_equal(a.corners, b.corners)

    def test_object_count_in_range(self):
        spec = SceneSpec(min_objects=2, max_objects=3)
        for seed in range(30):
            _, boxes = generate_scene(spec, np.random.default_rng(seed))
            assert 2 <= len(boxes) <= 3

    def test_boxes_inside_frame(self):
        spec = SceneSpec()
        for seed in range(50):
            _, boxes = generate_scene(spec, np.random.default_rng(seed))
            for box in boxes:
                assert box.corners.min() >= 0.0
                assert box.corners[:, 0].max() <= spec.width
                assert box.corners[:, 1].max() <= spec.height

    def test_corners_counterclockwise(self):
        _, boxes = generate_scene(SceneSpec(), np.random.default_rng(9))
        for box in boxes:
            assert signed_area(box.corners) > 0.0

    def test_centers_fall_in_distinct_pole_cells(self):
        spec = SceneSpec(min_objects=3, max_objects=3)
        for seed in range(50):
            _, boxes = generate_scene(spec, np.random.default_rng(seed))
            cells = {tuple((box.corners.mean(axis=0) // spec.pole_stride).astype(int))
                     for box in boxes}
            assert len(cells) == len(boxes)

    def test_encodes_without_collision(self):
        spec = SceneSpec(min_objects=3, max_objects=3)
        cfg = GridConfig(spec.width, spec.height, spec.pole_stride,
                         spec.num_classes)
        for seed in range(30):
            _, boxes = generate_scene(spec, np.random.default_rng(seed))
            encode_regression([quad_to_polar(b) for b in boxes], cfg)

    def test_objects_barely_overlap(self):
        spec = SceneSpec(min_objects=3, max_objects=3)
        for seed in range(30):
            _, boxes = generate_scene(spec, np.random.default_rng(seed))
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert rotated_iou(boxes[i], boxes[j]) < 0.05

    def test_rasterized_intensity_at_center(self):
        spec = SceneSpec(noise_sigma=0.0)
        img, boxes = generate_scene(spec, np.random.default_rng(4))
        for box in boxes:
            cx, cy = box.corners.mean(axis=0)
            assert img[int(cy), int(cx)] == pytest.approx(
                spec.class_intensity(box.class_id))

    def test_background_far_from_boxes(self):
        spec = SceneSpec(noise_sigma=0.0, min_objects=1, max_objects=1)
        img, boxes = generate_scene(spec, np.random.default_rng(4))
        corner_vals = [img[0, 0], img[0, -1], img[-1, 0], img[-1, -1]]
        assert any(v == pytest.approx(spec.background) for v in corner_vals)

    def test_values_clipped_to_unit_range(self):
        img, _ = generate_scene(SceneSpec(noise_sigma=0.3),
                                np.random.default_rng(7))
        assert img.min() >= 0.0
        assert img.max() <= 1.0

    def test_oversized_objects_raise(self):
        spec = SceneSpec(side_range=(40.0, 48.0), aspect_range=(1.0, 1.1))
        with pytest.raises(PlacementError):
            generate_scene(spec, np.random.default_rng(0))

    def test_crowded_scene_truncates_not_fails(self):
        # 8 objects rarely fit; the scene keeps what it can place
        spec = SceneSpec(min_objects=1, max_objects=8, max_attempts=60)
        for seed in range(10):
            _, boxes = generate_scene(spec, np.random.default_rng(seed))
            assert len(boxes) >= 1


class TestGenerateDataset:
    def test_ids_and_determinism(self):
        spec = SceneSpec()
        run1 = list(generate_dataset(spec, 5, seed=3))
        run2 = list(generate_dataset(spec, 5, seed=3))
        assert [r[0] for r in run1] == ["img_00000", "img_00001", "img_00002",
                                        "img_00003", "img_00004"]
        for (_, img1, _), (_, img2, _) in zip(run1, run2):
            np.testing.assert_array_equal(img1, img2)

    def test_scenes_differ_across_indices(self):
        spec = SceneSpec()
        scenes = [img for _, img, _ in generate_dataset(spec, 4, seed=0)]
        assert not np.array_equal(scenes[0], scenes[1])

    def test_count_validation(self):
        with pytest.raises(ValueError):
            list(generate_dataset(SceneSpec(), 0, seed=0))


class TestPgmRoundTrip:
    def test_quantization_error_bounded(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (16, 24))
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        back = read_pgm(path) / 255.0
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_endpoints_survive(self, tmp_path):
        img = np.array([[0.0, 1.0], [0.25, 0.75]])
        path = tmp_path / "e.pgm"
        write_pgm(path, img)
        back = read_pgm(path) / 255.0
        assert back[0, 0] == 0.0
        assert back[0, 1] == 1.0

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "c.pgm"
        raster = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + raster)
        img = read_pgm(path) / 255.0
        assert img.shape == (2, 3)
        assert img[1, 2] == pytest.approx(5 / 255.0)

    def test_returns_the_stored_raster(self, tmp_path):
        path = tmp_path / "r.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 1, 127, 128, 254, 255]))
        img = read_pgm(path)
        assert img.dtype == np.uint8
        assert img.tolist() == [[0, 1, 127], [128, 254, 255]]

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1 2 3 4")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_wrong_depth_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError):
            read_pgm(path)


RASTER = bytes(range(40, 52))  # a 4x3 raster, then no trailing bytes

# header cases -> file bytes; the reader and the byte tokenizer must agree on
# each: the same raster bytes, or the same exception type
PGM_HEADERS = {
    "plain": b"P5\n4 3\n255\n" + RASTER,
    "comment-between-every-token": (b"# lead\nP5 # magic\n4 # w\n# x\n 3 #h\n"
                                    b"#\n255\n" + RASTER),
    "comment-right-after-magic": b"P5\n# after the magic\n4 3\n255\n" + RASTER,
    "comment-glued-to-magic": b"P5# glued\n4 3\n255\n" + RASTER,
    "comment-glued-to-width": b"P5\n4# w\n3\n255\n" + RASTER,
    "comment-glued-to-maxval": b"P5\n4 3\n255# m\n" + RASTER,
    "tabs": b"P5\t4\t3\t255\t" + RASTER,
    "vertical-tab-and-form-feed": b"P5\x0b4\x0c3\x0b255\x0c" + RASTER,
    "leading-whitespace": b" \r\n\tP5 4 3 255\n" + RASTER,
    "crlf": b"P5\r\n4 3\r\n255\r\n" + RASTER,
    "comment-runs-past-cr": b"P5 # c\r9 9 9\r\n4 3 255\n" + RASTER,
    "trailing-bytes": b"P5\n4 3\n255\n" + RASTER + b"extra",
    "plus-sign-and-underscore": b"P5\n+4 0_3\n255\n" + RASTER,
    "zero-size": b"P5\n0 0\n255\n",
    "zero-size-no-byte-after-maxval": b"P5\n0 0\n255",
    "p2": b"P2\n4 3\n255\n" + b" ".join(b"%d" % v for v in RASTER),
    "maxval-65535": b"P5\n4 3\n65535\n" + RASTER + RASTER,
    "maxval-token-bad": b"P5\n4 3\n2x5\n" + RASTER,
    "width-token-bad": b"P5\nfour 3\n255\n" + RASTER,
    "short-raster": b"P5\n4 3\n255\n" + RASTER[:-1],
    "header-cut-after-height": b"P5\n4 3",
    "comment-to-end-of-file": b"P5\n4 3 # no maxval",
    "empty": b"",
}


class TestPgmReaderEquivalence:
    @pytest.mark.parametrize("case", PGM_HEADERS)
    def test_same_raster_or_same_exception_as_byte_tokenizer(self, tmp_path, case):
        path = tmp_path / "x.pgm"
        path.write_bytes(PGM_HEADERS[case])
        try:
            want = read_pgm_reference(path)
        except Exception as exc:  # noqa: BLE001 - the type is the expectation
            with pytest.raises(type(exc)):
                read_pgm(path)
        else:
            got = read_pgm(path)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("blob, problem", [
        (b"P2\n4 3\n255\n" + RASTER, "not a binary PGM: magic b'P2'"),
        (b"P5\n4 3\n65535\n" + RASTER, "only 8-bit PGM supported, maxval=65535"),
        (b"P5\n4 x3\n255\n" + RASTER, "bad PGM height b'x3'"),
        (b"P5\n4 3\n255\n" + RASTER[:5], "raster has 5 of 12 bytes"),
        (b"P5\n4 3\n255", "raster has 0 of 12 bytes"),
        (b"", "not a binary PGM: magic b''"),
    ])
    def test_error_names_the_file_and_the_problem(self, tmp_path, blob, problem):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as info:
            read_pgm(path)
        assert str(info.value) == f"{path}: {problem}"

    @pytest.mark.parametrize("size", [b"-1 12", b"12 -1", b"-2 6"])
    def test_negative_size_rejected(self, tmp_path, size):
        # the byte tokenizer read a -1 dimension as "all remaining bytes"
        path = tmp_path / "neg.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n" + RASTER)
        with pytest.raises(ValueError, match="negative PGM size"):
            read_pgm(path)


class TestWriteDataset:
    def test_layout_and_annotations(self, tmp_path):
        spec = SceneSpec(num_classes=2)
        ids = write_dataset(tmp_path / "ds", spec, 4, seed=11)
        assert len(ids) == 4
        assert (tmp_path / "ds" / "classes.txt").read_text() == "class0\nclass1\n"
        manifest = (tmp_path / "ds" / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "image_id,num_objects"
        assert len(manifest) == 5
        names = class_names(spec)
        for image_id in ids:
            img = read_pgm(tmp_path / "ds" / "images" / f"{image_id}.pgm")
            assert img.shape == (spec.height, spec.width)
            parsed = parse_annotations(
                (tmp_path / "ds" / "annotations" / f"{image_id}.txt").read_text())
            assert parsed.warnings == []
            assert all(r.class_name in names for r in parsed.records)

    def test_annotations_match_generated_boxes(self, tmp_path):
        spec = SceneSpec()
        write_dataset(tmp_path / "ds", spec, 3, seed=2)
        regenerated = {iid: boxes
                       for iid, _, boxes in generate_dataset(spec, 3, seed=2)}
        for image_id, boxes in regenerated.items():
            parsed = parse_annotations(
                (tmp_path / "ds" / "annotations" / f"{image_id}.txt").read_text())
            assert len(parsed.records) == len(boxes)
            for record, box in zip(parsed.records, boxes):
                np.testing.assert_allclose(
                    np.asarray(record.corners).reshape(4, 2), box.corners,
                    atol=1e-6)
