import hashlib
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polardet import cli
from polardet.encoding import BoxArrays, GridConfig, encode_boxes
from polardet.errors import PlacementError
from polardet.formats import parse_annotations
from polardet.geometry import pairwise_iou, quads_to_polar
from polardet.synthdata import (SceneSpec, _rasterize, class_names,
                                generate_dataset, generate_scene, read_pgm,
                                write_dataset, write_pgm)

from oracles import (_fill_quad_reference, _rectangle_reference,
                     generate_scene_reference, read_pgm_reference, signed_shoelace,
                     write_dataset_reference)


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

    @pytest.mark.parametrize("field, value", [
        ("side_range", (float("nan"), 11.0)), ("side_range", (7.0, float("inf"))),
        ("side_range", (9.0, 8.0)), ("aspect_range", (1.2, float("nan"))),
        ("aspect_range", (1.8, 1.2)), ("background", float("nan")),
        ("background", -0.1), ("background", 1.5), ("noise_sigma", float("inf")),
        ("noise_sigma", -1.0), ("width", 0), ("height", -4), ("max_attempts", 0),
        ("pole_stride", 0), ("num_classes", 0)])
    def test_undrawable_spec_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SceneSpec(**{field: value})

    def test_class_intensities_increase_and_stay_in_range(self):
        spec = SceneSpec(num_classes=4)
        vals = [spec.class_intensity(c) for c in range(4)]
        assert vals == sorted(vals)
        assert all(0.0 < v <= 1.0 for v in vals)
        assert min(vals) > spec.background + 0.2


class TestSynthConfigChecks:
    @pytest.mark.parametrize("config, field", [
        ("side_min=nan\n", "side_range"), ("side_min=inf\n", "side_range"),
        ("side_min=12\nside_max=9\n", "side_range"),
        ("aspect_min=2\naspect_max=1.5\n", "aspect_range"),
        ("background=nan\n", "background"), ("noise_sigma=inf\n", "noise_sigma"),
        ("noise_sigma=-1\n", "noise_sigma"), ("width=0\n", "width")])
    def test_malformed_config_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                         config, field):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(config)
        out = tmp_path / "ds"
        code = cli.main(["synth", "--out", str(out), "--count", "2",
                         "--config", str(cfg)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]
        assert not out.exists()


def _scene(spec, seed):
    return generate_scene(spec, np.random.default_rng(seed))


class TestGenerateScene:
    def test_arrays_returned(self):
        spec = SceneSpec()
        image, corners, class_id = _scene(spec, 5)
        assert image.shape == (64, 64) and image.dtype == np.float64
        assert corners.shape == (len(class_id), 4, 2) and corners.dtype == np.float64
        assert class_id.dtype == np.intp
        assert np.all((0 <= class_id) & (class_id < spec.num_classes))

    def test_deterministic_given_seed(self):
        spec = SceneSpec()
        for a, b in zip(_scene(spec, 5), _scene(spec, 5)):
            assert a.tobytes() == b.tobytes()

    def test_object_count_in_range(self):
        spec = SceneSpec(min_objects=2, max_objects=3)
        for seed in range(30):
            _, _, class_id = _scene(spec, seed)
            assert 2 <= len(class_id) <= 3

    def test_boxes_inside_frame(self):
        spec = SceneSpec()
        for seed in range(50):
            _, corners, _ = _scene(spec, seed)
            assert corners.min() >= 0.0
            assert corners[..., 0].max() <= spec.width
            assert corners[..., 1].max() <= spec.height

    def test_corners_counterclockwise(self):
        _, corners, _ = _scene(SceneSpec(), 9)
        for quad in corners:
            assert signed_shoelace(quad) > 0.0

    def test_centers_fall_in_distinct_pole_cells(self):
        spec = SceneSpec(min_objects=3, max_objects=3)
        for seed in range(50):
            _, corners, _ = _scene(spec, seed)
            cells = {tuple(c) for c in
                     (corners.mean(axis=1) // spec.pole_stride).astype(int).tolist()}
            assert len(cells) == len(corners)

    def test_encodes_without_collision(self):
        spec = SceneSpec(min_objects=3, max_objects=3)
        cfg = GridConfig(spec.width, spec.height, spec.pole_stride,
                         spec.num_classes)
        for seed in range(30):
            _, corners, class_id = _scene(spec, seed)
            encode_boxes(BoxArrays(np.zeros(len(class_id), np.intp), class_id,
                                   *quads_to_polar(corners)), 1, cfg)

    def test_objects_barely_overlap(self):
        spec = SceneSpec(min_objects=3, max_objects=3)
        for seed in range(30):
            _, corners, _ = _scene(spec, seed)
            iou = pairwise_iou(corners, corners)
            assert np.all(iou[~np.eye(len(corners), dtype=bool)] < 0.05)

    def test_rasterized_intensity_at_center(self):
        spec = SceneSpec(noise_sigma=0.0)
        img, corners, class_id = _scene(spec, 4)
        for (cx, cy), c in zip(corners.mean(axis=1), class_id):
            assert img[int(cy), int(cx)] == pytest.approx(spec.class_intensity(c))

    def test_background_far_from_boxes(self):
        spec = SceneSpec(noise_sigma=0.0, min_objects=1, max_objects=1)
        img, _, _ = _scene(spec, 4)
        corner_vals = [img[0, 0], img[0, -1], img[-1, 0], img[-1, -1]]
        assert any(v == pytest.approx(spec.background) for v in corner_vals)

    def test_values_clipped_to_unit_range(self):
        img, _, _ = _scene(SceneSpec(noise_sigma=0.3), 7)
        assert img.min() >= 0.0
        assert img.max() <= 1.0

    def test_oversized_objects_raise(self):
        spec = SceneSpec(side_range=(40.0, 48.0), aspect_range=(1.0, 1.1))
        with pytest.raises(PlacementError):
            _scene(spec, 0)

    def test_crowded_scene_truncates_not_fails(self):
        # 8 objects rarely fit; the scene keeps what it can place
        spec = SceneSpec(min_objects=1, max_objects=8, max_attempts=60)
        for seed in range(10):
            _, _, class_id = _scene(spec, seed)
            assert len(class_id) >= 1


#: the specs the array generator must reproduce bit for bit: the reference
#: 64x64 scenes, perfbench's crowded 256x256 scenes of 45 objects,
#: grad-check's 32x32 scene, a spec whose scenes stop early and one whose
#: objects never fit
REFERENCE_SPECS = {
    "reference": SceneSpec(),
    "crowded": SceneSpec(width=256, height=256, min_objects=45, max_objects=45),
    "grad-check": SceneSpec(width=32, height=32, num_classes=2, max_objects=2),
    "truncating": SceneSpec(min_objects=1, max_objects=8, max_attempts=60),
    "oversized": SceneSpec(side_range=(40.0, 48.0), aspect_range=(1.0, 1.1)),
}


def _scene_or_error(generate, spec, seed):
    try:
        return generate(spec, np.random.default_rng(seed))
    except PlacementError as exc:
        return str(exc)


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


#: perfbench's two synth sets, (spec, count, seed): ``train``'s reference
#: scenes and ``crowded``'s 256x256 scenes of 45 objects
BENCH_SETS = {
    "train": (REFERENCE_SPECS["reference"], 500, 7),
    "crowded": (REFERENCE_SPECS["crowded"], 20, 7001),
}

#: sha256 of each set's files (``tree_digest``), recorded before the
#: chunked writer; regenerate with scripts/pin_digests.py
BENCH_SET_DIGESTS = {
    "train": "9b6fe8a0a0b26c8cff2dcd4deb75d1f02fe2053eefd953749d81d614a0850610",
    "crowded": "bd8f5de892cee9711fe01582f488754e07810a428706b16c0c4dc51d7c7cf833",
}


def tree_digest(root) -> str:
    """sha256 over the files under ``root``, in sorted order of their
    relative paths: each path, its byte length and its bytes."""
    root = Path(root)
    files = sorted((p.relative_to(root).as_posix(), p)
                   for p in root.rglob("*") if p.is_file())
    digest = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        digest.update(b"%s\0%d\0" % (rel.encode(), len(data)) + data)
    return digest.hexdigest()


def bench_set_digests() -> dict[str, str]:
    """``tree_digest`` of each of ``BENCH_SETS`` as ``write_dataset``
    writes it into a fresh folder."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in BENCH_SETS.items():
            write_dataset(Path(tmp) / name, *args)
            digests[name] = tree_digest(Path(tmp) / name)
    return digests


class TestMatchesScalarReference:
    @pytest.mark.parametrize("name", REFERENCE_SPECS)
    def test_same_arrays_or_same_error(self, name):
        spec = REFERENCE_SPECS[name]
        for seed in range(20):
            want = _scene_or_error(generate_scene_reference, spec, seed)
            got = _scene_or_error(generate_scene, spec, seed)
            if isinstance(want, str):
                assert got == want
                continue
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("name", REFERENCE_SPECS)
    def test_same_files(self, tmp_path, name):
        spec = REFERENCE_SPECS[name]
        results = []
        for side, write in (("want", write_dataset_reference), ("got", write_dataset)):
            try:
                results.append(write(tmp_path / side, spec, 20, 31))
            except PlacementError as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        assert _tree(tmp_path / "got") == _tree(tmp_path / "want")

    @pytest.mark.parametrize("name, count", [("reference", 70), ("crowded", 5)])
    def test_same_files_across_chunk_boundaries(self, tmp_path, name, count):
        # 32 reference and 2 crowded scenes fill a chunk: both counts end
        # in a part-filled one
        spec = REFERENCE_SPECS[name]
        want = write_dataset_reference(tmp_path / "want", spec, count, 13)
        assert write_dataset(tmp_path / "got", spec, count, 13) == want
        assert _tree(tmp_path / "got") == _tree(tmp_path / "want")

    def test_later_box_overwrites_earlier_where_boxes_share_pixels(self):
        rect = _rectangle_reference
        # two scenes of one chunk: crossing boxes, a box inside a larger one
        # (drawn before and after it), and boxes running off the frame
        scenes = [[(rect(10, 12, 16, 6, 0.3), 0.5), (rect(12, 11, 14, 5, 2.0), 0.8),
                   (rect(0.5, 15.5, 12, 9, 0.7), 0.65), (rect(18, 3, 9, 7, 1.1), 0.9)],
                  [(rect(9, 9, 6, 4, 0.0), 0.7), (rect(9, 9, 15, 12, 0.4), 0.4),
                   (rect(9, 9, 5, 3, 1.3), 0.95), (rect(19, 1, 8, 5, 2.5), 0.55)]]
        want = np.full((2, 16, 20), 0.15)
        for image, boxes in zip(want, scenes):
            for corners, value in boxes:
                _fill_quad_reference(image, corners, value)
        got = np.full((2, 16, 20), 0.15)
        boxes = [box for scene in scenes for box in scene]
        pixel, value = _rasterize(got.shape, [4, 4],
                                  np.array([corners for corners, _ in boxes]),
                                  [value for _, value in boxes])
        got.reshape(-1)[pixel] = value
        assert got.tobytes() == want.tobytes()
        # every box of the first scene shows; the second one's first box is
        # wholly covered by the next
        assert np.unique(want[0]).tolist() == [0.15, 0.5, 0.65, 0.8, 0.9]
        assert np.unique(want[1]).tolist() == [0.15, 0.4, 0.55, 0.95]

    @pytest.mark.parametrize("name", BENCH_SETS)
    def test_bench_sets_match_their_pins(self, tmp_path, name):
        write_dataset(tmp_path / name, *BENCH_SETS[name])
        assert tree_digest(tmp_path / name) == BENCH_SET_DIGESTS[name]

    @pytest.mark.parametrize("name", BENCH_SETS)
    def test_rewriting_a_bench_set_traces_at_most_5_mib(self, tmp_path, name):
        write_dataset(tmp_path / name, *BENCH_SETS[name])
        tracemalloc.start()
        try:
            write_dataset(tmp_path / name, *BENCH_SETS[name])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 << 20

    def test_rewriting_over_larger_files_leaves_the_same_bytes(self, tmp_path):
        write_dataset(tmp_path / "ds", REFERENCE_SPECS["crowded"], 3, 5)
        write_dataset(tmp_path / "ds", SceneSpec(), 5, 7)
        write_dataset_reference(tmp_path / "want", SceneSpec(), 5, 7)
        assert _tree(tmp_path / "ds") == _tree(tmp_path / "want")


class TestGenerateDataset:
    def test_ids_and_determinism(self):
        spec = SceneSpec()
        run1 = list(generate_dataset(spec, 5, seed=3))
        run2 = list(generate_dataset(spec, 5, seed=3))
        assert [r[0] for r in run1] == ["img_00000", "img_00001", "img_00002",
                                        "img_00003", "img_00004"]
        for (_, *arrays1), (_, *arrays2) in zip(run1, run2):
            for a, b in zip(arrays1, arrays2):
                assert a.tobytes() == b.tobytes()

    def test_yields_each_scene_as_generate_scene_returns_it(self):
        spec = SceneSpec()
        children = np.random.SeedSequence(3).spawn(3)
        for (_, *got), child in zip(generate_dataset(spec, 3, seed=3), children):
            want = generate_scene(spec, np.random.default_rng(child))
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    def test_scenes_differ_across_indices(self):
        spec = SceneSpec()
        scenes = [img for _, img, _, _ in generate_dataset(spec, 4, seed=0)]
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
            assert set(parsed.class_name) <= set(names)

    def test_annotations_match_generated_boxes(self, tmp_path):
        spec = SceneSpec()
        write_dataset(tmp_path / "ds", spec, 3, seed=2)
        names = class_names(spec)
        for image_id, _img, corners, class_id in generate_dataset(spec, 3, seed=2):
            parsed = parse_annotations(
                (tmp_path / "ds" / "annotations" / f"{image_id}.txt").read_text())
            assert parsed.class_name == [names[c] for c in class_id]
            np.testing.assert_allclose(
                np.array(parsed.coords).reshape(-1, 4, 2), corners, atol=1e-6)
