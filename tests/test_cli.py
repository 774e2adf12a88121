import csv
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polardet import cli
from polardet.encoding import GridConfig
from polardet.errors import DivergenceError
from polardet.formats import (GroundTruth, parse_annotation_files, parse_annotations,
                              parse_detections)
from polardet.postprocess import decode_poles, extract_pole_points
from polardet.synthdata import SceneSpec, read_pgm, write_dataset
from polardet.toynet import load_checkpoint, predict_planes

from oracles import (annotation_rows, parse_annotations_reference,
                     polars_to_quads_reference, quads_to_polar_reference,
                     read_annotations_reference, read_pgm_reference, target_planes)
from test_formats import GOOD_ANNOTATION, MALFORMED, bits
from test_toynet import MALFORMED_CHECKPOINTS, encode_generated


def write_heatmap_csv(path, heatmap: np.ndarray) -> None:
    """Dense channel blocks of comma-separated rows, blank line between: the
    format ``polardet extract --heatmap`` reads."""
    with open(path, "w") as fh:
        for c, channel in enumerate(np.asarray(heatmap)):
            if c:
                fh.write("\n")
            for row in channel:
                fh.write(",".join(f"{v:.9g}" for v in row) + "\n")


def read_encoding_csv(path, cfg: GridConfig):
    """Rebuild (heatmap, rho, theta1, theta2) arrays from the sparse dump
    ``polardet encode-dump`` writes."""
    heat = np.zeros((cfg.num_classes, cfg.grid_h, cfg.grid_w))
    planes = {"rho": np.zeros((cfg.grid_h, cfg.grid_w)),
              "theta1": np.zeros((cfg.grid_h, cfg.grid_w)),
              "theta2": np.zeros((cfg.grid_h, cfg.grid_w))}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            gx, gy = int(row["cell_x"]), int(row["cell_y"])
            if row["map"] == "heat":
                heat[int(row["class"]), gy, gx] = float(row["value"])
            else:
                planes[row["map"]][gy, gx] = float(row["value"])
    return heat, planes["rho"], planes["theta1"], planes["theta2"]


# an annotation line with finite coordinates whose shoelace area overflows
OVERFLOWING_QUAD = "1e308 1 20 1 20 20 1 20 class0 0\n"
# an annotation line whose four corners lie on one line: its area is zero
ZERO_AREA_QUAD = "5 5 9 5 13 5 7 5 class0 0\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small end-to-end run shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    ckpt = root / "net.ckpt"
    dets = root / "detections.txt"
    cfg = root / "scene.cfg"
    cfg.write_text("width=32\nheight=32\nmax_objects=2\n")
    assert cli.main(["synth", "--out", str(data), "--count", "20",
                     "--seed", "11", "--config", str(cfg)]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(ckpt),
                     "--iterations", "400", "--batch", "4",
                     "--base-channels", "4", "--log-every", "0",
                     "--history", str(root / "history.csv")]) == 0
    assert cli.main(["detect", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(dets)]) == 0
    return {"root": root, "data": data, "ckpt": ckpt, "dets": dets}


class TestSynth:
    def test_layout(self, workspace):
        data = workspace["data"]
        assert (data / "classes.txt").read_text() == "class0\nclass1\n"
        images = sorted((data / "images").glob("*.pgm"))
        assert len(images) == 20
        for img in images:
            assert (data / "annotations" / (img.stem + ".txt")).exists()
        manifest = (data / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "image_id,num_objects"
        assert len(manifest) == 21

    def test_config_sets_size(self, workspace):
        img = next((workspace["data"] / "images").glob("*.pgm"))
        assert read_pgm(img).shape == (32, 32)

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("width=32\nheight=32\n")
        assert cli.main(["synth", "--out", str(tmp_path / "d"), "--count", "2",
                         "--config", str(cfg), "--width", "48"]) == 0
        img = next((tmp_path / "d" / "images").glob("*.pgm"))
        assert read_pgm(img).shape == (32, 48)

    def test_bad_config_line_is_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("width 32\n")
        assert cli.main(["synth", "--out", str(tmp_path / "d"),
                         "--config", str(cfg)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("# scene\n\nwidth = 32  # pixels\nheight=32\n")
        assert cli._read_config(cfg, "synth", cli._SYNTH_SETTINGS) == {
            "width": 32, "height": 32}

    @pytest.mark.parametrize("config, problem", [
        ("width=abc\n", "line 1: width='abc' is not a valid int"),
        ("# size\nheight = 32.5\n", "line 2: height='32.5' is not a valid int"),
        ("noise_sigma=low\n", "line 1: noise_sigma='low' is not a valid float"),
        ("width=32\nwidth\n", "line 2: bad config line 'width', not key=value"),
    ])
    def test_config_error_names_the_file_line_and_value(self, tmp_path, capsys,
                                                        config, problem):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(config)
        out = tmp_path / "d"
        assert cli.main(["synth", "--out", str(out), "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == f"error: {cfg}: {problem}\n"
        assert not out.exists()

    def test_unknown_config_key_warns_once_and_is_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("min_object=5\nwidth=32\nmin_object=6\nlearning_rate=0.1\n")
        assert cli.main(["synth", "--out", str(tmp_path / "d"), "--count", "2",
                         "--config", str(cfg)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {cfg}: key 'min_object' is not a synth setting; ignored",
            f"warning: {cfg}: key 'learning_rate' is not a synth setting; ignored"]
        write_dataset(tmp_path / "want", SceneSpec(width=32), 2, 0)
        for path in (tmp_path / "want").rglob("*.*"):
            got = tmp_path / "d" / path.relative_to(tmp_path / "want")
            assert got.read_bytes() == path.read_bytes()

    def test_zero_count_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["synth", "--out", str(tmp_path / "d"), "--n", "0"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_objects_flag_fixes_count_per_scene(self, tmp_path):
        assert cli.main(["synth", "--out", str(tmp_path / "d"), "--count", "4",
                         "--objects", "2"]) == 0
        rows = (tmp_path / "d" / "manifest.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["2", "2", "2", "2"]

    def test_same_seed_same_dataset(self, tmp_path):
        for d in ("a", "b"):
            assert cli.main(["synth", "--out", str(tmp_path / d),
                             "--count", "3", "--seed", "5"]) == 0
        for name in ["images/img_00001.pgm", "annotations/img_00001.txt",
                     "manifest.csv"]:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_smaller_rerun_removes_the_earlier_runs_files(self, tmp_path, capsys):
        data, fresh = tmp_path / "d", tmp_path / "fresh"
        assert cli.main(["synth", "--out", str(data), "--count", "5", "--seed", "1"]) == 0
        (data / "images" / "notes.md").write_text("kept\n")
        assert cli.main(["synth", "--out", str(data), "--count", "2", "--seed", "2"]) == 0
        assert cli.main(["synth", "--out", str(fresh), "--count", "2", "--seed", "2"]) == 0
        for name in ("images", "annotations"):
            files = sorted(p.name for p in (fresh / name).iterdir())
            assert len(files) == 2
            kept = ["notes.md"] if name == "images" else []
            assert sorted(p.name for p in (data / name).iterdir()) == files + kept
            for f in files:
                assert (data / name / f).read_bytes() == (fresh / name / f).read_bytes()
        assert cli.main(["train", "--data", str(data), "--out", str(tmp_path / "n.ckpt"),
                         "--iters", "1", "--batch", "2", "--base-channels", "2",
                         "--log-every", "0"]) == 0
        assert "on 2 images" in capsys.readouterr().out


class TestTrain:
    def test_checkpoint_and_history(self, workspace):
        assert workspace["ckpt"].exists()
        meta = load_checkpoint(workspace["ckpt"])[1]
        assert meta["magic"] == "polardet-ckpt"
        assert meta["extra"]["classes"] == ["class0", "class1"]
        assert meta["extra"]["iterations"] == 400
        history = (workspace["root"] / "history.csv").read_text().splitlines()
        assert history[0] == "iteration,total,pole,reg"
        assert len(history) == 401

    def test_loss_went_down(self, workspace):
        rows = (workspace["root"] / "history.csv").read_text().splitlines()[1:]
        totals = [float(r.split(",")[1]) for r in rows]
        assert np.mean(totals[-50:]) < 0.5 * np.mean(totals[:50])

    def test_peak_memory_holds_rasters_not_float_images(self, tmp_path, capsys):
        # 500 64x64 scenes: the images are 2 MB as uint8 rasters and 16 MB
        # as one float64 stack; traced peaks: 60.3 MB when every image was
        # held as float64 twice, 29.2 MB with the rasters
        data = tmp_path / "data"
        assert cli.main(["synth", "--out", str(data), "--count", "500",
                         "--seed", "7"]) == 0
        tracemalloc.start()
        try:
            code = cli.main(["train", "--data", str(data),
                             "--out", str(tmp_path / "net.ckpt"),
                             "--iters", "2", "--log-every", "0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 45e6

    def test_unknown_annotation_class_is_io_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        first, second = sorted((data / "annotations").iterdir())[:2]
        first.write_text(first.read_text() + "1 2 3\n")
        second.write_text("0 0 4 0 4 4 0 4 zeppelin 0\n")
        code = cli.main(["train", "--data", str(data),
                         "--out", str(tmp_path / "n.ckpt"), "--iters", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{first}: line " in err and "expected 10 fields, got 3" in err
        assert "'zeppelin' not in ['class0', 'class1']" in err

    @pytest.mark.parametrize("batch", [100, 2])
    def test_unknown_class_after_a_dirty_file_stops_the_warnings(
            self, workspace, tmp_path, capsys, monkeypatch, batch):
        # stderr holds the warnings of each file up to the first with an
        # unknown class, that file's own included, then the error: none of
        # a later file's, in the same batch or in the next
        monkeypatch.setattr(cli, "_ANNOTATION_BATCH", batch)
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        anns = sorted((data / "annotations").iterdir())
        lines = [len(ann.read_text().splitlines()) + 1 for ann in anns]
        for k in (1, 3, 4):
            anns[k].write_text(anns[k].read_text() + "1 2 3\n")
        anns[3].write_text(anns[3].read_text() + "0 0 4 0 4 4 0 4 zeppelin 0\n")
        code = cli.main(["train", "--data", str(data),
                         "--out", str(tmp_path / "n.ckpt"), "--iters", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"{anns[1]}: line {lines[1]}: expected 10 fields, got 3\n"
            f"{anns[3]}: line {lines[3]}: expected 10 fields, got 3\n"
            "error: class 'zeppelin' not in ['class0', 'class1']\n")

    @pytest.mark.parametrize("unreadable", ["directory", "not-utf-8"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unreadable_annotation_file_after_a_dirty_file_is_io_error(
            self, workspace, tmp_path, capsys, unreadable, command):
        # the warnings of the files before it, then one error naming it
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        anns = sorted((data / "annotations").iterdir())
        lineno = len(anns[1].read_text().splitlines()) + 1
        for k in (1, 5):
            anns[k].write_text(anns[k].read_text() + "1 2 3\n")
        if unreadable == "directory":
            anns[3].unlink()
            anns[3].mkdir()
            error = f"[Errno 21] Is a directory: '{anns[3]}'"
        else:
            text = anns[3].read_bytes() + b"0 0 4 0 4 4 0 4 cl"
            anns[3].write_bytes(text + b"\xffss0 0\n")
            error = (f"{anns[3]}: 'utf-8' codec can't decode byte 0xff in position "
                     f"{len(text)}: invalid start byte")
        argv = (["train", "--data", str(data), "--out", str(tmp_path / "n.ckpt"),
                 "--iters", "1"] if command == "train" else
                ["eval", "--data", str(data), "--detections", str(workspace["dets"])])
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"{anns[1]}: line {lineno}: expected 10 fields, got 3\n"
                                f"error: {error}\n")

    @pytest.mark.parametrize("classes, problem", [
        # a second channel of the same name could never be trained, and
        # detect would write its detections under the first one's name
        (b"class0\nclass1\n class0\n", "class 'class0' is listed twice"),
        (b"class0\n\xffclass1\n", "'utf-8' codec can't decode byte 0xff in position 7: "
                                "invalid start byte")], ids=["listed-twice", "not-utf-8"])
    @pytest.mark.parametrize("command", ["train", "detect", "eval"])
    def test_bad_classes_file_is_io_error_naming_it(self, workspace, tmp_path, capsys,
                                                    command, classes, problem):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        (data / "classes.txt").write_bytes(classes)
        out = tmp_path / "out"
        argv = {"train": ["train", "--data", str(data), "--out", str(out), "--iters", "1"],
                "detect": ["detect", "--data", str(data), "--checkpoint",
                           str(workspace["ckpt"]), "--out", str(out)],
                "eval": ["eval", "--data", str(data), "--detections",
                         str(workspace["dets"])]}[command]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {data / 'classes.txt'}: {problem}\n"
        assert not out.exists()

    def test_checkpoint_is_written_to_the_given_path(self, workspace, tmp_path,
                                                     capsys):
        # the path train reports is the one file it writes, and detect
        # reads it back
        ckpt = tmp_path / "m.ckpt"
        assert cli.main(["train", "--data", str(workspace["data"]), "--out", str(ckpt),
                         "--iters", "1", "--batch", "2", "--base-channels", "2",
                         "--log-every", "0"]) == 0
        assert capsys.readouterr().out.endswith(f"checkpoint at {ckpt}\n")
        assert list(tmp_path.iterdir()) == [ckpt]
        assert cli.main(["detect", "--data", str(workspace["data"]), "--checkpoint",
                         str(ckpt), "--out", str(tmp_path / "d.txt")]) == 0
        capsys.readouterr()

    def test_overflowing_quad_is_dropped_with_a_warning(self, workspace, tmp_path,
                                                        capsys):
        # finite coordinates whose shoelace area overflows: the line is
        # dropped before any geometry sees it, so the run trains the same
        # net as without it
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        ann = data / "annotations" / "img_00003.txt"
        lineno = len(ann.read_text().splitlines()) + 1
        ann.write_text(ann.read_text() + OVERFLOWING_QUAD)
        ckpts = [tmp_path / "clean.ckpt", tmp_path / "dropped.ckpt"]
        for folder, ckpt in zip((workspace["data"], data), ckpts):
            assert cli.main(["train", "--data", str(folder), "--out", str(ckpt),
                             "--iters", "2", "--batch", "2", "--base-channels", "2",
                             "--log-every", "0"]) == 0
        assert capsys.readouterr().err == f"{ann}: line {lineno}: quad area is not finite\n"
        assert ckpts[0].read_bytes() == ckpts[1].read_bytes()

    def test_class_names_are_stripped(self, workspace, tmp_path, capsys):
        # whitespace around a name in classes.txt is not part of it: train
        # and eval read the annotations' plain names against it
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        (data / "classes.txt").write_text("class0 \n\tclass1\n")
        ckpt = tmp_path / "n.ckpt"
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt),
                         "--iters", "2", "--base-channels", "2",
                         "--log-every", "0"]) == 0
        assert load_checkpoint(ckpt)[1]["extra"]["classes"] == ["class0", "class1"]
        capsys.readouterr()
        for folder in (workspace["data"], data):
            assert cli.main(["eval", "--data", str(folder),
                             "--detections", str(workspace["dets"])]) == 0
        clean, stripped = capsys.readouterr().out.split("IoU")[1:]
        assert stripped == clean and "class0: AP" in clean

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code = cli.main(["train", "--data", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "n.ckpt")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--iters", "0", "must be >= 1"),
        ("--batch", "0", "must be >= 1"),
        ("--base-channels", "0", "must be >= 1"),
        ("--log-every", "-1", "must be >= 0")])
    def test_bad_count_is_usage_error(self, flag, value, message, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["train", "--data", str(tmp_path / "d"),
                      "--out", str(tmp_path / "n.ckpt"), flag, value])
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [("--lr", "learning_rate"),
                                             ("--lambda-ring", "lambda_ring")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_is_io_error(self, workspace, tmp_path, capsys, flag,
                                         field, value):
        ckpt = tmp_path / "n.ckpt"
        code = cli.main(["train", "--data", str(workspace["data"]), "--out", str(ckpt),
                         "--iters", "1", "--log-every", "0", flag, value])
        assert code == 3
        assert f"error: {field} must be finite, got {value}" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_config_errors_and_unknown_keys_name_the_file(self, workspace, tmp_path,
                                                          capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("width=32\nbatch_size=2\n")
        ckpt = tmp_path / "n.ckpt"
        args = ["train", "--data", str(workspace["data"]), "--out", str(ckpt),
                "--iters", "1", "--base-channels", "2", "--log-every", "0",
                "--config", str(cfg)]
        assert cli.main(args) == 0
        assert capsys.readouterr().err == (
            f"warning: {cfg}: key 'width' is not a train setting; ignored\n")
        cfg.write_text("batch_size=2\nlearning_rate=fast\n")
        ckpt.unlink()
        assert cli.main(args) == 3
        assert capsys.readouterr().err == (
            f"error: {cfg}: line 2: learning_rate='fast' is not a valid float\n")
        assert not ckpt.exists()

    def test_divergence_maps_to_exit_4(self, workspace, monkeypatch, capsys):
        def explode(*a, **k):
            raise DivergenceError(7)
        monkeypatch.setattr(cli, "train", explode)
        code = cli.main(["train", "--data", str(workspace["data"]),
                         "--out", "/tmp/unused.ckpt", "--iterations", "1"])
        assert code == 4
        assert "iteration 7" in capsys.readouterr().err

    def test_zero_lr_checkpoint_equals_init(self, workspace, tmp_path, capsys):
        from polardet.toynet import ToyNet, load_checkpoint
        ckpt = tmp_path / "frozen.ckpt"
        assert cli.main(["train", "--data", str(workspace["data"]),
                         "--out", str(ckpt), "--iters", "3", "--batch", "2",
                         "--lr", "0", "--base-channels", "2",
                         "--seed", "9", "--log-every", "0"]) == 0
        capsys.readouterr()
        loaded, _meta = load_checkpoint(ckpt)
        fresh = ToyNet(num_classes=2, base_channels=2, seed=9)
        for a, b in zip(loaded.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_same_seed_same_checkpoint(self, workspace, tmp_path, capsys):
        from polardet.toynet import load_checkpoint
        paths = [tmp_path / "r1.ckpt", tmp_path / "r2.ckpt"]
        for p in paths:
            assert cli.main(["train", "--data", str(workspace["data"]),
                             "--out", str(p), "--iters", "20", "--batch", "2",
                             "--base-channels", "2", "--seed", "3",
                             "--log-every", "0"]) == 0
        capsys.readouterr()
        n1, _ = load_checkpoint(paths[0])
        n2, _ = load_checkpoint(paths[1])
        for a, b in zip(n1.parameters(), n2.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_lambda_ring_zero_changes_training(self, workspace, tmp_path,
                                               capsys):
        from polardet.toynet import load_checkpoint
        base = tmp_path / "with_ring.ckpt"
        ablated = tmp_path / "no_ring.ckpt"
        common = ["train", "--data", str(workspace["data"]), "--iters", "30",
                  "--batch", "2", "--base-channels", "2", "--seed", "3",
                  "--log-every", "0"]
        assert cli.main(common + ["--out", str(base)]) == 0
        assert cli.main(common + ["--out", str(ablated),
                                  "--lambda-ring", "0"]) == 0
        capsys.readouterr()
        n1, _ = load_checkpoint(base)
        n2, _ = load_checkpoint(ablated)
        assert any(not np.array_equal(a.value, b.value)
                   for a, b in zip(n1.parameters(), n2.parameters()))


class TestDetect:
    def test_detections_parse_and_reference_known_classes(self, workspace):
        parsed = parse_detections(workspace["dets"].read_text())
        assert not parsed.warnings
        assert parsed.class_name
        assert set(parsed.class_name) <= {"class0", "class1"}
        assert set(parsed.image_id) <= {f"img_{i:05d}" for i in range(20)}

    def test_lines_are_the_decoded_boxes(self, workspace):
        # one line per decoded box in decode order: corners row-major, then
        # the class name the box's class id indexes
        names = (workspace["data"] / "classes.txt").read_text().split()
        net, _meta = load_checkpoint(workspace["ckpt"])
        lines = []
        for img_path in sorted((workspace["data"] / "images").glob("*.pgm")):
            heat, *reg = predict_planes(net, read_pgm(img_path))
            dets = decode_poles(extract_pole_points(heat, 0.3), *reg,
                                GridConfig(32, 32, 4, len(names))).detections
            rows = zip(dets.corners.reshape(-1, 8).tolist(),
                       dets.class_id.tolist(), dets.score.tolist())
            lines += [f"{img_path.stem} {score:.6f} "
                      + " ".join(f"{v:.6f}" for v in corners) + f" {names[c]}\n"
                      for corners, c, score in rows]
        assert lines
        assert workspace["dets"].read_text() == "".join(lines)

    def test_class_count_mismatch_is_io_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        (data / "classes.txt").write_text("class0\nclass1\nclass2\n")
        out = tmp_path / "d.txt"
        code = cli.main(["detect", "--data", str(data),
                         "--checkpoint", str(workspace["ckpt"]), "--out", str(out)])
        assert code == 3
        assert "checkpoint has 2 classes, dataset lists 3" in capsys.readouterr().err
        assert not out.exists()

    def test_topk_extractor_runs(self, workspace, tmp_path):
        out = tmp_path / "topk.txt"
        assert cli.main(["detect", "--data", str(workspace["data"]),
                         "--checkpoint", str(workspace["ckpt"]),
                         "--out", str(out), "--extractor", "topk",
                         "--k", "5"]) == 0
        parsed = parse_detections(out.read_text())
        per_image = {}
        for image_id in parsed.image_id:
            per_image[image_id] = per_image.get(image_id, 0) + 1
        assert all(n <= 5 for n in per_image.values())

    def test_nms_never_increases_count(self, workspace, tmp_path):
        out = tmp_path / "nms.txt"
        assert cli.main(["detect", "--data", str(workspace["data"]),
                         "--checkpoint", str(workspace["ckpt"]),
                         "--out", str(out), "--nms-iou", "0.1"]) == 0
        base = len(parse_detections(workspace["dets"].read_text()).image_id)
        assert len(parse_detections(out.read_text()).image_id) <= base

    @pytest.mark.parametrize("value, extra", [
        pytest.param("nan", [], id="nan"),
        pytest.param("-0.1", [], id="-0.1"),
        pytest.param("1.5", [], id="1.5"),
        # no image yields a detection, so NMS itself never runs
        pytest.param("nan", ["--threshold", "0.9999999"],
                     id="nan-no-detections"),
    ])
    def test_nms_threshold_outside_unit_interval_is_io_error(
            self, workspace, tmp_path, capsys, value, extra):
        out = tmp_path / "nms.txt"
        code = cli.main(["detect", "--data", str(workspace["data"]),
                         "--checkpoint", str(workspace["ckpt"]),
                         "--out", str(out), "--nms-iou", value, *extra])
        assert code == 3
        assert "iou_threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "1.5", "0"])
    def test_topk_threshold_outside_open_unit_interval_is_io_error(
            self, workspace, tmp_path, capsys, value):
        out = tmp_path / "topk.txt"
        code = cli.main(["detect", "--data", str(workspace["data"]),
                         "--checkpoint", str(workspace["ckpt"]),
                         "--out", str(out), "--extractor", "topk",
                         "--threshold", value])
        assert code == 3
        assert "threshold must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_saturated_threshold_gives_empty_file(self, workspace, tmp_path,
                                                  capsys):
        out = tmp_path / "none.txt"
        assert cli.main(["detect", "--data", str(workspace["data"]),
                         "--checkpoint", str(workspace["ckpt"]),
                         "--out", str(out), "--threshold", "0.9999999"]) == 0
        capsys.readouterr()
        assert not parse_detections(out.read_text()).image_id

    def test_missing_checkpoint_is_io_error(self, workspace, tmp_path, capsys):
        code = cli.main(["detect", "--data", str(workspace["data"]),
                         "--checkpoint", str(tmp_path / "none.ckpt"),
                         "--out", str(tmp_path / "d.txt")])
        assert code == 3
        capsys.readouterr()

    def test_garbage_checkpoint_is_io_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        np.savez(bad, junk=np.zeros(4))
        code = cli.main(["detect", "--data", str(workspace["data"]),
                         "--checkpoint", str(bad),
                         "--out", str(tmp_path / "d.txt")])
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
    def test_malformed_checkpoint_is_io_error(self, workspace, tmp_path,
                                              capsys, case):
        write, _error, message = MALFORMED_CHECKPOINTS[case]
        bad = tmp_path / "bad.ckpt"
        write(bad)
        out = tmp_path / "d.txt"
        code = cli.main(["detect", "--data", str(workspace["data"]),
                         "--checkpoint", str(bad), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and message in err[0]
        assert not out.exists()

    def test_flipped_byte_is_io_error_naming_the_crc(self, workspace, tmp_path,
                                                      capsys):
        # the lowest mantissa bit of the 100th value before the 4-byte
        # CRC-32, a head weight: it stays finite, so only the CRC-32 can tell
        raw = bytearray(workspace["ckpt"].read_bytes())
        raw[len(raw) - 4 - 8 * 100] ^= 0x01
        bad = tmp_path / "flipped.ckpt"
        bad.write_bytes(bytes(raw))
        out = tmp_path / "d.txt"
        code = cli.main(["detect", "--data", str(workspace["data"]),
                         "--checkpoint", str(bad), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "CRC-32 mismatch" in err[0]
        assert not out.exists()


class TestEval:
    def test_reports_map_per_threshold(self, workspace, capsys):
        assert cli.main(["eval", "--data", str(workspace["data"]),
                         "--detections", str(workspace["dets"]),
                         "--iou", "0.5", "0.75"]) == 0
        out = capsys.readouterr().out
        assert "IoU 0.50: mAP" in out
        assert "IoU 0.75: mAP" in out
        assert "class0: AP" in out

    def test_score_gives_the_printed_reports(self, workspace, capsys):
        assert cli.main(["eval", "--data", str(workspace["data"]),
                         "--detections", str(workspace["dets"]),
                         "--iou", "0.5", "0.75"]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("IoU")]
        reports, names = cli.score(workspace["data"], workspace["dets"], [0.5, 0.75])
        assert names == ["class0", "class1"]
        assert printed == [f"IoU {r.iou_threshold:.2f}: mAP {r.mean_ap:.4f}"
                           for r in reports]

    def test_overfit_map_is_high(self, workspace, capsys):
        # scored on the training images on purpose: a 400-iteration overfit
        # run is deterministic, so this guards the whole pipeline wiring
        cli.main(["eval", "--data", str(workspace["data"]),
                  "--detections", str(workspace["dets"])])
        out = capsys.readouterr().out
        map_value = float(out.split("mAP")[1].splitlines()[0])
        assert map_value >= 0.5

    def test_stricter_iou_never_scores_higher(self, workspace, capsys):
        cli.main(["eval", "--data", str(workspace["data"]),
                  "--detections", str(workspace["dets"]),
                  "--iou", "0.5", "0.75"])
        out = capsys.readouterr().out
        maps = [float(chunk.splitlines()[0]) for chunk in out.split("mAP")[1:]]
        assert maps[1] <= maps[0]

    def test_pr_curves_written(self, workspace, tmp_path, capsys):
        pr_dir = tmp_path / "pr"
        assert cli.main(["eval", "--data", str(workspace["data"]),
                         "--detections", str(workspace["dets"]),
                         "--iou", "0.5", "0.75",
                         "--pr-out", str(pr_dir)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in pr_dir.glob("*.csv"))
        for iou in ("0.50", "0.75"):
            for cls in ("class0", "class1"):
                assert f"pr_iou{iou}_{cls}.csv" in names
        header = (pr_dir / "pr_iou0.50_class0.csv").read_text().splitlines()[0]
        assert header == "recall,precision,score"

    def test_overflowing_ground_truth_quad_is_dropped_with_a_warning(
            self, workspace, tmp_path, capsys):
        # finite coordinates whose shoelace area overflows are no ground
        # truth: the line is dropped before any geometry sees it
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        ann = data / "annotations" / "img_00003.txt"
        lineno = len(ann.read_text().splitlines()) + 1
        ann.write_text(ann.read_text() + OVERFLOWING_QUAD)
        for folder in (workspace["data"], data):
            assert cli.main(["eval", "--data", str(folder),
                             "--detections", str(workspace["dets"])]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"{ann}: line {lineno}: quad area is not finite\n"
        clean, dropped = captured.out.split("IoU")[1:]
        assert dropped == clean

    def test_zero_area_ground_truth_quad_is_dropped_with_a_warning(
            self, workspace, tmp_path, capsys):
        # a quad no detection can match is no ground truth: train and eval
        # both drop the line and name it, and they read the rest as before
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        ann = data / "annotations" / "img_00003.txt"
        lineno = len(ann.read_text().splitlines()) + 1
        ann.write_text(ann.read_text() + ZERO_AREA_QUAD)
        warning = f"{ann}: line {lineno}: quad area <= 1e-06 px^2\n"
        ckpts = [tmp_path / "clean.ckpt", tmp_path / "dropped.ckpt"]
        for folder, ckpt in zip((workspace["data"], data), ckpts):
            assert cli.main(["train", "--data", str(folder), "--out", str(ckpt),
                             "--iters", "2", "--batch", "2", "--base-channels", "2",
                             "--log-every", "0"]) == 0
        assert capsys.readouterr().err == warning
        assert ckpts[0].read_bytes() == ckpts[1].read_bytes()
        for folder in (workspace["data"], data):
            assert cli.main(["eval", "--data", str(folder),
                             "--detections", str(workspace["dets"])]) == 0
        captured = capsys.readouterr()
        assert captured.err == warning
        clean, dropped = captured.out.split("IoU")[1:]
        assert "(gt " in dropped and dropped == clean

    def test_unknown_class_detection_skipped_with_warning(self, workspace,
                                                          tmp_path, capsys):
        dets = tmp_path / "weird.txt"
        line = workspace["dets"].read_text().splitlines()[0].split()
        line[10] = "zeppelin"
        dets.write_text(" ".join(line) + "\n")
        assert cli.main(["eval", "--data", str(workspace["data"]),
                         "--detections", str(dets)]) == 0
        captured = capsys.readouterr()
        assert "zeppelin" in captured.err
        assert "mAP" in captured.out

    def test_unknown_image_detection_skipped_with_warning(self, workspace,
                                                          tmp_path, capsys):
        dets = workspace["dets"].read_text()
        assert cli.main(["eval", "--data", str(workspace["data"]),
                         "--detections", str(workspace["dets"])]) == 0
        clean = capsys.readouterr().out
        line = dets.splitlines()[0].split()
        line[0] = "img_99999"
        weird = tmp_path / "weird.txt"
        weird.write_text(dets + " ".join(line) + "\n")
        assert cli.main(["eval", "--data", str(workspace["data"]),
                         "--detections", str(weird)]) == 0
        captured = capsys.readouterr()
        assert "detections: unknown image 'img_99999' skipped" in captured.err
        assert captured.out == clean

    def test_difficult_objects_are_neither_missed_nor_found(self, tmp_path, capsys):
        # one easy and one difficult square, one exact detection of the easy
        # one: VOC scoring leaves the difficult square out of the count
        data = tmp_path / "data"
        (data / "annotations").mkdir(parents=True)
        (data / "images").mkdir()
        (data / "classes.txt").write_text("a\n")
        (data / "images" / "x.pgm").write_bytes(b"P5\n32 32\n255\n" + bytes(1024))
        easy = "4 4 12 4 12 12 4 12"
        (data / "annotations" / "x.txt").write_text(
            f"{easy} a 0\n20 20 28 20 28 28 20 28 a 1\n")
        dets = tmp_path / "dets.txt"
        dets.write_text(f"x 0.9 {easy} a\n")
        assert cli.main(["eval", "--data", str(data), "--detections", str(dets)]) == 0
        assert "a: AP 1.0000 (gt 1, det 1)" in capsys.readouterr().out
        # a detection of the difficult square is not ranked at all
        dets.write_text(f"x 0.9 {easy} a\nx 0.95 20 20 28 20 28 28 20 28 a\n")
        assert cli.main(["eval", "--data", str(data), "--detections", str(dets)]) == 0
        assert "a: AP 1.0000 (gt 1, det 2)" in capsys.readouterr().out

    def test_equal_scores_rank_in_image_id_order(self, tmp_path, capsys):
        # images a and a-b hold one square each; a misses its square and a-b
        # finds its own at the same score. Ids rank as strings, a before
        # a-b (the file names sort the other way: '-' < '.'), so the miss
        # comes first: precision 1/2 at recall 1/2, AP 0.25
        data = tmp_path / "data"
        (data / "annotations").mkdir(parents=True)
        (data / "images").mkdir()
        (data / "classes.txt").write_text("s\n")
        square = "4 4 12 4 12 12 4 12"
        for image_id in ("a", "a-b"):
            (data / "images" / f"{image_id}.pgm").write_bytes(
                b"P5\n32 32\n255\n" + bytes(1024))
            (data / "annotations" / f"{image_id}.txt").write_text(f"{square} s 0\n")
        dets = tmp_path / "dets.txt"
        dets.write_text(f"a-b 0.9 {square} s\na 0.9 20 20 28 20 28 28 20 28 s\n")
        assert cli._load_dataset(data)[1] == ["a", "a-b"]
        assert cli.main(["eval", "--data", str(data), "--detections", str(dets),
                         "--pr-out", str(tmp_path / "pr")]) == 0
        assert capsys.readouterr().out == (
            "IoU 0.50: mAP 0.2500\n  s: AP 0.2500 (gt 2, det 2)\n")
        assert (tmp_path / "pr" / "pr_iou0.50_s.csv").read_text().splitlines() == [
            "recall,precision,score", "0.0,0.0,0.9", "0.5,0.5,0.9"]

    def test_non_utf8_detections_file_is_io_error_naming_it(self, workspace, tmp_path,
                                                            capsys):
        dets = tmp_path / "dets.txt"
        text = workspace["dets"].read_bytes() + b"img_00001 0.5 1 2 3 4 5 6 7 9 cl"
        dets.write_bytes(text + b"\xffss0\n")
        code = cli.main(["eval", "--data", str(workspace["data"]),
                         "--detections", str(dets)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (f"error: {dets}: 'utf-8' codec can't decode byte 0xff "
                                f"in position {len(text)}: invalid start byte\n")

    def test_missing_detections_file_is_io_error(self, workspace, tmp_path,
                                                 capsys):
        code = cli.main(["eval", "--data", str(workspace["data"]),
                         "--detections", str(tmp_path / "none.txt")])
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("iou", ["nan", "0", "1.5", "-1"])
    @pytest.mark.parametrize("empty", [True, False], ids=["empty", "non-empty"])
    def test_iou_outside_unit_interval_is_io_error(self, workspace, tmp_path,
                                                   capsys, iou, empty):
        # checked before any scoring, so a file with no rows fails the same way
        dets = tmp_path / "dets.txt"
        dets.write_text("" if empty else workspace["dets"].read_text())
        code = cli.main(["eval", "--data", str(workspace["data"]),
                         "--detections", str(dets), "--iou", "0.5", iou])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: iou_threshold must lie in (0, 1]\n"


class TestGradCheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert cli.main(["grad-check", "--points", "50"]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 4

    def test_fails_at_absurd_tolerance(self, capsys):
        assert cli.main(["grad-check", "--points", "50",
                         "--tolerance", "1e-18"]) == 5
        assert "[FAIL]" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--tolerance", "--net-tolerance"])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
    def test_tolerance_must_be_finite_and_non_negative(self, flag, value, capsys):
        # nan compared as a failure (exit 5) and inf passed any error
        with pytest.raises(SystemExit) as err:
            cli.main(["grad-check", "--points", "20", "--with-net", f"{flag}={value}"])
        assert err.value.code == 2
        assert "must be finite and >= 0" in capsys.readouterr().err

    def test_with_net_adds_fifth_line(self, capsys):
        assert cli.main(["grad-check", "--points", "20", "--with-net",
                         "--net-coords", "10"]) == 0
        assert "toynet_backward" in capsys.readouterr().out

    def test_loss_flag_restricts_scope(self, capsys):
        assert cli.main(["grad-check", "--points", "30",
                         "--loss", "ring"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert out[0].startswith("polar_ring_loss:")

    @pytest.mark.parametrize("flags", [["--points", "0"],
                                       ["--with-net", "--net-coords", "0"]])
    def test_zero_points_is_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["grad-check", *flags])
        assert err.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "gc.csv"
        assert cli.main(["grad-check", "--points", "20",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()
        assert rows[0] == "loss,points,max_rel_err,mean_rel_err"
        assert len(rows) == 5
        assert all(float(r.split(",")[2]) < 1e-4 for r in rows[1:])


class TestExtract:
    def test_cc_extraction_from_csv(self, tmp_path, capsys):
        heat = np.zeros((1, 8, 8))
        heat[0, 2:5, 2:5] = [[0.3, 0.5, 0.3], [0.5, 0.9, 0.5], [0.3, 0.5, 0.3]]
        hm_path = tmp_path / "heat.csv"
        write_heatmap_csv(hm_path, heat)
        out = tmp_path / "poles.csv"
        assert cli.main(["extract", "--heatmap", str(hm_path),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()
        assert rows[0] == "class,cell_x,cell_y,score"
        assert rows[1] == "0,3,3,0.900000"
        assert len(rows) == 2

    def test_topk_extraction_from_csv(self, tmp_path, capsys):
        heat = np.zeros((2, 6, 6))
        heat[0, 1, 1] = 0.8
        heat[1, 4, 4] = 0.6
        hm_path = tmp_path / "heat.csv"
        write_heatmap_csv(hm_path, heat)
        out = tmp_path / "poles.csv"
        assert cli.main(["extract", "--heatmap", str(hm_path),
                         "--out", str(out), "--extractor", "topk",
                         "--k", "2"]) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        assert rows == ["0,1,1,0.800000", "1,4,4,0.600000"]

    def test_topk_drops_poles_below_threshold(self, tmp_path, capsys):
        heat = np.zeros((1, 2, 2))
        heat[0, 1, 0] = 0.9
        hm_path = tmp_path / "heat.csv"
        write_heatmap_csv(hm_path, heat)
        out = tmp_path / "poles.csv"
        assert cli.main(["extract", "--heatmap", str(hm_path), "--out", str(out),
                         "--extractor", "topk", "--threshold", "0.95"]) == 0
        capsys.readouterr()
        assert out.read_text().splitlines() == ["class,cell_x,cell_y,score"]

    @pytest.mark.parametrize("extractor", ["topk", "cc"])
    def test_nan_threshold_is_io_error(self, tmp_path, capsys, extractor):
        heat = np.zeros((1, 2, 2))
        heat[0, 1, 0] = 0.9
        hm_path = tmp_path / "heat.csv"
        write_heatmap_csv(hm_path, heat)
        out = tmp_path / "poles.csv"
        assert cli.main(["extract", "--heatmap", str(hm_path), "--out", str(out),
                         "--extractor", extractor, "--threshold", "nan"]) == 3
        assert "threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("extractor", ["topk", "cc"])
    def test_non_finite_heatmap_is_io_error(self, tmp_path, capsys, extractor,
                                            value):
        hm_path = tmp_path / "heat.csv"
        hm_path.write_text(f"0,0,0,0\n0,0.9,{value},0\n0,0,0,0\n0,0,0,0\n")
        out = tmp_path / "poles.csv"
        assert cli.main(["extract", "--heatmap", str(hm_path), "--out", str(out),
                         "--extractor", extractor]) == 3
        assert "heatmap must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_crlf_heatmap_reads_as_lf(self, tmp_path):
        heat = np.random.default_rng(1).uniform(0, 1, (3, 4, 5))
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        write_heatmap_csv(lf, heat)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n\r\n" in crlf.read_bytes()
        assert cli.read_heatmap_csv(crlf).tobytes() == cli.read_heatmap_csv(lf).tobytes()

    @pytest.mark.parametrize("blob, problem", [
        (b"0,0.5\n0,\xff\n", "'utf-8' codec can't decode byte 0xff in position 8"),
        (b"0,0.5\n\n0,x\n", "line 3: could not convert string to float: 'x'"),
        (b"0,0.5\n0\n", "line 2: row length 1, the channel's first row has 2"),
        (b"0,0.5\n\n0\n", "heatmap channels differ in shape"),
        (b"\r\n \n", "empty heatmap file")])
    def test_unreadable_heatmap_is_io_error_naming_it(self, tmp_path, capsys, blob,
                                                      problem):
        hm_path = tmp_path / "heat.csv"
        hm_path.write_bytes(blob)
        out = tmp_path / "poles.csv"
        assert cli.main(["extract", "--heatmap", str(hm_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {hm_path}: {problem}")
        assert not out.exists()

    def test_heatmap_csv_round_trip(self, tmp_path):
        heat = np.random.default_rng(0).uniform(0, 1, (3, 5, 7))
        path = tmp_path / "h.csv"
        write_heatmap_csv(path, heat)
        np.testing.assert_allclose(cli.read_heatmap_csv(path), heat,
                                   rtol=1e-8)


class TestEncodeDump:
    def test_round_trips_through_csv(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        out = tmp_path / "enc.csv"
        assert cli.main(["encode-dump", "--data", str(data),
                         "--image-id", "img_00003", "--out", str(out)]) == 0
        capsys.readouterr()
        cfg = GridConfig(32, 32, 4, 2)
        heat, rho, t1, t2 = read_encoding_csv(out, cfg)

        ann = (data / "annotations" / "img_00003.txt").read_text()
        parsed = parse_annotations(ann)
        gt = GroundTruth.stack([parsed], [len(parsed.class_name)], ["class0", "class1"])
        targets = encode_generated([(gt.corners, gt.class_id)], cfg)
        np.testing.assert_allclose(heat, targets.heat[0], rtol=1e-8)
        for got, plane in zip((rho, t1, t2), target_planes(targets)):
            np.testing.assert_allclose(got, plane, rtol=1e-8)

    def test_annotation_warnings_go_to_stderr(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        ann = data / "annotations" / "img_00003.txt"
        ann.write_text(ann.read_text() + "1 2 3\n")
        out = tmp_path / "enc.csv"
        assert cli.main(["encode-dump", "--data", str(data),
                         "--image-id", "img_00003", "--out", str(out)]) == 0
        assert "expected 10 fields, got 3" in capsys.readouterr().err
        clean = tmp_path / "clean.csv"
        assert cli.main(["encode-dump", "--data", str(workspace["data"]),
                         "--image-id", "img_00003", "--out", str(clean)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == clean.read_bytes()

    def test_unknown_image_id_is_io_error(self, workspace, capsys):
        code = cli.main(["encode-dump", "--data", str(workspace["data"]),
                         "--image-id", "img_99999", "--out", "/tmp/x.csv"])
        assert code == 3
        capsys.readouterr()


def encode_items_reference(data_dir, image_ids, class_names, stride, monkeypatch):
    """``cli._encode_items`` with the one-item-at-a-time readers and polar
    conversions of ``oracles``."""
    from polardet import encoding

    images = np.stack([read_pgm_reference(Path(data_dir) / "images" / f"{i}.pgm")
                       for i in image_ids])
    files = [read_annotations_reference(Path(data_dir) / "annotations" / f"{i}.txt")[0]
             for i in image_ids]
    records = [r for records in files for r in records]
    gt = GroundTruth(np.repeat(np.arange(len(files)), [len(f) for f in files]),
                     np.array([class_names.index(r.class_name) for r in records],
                              dtype=np.intp),
                     np.array([r.corners for r in records]).reshape(-1, 4, 2),
                     np.array([r.difficulty != 0 for r in records]))
    grid = GridConfig(images.shape[2], images.shape[1], stride, len(class_names))
    monkeypatch.setattr(encoding, "polars_to_quads", polars_to_quads_reference)
    boxes = encoding.BoxArrays(gt.image, gt.class_id, *quads_to_polar_reference(gt.corners))
    return images, encoding.encode_boxes(boxes, len(image_ids), grid), grid


# a malformed raster -> (its bytes from the stored 32x32 file, the problem named)
MALFORMED_PGMS = {
    "bad-magic": (lambda blob: b"P6" + blob[2:], "not a binary PGM: magic b'P6'"),
    "maxval": (lambda blob: blob.replace(b"\n255\n", b"\n65535\n", 1),
               "only 8-bit PGM supported, maxval=65535"),
    "size-token": (lambda blob: blob.replace(b"32 32", b"32 3x2", 1),
                   "bad PGM height b'3x2'"),
    "short-raster": (lambda blob: blob[:-37], "raster has 987 of 1024 bytes"),
}


# every kind of line an annotation file can hold: rows to keep, each
# malformed case, blank and metadata lines; and the classes they name
ANNOTATION_LINES = [GOOD_ANNOTATION, "10 10 30 12 28 25 8 23 c1 1", *MALFORMED.values(),
                    "", "imagesource:GoogleEarth"]
ANNOTATION_CLASSES = ["ship", "c1", "a:b"]


class TestDatasetReaders:
    @pytest.mark.parametrize("variant", ["as-written", "comments-and-crlf"])
    def test_encode_items_same_as_one_item_readers(self, workspace, tmp_path,
                                                   monkeypatch, variant):
        data = workspace["data"]
        if variant != "as-written":
            # header comments, metadata lines and CRLF line ends, which
            # both sets of readers accept
            data = tmp_path / "data"
            shutil.copytree(workspace["data"], data)
            for pgm in (data / "images").iterdir():
                pgm.write_bytes(pgm.read_bytes().replace(b"P5\n", b"P5 # c\n\t", 1))
            for ann in (data / "annotations").iterdir():
                text = "imagesource:GoogleEarth\n\n" + ann.read_text()
                ann.write_bytes(text.replace("\n", "\r\n").encode())
        class_names, image_ids = cli._load_dataset(data)
        images, targets, grid = cli._encode_items(data, image_ids, class_names, 4)
        want_images, want, want_grid = encode_items_reference(
            data, image_ids, class_names, 4, monkeypatch)
        assert grid == want_grid
        assert images.dtype == want_images.dtype
        assert images.tobytes() == want_images.tobytes()
        assert len(targets.class_id) > len(image_ids)
        for name, got, ref in zip(targets._fields, targets, want):
            assert got.dtype == ref.dtype and got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("odd", [0, 4, 19])
    def test_one_odd_file_goes_through_the_full_readers(self, workspace, tmp_path,
                                                        monkeypatch, capsys, odd):
        # a PGM whose header has a comment and whose raster has trailing
        # bytes, and an annotation file with a line to drop; with three
        # annotation files per batch, most batches hold only clean files
        monkeypatch.setattr(cli, "_ANNOTATION_BATCH", 3)
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        class_names, image_ids = cli._load_dataset(data)
        pgm = data / "images" / f"{image_ids[odd]}.pgm"
        pgm.write_bytes(pgm.read_bytes().replace(b"P5\n", b"P5 # c\n", 1) + b"tail")
        ann = data / "annotations" / f"{image_ids[odd]}.txt"
        text = ann.read_text()
        ann.write_text(text + "1 2 3 4 5 6 7 8 class0\n")
        images, targets, _grid = cli._encode_items(data, image_ids, class_names, 4)
        want_images, want, _ = encode_items_reference(data, image_ids, class_names, 4,
                                                      monkeypatch)
        assert images.tobytes() == want_images.tobytes()
        for name, got, ref in zip(targets._fields, targets, want):
            assert got.tobytes() == ref.tobytes(), name
        line = len(text.splitlines()) + 1
        assert capsys.readouterr().err == f"{ann}: line {line}: expected 10 fields, got 9\n"

    @given(files=st.lists(st.tuples(st.lists(st.sampled_from(ANNOTATION_LINES), max_size=6),
                                    st.sampled_from(["\n", "\r\n"]), st.booleans()),
                          min_size=1, max_size=7),
           batch=st.integers(1, 4))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_batches_of_files_match_the_per_line_parser(self, files, batch):
        # clean, malformed, blank and metadata lines, LF or CRLF ends, a
        # last line with or without one, the files spread over batches: the
        # same rows as each file's per-line parse, bit for bit, the same
        # counts and the same warnings, file after file
        texts = [end.join(lines) + (end if last else "") for lines, end, last in files]
        want = [parse_annotations_reference(text) for text in texts]
        records = [r for rows, _ in want for r in rows]
        parsed, counts, warnings = parse_annotation_files(texts)
        assert bits(annotation_rows(parsed)) == bits(records)
        assert counts == [len(rows) for rows, _ in want]
        assert warnings == [file_warnings for _, file_warnings in want]
        ids = [f"img_{k:05d}" for k in range(len(texts))]
        with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err, \
                mock.patch.object(cli, "_ANNOTATION_BATCH", batch):
            folder = Path(tmp) / "annotations"
            folder.mkdir()
            for image_id, text in zip(ids, texts):
                (folder / f"{image_id}.txt").write_bytes(text.encode())
            gt = cli._read_ground_truth(tmp, ids, ANNOTATION_CLASSES)
            assert err.getvalue() == "".join(
                f"{folder}/{image_id}.txt: {w}\n"
                for image_id, (_, file_warnings) in zip(ids, want) for w in file_warnings)
        assert gt.image.tolist() == [k for k, (rows, _) in enumerate(want) for _ in rows]
        assert gt.class_id.tolist() == [ANNOTATION_CLASSES.index(r.class_name)
                                        for r in records]
        assert gt.difficult.tolist() == [r.difficulty != 0 for r in records]
        assert bits([(tuple(c),) for c in gt.corners.reshape(-1, 8).tolist()]) == bits(
            [(r.corners,) for r in records])

    def test_image_of_another_size_is_io_error_naming_it(self, workspace, tmp_path,
                                                          capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        image = np.zeros((32, 36), dtype=np.uint8)
        (data / "images" / "img_00007.pgm").write_bytes(b"P5\n36 32\n255\n" + image.tobytes())
        out = tmp_path / "net.ckpt"
        assert cli.main(["train", "--data", str(data), "--out", str(out), "--iters", "1"]) == 3
        assert capsys.readouterr().err == "error: img_00007: image (32, 36) differs from (32, 32)\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", MALFORMED_PGMS)
    @pytest.mark.parametrize("command", ["train", "detect"])
    def test_malformed_pgm_is_io_error_naming_the_file(self, workspace, tmp_path,
                                                       capsys, command, case):
        edit, problem = MALFORMED_PGMS[case]
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        bad = data / "images" / "img_00004.pgm"
        bad.write_bytes(edit(bad.read_bytes()))
        out = tmp_path / "out"
        argv = (["train", "--data", str(data), "--out", str(out), "--iters", "1"]
                if command == "train" else
                ["detect", "--data", str(data), "--checkpoint",
                 str(workspace["ckpt"]), "--out", str(out)])
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.splitlines() == [f"error: {bad}: {problem}"]
        assert not out.exists()


class TestParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_first_calls(self, workspace, tmp_path,
                                                    capsys):
        # each call, made after the others in this process, prints and
        # writes what it does as the first call of a fresh process
        data, ckpt = str(workspace["data"]), str(workspace["ckpt"])
        eval_flags = ["eval", "--data", data, "--detections", str(workspace["dets"])]
        calls = [(["detect", "--data", data, "--checkpoint", ckpt, "--out",
                   str(tmp_path / "nms.txt"), "--nms-iou", "0.3"], tmp_path / "nms.txt"),
                 (["detect", "--data", data, "--checkpoint", ckpt, "--out",
                   str(tmp_path / "plain.txt")], tmp_path / "plain.txt"),
                 ([*eval_flags, "--iou", "0.5", "0.75"], None),
                 (eval_flags, None)]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        first = []
        for argv, out in calls:
            proc = subprocess.run([sys.executable, "-m", "polardet.cli", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            first.append((proc.stdout, out and out.read_text()))
        capsys.readouterr()
        for (argv, out), expected in zip(calls, first):
            assert cli.main(argv) == 0
            assert (capsys.readouterr().out, out and out.read_text()) == expected
        assert first[0][1] != first[1][1]  # NMS dropped a box
        assert "IoU 0.75" in first[2][0] and "IoU 0.75" not in first[3][0]

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["train", "--data", "x"])
        assert err.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("k", ["0", "-3"])
    @pytest.mark.parametrize("extractor", ["cc", "topk"])
    @pytest.mark.parametrize("command", ["detect", "extract"])
    def test_k_below_one_is_usage_error(self, tmp_path, capsys, command,
                                        extractor, k):
        # the inputs do not exist: the flag must fail before any file is read
        inputs = {"detect": ["--data", str(tmp_path / "data"),
                             "--checkpoint", str(tmp_path / "ckpt.ckpt")],
                  "extract": ["--heatmap", str(tmp_path / "heat.csv")]}[command]
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as err:
            cli.main([command, *inputs, "--out", str(out),
                      "--extractor", extractor, "--k", k])
        assert err.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()
