import json

import numpy as np
import pytest

from polardet import cli
from polardet.encoding import GridConfig, encode_regression
from polardet.errors import DivergenceError
from polardet.formats import parse_annotations, parse_detections, quad_from_record
from polardet.geometry import quad_to_polar
from polardet.synthdata import read_pgm


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small end-to-end run shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    ckpt = root / "net.npz"
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
        assert cli._read_config(cfg) == {"width": "32", "height": "32"}

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


class TestTrain:
    def test_checkpoint_and_history(self, workspace):
        assert workspace["ckpt"].exists()
        with np.load(workspace["ckpt"]) as data:
            meta = json.loads(data["meta"].item())
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

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code = cli.main(["train", "--data", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "n.npz")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_divergence_maps_to_exit_4(self, workspace, monkeypatch, capsys):
        def explode(*a, **k):
            raise DivergenceError(7)
        monkeypatch.setattr(cli, "train", explode)
        code = cli.main(["train", "--data", str(workspace["data"]),
                         "--out", "/tmp/unused.npz", "--iterations", "1"])
        assert code == 4
        assert "iteration 7" in capsys.readouterr().err

    def test_zero_lr_checkpoint_equals_init(self, workspace, tmp_path, capsys):
        from polardet.toynet import ToyNet, load_checkpoint
        ckpt = tmp_path / "frozen.npz"
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
        paths = [tmp_path / "r1.npz", tmp_path / "r2.npz"]
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
        base = tmp_path / "with_ring.npz"
        ablated = tmp_path / "no_ring.npz"
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
        assert parsed.records
        assert {r.class_name for r in parsed.records} <= {"class0", "class1"}
        ids = {r.image_id for r in parsed.records}
        assert ids <= {f"img_{i:05d}" for i in range(20)}

    def test_topk_extractor_runs(self, workspace, tmp_path):
        out = tmp_path / "topk.txt"
        assert cli.main(["detect", "--data", str(workspace["data"]),
                         "--checkpoint", str(workspace["ckpt"]),
                         "--out", str(out), "--extractor", "topk",
                         "--k", "5"]) == 0
        parsed = parse_detections(out.read_text())
        per_image = {}
        for r in parsed.records:
            per_image[r.image_id] = per_image.get(r.image_id, 0) + 1
        assert all(n <= 5 for n in per_image.values())

    def test_nms_never_increases_count(self, workspace, tmp_path):
        out = tmp_path / "nms.txt"
        assert cli.main(["detect", "--data", str(workspace["data"]),
                         "--checkpoint", str(workspace["ckpt"]),
                         "--out", str(out), "--nms-iou", "0.1"]) == 0
        base = len(parse_detections(workspace["dets"].read_text()).records)
        assert len(parse_detections(out.read_text()).records) <= base

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
        assert not parse_detections(out.read_text()).records

    def test_missing_checkpoint_is_io_error(self, workspace, tmp_path, capsys):
        code = cli.main(["detect", "--data", str(workspace["data"]),
                         "--checkpoint", str(tmp_path / "none.npz"),
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


class TestEval:
    def test_reports_map_per_threshold(self, workspace, capsys):
        assert cli.main(["eval", "--data", str(workspace["data"]),
                         "--detections", str(workspace["dets"]),
                         "--iou", "0.5", "0.75"]) == 0
        out = capsys.readouterr().out
        assert "IoU 0.50: mAP" in out
        assert "IoU 0.75: mAP" in out
        assert "class0: AP" in out

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

    def test_missing_detections_file_is_io_error(self, workspace, tmp_path,
                                                 capsys):
        code = cli.main(["eval", "--data", str(workspace["data"]),
                         "--detections", str(tmp_path / "none.txt")])
        assert code == 3
        capsys.readouterr()


class TestGradCheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert cli.main(["grad-check", "--points", "50"]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 4

    def test_fails_at_absurd_tolerance(self, capsys):
        assert cli.main(["grad-check", "--points", "50",
                         "--tolerance", "1e-18"]) == 5
        assert "[FAIL]" in capsys.readouterr().out

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
        cli.write_heatmap_csv(hm_path, heat)
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
        cli.write_heatmap_csv(hm_path, heat)
        out = tmp_path / "poles.csv"
        assert cli.main(["extract", "--heatmap", str(hm_path),
                         "--out", str(out), "--extractor", "topk",
                         "--k", "2"]) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        assert rows == ["0,1,1,0.800000", "1,4,4,0.600000"]

    def test_heatmap_csv_round_trip(self, tmp_path):
        heat = np.random.default_rng(0).uniform(0, 1, (3, 5, 7))
        path = tmp_path / "h.csv"
        cli.write_heatmap_csv(path, heat)
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
        heat, rho, t1, t2 = cli.read_encoding_csv(out, cfg)

        ann = (data / "annotations" / "img_00003.txt").read_text()
        polars = [quad_to_polar(quad_from_record(r, ["class0", "class1"]))
                  for r in parse_annotations(ann).records]
        sample = encode_regression(polars, cfg)
        np.testing.assert_allclose(heat, sample.heatmap, rtol=1e-8)
        np.testing.assert_allclose(rho, sample.rho, rtol=1e-8)
        np.testing.assert_allclose(t1, sample.theta1, rtol=1e-8)
        np.testing.assert_allclose(t2, sample.theta2, rtol=1e-8)

    def test_unknown_image_id_is_io_error(self, workspace, capsys):
        code = cli.main(["encode-dump", "--data", str(workspace["data"]),
                         "--image-id", "img_99999", "--out", "/tmp/x.csv"])
        assert code == 3
        capsys.readouterr()


class TestParser:
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
