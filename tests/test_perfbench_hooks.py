"""The benchmark harness's hooks into polardet still run.

``perfbench/`` reaches into the package from outside ``src/``:
``spans.conv_shapes`` swaps ``Conv2d.forward`` for a one-argument function to
read the layer shapes, and ``spans.Tracer`` wraps public functions and the
Conv2d and Adam methods by name, and counts poles and boxes with ``len()``
on what ``extract_pole_points``, ``decode_poles`` and ``oriented_nms`` take
and return, and bytes on what ``serialize_detections`` returns. ``toynet.load_checkpoint_ms`` is read from the span of the
``load_checkpoint`` that ``cli`` imports by name, so ``detect`` must make
exactly one such call. A signature change
there crashes the benchmark before it prints a result line, or makes a
counter read something other than a box count, and nothing else in the
suite runs that code. The check runs in a subprocess because importing
``perfbench/run.py`` pins the BLAS thread variables in ``os.environ``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json
import sys
import tempfile

sys.path.insert(0, sys.argv[1])
import run
import spans

import numpy as np
from polardet import cli, geometry, postprocess, toynet
from polardet.encoding import BoxArrays, GridConfig, encode_boxes
from polardet.losses import LossConfig

counts = run.kernel_counts(256)
net = toynet.ToyNet(num_classes=2, base_channels=2)
rng = np.random.default_rng(0)
images = rng.uniform(0, 1, (2, 32, 32))
grid = GridConfig(32, 32, 4, 2)
# one box per image, of class k in image k
boxes = BoxArrays(np.arange(2), np.arange(2), np.array([[14.0, 18.0]] * 2),
                  np.full(2, 5.0), np.array([[0.5, 1.6]] * 2))
targets = encode_boxes(boxes, 2, grid)
# five isolated peaks decode to boxes of radius 12 px: the class-0 pair two
# cells apart overlaps at IoU 0.3, so one of them goes; the class-1 box
# between them stays
heat = np.zeros((2, 8, 8))
for c, y, x, score in [(0, 2, 2, 0.9), (0, 2, 4, 0.8), (1, 2, 3, 0.7),
                       (1, 6, 6, 0.6), (0, 6, 1, 0.5)]:
    heat[c, y, x] = score
plane = np.ones((8, 8))
work = tempfile.TemporaryDirectory()
data, ckpt = f"{work.name}/data", f"{work.name}/net.npz"
with spans.Tracer().installed() as synths:
    synths.record("cli.synth", cli.main,
                  ["synth", "--out", data, "--count", "2", "--width", "32",
                   "--height", "32"])
toynet.save_checkpoint(ckpt, net)
with spans.Tracer().installed() as detects:
    for k in range(2):
        detects.record("cli.detect", cli.main,
                       ["detect", "--data", data, "--checkpoint", ckpt,
                        "--out", f"{work.name}/dets{k}.txt"])
# the crowded workload's commands: detect with NMS, then eval at two IoUs
nms_dets = f"{work.name}/nms_dets.txt"
with spans.Tracer().installed() as scored:
    codes = [scored.record("cli.detect", cli.main,
                           ["detect", "--data", data, "--checkpoint", ckpt,
                            "--out", nms_dets, "--threshold", "0.05",
                            "--nms-iou", "0.3"]),
             scored.record("cli.eval", cli.main,
                           ["eval", "--data", data, "--detections", nms_dets,
                            "--iou", "0.5", "0.75"])]
with open(nms_dets, "rb") as fh:
    nms_bytes = len(fh.read())
work.cleanup()
calls = [i for i, s in enumerate(detects.spans) if s[0] == "cli.detect"]
loads = [[s[3] for s in detects.spans if s[0] == "toynet.load_checkpoint"].count(i)
         for i in calls]
with spans.Tracer().installed() as tracer:
    planes = toynet.predict_planes(net, images[0])
    loss = toynet.compute_batch_loss(net, toynet.image_to_input(images),
                                     targets, LossConfig())
    poles = postprocess.extract_pole_points(heat, 0.3)
    dets = postprocess.decode_poles(poles, 3.0 * plane, 0.5 * plane, 2.0 * plane,
                                    grid).detections
    kept = geometry.oriented_nms(dets.corners, dets.score, dets.class_id, 0.2)
print(json.dumps({"counts": counts, "spans": sorted({s[0] for s in tracer.spans}),
                  "synth_spans": [[s[0], s[3]] for s in synths.spans],
                  "scored": {"codes": codes, "file_bytes": nms_bytes,
                             "spans": sorted({s[0] for s in scored.spans}),
                             "counts": dict(scored.counts)},
                  "loads_per_detect": loads,
                  "heat_shape": list(planes[0].shape), "loss": loss.total,
                  "boxes": {"poles": len(poles.score), "decoded": len(dets.score),
                            "kept": len(kept)},
                  "box_counts": {k: v for k, v in tracer.counts.items()
                                 if k.startswith(("postprocess.", "geometry."))}}))
"""


def test_kernel_counts_and_tracer_run_on_the_package():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    # the net's layer shapes are unchanged, so are its FLOPs per 256x256
    # detect image and per reference-shape train iteration
    assert got["counts"]["toynet.conv_flop_per_detect_image.computed"] == 356253696
    assert got["counts"]["toynet.conv_flop_per_train_iter.computed"] == 534380544
    assert got["heat_shape"] == [2, 8, 8]
    # synth writes its dataset in one write_dataset call, which the tracer
    # times inside the cli.synth span
    assert got["synth_spans"] == [["cli.synth", -1], ["synthdata.write_dataset", 0]]
    # one load_checkpoint span inside each of the two detect calls
    assert got["loads_per_detect"] == [1, 1]
    assert got["loss"] > 0.0
    for name in ("toynet.predict_planes", "toynet.compute_batch_loss",
                 "toynet.stem.fwd", "toynet.stem.bwd", "toynet.head.fwd",
                 "toynet.head.bwd", "losses.pole_focal_loss",
                 "losses.total_regression_loss",
                 "postprocess.extract_pole_points", "postprocess.decode_poles",
                 "geometry.oriented_nms"):
        assert name in got["spans"]
    # the counters read pole and box counts, not the number of fields of a
    # record
    assert got["boxes"] == {"poles": 5, "decoded": 5, "kept": 4}
    assert got["box_counts"] == {"postprocess.poles": 5, "postprocess.decoded": 5,
                                 "geometry.nms_in": 5, "geometry.nms_kept": 4}
    # detect with NMS and eval at two IoUs, as the crowded workload runs
    # them: every span it reads appears, and the byte counter reads the
    # detections file's size
    scored = got["scored"]
    assert scored["codes"] == [0, 0]
    for name in ("geometry.oriented_nms", "evaluation.match_detections",
                 "evaluation.evaluate", "formats.serialize_detections",
                 "formats.parse_detections"):
        assert name in scored["spans"]
    assert scored["file_bytes"] > 0
    assert scored["counts"]["formats.detections_bytes"] == scored["file_bytes"]
