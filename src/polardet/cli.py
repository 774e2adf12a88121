"""Command-line pipeline: synth, train, detect, eval, plus debug helpers.

Datasets on disk follow the layout written by ``polardet synth``:

    <dir>/classes.txt            one class name per line
    <dir>/images/<id>.pgm        8-bit grayscale
    <dir>/annotations/<id>.txt   oriented quads, see formats.py
    <dir>/manifest.csv

Exit codes: 0 success, 2 usage (argparse), 3 unreadable or malformed
files, 4 training divergence, 5 verification failure (grad-check above
tolerance).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .encoding import BoxArrays, GridConfig, Targets, encode_boxes
from .errors import DivergenceError, PolarDetError, ShapeError, VersionError
from .evaluation import EvalReport, evaluate
from .formats import (GroundTruth, class_index, parse_annotation_files,
                      parse_detections, serialize_detections)
from .gradcheck import check_all_losses, check_net_gradients
from .geometry import check_iou_threshold, oriented_nms, quads_to_polar
from .losses import LossConfig
from .postprocess import (Detections, Poles, check_score_threshold,
                          decode_poles, extract_pole_points)
from .synthdata import (SceneSpec, generate_scene, pgm_layout, read_bytes, read_pgm,
                        write_dataset)
from .toynet import (ToyNet, TrainConfig, image_to_input, load_checkpoint,
                     predict_planes, save_checkpoint, train)

EXIT_OK = 0
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_VERIFY = 5


def _read_text(path) -> str:
    """The text of a UTF-8 file; a ``ValueError`` names a file that is not."""
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


#: the --config keys each command reads, and how each value is read
_SYNTH_SETTINGS = {"width": int, "height": int, "num_classes": int,
                   "min_objects": int, "max_objects": int, "side_min": float,
                   "side_max": float, "aspect_min": float, "aspect_max": float,
                   "background": float, "noise_sigma": float}
_TRAIN_SETTINGS = {"learning_rate": float, "batch_size": int, "iterations": int,
                   "lambda_ring": float, "base_channels": int}


def _read_config(path, command: str, settings: dict) -> dict:
    """The values of ``command``'s ``settings`` set by the key=value lines
    of the config file ``path``, each read by its setting's type; blank
    lines and '#' comments allowed, and a later line wins.

    A line that is not key=value, or a value its type cannot read, raises
    ``ValueError`` naming the file, the line and the text. A key that is
    not one of ``settings`` gets one warning and is ignored.
    """
    out, unknown = {}, set()
    for number, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {number}: bad config line {raw!r}, "
                             "not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        cast = settings.get(key)
        if cast is None:
            if key not in unknown:
                print(f"warning: {path}: key {key!r} is not a {command} setting; "
                      "ignored", file=sys.stderr)
                unknown.add(key)
            continue
        try:
            out[key] = cast(value)
        except ValueError:
            raise ValueError(f"{path}: line {number}: {key}={value!r} is not "
                             f"a valid {cast.__name__}") from None
    return out


def _resolve(flag_value, config: dict, key: str, default):
    """Precedence: explicit flag > config file > default."""
    if flag_value is not None:
        return flag_value
    return config.get(key, default)


def _load_dataset(data_dir) -> tuple[list[str], list[str]]:
    """Return (class_names, image_ids): the names of classes.txt, stripped
    of surrounding whitespace, none twice, and the ids of images/<id>.pgm,
    sorted as strings."""
    data = Path(data_dir)
    path = data / "classes.txt"
    names = [n for n in map(str.strip, _read_text(path).splitlines()) if n]
    repeated = [n for k, n in enumerate(names) if n in names[:k]]
    if repeated:
        raise ValueError(f"{path}: class {repeated[0]!r} is listed twice")
    images = data / "images"
    ids = sorted(f[:-len(".pgm")] for f in (os.listdir(images) if images.is_dir() else [])
                 if f.endswith(".pgm"))
    if not ids:
        raise FileNotFoundError(f"no images under {images}")
    return names, ids


def _read_images(data_dir, image_ids: list[str]) -> np.ndarray:
    """The images' (N, H, W) uint8 rasters; they must share one shape.

    Each file is read once and its raster copied into the stack. A file
    that holds the first file's header and then exactly a raster of its
    size, as every file ``synth`` writes, is taken without parsing its
    header again; any other goes through ``pgm_layout``, which raises for a
    malformed one.
    """
    folder = Path(data_dir) / "images"
    header = None
    for k, image_id in enumerate(image_ids):
        path = f"{folder}/{image_id}.pgm"
        blob = read_bytes(path)
        if header is not None and len(blob) == len(header) + area and blob.startswith(header):
            pos = len(header)
        else:
            h, w, pos = pgm_layout(blob, path)
            if header is None:
                shape, header, area = (h, w), blob[:pos], h * w
                rasters = bytearray(len(image_ids) * area)
            elif (h, w) != shape:
                raise ShapeError(f"{image_id}: image {(h, w)} differs from {shape}")
        rasters[k * area:(k + 1) * area] = memoryview(blob)[pos:pos + area]
    return np.frombuffer(rasters, dtype=np.uint8).reshape(-1, *shape)


# annotation files parsed in one pass: enough to share the per-call cost,
# few enough that their tokens stay small next to the dataset's arrays
_ANNOTATION_BATCH = 100


def _read_ground_truth(data_dir, image_ids: list[str],
                       class_names: list[str]) -> GroundTruth:
    """The images' annotations as one array set, their files read and
    parsed ``_ANNOTATION_BATCH`` at a time. Each file's warnings go to
    stderr in file order, up to the first file that cannot be read or holds
    an unknown class, which raises after its own warnings."""
    folder = Path(data_dir) / "annotations"
    paths = [f"{folder}/{image_id}.txt" for image_id in image_ids]
    index = class_index(class_names)
    parts, counts = [], []
    for lo in range(0, len(paths), _ANNOTATION_BATCH):
        texts, error = [], None
        try:  # the texts read before a failure stay, and are parsed
            texts += map(_read_text, paths[lo:lo + _ANNOTATION_BATCH])
        except (OSError, ValueError) as exc:  # raised after their warnings
            error = exc
        parsed, file_counts, warnings = parse_annotation_files(texts)
        parts.append(parsed)
        counts += file_counts
        unknown = [k for k, name in enumerate(parsed.class_name) if name not in index]
        if unknown:  # the warnings up to the file of the first
            del warnings[np.searchsorted(np.cumsum(file_counts), unknown[0], "right") + 1:]
        for path, file_warnings in zip(paths[lo:], warnings):
            for w in file_warnings:
                print(f"{path}: {w}", file=sys.stderr)
        if unknown:
            break  # GroundTruth.stack raises UnknownClass for it
        if error is not None:
            raise error
    return GroundTruth.stack(parts, counts, class_names)


def read_heatmap_csv(path) -> np.ndarray:
    """The (C, H, W) heatmap of a UTF-8 CSV file: one block of
    comma-separated rows per channel, blocks split by blank lines, LF or
    CRLF. A value that is not a number, a row whose length differs from
    its block's first and channels of different shapes raise an error
    naming the file."""
    channels, rows = [], []
    for number, line in enumerate(_read_text(path).splitlines() + [""], 1):
        if line.strip():
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
            if len(rows[-1]) != len(rows[0]):
                raise ShapeError(f"{path}: line {number}: row length {len(rows[-1])}, "
                                 f"the channel's first row has {len(rows[0])}")
        elif rows:
            channels.append(np.asarray(rows, dtype=np.float64))
            rows = []
    if not channels:
        raise ShapeError(f"{path}: empty heatmap file")
    if any(c.shape != channels[0].shape for c in channels):
        raise ShapeError(f"{path}: heatmap channels differ in shape")
    return np.stack(channels)


def write_encoding_csv(path, targets: Targets, cfg: GridConfig) -> None:
    """Sparse dump of one image's targets: nonzero heatmap cells, then each
    regression value at the pole cells in row-major cell order."""
    heat = targets.heat[0]
    cx, cy = targets.cell.T
    order = np.lexsort((cx, cy))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["map", "class", "cell_x", "cell_y", "value"])
        for c in range(cfg.num_classes):
            for gy, gx in np.argwhere(heat[c] > 0.0):
                writer.writerow(["heat", c, gx, gy, f"{heat[c, gy, gx]:.9g}"])
        for j, name in enumerate(("rho", "theta1", "theta2")):
            for gx, gy, v in zip(cx[order], cy[order], targets.value[order, j]):
                writer.writerow([name, "", gx, gy, f"{v:.9g}"])


def _encode(gt: GroundTruth, num_images: int, cfg: GridConfig) -> Targets:
    """Training targets of ``num_images`` images from their ground truth."""
    boxes = BoxArrays(gt.image, gt.class_id, *quads_to_polar(gt.corners))
    return encode_boxes(boxes, num_images, cfg)


def _encode_items(data_dir, image_ids: list[str], class_names, stride: int):
    """(images, targets, grid): the images' (N, H, W) rasters and the
    targets of all of them, encoded at once."""
    images = _read_images(data_dir, image_ids)
    grid_cfg = GridConfig(images.shape[2], images.shape[1], stride, len(class_names))
    targets = _encode(_read_ground_truth(data_dir, image_ids, class_names),
                      len(image_ids), grid_cfg)
    return images, targets, grid_cfg


def cmd_synth(args) -> int:
    config = _read_config(args.config, "synth", _SYNTH_SETTINGS) if args.config else {}
    spec = SceneSpec(
        width=_resolve(args.width, config, "width", 64),
        height=_resolve(args.height, config, "height", 64),
        num_classes=_resolve(args.classes, config, "num_classes", 2),
        min_objects=_resolve(args.objects, config, "min_objects", 1),
        max_objects=_resolve(args.objects, config, "max_objects", 3),
        side_range=(config.get("side_min", 7.0), config.get("side_max", 11.0)),
        aspect_range=(config.get("aspect_min", 1.2), config.get("aspect_max", 1.8)),
        background=config.get("background", 0.15),
        noise_sigma=config.get("noise_sigma", 0.03),
    )
    ids = write_dataset(args.out, spec, args.count, args.seed)
    print(f"wrote {len(ids)} images to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _read_config(args.config, "train", _TRAIN_SETTINGS) if args.config else {}
    class_names, image_ids = _load_dataset(args.data)
    images, targets, _grid = _encode_items(args.data, image_ids, class_names,
                                           stride=ToyNet.stride)
    cfg = TrainConfig(
        learning_rate=_resolve(args.lr, config, "learning_rate", 0.0025),
        batch_size=_resolve(args.batch, config, "batch_size", 8),
        iterations=_resolve(args.iterations, config, "iterations", 3000),
        seed=args.seed,
    )
    loss_cfg = LossConfig(lambda_ring=_resolve(args.lambda_ring, config,
                                               "lambda_ring", 0.01))
    base_channels = _resolve(args.base_channels, config, "base_channels", 16)
    net = ToyNet(len(class_names), base_channels, seed=args.seed)

    def progress(it, stats):
        if args.log_every and (it % args.log_every == 0 or it == cfg.iterations - 1):
            print(f"iter {it}: loss {stats.total:.4f} "
                  f"(pole {stats.pole:.4f}, reg {stats.reg:.4f})", flush=True)

    history = train(net, images, targets, cfg, loss_cfg, callback=progress)
    save_checkpoint(args.out, net, extra={
        "classes": class_names,
        "iterations": cfg.iterations,
        "final_loss": history[-1].total,
    })
    if args.history:
        with open(args.history, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "total", "pole", "reg"])
            writer.writerows((i, *h) for i, h in enumerate(history))
    print(f"trained {cfg.iterations} iterations on {len(images)} images; "
          f"final loss {history[-1].total:.4f}; checkpoint at {args.out}")
    return EXIT_OK


def _extract(heatmap: np.ndarray, args) -> Poles:
    """The ranked poles: every one for ``--extractor cc``, the first ``--k``
    for ``topk``."""
    return extract_pole_points(heatmap, args.threshold,
                               args.k if args.extractor == "topk" else None)


def cmd_detect(args) -> int:
    # checked before the checkpoint loads; NMS runs only on images with
    # detections, so its threshold is checked here too
    check_score_threshold(args.threshold)
    if args.nms_iou is not None:
        check_iou_threshold(args.nms_iou)
    class_names, image_ids = _load_dataset(args.data)
    net, _meta = load_checkpoint(args.checkpoint)
    if net.num_classes != len(class_names):
        raise VersionError(f"checkpoint has {net.num_classes} classes, "
                           f"dataset lists {len(class_names)}")
    ids, scores, corners, names = [], [], [], []
    dropped = 0
    folder = Path(args.data) / "images"
    for image_id in image_ids:
        image = read_pgm(f"{folder}/{image_id}.pgm")
        cfg = GridConfig(image.shape[1], image.shape[0], net.stride,
                         net.num_classes)
        heat, rho, t1, t2 = predict_planes(net, image)
        result = decode_poles(_extract(heat, args), rho, t1, t2, cfg)
        dropped += result.dropped_invalid
        dets = result.detections
        rows = np.arange(len(dets))
        if args.nms_iou is not None:
            kept = np.array(oriented_nms(dets.corners, dets.score, dets.class_id,
                                         args.nms_iou), dtype=np.intp)
            rows = kept[np.lexsort((kept, dets.class_id[kept]))]  # class-major
        ids += [image_id] * len(rows)
        scores.append(dets.score[rows])
        corners.append(dets.corners[rows])
        names += [class_names[c] for c in dets.class_id[rows].tolist()]
    Path(args.out).write_text(serialize_detections(
        ids, np.concatenate(scores), np.concatenate(corners), names), encoding="utf-8")
    print(f"wrote {len(ids)} detections for {len(image_ids)} images "
          f"({dropped} invalid poles dropped)")
    return EXIT_OK


def _read_detections(text: str, class_names: list[str],
                     image_ids: list[str]) -> tuple[Detections, np.ndarray]:
    """The detections file's rows of known images and classes, and the
    index of each row's image, image after image and in file order within
    one; rows of an unknown image or class are skipped."""
    parsed = parse_detections(text)
    for w in parsed.warnings:
        print(f"detections: {w}", file=sys.stderr)
    image_of = {image_id: k for k, image_id in enumerate(image_ids)}
    class_of = class_index(class_names)
    images, names = parsed.image_id, parsed.class_name
    image = np.array([image_of.get(i, -1) for i in images], dtype=np.intp)
    class_id = np.array([class_of.get(n, -1) for n in names], dtype=np.intp)
    for k in np.flatnonzero((image < 0) | (class_id < 0)).tolist():
        if image[k] < 0:
            print(f"detections: unknown image {images[k]!r} skipped", file=sys.stderr)
        else:
            print(f"detections: unknown class {names[k]!r} skipped", file=sys.stderr)
    rows = np.flatnonzero((image >= 0) & (class_id >= 0))
    rows = rows[np.argsort(image[rows], kind="stable")]
    return (Detections(parsed.corners[rows], class_id[rows], parsed.score[rows]),
            image[rows])


def score(data_dir, detections_path, ious) -> tuple[list[EvalReport], list[str]]:
    """``eval``'s scoring: one report per IoU threshold in ``ious`` for the
    detections file against the dataset, and the dataset's class names.
    Annotation and detection-file warnings go to stderr."""
    class_names, image_ids = _load_dataset(data_dir)
    gt = _read_ground_truth(data_dir, image_ids, class_names)
    dets, image = _read_detections(_read_text(detections_path), class_names, image_ids)
    return evaluate(dets, image, gt, ious), class_names


def cmd_eval(args) -> int:
    reports, class_names = score(args.data, args.detections, args.iou)
    for iou, report in zip(args.iou, reports):
        print(f"IoU {iou:.2f}: mAP {report.mean_ap:.4f}")
        for c, ce in sorted(report.per_class.items()):
            print(f"  {class_names[c]}: AP {ce.ap:.4f} "
                  f"(gt {ce.num_gt}, det {ce.num_det})")
        if args.pr_out:
            out = Path(args.pr_out)
            out.mkdir(parents=True, exist_ok=True)
            for c, ce in sorted(report.per_class.items()):
                path = out / f"pr_iou{iou:.2f}_{class_names[c]}.csv"
                with open(path, "w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["recall", "precision", "score"])
                    writer.writerows(ce.curve)
    return EXIT_OK


def cmd_grad_check(args) -> int:
    losses = None if args.loss == "all" else [args.loss]
    summaries = check_all_losses(seed=args.seed, num_points=args.points,
                                 losses=losses)
    if args.with_net:
        rng = np.random.default_rng(args.seed)
        net = ToyNet(num_classes=2, base_channels=2, seed=args.seed,
                     dtype=np.float64)
        spec = SceneSpec(width=32, height=32, num_classes=2, max_objects=2)
        image, corners, class_id = generate_scene(spec, rng)
        cfg = GridConfig(32, 32, 4, 2)
        gt = GroundTruth(np.zeros(len(class_id), dtype=np.intp), class_id, corners,
                         np.zeros(len(class_id), dtype=bool))
        summaries.append(check_net_gradients(
            net, image_to_input(image), _encode(gt, 1, cfg), LossConfig(), rng,
            num_coords=args.net_coords))
    failed = False
    for s in summaries:
        tol = args.net_tolerance if s.name == "toynet_backward" else args.tolerance
        status = "ok" if s.max_rel_error <= tol else "FAIL"
        if status == "FAIL":
            failed = True
        print(f"{s.name}: points={s.num_points} max_rel_err={s.max_rel_error:.3e} "
              f"mean={s.mean_rel_error:.3e} [{status}]")
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["loss", "points", "max_rel_err", "mean_rel_err"])
            writer.writerows((s.name, s.num_points, f"{s.max_rel_error:.9e}",
                              f"{s.mean_rel_error:.9e}") for s in summaries)
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_extract(args) -> int:
    poles = _extract(read_heatmap_csv(args.heatmap), args)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "cell_x", "cell_y", "score"])
        rows = zip(poles.class_id.tolist(), poles.cell_x.tolist(),
                   poles.cell_y.tolist(), poles.score.tolist())
        writer.writerows((c, x, y, f"{score:.6f}") for c, x, y, score in rows)
    print(f"extracted {len(poles)} pole points")
    return EXIT_OK


def cmd_encode_dump(args) -> int:
    class_names, image_ids = _load_dataset(args.data)
    if args.image_id not in image_ids:
        raise FileNotFoundError(f"image id {args.image_id!r} not in {args.data}")
    _images, targets, cfg = _encode_items(args.data, [args.image_id], class_names,
                                          args.stride)
    write_encoding_csv(args.out, targets, cfg)
    print(f"encoded {len(targets.class_id)} objects from {args.image_id} "
          f"onto {cfg.grid_w}x{cfg.grid_h} grid")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError("must be finite and >= 0")
    return value


def _add_extraction_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=float, default=0.3)
    p.add_argument("--extractor", choices=("cc", "topk"), default="cc",
                   help="cc: every pole (thresholded 3x3 local maximum); "
                        "topk: the --k highest-scoring of them")
    p.add_argument("--k", type=_positive_int, default=100,
                   help="poles kept per heatmap by --extractor topk")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at the first call.

    Every parse shares it and its defaults, so no default is a mutable
    object (``--iou``'s is a tuple) and no caller may modify the parser.
    """
    parser = argparse.ArgumentParser(
        prog="polardet",
        description="oriented object detection in polar coordinates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", "--n", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="key=value overrides for the scene spec")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--objects", type=int,
                   help="exact object count per scene (sets min and max)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the detector on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--config", help="key=value overrides for training")
    p.add_argument("--iters", "--iterations", type=_positive_int, dest="iterations")
    p.add_argument("--batch", type=_positive_int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lambda-ring", type=float,
                   help="ring-loss weight inside the regression term")
    p.add_argument("--base-channels", type=_positive_int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log-every", type=_non_negative_int, default=200,
                   help="print the loss every this many iterations; 0: never")
    p.add_argument("--history", help="write per-iteration loss CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="run a checkpoint over a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    _add_extraction_flags(p)
    p.add_argument("--nms-iou", type=float, default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score a detections file against a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--iou", type=float, nargs="+", default=(0.5,))
    p.add_argument("--pr-out", help="directory for precision-recall CSVs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    p.add_argument("--points", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=_tolerance, default=1e-4)
    p.add_argument("--loss", choices=("focal", "smooth_l1", "ring",
                                      "total_reg", "all"), default="all")
    p.add_argument("--with-net", action="store_true")
    p.add_argument("--net-coords", type=_positive_int, default=50)
    p.add_argument("--net-tolerance", type=_tolerance, default=1e-3)
    p.add_argument("--out", help="also write the results as CSV here")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("extract", help="pole extraction from a heatmap CSV")
    p.add_argument("--heatmap", required=True)
    p.add_argument("--out", required=True)
    _add_extraction_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("encode-dump", help="dump encoded targets for one image")
    p.add_argument("--data", required=True)
    p.add_argument("--image-id", required=True)
    p.add_argument("--stride", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode_dump)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; usage errors exit 2.

    Cheap to call repeatedly in one process: the parser is built once, and
    no call leaves state that a later one reads.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ValueError, PolarDetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
