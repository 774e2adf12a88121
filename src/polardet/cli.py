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
import sys
from pathlib import Path

import numpy as np

from .encoding import GridConfig, encode_regression
from .errors import DivergenceError, PolarDetError, ShapeError, VersionError
from .evaluation import evaluate
from .formats import (parse_annotations, parse_detections, quad_from_record,
                      record_from_detection, serialize_detections)
from .gradcheck import check_all_losses, check_net_gradients
from .geometry import (QuadBox, check_iou_threshold, oriented_nms,
                       quad_to_polar)
from .losses import LossConfig
from .postprocess import (Detection, check_score_threshold, decode_detections,
                          decode_poles, extract_pole_points, topk_extract)
from .synthdata import SceneSpec, generate_scene, read_pgm, write_dataset
from .toynet import (ToyNet, TrainConfig, TrainingSample, image_to_input,
                     load_checkpoint, predict_planes, save_checkpoint, train)

EXIT_OK = 0
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_VERIFY = 5


def _read_config(path) -> dict[str, str]:
    """key=value lines; blank lines and '#' comments allowed."""
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _resolve(flag_value, config: dict, key: str, default, cast):
    """Precedence: explicit flag > config file > default."""
    if flag_value is not None:
        return flag_value
    if key in config:
        return cast(config[key])
    return default


def _load_dataset(data_dir):
    """Return (class_names, [(image_id, image_path, annotation_path)])."""
    data = Path(data_dir)
    names = [n for n in (data / "classes.txt").read_text().splitlines() if n.strip()]
    items = []
    for img_path in sorted((data / "images").glob("*.pgm")):
        ann_path = data / "annotations" / (img_path.stem + ".txt")
        items.append((img_path.stem, img_path, ann_path))
    if not items:
        raise FileNotFoundError(f"no images under {data / 'images'}")
    return names, items


def _load_ground_truth(items, class_names):
    gt = {}
    for image_id, _img, ann_path in items:
        parsed = parse_annotations(ann_path.read_text())
        for w in parsed.warnings:
            print(f"{ann_path}: {w}", file=sys.stderr)
        gt[image_id] = [quad_from_record(r, class_names) for r in parsed.records]
    return gt


def write_heatmap_csv(path, heatmap: np.ndarray) -> None:
    """Dense channel blocks of comma-separated rows, blank line between."""
    with open(path, "w") as fh:
        for c, channel in enumerate(np.asarray(heatmap)):
            if c:
                fh.write("\n")
            for row in channel:
                fh.write(",".join(f"{v:.9g}" for v in row) + "\n")


def read_heatmap_csv(path) -> np.ndarray:
    blocks = [b for b in Path(path).read_text().split("\n\n") if b.strip()]
    channels = []
    for block in blocks:
        rows = [[float(v) for v in line.split(",")]
                for line in block.strip().splitlines()]
        channels.append(np.asarray(rows, dtype=np.float64))
    if not channels:
        raise ShapeError("empty heatmap file")
    shape = channels[0].shape
    if any(c.shape != shape for c in channels):
        raise ShapeError("heatmap channels differ in shape")
    return np.stack(channels)


def write_encoding_csv(path, sample, cfg: GridConfig) -> None:
    """Sparse dump: nonzero heatmap cells plus pole-cell regression values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["map", "class", "cell_x", "cell_y", "value"])
        for c in range(cfg.num_classes):
            for gy, gx in np.argwhere(sample.heatmap[c] > 0.0):
                writer.writerow(["heat", c, gx, gy, f"{sample.heatmap[c, gy, gx]:.9g}"])
        for name, plane in (("rho", sample.rho), ("theta1", sample.theta1),
                            ("theta2", sample.theta2)):
            for gy, gx in np.argwhere(sample.pole_mask):
                writer.writerow([name, "", gx, gy, f"{plane[gy, gx]:.9g}"])


def read_encoding_csv(path, cfg: GridConfig):
    """Rebuild (heatmap, rho, theta1, theta2) arrays from a sparse dump."""
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


def _encode_items(items, class_names, stride: int):
    """Load images and encode annotations into training samples."""
    samples = []
    grid_cfg = None
    for image_id, img_path, ann_path in items:
        image = read_pgm(img_path)
        if grid_cfg is None:
            grid_cfg = GridConfig(image.shape[1], image.shape[0], stride,
                                  len(class_names))
        elif image.shape != (grid_cfg.height, grid_cfg.width):
            raise ShapeError(f"{image_id}: image {image.shape} differs from "
                             f"({grid_cfg.height}, {grid_cfg.width})")
        parsed = parse_annotations(ann_path.read_text())
        for w in parsed.warnings:
            print(f"{ann_path}: {w}", file=sys.stderr)
        polars = [quad_to_polar(quad_from_record(r, class_names))
                  for r in parsed.records]
        samples.append(TrainingSample(image, encode_regression(polars, grid_cfg)))
    return samples, grid_cfg


def cmd_synth(args) -> int:
    config = _read_config(args.config) if args.config else {}
    spec = SceneSpec(
        width=_resolve(args.width, config, "width", 64, int),
        height=_resolve(args.height, config, "height", 64, int),
        num_classes=_resolve(args.classes, config, "num_classes", 2, int),
        min_objects=_resolve(args.objects, config, "min_objects", 1, int),
        max_objects=_resolve(args.objects, config, "max_objects", 3, int),
        side_range=(float(config.get("side_min", 7.0)),
                    float(config.get("side_max", 11.0))),
        aspect_range=(float(config.get("aspect_min", 1.2)),
                      float(config.get("aspect_max", 1.8))),
        background=float(config.get("background", 0.15)),
        noise_sigma=float(config.get("noise_sigma", 0.03)),
    )
    ids = write_dataset(args.out, spec, args.count, args.seed)
    print(f"wrote {len(ids)} images to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _read_config(args.config) if args.config else {}
    class_names, items = _load_dataset(args.data)
    samples, _grid = _encode_items(items, class_names, stride=ToyNet.stride)
    cfg = TrainConfig(
        learning_rate=_resolve(args.lr, config, "learning_rate", 0.0025, float),
        batch_size=_resolve(args.batch, config, "batch_size", 8, int),
        iterations=_resolve(args.iterations, config, "iterations", 3000, int),
        seed=args.seed,
    )
    loss_cfg = LossConfig(lambda_ring=_resolve(args.lambda_ring, config,
                                               "lambda_ring", 0.01, float))
    base_channels = _resolve(args.base_channels, config, "base_channels", 16, int)
    net = ToyNet(len(class_names), base_channels, seed=args.seed)

    def progress(it, stats):
        if args.log_every and (it % args.log_every == 0 or it == cfg.iterations - 1):
            print(f"iter {it}: loss {stats.total:.4f} "
                  f"(pole {stats.pole:.4f}, reg {stats.reg:.4f})", flush=True)

    history = train(net, samples, cfg, loss_cfg, callback=progress)
    save_checkpoint(args.out, net, extra={
        "classes": class_names,
        "iterations": cfg.iterations,
        "final_loss": history[-1].total,
    })
    if args.history:
        with open(args.history, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "total", "pole", "reg"])
            writer.writerows(history)
    print(f"trained {cfg.iterations} iterations on {len(samples)} images; "
          f"final loss {history[-1].total:.4f}; checkpoint at {args.out}")
    return EXIT_OK


def _nms_filter(dets: list[Detection], iou: float) -> list[Detection]:
    kept_all = []
    for class_id in sorted({d.class_id for d in dets}):
        group = [d for d in dets if d.class_id == class_id]
        kept = oriented_nms([(d.quad, d.score) for d in group], iou)
        kept_all.extend(group[i] for i in sorted(kept))
    return kept_all


def cmd_detect(args) -> int:
    # checked up front: topk never binarizes, and NMS sees only detections
    check_score_threshold(args.threshold)
    if args.nms_iou is not None:
        check_iou_threshold(args.nms_iou)
    class_names, items = _load_dataset(args.data)
    net, _meta = load_checkpoint(args.checkpoint)
    if net.num_classes != len(class_names):
        raise VersionError(f"checkpoint has {net.num_classes} classes, "
                           f"dataset lists {len(class_names)}")
    records = []
    dropped = 0
    for image_id, img_path, _ann in items:
        image = read_pgm(img_path)
        cfg = GridConfig(image.shape[1], image.shape[0], net.stride,
                         net.num_classes)
        heat, rho, t1, t2 = predict_planes(net, image)
        if args.extractor == "cc":
            result = decode_detections(heat, rho, t1, t2, args.threshold, cfg)
        else:
            poles = topk_extract(heat, args.k)
            poles = [p for p in poles if p.score >= args.threshold]
            result = decode_poles(poles, rho, t1, t2, cfg)
        dropped += result.dropped_invalid
        dets = result.detections
        if args.nms_iou is not None:
            dets = _nms_filter(dets, args.nms_iou)
        records.extend(record_from_detection(image_id, d, class_names)
                       for d in dets)
    Path(args.out).write_text(serialize_detections(records))
    print(f"wrote {len(records)} detections for {len(items)} images "
          f"({dropped} invalid poles dropped)")
    return EXIT_OK


def _detections_by_image(text: str, class_names: list[str]):
    parsed = parse_detections(text)
    for w in parsed.warnings:
        print(f"detections: {w}", file=sys.stderr)
    by_image: dict[str, list[Detection]] = {}
    for r in parsed.records:
        if r.class_name not in class_names:
            print(f"detections: unknown class {r.class_name!r} skipped",
                  file=sys.stderr)
            continue
        quad = QuadBox(np.asarray(r.corners).reshape(4, 2),
                       class_id=class_names.index(r.class_name))
        by_image.setdefault(r.image_id, []).append(
            Detection(quad, quad.class_id, r.score))
    return by_image


def cmd_eval(args) -> int:
    class_names, items = _load_dataset(args.data)
    gt = _load_ground_truth(items, class_names)
    dets = _detections_by_image(Path(args.detections).read_text(), class_names)
    for iou in args.iou:
        report = evaluate(dets, gt, iou)
        print(f"IoU {iou:.2f}: mAP {report.mean_ap:.4f}")
        for c, ce in sorted(report.per_class.items()):
            print(f"  {class_names[c]}: AP {ce.ap:.4f} "
                  f"(gt {ce.num_gt}, det {ce.num_det})")
        if args.pr_out:
            out = Path(args.pr_out)
            out.mkdir(parents=True, exist_ok=True)
            for c, ce in sorted(report.per_class.items()):
                path = out / f"pr_iou{iou:.2f}_{class_names[c]}.csv"
                with open(path, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["recall", "precision", "score"])
                    writer.writerows((p.recall, p.precision, p.score)
                                     for p in ce.curve)
    return EXIT_OK


def cmd_grad_check(args) -> int:
    losses = None if args.loss == "all" else [args.loss]
    summaries = check_all_losses(seed=args.seed, num_points=args.points,
                                 losses=losses)
    if args.with_net:
        rng = np.random.default_rng(args.seed)
        net = ToyNet(num_classes=2, base_channels=2, seed=args.seed)
        spec = SceneSpec(width=32, height=32, num_classes=2, max_objects=2)
        image, boxes = generate_scene(spec, rng)
        cfg = GridConfig(32, 32, 4, 2)
        target = encode_regression([quad_to_polar(b) for b in boxes], cfg)
        summaries.append(check_net_gradients(
            net, image_to_input(image), [target], LossConfig(), rng,
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
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["loss", "points", "max_rel_err", "mean_rel_err"])
            writer.writerows((s.name, s.num_points, f"{s.max_rel_error:.9e}",
                              f"{s.mean_rel_error:.9e}") for s in summaries)
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_extract(args) -> int:
    heatmap = read_heatmap_csv(args.heatmap)
    if args.extractor == "cc":
        poles = extract_pole_points(heatmap, args.threshold)
    else:
        poles = topk_extract(heatmap, args.k)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "cell_x", "cell_y", "score"])
        writer.writerows((p.class_id, p.cell_x, p.cell_y, f"{p.score:.6f}")
                         for p in poles)
    print(f"extracted {len(poles)} pole points")
    return EXIT_OK


def cmd_encode_dump(args) -> int:
    class_names, items = _load_dataset(args.data)
    match = [it for it in items if it[0] == args.image_id]
    if not match:
        raise FileNotFoundError(f"image id {args.image_id!r} not in {args.data}")
    image_id, img_path, ann_path = match[0]
    image = read_pgm(img_path)
    cfg = GridConfig(image.shape[1], image.shape[0], args.stride,
                     len(class_names))
    parsed = parse_annotations(ann_path.read_text())
    polars = [quad_to_polar(quad_from_record(r, class_names))
              for r in parsed.records]
    sample = encode_regression(polars, cfg)
    write_encoding_csv(args.out, sample, cfg)
    print(f"encoded {len(polars)} objects from {image_id} onto "
          f"{cfg.grid_w}x{cfg.grid_h} grid")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--config", help="key=value overrides for training")
    p.add_argument("--iters", "--iterations", type=int, dest="iterations")
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lambda-ring", type=float,
                   help="ring-loss weight inside the regression term")
    p.add_argument("--base-channels", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log-every", type=int, default=200)
    p.add_argument("--history", help="write per-iteration loss CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="run a checkpoint over a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=0.3)
    p.add_argument("--extractor", choices=("cc", "topk"), default="cc")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--nms-iou", type=float, default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score a detections file against a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--iou", type=float, nargs="+", default=[0.5])
    p.add_argument("--pr-out", help="directory for precision-recall CSVs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--loss", choices=("focal", "smooth_l1", "ring",
                                      "total_reg", "all"), default="all")
    p.add_argument("--with-net", action="store_true")
    p.add_argument("--net-coords", type=int, default=50)
    p.add_argument("--net-tolerance", type=float, default=1e-3)
    p.add_argument("--out", help="also write the results as CSV here")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("extract", help="pole extraction from a heatmap CSV")
    p.add_argument("--heatmap", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=0.3)
    p.add_argument("--extractor", choices=("cc", "topk"), default="cc")
    p.add_argument("--k", type=int, default=100)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("encode-dump", help="dump encoded targets for one image")
    p.add_argument("--data", required=True)
    p.add_argument("--image-id", required=True)
    p.add_argument("--stride", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, VersionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PolarDetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
