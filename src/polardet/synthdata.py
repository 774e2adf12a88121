"""Procedural scenes of rotated rectangles for end-to-end pipeline tests.

Each scene is a grayscale image with a flat noisy background and a handful
of solid rotated rectangles. Classes are told apart by fill intensity.
Placement keeps rectangles inside the frame, keeps centers far enough
apart that boxes stay disjoint, and guarantees every center lands in its
own stride-4 output cell so the regression encoder never collides.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PlacementError
from .geometry import QuadBox


@dataclass(frozen=True)
class SceneSpec:
    width: int = 64
    height: int = 64
    num_classes: int = 2
    min_objects: int = 1
    max_objects: int = 3
    #: short side of a rectangle, pixels
    side_range: tuple[float, float] = (7.0, 11.0)
    #: long side = short side * aspect
    aspect_range: tuple[float, float] = (1.2, 1.8)
    background: float = 0.15
    noise_sigma: float = 0.03
    pole_stride: int = 4
    max_attempts: int = 500

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("need at least one class")
        if not 1 <= self.min_objects <= self.max_objects:
            raise ValueError("need 1 <= min_objects <= max_objects")
        if self.side_range[0] < 2.0:
            raise ValueError("sides below 2 px do not rasterize reliably")

    def class_intensity(self, class_id: int) -> float:
        return 0.35 + 0.6 * (class_id + 1) / self.num_classes


def _corners(cx: float, cy: float, w: float, h: float, phi: float) -> np.ndarray:
    """Rectangle corners in counterclockwise order (positive signed area)."""
    offs = np.array([[w / 2, h / 2], [-w / 2, h / 2], [-w / 2, -h / 2], [w / 2, -h / 2]])
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    return offs @ rot.T + np.array([cx, cy])


def _rasterize(image: np.ndarray, corners: np.ndarray, value: float) -> None:
    """Fill pixels whose centers lie inside the convex CCW quad."""
    h, w = image.shape
    x0 = max(int(math.floor(corners[:, 0].min())), 0)
    x1 = min(int(math.ceil(corners[:, 0].max())) + 1, w)
    y0 = max(int(math.floor(corners[:, 1].min())), 0)
    y1 = min(int(math.ceil(corners[:, 1].max())) + 1, h)
    if x0 >= x1 or y0 >= y1:
        return
    xs = np.arange(x0, x1) + 0.5
    ys = np.arange(y0, y1) + 0.5
    px, py = np.meshgrid(xs, ys)
    inside = np.ones(px.shape, dtype=bool)
    for i in range(4):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % 4]
        inside &= (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0.0
    region = image[y0:y1, x0:x1]
    region[inside] = value


def generate_scene(spec: SceneSpec, rng: np.random.Generator) -> tuple[np.ndarray, list[QuadBox]]:
    """One image plus its ground-truth boxes.

    The object count is uniform over [min_objects, max_objects]. If a later
    object cannot be placed within max_attempts the scene keeps the ones
    already placed; failing to place even min_objects raises PlacementError.
    """
    target = int(rng.integers(spec.min_objects, spec.max_objects + 1))
    centers: list[tuple[float, float]] = []
    radii: list[float] = []
    boxes: list[QuadBox] = []
    params: list[tuple[float, float, float, float, float, int]] = []
    d = spec.pole_stride
    for k in range(target):
        placed = False
        for _ in range(spec.max_attempts):
            short = rng.uniform(*spec.side_range)
            long = short * rng.uniform(*spec.aspect_range)
            phi = rng.uniform(0.0, math.pi)
            radius = math.hypot(short, long) / 2.0
            margin = radius + 1.0
            if spec.width - 2 * margin <= 0 or spec.height - 2 * margin <= 0:
                raise PlacementError("objects larger than the frame")
            cx = rng.uniform(margin, spec.width - margin)
            cy = rng.uniform(margin, spec.height - margin)
            ok = True
            for (ox, oy), orad in zip(centers, radii):
                if math.hypot(cx - ox, cy - oy) < 0.9 * (radius + orad) + 2.0:
                    ok = False
                    break
                if int(cx // d) == int(ox // d) and int(cy // d) == int(oy // d):
                    ok = False
                    break
            if not ok:
                continue
            class_id = int(rng.integers(spec.num_classes))
            centers.append((cx, cy))
            radii.append(radius)
            params.append((cx, cy, long, short, phi, class_id))
            placed = True
            break
        if not placed:
            if k >= spec.min_objects:
                break
            raise PlacementError(f"could not place object {k} after {spec.max_attempts} tries")

    image = np.full((spec.height, spec.width), spec.background)
    for cx, cy, long, short, phi, class_id in params:
        corners = _corners(cx, cy, long, short, phi)
        _rasterize(image, corners, spec.class_intensity(class_id))
        boxes.append(QuadBox(corners, class_id=class_id))
    if spec.noise_sigma > 0.0:
        image = image + rng.normal(0.0, spec.noise_sigma, image.shape)
    return np.clip(image, 0.0, 1.0), boxes


def generate_dataset(spec: SceneSpec, count: int, seed: int):
    """Yield (image_id, image, boxes); each scene gets its own child seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    children = np.random.SeedSequence(seed).spawn(count)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        image, boxes = generate_scene(spec, rng)
        yield f"img_{i:05d}", image, boxes


def class_names(spec: SceneSpec) -> list[str]:
    return [f"class{c}" for c in range(spec.num_classes)]


def write_pgm(path, image: np.ndarray) -> None:
    """Write a float image in [0, 1] as binary 8-bit PGM."""
    data = np.clip(np.asarray(image), 0.0, 1.0)
    quantized = np.round(data * 255.0).astype(np.uint8)
    h, w = quantized.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


# magic, width, height, maxval: each token after whitespace and '#' comments
# (to the end of their line); a token missing at the end of the file is empty
_PGM_HEADER = re.compile(rb"(?:\s|#[^\n]*)*(\S*)" * 4)


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM into its stored (H, W) uint8 raster (a
    read-only view of the file's bytes); ``k / 255`` is the [0, 1] image.

    The raster starts one byte after maxval. A malformed file raises
    ``ValueError`` naming the path and the problem.
    """
    with open(path, "rb", buffering=0) as fh:
        blob = fh.read()
    header = _PGM_HEADER.match(blob)
    magic, *fields = header.groups()
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM: magic {magic!r}")
    values = []
    for name, token in zip(("width", "height", "maxval"), fields):
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"{path}: bad PGM {name} {token!r}") from None
    w, h, maxval = values
    if w < 0 or h < 0:
        raise ValueError(f"{path}: negative PGM size {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pos = header.end() + 1
    if len(blob) - pos < w * h:
        raise ValueError(f"{path}: raster has {max(len(blob) - pos, 0)} of "
                         f"{w * h} bytes")
    raster = np.frombuffer(blob, dtype=np.uint8, count=w * h, offset=pos)
    return raster.reshape(h, w)


def write_dataset(out_dir, spec: SceneSpec, count: int, seed: int) -> list[str]:
    """Materialize a dataset under out_dir; returns the image ids written.

    Layout: images/<id>.pgm, annotations/<id>.txt, classes.txt and a
    manifest.csv tying ids to object counts.
    """
    from .formats import AnnotationRecord, serialize_annotations

    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "annotations").mkdir(parents=True, exist_ok=True)
    names = class_names(spec)
    ids = []
    rows = []
    for image_id, image, boxes in generate_dataset(spec, count, seed):
        write_pgm(out / "images" / f"{image_id}.pgm", image)
        records = [AnnotationRecord(tuple(b.corners.reshape(-1).tolist()),
                                    names[b.class_id]) for b in boxes]
        (out / "annotations" / f"{image_id}.txt").write_text(
            serialize_annotations(records))
        ids.append(image_id)
        rows.append((image_id, len(boxes)))
    (out / "classes.txt").write_text("\n".join(names) + "\n")
    with open(out / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "num_objects"])
        writer.writerows(rows)
    return ids
