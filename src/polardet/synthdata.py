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
import os
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import PlacementError


@dataclass(frozen=True)
class SceneSpec:
    """What to draw. A spec no scene can be drawn from (a non-finite or
    out-of-range value, an unordered range) raises ``ValueError`` naming
    the field."""

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
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("width", "height", "num_classes", "pole_stride",
                     "max_attempts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 1 <= self.min_objects <= self.max_objects:
            raise ValueError("need 1 <= min_objects <= max_objects")
        for name in ("side_range", "aspect_range"):
            low, high = getattr(self, name)
            if low > high:
                raise ValueError(f"{name} must be ordered, got {(low, high)}")
        if self.side_range[0] < 2.0:
            raise ValueError("side_range: sides below 2 px do not rasterize reliably")
        if not 0.0 <= self.background <= 1.0:
            raise ValueError(f"background must be in [0, 1], got {self.background}")
        if self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")

    def class_intensity(self, class_id: int) -> float:
        return 0.35 + 0.6 * (class_id + 1) / self.num_classes


#: a rectangle's corner offsets in units of its half sides, counterclockwise
_HALF_SIDE_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])

#: relative distance from a spacing limit inside which ``np.hypot``, which
#: may differ from ``math.hypot`` in the last bit, does not decide
_HYPOT_SCREEN = 1e-12


def _crowds(x: float, y: float, radius: float, centers: np.ndarray,
            radii: np.ndarray) -> bool:
    """Whether a centre (x, y) of circumradius ``radius`` lies closer than
    0.9 (radius + r) + 2 px to any placed centre (``centers`` (n, 2)) of
    circumradius r.

    ``np.hypot`` only screens: distances within a relative ``_HYPOT_SCREEN``
    of their limit are taken again with ``math.hypot``.
    """
    ratio = (np.hypot(centers[:, 0] - x, centers[:, 1] - y)
             / (0.9 * (radius + radii) + 2.0))
    nearest = ratio.min()
    if nearest > 1.0 + _HYPOT_SCREEN:
        return False
    if nearest < 1.0 - _HYPOT_SCREEN:
        return True
    return any(math.hypot(x - ox, y - oy) < 0.9 * (radius + r) + 2.0
               for (ox, oy), r in zip(centers.tolist(), radii.tolist()))


def _rectangles(centers: np.ndarray, sides: np.ndarray, phi: list[float]) -> np.ndarray:
    """Counterclockwise corners (B, 4, 2) of B rectangles with centres
    (B, 2), (long, short) sides (B, 2) and long-side angles ``phi``.

    The cosines and sines are ``math`` calls, and the rotation is one
    stacked matrix product, which takes each box's corners through the
    same product as that box's own (4, 2) @ (2, 2) one.
    """
    cos = np.array([math.cos(p) for p in phi])
    sin = np.array([math.sin(p) for p in phi])
    rot = np.stack([cos, -sin, sin, cos], axis=-1).reshape(-1, 2, 2)
    offsets = _HALF_SIDE_SIGNS * (sides / 2)[:, None, :]
    return offsets @ rot.transpose(0, 2, 1) + centers[:, None, :]


def _rasterize(image: np.ndarray, corners: np.ndarray, values: list[float]) -> None:
    """Fill, box by box in order, the pixels whose centres lie inside each
    convex CCW quad of ``corners`` (B, 4, 2) with its value; a later box
    overwrites an earlier one.

    A pixel is inside when it is on the left of, or on, all four edges:
    each box tests its bounding window against its four edges at once,
    the window's rows and columns broadcast against each other.
    """
    h, w = image.shape
    xs, ys = np.arange(0.5, w), np.arange(0.5, h)[:, None]
    edges = corners[:, [1, 2, 3, 0]] - corners
    # per box, four (4, 1, 1) arrays: edge x, edge y, start x, start y
    planes = np.concatenate([edges, corners], axis=-1).transpose(0, 2, 1)[..., None, None]
    # each box's pixel window, [x0, y0, x1, y1); slicing clips x1 and y1
    windows = np.concatenate([np.floor(corners.min(axis=1)),
                              np.ceil(corners.max(axis=1)) + 1], axis=1)
    windows = np.maximum(windows, 0).astype(np.intp).tolist()
    for (ex, ey, ax, ay), (x0, y0, x1, y1), value in zip(planes, windows, values):
        inside = (ex * (ys[y0:y1] - ay) - ey * (xs[x0:x1] - ax) >= 0.0).all(axis=0)
        image[y0:y1, x0:x1][inside] = value


def generate_scene(spec: SceneSpec, rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (H, W) float64 image in [0, 1] plus its ground truth: corners
    (B, 4, 2) float64, counterclockwise, and class ids (B,) intp, in
    placement order.

    The object count is uniform over [min_objects, max_objects]. Each
    placement attempt draws one block of five doubles (short side, aspect,
    angle, centre x, centre y), each scaled as ``rng.uniform`` scales its
    draw; a placed object then draws its class. Placed centres stay
    0.9 (r1 + r2) + 2 px apart, r being circumradii, and in distinct pole
    cells. If a later object cannot be placed within max_attempts the scene
    keeps the ones already placed; failing to place even min_objects
    raises PlacementError. Pixel noise is drawn last.
    """
    target = int(rng.integers(spec.min_objects, spec.max_objects + 1))
    side_low, side_high = spec.side_range
    aspect_low, aspect_high = spec.aspect_range
    d = spec.pole_stride
    # the placed objects, in order
    centers, radii = np.empty((target, 2)), np.empty(target)
    sides, phi = np.empty((target, 2)), []
    class_id = np.empty(target, np.intp)
    cells: set[tuple[int, int]] = set()
    n = 0
    for k in range(target):
        for _ in range(spec.max_attempts):
            u_short, u_aspect, u_phi, u_x, u_y = rng.random(5).tolist()
            short = side_low + (side_high - side_low) * u_short
            long = short * (aspect_low + (aspect_high - aspect_low) * u_aspect)
            radius = math.hypot(short, long) / 2.0
            margin = radius + 1.0
            if spec.width - 2 * margin <= 0 or spec.height - 2 * margin <= 0:
                raise PlacementError("objects larger than the frame")
            x = margin + (spec.width - margin - margin) * u_x
            y = margin + (spec.height - margin - margin) * u_y
            cell = (int(x // d), int(y // d))
            if cell in cells or (n and _crowds(x, y, radius, centers[:n], radii[:n])):
                continue
            cells.add(cell)
            centers[n], radii[n], sides[n] = (x, y), radius, (long, short)
            phi.append(math.pi * u_phi)
            class_id[n] = rng.integers(spec.num_classes)
            n += 1
            break
        else:
            if k >= spec.min_objects:
                break
            raise PlacementError(f"could not place object {k} after {spec.max_attempts} tries")

    corners = _rectangles(centers[:n], sides[:n], phi)
    class_id = class_id[:n]
    image = np.full((spec.height, spec.width), spec.background)
    _rasterize(image, corners, [spec.class_intensity(c) for c in class_id.tolist()])
    if spec.noise_sigma > 0.0:
        image = image + rng.normal(0.0, spec.noise_sigma, image.shape)
    return np.clip(image, 0.0, 1.0), corners, class_id


def generate_dataset(spec: SceneSpec, count: int, seed: int):
    """Yield (image_id, image, corners, class_id) per scene, as
    ``generate_scene`` returns them; each scene gets its own child seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    children = np.random.SeedSequence(seed).spawn(count)
    for i, child in enumerate(children):
        yield f"img_{i:05d}", *generate_scene(spec, np.random.default_rng(child))


def class_names(spec: SceneSpec) -> list[str]:
    return [f"class{c}" for c in range(spec.num_classes)]


def _write_file(path, data: bytes) -> None:
    """Make ``data`` the whole content of the file at ``path`` in one write.

    An existing file is overwritten in place and then cut to length, not
    emptied first: ext4 starts writing back, at close, a file that was
    emptied by truncation and then written, and rewriting 1,000 4 KB files
    took 60-100 ms that way against 11-21 ms in place (2-vCPU Xeon, ext4).
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.truncate()


def write_pgm(path, image: np.ndarray) -> None:
    """Write a float image in [0, 1] as binary 8-bit PGM, header and raster
    in one write."""
    data = np.clip(np.asarray(image), 0.0, 1.0)
    quantized = np.round(data * 255.0).astype(np.uint8)
    h, w = quantized.shape
    _write_file(path, b"P5\n%d %d\n255\n" % (w, h) + quantized.tobytes())


# magic, width, height, maxval: each token after whitespace and '#' comments
# (to the end of their line); a token missing at the end of the file is empty
_PGM_HEADER = re.compile(rb"(?:\s|#[^\n]*)*(\S*)" * 4)


_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)


def read_bytes(path) -> bytes:
    """The bytes of the file at ``path``, through one ``os.open`` and
    ``os.read`` (a file over 64 KiB takes more reads): on the 4 KiB files of
    a dataset, half the cost of ``open(path, "rb").read()``."""
    fd = os.open(path, _READ_FLAGS)
    try:
        chunks = [os.read(fd, 1 << 16)]
        while len(chunks[-1]) == 1 << 16:
            chunks.append(os.read(fd, 1 << 16))
    except OSError as exc:  # name the file, as open() does (a directory)
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def pgm_layout(blob: bytes, path) -> tuple[int, int, int]:
    """(height, width, offset) of the raster of the binary 8-bit PGM file
    ``blob``: the raster starts one byte after maxval, at ``offset``.

    A malformed file raises ``ValueError`` naming ``path`` and the problem,
    a raster shorter than height * width bytes included.
    """
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
    return h, w, pos


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM into its stored (H, W) uint8 raster (a
    read-only view of the file's bytes); ``k / 255`` is the [0, 1] image.

    A malformed file raises ``ValueError`` naming the path and the problem
    (``pgm_layout``).
    """
    blob = read_bytes(path)
    h, w, pos = pgm_layout(blob, path)
    return np.frombuffer(blob, dtype=np.uint8, count=w * h, offset=pos).reshape(h, w)


def write_dataset(out_dir, spec: SceneSpec, count: int, seed: int) -> list[str]:
    """Materialize a dataset under out_dir; returns the image ids written.

    Layout: images/<id>.pgm, annotations/<id>.txt, classes.txt and a
    manifest.csv tying ids to object counts. Scenes are generated and
    written one at a time; each annotation file is formatted from the
    scene's corner and class arrays. Image and annotation files of other
    ids, left by an earlier run into the same folder, are removed.
    """
    from .formats import serialize_annotations

    out = Path(out_dir)
    images, annotations = out / "images", out / "annotations"
    images.mkdir(parents=True, exist_ok=True)
    annotations.mkdir(parents=True, exist_ok=True)
    names = class_names(spec)
    rows = []
    for image_id, image, corners, class_id in generate_dataset(spec, count, seed):
        write_pgm(images / f"{image_id}.pgm", image)
        labels = [names[c] for c in class_id.tolist()]
        _write_file(annotations / f"{image_id}.txt",
                    serialize_annotations(corners, labels, [0] * len(labels)).encode())
        rows.append((image_id, len(labels)))
    written = {image_id for image_id, _num in rows}
    for folder, suffix in ((images, ".pgm"), (annotations, ".txt")):
        for path in folder.glob(f"*{suffix}"):
            if path.stem not in written:
                path.unlink()
    (out / "classes.txt").write_text("\n".join(names) + "\n")
    with open(out / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "num_objects"])
        writer.writerows(rows)
    return [image_id for image_id, _num in rows]
