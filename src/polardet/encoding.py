"""Ground-truth encoding: per-class Gaussian heatmaps plus one polar row per pole.

All output grids live at the network stride ``d``: a heatmap array has shape
``(num_classes, grid_h, grid_w)`` and is indexed ``[class, cell_y, cell_x]``.
The regression targets exist only at pole cells, so they are one row per box.
Radius targets are stored in output-grid units (pixels / stride); the decoder
multiplies back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CellCollision, DegenerateBox, OutOfBounds
from .geometry import PolarBox, polars_to_quads

# Gaussian kernels are cut at 3 sigma; the largest discarded value is e^-4.5
TRUNCATION_SIGMAS = 3.0


@dataclass(frozen=True)
class GridConfig:
    """Input size, output stride and class count of the detection grid."""

    width: int
    height: int
    stride: int = 4
    num_classes: int = 1

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.width % self.stride or self.height % self.stride:
            raise ValueError(
                f"image size {self.width}x{self.height} not divisible by "
                f"stride {self.stride}"
            )

    @property
    def grid_w(self) -> int:
        return self.width // self.stride

    @property
    def grid_h(self) -> int:
        return self.height // self.stride


class BoxArrays(NamedTuple):
    """Polar boxes of one or more images, one row per box."""

    image: np.ndarray     # (B,) index of the box's image
    class_id: np.ndarray  # (B,)
    pole: np.ndarray      # (B, 2) pixels
    rho: np.ndarray       # (B,) pixels
    theta: np.ndarray     # (B, 2) radians


class Targets(NamedTuple):
    """Training targets of N images: one heatmap stack and one row per pole.

    Pole rows run image-major, each image's boxes in input order; image k
    owns rows ``first[k]:first[k + 1]``. The heatmap is exactly 1 at each
    pole cell in its class channel.
    """

    heat: np.ndarray      # (N, C, grid_h, grid_w) in [0, 1]
    first: np.ndarray     # (N + 1,) offset of each image's first pole row
    class_id: np.ndarray  # (P,)
    cell: np.ndarray      # (P, 2) (cx, cy)
    value: np.ndarray     # (P, 3) rho / stride, theta1, theta2 (radians)

    def take(self, idx) -> Targets:
        """The targets of images ``idx``, in that order, repeats included."""
        idx = np.asarray(idx, dtype=np.intp)
        counts = self.first[idx + 1] - self.first[idx]
        first = np.concatenate(([0], np.cumsum(counts)))
        rows = np.arange(first[-1]) + np.repeat(self.first[idx] - first[:-1], counts)
        return Targets(self.heat[idx], first, self.class_id[rows], self.cell[rows],
                       self.value[rows])


def _render_heatmaps(boxes: BoxArrays, cells: np.ndarray, num_images: int,
                     cfg: GridConfig) -> np.ndarray:
    """(num_images, C, grid_h, grid_w) per-class Gaussian peaks merged by max.

    A box renders exp(-(dx^2 + dy^2) / (2 sigma^2)) in a window around its
    pole cell, cut at ``TRUNCATION_SIGMAS`` sigma; sigma is a third of its
    shorter side (between the corners ``polars_to_quads`` gives it) in grid
    units. The peak value at the pole cell is exactly 1.
    """
    bad = np.flatnonzero((boxes.class_id < 0) | (boxes.class_id >= cfg.num_classes))
    if bad.size:
        raise ValueError(f"class_id {boxes.class_id[bad[0]]} outside [0, {cfg.num_classes})")
    side = np.diff(polars_to_quads(boxes.pole, boxes.rho, boxes.theta)[:, :3], axis=1)
    short = np.hypot(side[..., 0], side[..., 1]).min(axis=1)
    if np.any(short <= 0.0):
        raise DegenerateBox("box has a zero-length side")
    sigma = short / 3.0 / cfg.stride
    radius = np.ceil(TRUNCATION_SIGMAS * sigma).astype(np.intp)
    heat = np.zeros((num_images, cfg.num_classes, cfg.grid_h, cfg.grid_w))
    flat_heat = heat.reshape(-1)
    for r in np.unique(radius):  # one window size at a time
        sel = np.flatnonzero(radius == r)
        d = np.arange(-r, r + 1)
        r2 = d[:, None] ** 2 + d[None, :] ** 2
        s = sigma[sel, None, None]
        gy = cells[sel, 1, None, None] + d[:, None]
        gx = cells[sel, 0, None, None] + d[None, :]
        keep = ((r2 <= (TRUNCATION_SIGMAS * s) ** 2)
                & (0 <= gy) & (gy < cfg.grid_h) & (0 <= gx) & (gx < cfg.grid_w))
        # each kept sample's flat index into the (N, C, gh, gw) stack
        first_row = (boxes.image[sel] * cfg.num_classes + boxes.class_id[sel]) * cfg.grid_h
        flat = ((first_row[:, None, None] + gy) * cfg.grid_w + gx)[keep]
        value = np.exp(-r2 / (2.0 * s * s))[keep]
        # max-merge by cell: sorted by cell index, each run's maximum goes
        # into its cell with one np.maximum (max is exact in any order)
        order = np.argsort(flat)
        flat, value = flat[order], value[order]
        start = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
        flat = flat[start]
        flat_heat[flat] = np.maximum(flat_heat[flat], np.maximum.reduceat(value, start))
    return heat


def encode_boxes(boxes: BoxArrays, num_images: int, cfg: GridConfig) -> Targets:
    """Build the full target set of ``num_images`` images at once.

    Targets are defined at the exact pole cell (floor(x/d), floor(y/d))
    only. Two boxes of one image in one cell are a generator bug at desk
    scale, so they raise ``CellCollision`` instead of one overwriting the
    other. Each kind of fault is checked over all boxes at once, in the
    order: pole outside the image, shared cell, unknown class, zero-length
    side. The error names the first offending box, counted within its image.
    """
    x, y = boxes.pole.T
    outside = np.flatnonzero(~((0.0 <= x) & (x < cfg.width) & (0.0 <= y) & (y < cfg.height)))
    if outside.size:
        i = outside[0]
        raise OutOfBounds(f"pole ({x[i]}, {y[i]}) outside {cfg.width}x{cfg.height} image")
    cells = (boxes.pole // cfg.stride).astype(np.intp)
    cx, cy = cells.T
    key = (boxes.image * cfg.grid_h + cy) * cfg.grid_w + cx
    _keys, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    clash = np.flatnonzero(first[inverse] != np.arange(len(key)))
    if clash.size:
        j = clash[0]
        i = first[inverse[j]]
        same = boxes.image == boxes.image[j]
        raise CellCollision(f"boxes {np.count_nonzero(same[:i])} and "
                            f"{np.count_nonzero(same[:j])} share pole cell ({cx[j]}, {cy[j]})")
    heat = _render_heatmaps(boxes, cells, num_images, cfg)
    rows = np.argsort(boxes.image, kind="stable")
    counts = np.bincount(boxes.image, minlength=num_images)
    value = np.column_stack((boxes.rho / cfg.stride, boxes.theta))
    return Targets(heat, np.concatenate(([0], np.cumsum(counts))),
                   boxes.class_id[rows], cells[rows], value[rows])


def encode_regression(boxes: list[PolarBox], cfg: GridConfig) -> Targets:
    """Build the full target set for one image; see ``encode_boxes``."""
    rows = np.array([(b.class_id, *b.pole, b.rho, b.theta1, b.theta2) for b in boxes],
                    dtype=np.float64).reshape(-1, 6)
    arrays = BoxArrays(np.zeros(len(boxes), dtype=np.intp), rows[:, 0].astype(np.intp),
                       rows[:, 1:3], rows[:, 3], rows[:, 4:])
    return encode_boxes(arrays, 1, cfg)
