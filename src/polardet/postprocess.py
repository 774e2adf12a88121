"""Pole extraction from heatmaps and decoding into oriented detections.

A pole is a thresholded 3x3 local maximum of a class channel (CenterNet's
max-pool peak step), so touching objects whose Gaussians bridge above the
threshold keep one pole each, and the number of poles is capped only by
the grid. Every pole of a heatmap is one ranked ``Poles`` array set; the
top-k extractor is its first k rows. Decoding gathers (rho, theta1, theta2)
at all pole cells of an image at once, places each pole at its cell center
and converts them to quads in one ``polars_to_quads`` call; an image's
detections are one ``Detections`` row set from there to the detections
file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import GridConfig
from .errors import ShapeError
from .geometry import polars_to_quads


@dataclass(frozen=True, eq=False)
class Poles:
    """Pole cells of one heatmap, one row each, ranked by descending score."""

    class_id: np.ndarray  # (P,) intp
    cell_y: np.ndarray    # (P,) intp
    cell_x: np.ndarray    # (P,) intp
    score: np.ndarray     # (P,) float64

    def __len__(self) -> int:
        return len(self.score)


@dataclass(frozen=True, eq=False)
class Detections:
    """Oriented boxes with class and confidence, one row each: one image's
    from ``decode_poles``, or a detections file's pooled for ``evaluate``."""

    corners: np.ndarray   # (D, 4, 2) float64 pixels
    class_id: np.ndarray  # (D,) intp
    score: np.ndarray     # (D,) float64

    def __len__(self) -> int:
        return len(self.score)


@dataclass
class DecodeResult:
    detections: Detections
    #: poles whose regression values violated rho > 0 or theta1 < theta2
    dropped_invalid: int


def check_score_threshold(threshold: float) -> None:
    """Raise ValueError unless the threshold lies in (0, 1) (nan fails)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")


def extract_pole_points(heatmap: np.ndarray, threshold: float,
                        k: int | None = None) -> Poles:
    """Every thresholded 3x3 local maximum of a (C, H, W) heatmap, ranked.

    A cell is a pole when it is at least ``threshold``, strictly greater
    than its 3x3 neighbours that come earlier in row-major order and at
    least as large as the later ones; cells off the grid count as -inf.
    So a tie plateau keeps its first cell, but a plateau whose cells link
    only through a later cell (two equal cells on one row, two apart,
    with an equal cell below between them) gives two poles. Poles are
    ranked by descending score, ties by (class, row, col), and ``k`` keeps
    the first k of them.
    """
    check_score_threshold(threshold)
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    heat = np.asarray(heatmap, dtype=np.float64)
    if not np.all(np.isfinite(heat)):
        raise ValueError("heatmap must be finite")
    c, h, w = heat.shape
    padded = np.full((c, h + 2, w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = heat
    # only the cells at or above the threshold are compared with their
    # neighbours, each neighbour one gather from the padded grid
    class_id, cell = np.divmod(np.flatnonzero(heat >= threshold), h * w)
    cell_y, cell_x = np.divmod(cell, w)
    at = (class_id * (h + 2) + cell_y + 1) * (w + 2) + cell_x + 1
    flat = padded.ravel()
    score = flat.take(at)
    peak = np.ones(len(at), dtype=bool)
    for dr in range(3):
        for dc in range(3):
            neighbour = flat.take(at + ((dr - 1) * (w + 2) + dc - 1))
            if (dr, dc) < (1, 1):
                peak &= score > neighbour
            elif (dr, dc) > (1, 1):
                peak &= score >= neighbour
    keep = np.flatnonzero(peak)
    rank = keep.take(np.argsort(-score.take(keep), kind="stable")[:k])
    return Poles(class_id.take(rank), cell_y.take(rank), cell_x.take(rank),
                 score.take(rank))


def decode_poles(poles: Poles, rho_plane: np.ndarray,
                 theta1_plane: np.ndarray, theta2_plane: np.ndarray,
                 cfg: GridConfig) -> DecodeResult:
    """Turn poles plus regression planes into oriented detections.

    Poles are placed at cell centers (cell * d + d/2) and radii rescaled to
    input pixels. Poles whose regression values violate the polar-box
    invariants are dropped and tallied; a NaN violates neither test, so it
    reaches the corners and raises ``ValueError``.
    """
    shape = (cfg.grid_h, cfg.grid_w)
    for name, plane in (("rho", rho_plane), ("theta1", theta1_plane),
                        ("theta2", theta2_plane)):
        if np.shape(plane) != shape:
            raise ShapeError(f"{name} plane {np.shape(plane)} vs grid {shape}")
    d = cfg.stride
    cx, cy = poles.cell_x, poles.cell_y
    rho = np.asarray(rho_plane)[cy, cx].astype(np.float64) * d
    theta = np.column_stack([np.asarray(plane)[cy, cx].astype(np.float64)
                             for plane in (theta1_plane, theta2_plane)])
    keep = np.flatnonzero(~((rho <= 0.0) | (theta[:, 1] <= theta[:, 0])))
    cells = np.column_stack([cx[keep], cy[keep]])
    corners = polars_to_quads(cells * d + d / 2.0, rho[keep], theta[keep])
    if not np.all(np.isfinite(corners)):
        raise ValueError("corners must be finite")
    dets = Detections(corners, poles.class_id[keep], poles.score[keep])
    return DecodeResult(dets, len(poles) - len(keep))
