"""Pole-point extraction from heatmaps and decoding into oriented detections.

Extraction binarizes each class channel, finds 8-connected components and
keeps each component's peak, so the number of detections is capped only by
the grid, not by a fixed K. The CornerNet-style top-K extractor is kept as
the ablation baseline. Decoding gathers (rho, theta1, theta2) at all pole
cells of an image at once, places each pole at its cell center and converts
them to quads in one ``polars_to_quads`` call; an image's detections are one
``Detections`` row set from there to the detections file.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .encoding import GridConfig
from .errors import ShapeError
from .geometry import polars_to_quads

_NEIGHBORS_8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


@dataclass(frozen=True)
class PolePoint:
    """Predicted object center on the output grid."""

    class_id: int
    cell_x: int
    cell_y: int
    score: float


@dataclass(frozen=True, eq=False)
class Detections:
    """Oriented boxes of one image with class and confidence, one row each."""

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


def binarize(channel: np.ndarray, threshold: float) -> np.ndarray:
    """Threshold one heatmap channel; the boundary value is kept true."""
    check_score_threshold(threshold)
    return np.asarray(channel) >= threshold


def connected_components(mask: np.ndarray) -> list[list[tuple[int, int]]]:
    """Partition true cells into maximal 8-connected components.

    Components are ordered by their smallest (row, col) member and each
    component's cells are sorted, so the output is fully deterministic.
    Seeds come from ``np.argwhere``, which is row-major, so a component is
    found from its smallest member; the flood fill reads Python lists.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    rows = mask.tolist()
    seen = [[False] * w for _ in range(h)]
    comps: list[list[tuple[int, int]]] = []
    for r0, c0 in np.argwhere(mask).tolist():
        if seen[r0][c0]:
            continue
        seen[r0][c0] = True
        queue = deque([(r0, c0)])
        cells = []
        while queue:
            r, c = queue.popleft()
            cells.append((r, c))
            for dr, dc in _NEIGHBORS_8:
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and rows[rr][cc] and not seen[rr][cc]:
                    seen[rr][cc] = True
                    queue.append((rr, cc))
        comps.append(sorted(cells))
    return comps


def extract_pole_points(heatmap: np.ndarray, threshold: float) -> list[PolePoint]:
    """One pole per connected super-threshold component, per class channel.

    Each component contributes its argmax cell with that cell's value as the
    score; peak ties break toward the smallest (row, col). There is no cap
    on the number of poles.
    """
    heatmap = np.asarray(heatmap)
    poles: list[PolePoint] = []
    for class_id in range(heatmap.shape[0]):
        channel = heatmap[class_id]
        for cells in connected_components(binarize(channel, threshold)):
            peak = max(cells, key=lambda rc: (channel[rc], (-rc[0], -rc[1])))
            poles.append(PolePoint(class_id, peak[1], peak[0], float(channel[peak])))
    return poles


def topk_extract(heatmap: np.ndarray, k: int) -> list[PolePoint]:
    """CornerNet-style baseline: top-k positive local maxima across channels.

    A cell qualifies when its value equals the max of its 3x3 neighborhood
    within its channel and is strictly positive (the all-zero background is
    a plateau of worthless "maxima"). Ties break by scan order
    (channel, row, col). Misses objects whenever more than k are present.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    heatmap = np.asarray(heatmap, dtype=np.float64)
    c, h, w = heatmap.shape
    padded = np.full((c, h + 2, w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = heatmap
    neigh_max = np.full((c, h, w), -np.inf)
    for dr in range(3):
        for dc in range(3):
            np.maximum(neigh_max, padded[:, dr:dr + h, dc:dc + w], out=neigh_max)
    cand = np.argwhere((heatmap == neigh_max) & (heatmap > 0.0))
    ranked = sorted(cand, key=lambda idx: (-heatmap[tuple(idx)], idx[0], idx[1], idx[2]))
    return [PolePoint(int(ci), int(cc), int(cr), float(heatmap[ci, cr, cc]))
            for ci, cr, cc in ranked[:k]]


def decode_poles(poles: list[PolePoint], rho_plane: np.ndarray,
                 theta1_plane: np.ndarray, theta2_plane: np.ndarray,
                 cfg: GridConfig) -> DecodeResult:
    """Turn pole points plus regression planes into oriented detections.

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
    index = np.array([(p.cell_x, p.cell_y, p.class_id) for p in poles],
                     dtype=np.intp).reshape(-1, 3)
    score = np.array([p.score for p in poles], dtype=np.float64)
    cx, cy, class_id = index.T
    rho = np.asarray(rho_plane)[cy, cx].astype(np.float64) * d
    theta = np.column_stack([np.asarray(plane)[cy, cx].astype(np.float64)
                             for plane in (theta1_plane, theta2_plane)])
    keep = np.flatnonzero(~((rho <= 0.0) | (theta[:, 1] <= theta[:, 0])))
    corners = polars_to_quads(index[keep, :2] * d + d / 2.0, rho[keep], theta[keep])
    if not np.all(np.isfinite(corners)):
        raise ValueError("corners must be finite")
    return DecodeResult(Detections(corners, class_id[keep], score[keep]),
                        len(poles) - len(keep))
