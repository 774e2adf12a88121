"""Pole-point extraction from heatmaps and decoding into oriented detections.

Extraction binarizes each class channel, finds 8-connected components and
keeps each component's peak, so the number of detections is capped only by
the grid, not by a fixed K. The CornerNet-style top-K extractor is kept as
the ablation baseline. Decoding reads (rho, theta1, theta2) at each pole
cell, places the pole at the cell center and converts back to a quad.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .encoding import GridConfig
from .errors import ShapeError
from .geometry import Point2, PolarBox, QuadBox, polar_to_quad

_NEIGHBORS_8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


@dataclass(frozen=True)
class PolePoint:
    """Predicted object center on the output grid."""

    class_id: int
    cell_x: int
    cell_y: int
    score: float


@dataclass(frozen=True)
class Detection:
    """Decoded oriented box with class and confidence."""

    quad: QuadBox
    class_id: int
    score: float


@dataclass
class DecodeResult:
    detections: list[Detection] = field(default_factory=list)
    #: poles whose regression values violated rho > 0 or theta1 < theta2
    dropped_invalid: int = 0


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
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    seen = np.zeros_like(mask)
    comps: list[list[tuple[int, int]]] = []
    for r0 in range(h):
        for c0 in range(w):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            seen[r0, c0] = True
            queue = deque([(r0, c0)])
            cells = []
            while queue:
                r, c = queue.popleft()
                cells.append((r, c))
                for dr, dc in _NEIGHBORS_8:
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
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
    invariants are dropped and tallied.
    """
    shape = (cfg.grid_h, cfg.grid_w)
    for name, plane in (("rho", rho_plane), ("theta1", theta1_plane),
                        ("theta2", theta2_plane)):
        if np.shape(plane) != shape:
            raise ShapeError(f"{name} plane {np.shape(plane)} vs grid {shape}")
    d = cfg.stride
    result = DecodeResult()
    for p in poles:
        rho = float(rho_plane[p.cell_y, p.cell_x]) * d
        t1 = float(theta1_plane[p.cell_y, p.cell_x])
        t2 = float(theta2_plane[p.cell_y, p.cell_x])
        if rho <= 0.0 or t2 <= t1:
            result.dropped_invalid += 1
            continue
        pole = Point2(p.cell_x * d + d / 2.0, p.cell_y * d + d / 2.0)
        quad = polar_to_quad(PolarBox(pole, rho, t1, t2, p.class_id))
        result.detections.append(Detection(quad, p.class_id, p.score))
    return result


def decode_detections(heatmap: np.ndarray, rho_plane: np.ndarray,
                      theta1_plane: np.ndarray, theta2_plane: np.ndarray,
                      threshold: float, cfg: GridConfig) -> DecodeResult:
    """Connected-component extraction followed by polar decoding."""
    heatmap = np.asarray(heatmap)
    if heatmap.shape != (cfg.num_classes, cfg.grid_h, cfg.grid_w):
        raise ShapeError(f"heatmap {heatmap.shape} vs grid config "
                         f"({cfg.num_classes}, {cfg.grid_h}, {cfg.grid_w})")
    poles = extract_pole_points(heatmap, threshold)
    return decode_poles(poles, rho_plane, theta1_plane, theta2_plane, cfg)
