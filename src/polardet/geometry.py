"""Oriented-box geometry: polar <-> Cartesian conversion, rotated IoU, NMS.

Coordinate conventions, shared by the whole package:

* image frame: x grows rightward, y grows downward (raster order);
* polar angles are measured from the +x axis toward +y, in radians,
  normalized to [0, 2*pi);
* "counterclockwise" corner order means increasing polar angle about the
  centroid, equivalently positive shoelace signed area in this frame.

An oriented rectangle is either four corners (``QuadBox``) or a pole point
plus one radius and the two smallest corner angles (``PolarBox``); the other
two corners sit at ``theta + pi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateBox, InvalidPolygon

TWO_PI = 2.0 * math.pi

#: quads whose shoelace area is at or below this (px^2) count as degenerate
AREA_EPS = 1e-6

# tolerance for the inside-halfplane test during clipping; keeps boundary
# points so that clipping a polygon against itself returns the polygon
_CLIP_EPS = 1e-9


class Point2(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True, eq=False)
class QuadBox:
    """Four-corner oriented box in image pixels.

    Corner order is not trusted anywhere in this module: every angle-based
    computation re-derives angles from scratch, so annotation corner order
    is irrelevant. Quads produced by this module are counterclockwise.
    """

    corners: np.ndarray  # (4, 2) float64
    class_id: int = 0

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=np.float64)
        if c.shape != (4, 2):
            raise ValueError(f"corners must have shape (4, 2), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("corners must be finite")
        object.__setattr__(self, "corners", c)


@dataclass(frozen=True)
class PolarBox:
    """Pole point, one polar radius and the two smallest corner angles."""

    pole: Point2
    rho: float
    theta1: float
    theta2: float
    class_id: int = 0


def normalize_angle(raw: float) -> float:
    """Map an angle to [0, 2*pi), preserving its value mod 2*pi."""
    a = math.fmod(raw, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:  # fmod of a tiny negative can round up to exactly 2*pi
        a = 0.0
    return a


def _shoelace(pts: np.ndarray) -> np.ndarray:
    """Signed shoelace area over the last two axes (..., n, 2)."""
    x, y = pts[..., 0], pts[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y,
                        axis=-1)


def signed_area(corners) -> float:
    """Shoelace signed area; positive for counterclockwise order."""
    return float(_shoelace(np.asarray(corners, dtype=np.float64)))


def polygon_area(corners) -> float:
    """Absolute area of a simple polygon via the shoelace formula."""
    pts = np.asarray(corners, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 2:
        raise InvalidPolygon(f"need at least 3 vertices, got shape {pts.shape}")
    return abs(signed_area(pts))


def quad_to_polar(quad: QuadBox) -> PolarBox:
    """Convert a four-corner box into its polar representation.

    The pole is the corner centroid, the radius is the mean of the four
    corner distances (absorbing annotation error on imperfect rectangles),
    and the angles are the two smallest of the four normalized corner
    angles. For an exact rectangle both angles land in [0, pi).
    """
    c = quad.corners
    if polygon_area(c) <= AREA_EPS:
        raise DegenerateBox(f"quad area <= {AREA_EPS} px^2")
    pole = c.mean(axis=0)
    offsets = c - pole
    rho = float(np.hypot(offsets[:, 0], offsets[:, 1]).mean())
    angles = sorted(normalize_angle(math.atan2(dy, dx)) for dx, dy in offsets)
    return PolarBox(Point2(float(pole[0]), float(pole[1])), rho,
                    angles[0], angles[1], quad.class_id)


def polar_to_quad(pbox: PolarBox) -> QuadBox:
    """Emit the four corners at angles (t1, t2, t1+pi, t2+pi), counterclockwise."""
    xs, ys = pbox.pole
    corners = np.array(
        [[xs + pbox.rho * math.cos(t), ys + pbox.rho * math.sin(t)]
         for t in (pbox.theta1, pbox.theta2,
                   pbox.theta1 + math.pi, pbox.theta2 + math.pi)]
    )
    return QuadBox(corners, pbox.class_id)


def _corner_array(corners) -> np.ndarray:
    c = np.asarray(corners, dtype=np.float64)
    if c.ndim != 3 or c.shape[1:] != (4, 2):
        raise ValueError(f"corner arrays must have shape (N, 4, 2), got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("corners must be finite")
    return c


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _inside(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """(K, 4) mask: point i of ``pts[k]`` lies on the inner side of every
    edge of the counterclockwise quad ``poly[k]``, boundary kept."""
    edges = (np.roll(poly, -1, axis=1) - poly)[:, None, :, :]
    offsets = pts[:, :, None, :] - poly[:, None, :, :]
    return np.all(_cross(edges, offsets) >= -_CLIP_EPS, axis=2)


def _edge_crossings(p: np.ndarray, q: np.ndarray):
    """Crossings of each edge of ``p[k]`` with each edge of ``q[k]``:
    (K, 16, 2) points and the (K, 16) mask of edge pairs that do cross.

    Parallel edges count as not crossing; where two of them overlap, the
    overlap's ends are corners of one quad lying inside the other.
    """
    dp = (np.roll(p, -1, axis=1) - p)[:, :, None, :]
    dq = (np.roll(q, -1, axis=1) - q)[:, None, :, :]
    w = q[:, None, :, :] - p[:, :, None, :]
    denom = _cross(dp, dq)
    num_t, num_u = _cross(w, dq), _cross(w, dp)
    # 0 <= num/denom <= 1 for both edge parameters, tested without dividing
    sign, size = np.sign(denom), np.abs(denom)
    t_in, u_in = sign * num_t, sign * num_u
    hit = ((denom != 0.0) & (t_in >= 0.0) & (t_in <= size)
           & (u_in >= 0.0) & (u_in <= size))
    t = num_t / np.where(hit, denom, 1.0)
    points = p[:, :, None, :] + t[..., None] * dp
    return points.reshape(len(p), 16, 2), hit.reshape(len(p), 16)


def _intersection_areas(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Area of the convex intersection of each pair of counterclockwise
    quads ``p[k]``, ``q[k]``; (K,) float64.

    The intersection's vertices are the corners of each quad inside the
    other plus the edge crossings. Sorted by angle about their mean they
    trace the convex polygon, whose area the shoelace formula gives.
    """
    crossings, crosses = _edge_crossings(p, q)
    pts = np.concatenate([p, q, crossings], axis=1)
    keep = np.concatenate([_inside(p, q), _inside(q, p), crosses], axis=1)
    count = keep.sum(axis=1)
    center = (np.where(keep[..., None], pts, 0.0).sum(axis=1)
              / np.maximum(count, 1)[:, None])
    rel = pts - center[:, None, :]
    angle = np.where(keep, np.arctan2(rel[..., 1], rel[..., 0]), np.inf)
    order = np.argsort(angle, axis=1)
    rel = np.take_along_axis(rel, order[..., None], axis=1)
    keep = np.take_along_axis(keep, order, axis=1)
    # dropped points repeat the first kept vertex, which adds no area
    rel = np.where(keep[..., None], rel, rel[:, :1])
    return np.where(count >= 3, np.maximum(_shoelace(rel), 0.0), 0.0)


def _pairwise_overlap(a: np.ndarray, b: np.ndarray):
    """(D, G) intersection and union areas of the quads ``a`` (D, 4, 2) and
    ``b`` (G, 4, 2)."""
    signed_a, signed_b = _shoelace(a), _shoelace(b)
    area_a, area_b = np.abs(signed_a), np.abs(signed_b)
    a = np.where((signed_a < 0.0)[:, None, None], a[:, ::-1], a)
    b = np.where((signed_b < 0.0)[:, None, None], b[:, ::-1], b)
    lo_a, hi_a = a.min(axis=1)[:, None], a.max(axis=1)[:, None]
    lo_b, hi_b = b.min(axis=1)[None], b.max(axis=1)[None]
    near = np.all((lo_a <= hi_b) & (lo_b <= hi_a), axis=2)
    rows, cols = np.nonzero(near)
    p, q = a[rows], b[cols]
    # each pair is clipped in one canonical order (lexicographically smaller
    # corners first), so swapping a and b transposes the result bit for bit
    flat_p, flat_q = p.reshape(-1, 8), q.reshape(-1, 8)
    first = np.argmax(flat_p != flat_q, axis=1)
    k = np.arange(len(first))
    swap = (flat_p[k, first] > flat_q[k, first])[:, None, None]
    inter = np.zeros((len(a), len(b)))
    # no intersection exceeds the smaller quad; the bound also zeroes a quad
    # whose corners coincide, whose degenerate edges reject no point
    inter[rows, cols] = np.minimum(
        _intersection_areas(np.where(swap, q, p), np.where(swap, p, q)),
        np.minimum(area_a[rows], area_b[cols]))
    return inter, area_a[:, None] + area_b[None, :] - inter


def pairwise_iou(a, b) -> np.ndarray:
    """Rotated IoU of every quad in ``a`` against every quad in ``b``.

    ``a`` and ``b`` are corner arrays of shape (D, 4, 2) and (G, 4, 2), each
    quad convex with its corners in perimeter order, either winding. Returns
    a (D, G) float64 matrix in [0, 1]. Pairs whose axis-aligned bounding
    boxes do not overlap are exactly 0; only the others are clipped.
    """
    inter, union = _pairwise_overlap(_corner_array(a), _corner_array(b))
    iou = np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
    return np.clip(iou, 0.0, 1.0)


def intersection_area(a: QuadBox, b: QuadBox) -> float:
    """Area of the convex intersection of two quads."""
    return float(_pairwise_overlap(a.corners[None], b.corners[None])[0][0, 0])


def rotated_iou(a: QuadBox, b: QuadBox) -> float:
    """Intersection-over-union of two oriented boxes, in [0, 1]."""
    return float(pairwise_iou(a.corners[None], b.corners[None])[0, 0])


def check_iou_threshold(iou_threshold: float) -> None:
    """Raise ValueError unless the threshold lies in [0, 1] (nan fails)."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must lie in [0, 1]")


def oriented_nms(dets: Sequence[tuple[QuadBox, float]],
                 iou_threshold: float) -> list[int]:
    """Greedy descending-score suppression; returns kept indices.

    Score ties are broken by lower original index. No two kept boxes
    overlap with IoU strictly above the threshold, which must lie in [0, 1].
    """
    check_iou_threshold(iou_threshold)
    for _, score in dets:
        if not math.isfinite(score):
            raise ValueError("detection scores must be finite")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    corners = np.array([quad.corners for quad, _ in dets]).reshape(-1, 4, 2)
    overlaps = pairwise_iou(corners, corners) > iou_threshold
    suppressed = np.zeros(len(dets), dtype=bool)
    kept: list[int] = []
    for i in order:
        if not suppressed[i]:
            kept.append(i)
            suppressed |= overlaps[i]
    return kept
