"""Oriented-box geometry: polar <-> Cartesian conversion, rotated IoU, NMS.

Coordinate conventions, shared by the whole package:

* image frame: x grows rightward, y grows downward (raster order);
* polar angles are measured from the +x axis toward +y, in radians,
  normalized to [0, 2*pi);
* "counterclockwise" corner order means increasing polar angle about the
  centroid, equivalently positive shoelace signed area in this frame.

An oriented rectangle is either a (4, 2) corner array or a pole point plus
one radius and the two smallest corner angles; the other two corners sit at
``theta + pi``. Both forms travel in arrays of B boxes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateBox

TWO_PI = 2.0 * math.pi

#: quads whose shoelace area is at or below this (px^2) count as degenerate
AREA_EPS = 1e-6

# tolerance for the inside-halfplane test during clipping; keeps boundary
# points so that clipping a polygon against itself returns the polygon
_CLIP_EPS = 1e-9

# relative slack of the IoU bound that screens pairs before they are clipped;
# the clip's rounding error is many orders of magnitude smaller
_BOUND_SLACK = 1e-6

# an intersection of at most this fraction of the smaller quad's area is
# contact, not overlap, and counts as 0: two rotated quads that share an edge
# clip to rounding noise (up to 3.5e-17 px^2 for two 3x3 squares at 0.3 rad)
_CONTACT = 1e-9


def _normalize_angles(raw: np.ndarray) -> np.ndarray:
    """Each angle mapped to [0, 2*pi), its value kept mod 2*pi."""
    a = np.fmod(raw, TWO_PI)
    a[a < 0.0] += TWO_PI
    a[a >= TWO_PI] = 0.0
    return a


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _successors(pts: np.ndarray) -> np.ndarray:
    """Each vertex's successor in polygons (..., n, 2), the last vertex's
    being the first; ``np.roll(pts, -1, axis=-2)`` at a smaller call cost."""
    return np.concatenate((pts[..., 1:, :], pts[..., :1, :]), axis=-2)


def _shoelace(pts: np.ndarray) -> np.ndarray:
    """Signed shoelace area over the last two axes (..., n, 2)."""
    return 0.5 * np.sum(_cross(pts, _successors(pts)), axis=-1)


def quads_to_polar(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polar form of B four-corner boxes: (B, 4, 2) corners to poles (B, 2),
    radii (B,) and angle pairs (B, 2).

    The pole is the corner centroid, the radius is the mean of the four
    corner distances (absorbing annotation error on imperfect rectangles),
    and the angles are the two smallest of the four normalized corner
    angles. For an exact rectangle both angles land in [0, pi). The angles
    come from ``math.atan2``, whose results numpy's SIMD loops may not match.
    """
    c = np.asarray(corners, dtype=np.float64).reshape(-1, 4, 2)
    if np.any(np.abs(_shoelace(c)) <= AREA_EPS):
        raise DegenerateBox(f"quad area <= {AREA_EPS} px^2")
    pole = c.mean(axis=1)
    offsets = c - pole[:, None, :]
    rho = np.hypot(offsets[..., 0], offsets[..., 1]).mean(axis=1)
    dx, dy = offsets.reshape(-1, 2).T.tolist()
    angles = _normalize_angles(np.fromiter(map(math.atan2, dy, dx), np.float64, len(dx)))
    return pole, rho, np.sort(angles.reshape(-1, 4), axis=1)[:, :2]


def polars_to_quads(pole, rho, theta) -> np.ndarray:
    """Corners (B, 4, 2) at angles (t1, t2, t1+pi, t2+pi), counterclockwise, of
    B poles (B, 2), radii (B,) and angle pairs (B, 2); ``quads_to_polar``'s
    inverse. Each cosine and sine is one ``math`` call, as in the scalar formula."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1, 2)
    angles = np.concatenate((theta, theta + math.pi), axis=1).ravel().tolist()
    trig = np.stack([np.fromiter(map(f, angles), np.float64, len(angles))
                     for f in (math.cos, math.sin)], axis=-1).reshape(-1, 4, 2)
    return (np.asarray(pole, dtype=np.float64).reshape(-1, 1, 2)
            + np.asarray(rho, dtype=np.float64).reshape(-1, 1, 1) * trig)


def _corner_array(corners) -> np.ndarray:
    c = np.asarray(corners, dtype=np.float64)
    if c.ndim != 3 or c.shape[1:] != (4, 2):
        raise ValueError(f"corner arrays must have shape (N, 4, 2), got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("corners must be finite")
    return c


def _intersection_areas(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Area of the convex intersection of each pair of counterclockwise
    quads ``p[k]``, ``q[k]``; (K,) float64.

    The intersection's vertices are the corners of each quad inside the
    other plus the edge crossings. Sorted by angle about their mean they
    trace the convex polygon, whose area the shoelace formula gives.

    Points are held as (2, n, K) arrays, x and y of n points of each of the
    K pairs, so every step runs over the pairs in the innermost axis.
    """
    num = len(p)
    P, Q = (np.ascontiguousarray(c.transpose(2, 1, 0)) for c in (p, q))
    dP, dQ = _successors(P) - P, _successors(Q) - Q
    # each edge i of p (axis 1) against each edge j of q (axis 2); parallel
    # edges count as not crossing, and where two of them overlap, the
    # overlap's ends are corners of one quad lying inside the other
    dp, dq = dP[:, :, None], dQ[:, None]
    w = Q[:, None] - P[:, :, None]
    denom = dp[0] * dq[1] - dp[1] * dq[0]
    num_t, num_u = w[0] * dq[1] - w[1] * dq[0], w[0] * dp[1] - w[1] * dp[0]
    # 0 <= num/denom <= 1 for both edge parameters, tested without dividing
    sign, size = np.sign(denom), np.abs(denom)
    t_in, u_in = sign * num_t, sign * num_u
    hit = ((denom != 0.0) & (t_in >= 0.0) & (t_in <= size)
           & (u_in >= 0.0) & (u_in <= size))
    crossings = P[:, :, None] + num_t / np.where(hit, denom, 1.0) * dp
    # the corners of each quad on the inner side of every edge of the other,
    # boundary kept: both tests in one pass
    corners, poly, edges = np.stack([P, Q]), np.stack([Q, P]), np.stack([dQ, dP])
    offsets = corners[:, :, :, None] - poly[:, :, None]
    side = (edges[:, 0, None] * offsets[:, 1] - edges[:, 1, None] * offsets[:, 0]
            >= -_CLIP_EPS)
    inside = side[:, :, 0] & side[:, :, 1] & side[:, :, 2] & side[:, :, 3]
    pts = np.concatenate([P, Q, crossings.reshape(2, 16, num)], axis=1)
    keep = np.concatenate([inside.reshape(8, num), hit.reshape(16, num)])
    count = keep.sum(axis=0)
    # the kept points' mean; cumsum adds them in point order, as a running
    # float sum does, whatever the number of pairs
    center = np.cumsum(np.where(keep, pts, 0.0), axis=1)[:, -1] / np.maximum(count, 1)
    rel = pts - center[:, None]
    angle = np.where(keep, np.arctan2(rel[1], rel[0]), np.inf)
    # the n-th vertex by angle of each pair, as a flat index into (24, K)
    at = np.argsort(np.ascontiguousarray(angle.T), axis=1).T * num + np.arange(num)
    rel, keep = rel.reshape(2, -1).take(at, axis=1), keep.ravel().take(at)
    # dropped points repeat the first kept vertex, which adds no area
    rel = np.where(keep, rel, rel[:, :1])
    after = _successors(rel)
    cross = rel[0] * after[1] - rel[1] * after[0]
    area = 0.5 * np.ascontiguousarray(cross.T).sum(axis=-1)
    return np.where(count >= 3, np.maximum(area, 0.0), 0.0)


def _oriented(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quads (K, 4, 2) in counterclockwise order and their (K,) areas."""
    signed = _shoelace(c)
    return np.where((signed < 0.0)[:, None, None], c[:, ::-1], c), np.abs(signed)


def _bounding_boxes(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 2) lower and upper corners of the axis-aligned bounding boxes
    of quads (N, 4, 2)."""
    c0, c1, c2, c3 = (c[:, k] for k in range(4))
    return (np.minimum(np.minimum(c0, c1), np.minimum(c2, c3)),
            np.maximum(np.maximum(c0, c1), np.maximum(c2, c3)))


def _pair_intersections(p: np.ndarray, q: np.ndarray, area_p: np.ndarray,
                        area_q: np.ndarray) -> np.ndarray:
    """Intersection areas (K,) of the counterclockwise quads ``p[k]`` and
    ``q[k]`` of areas ``area_p[k]`` and ``area_q[k]``."""
    # each pair is clipped in one canonical order (lexicographically smaller
    # corners first), so swapping p and q gives the same bits
    flat_p, flat_q = p.reshape(-1, 8), q.reshape(-1, 8)
    first = np.argmax(flat_p != flat_q, axis=1)
    k = np.arange(len(first))
    swap = (flat_p[k, first] > flat_q[k, first])[:, None, None]
    inter = _intersection_areas(np.where(swap, q, p), np.where(swap, p, q))
    # no intersection exceeds the smaller quad; the bound also zeroes a quad
    # whose corners coincide, whose degenerate edges reject no point
    smaller = np.minimum(area_p, area_q)
    return np.where(inter <= _CONTACT * smaller, 0.0, np.minimum(inter, smaller))


def _iou(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    """IoU in [0, 1] from intersection and union areas; 0 where no union."""
    iou = np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
    return np.clip(iou, 0.0, 1.0)


def pairwise_iou(a, b) -> np.ndarray:
    """Rotated IoU of every quad in ``a`` against every quad in ``b``.

    ``a`` and ``b`` are corner arrays of shape (D, 4, 2) and (G, 4, 2), each
    quad convex with its corners in perimeter order, either winding. Returns
    a (D, G) float64 matrix in [0, 1]. Pairs whose axis-aligned bounding
    boxes do not overlap are exactly 0; only the others are clipped.
    """
    a, b = _corner_array(a), _corner_array(b)
    iou = np.zeros((len(a), len(b)))
    rows, cols = np.divmod(np.arange(iou.size), len(b))
    rows, cols, reached = ious_within_reach(a, b, rows, cols, 0.0)
    iou[rows, cols] = reached
    return iou


def _ious_within_reach(a: np.ndarray, area_a: np.ndarray, b: np.ndarray,
                      area_b: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                      threshold: float):
    """``ious_within_reach`` on counterclockwise quads of known areas.

    The intersection lies inside both axis-aligned bounding boxes and inside
    the smaller quad, so with c the smaller of the boxes' overlap and that
    quad's area, IoU <= c / (A + B - c). A pair is clipped when its bounding
    boxes meet and this bound comes within ``_BOUND_SLACK`` of the threshold
    or above it; at threshold 0, whenever the bounding boxes meet.
    """
    # each pair's bounding-box overlap, (K, 2) width and height; a side is
    # negative where the boxes miss each other along it
    (lo_a, hi_a), (lo_b, hi_b) = _bounding_boxes(a), _bounding_boxes(b)
    sides = (np.minimum(hi_a.take(rows, axis=0), hi_b.take(cols, axis=0))
             - np.maximum(lo_a.take(rows, axis=0), lo_b.take(cols, axis=0)))
    meet = np.flatnonzero((sides[:, 0] >= 0.0) & (sides[:, 1] >= 0.0))
    rows, cols, sides = rows.take(meet), cols.take(meet), sides.take(meet, axis=0)
    area_p, area_q = area_a.take(rows), area_b.take(cols)
    bound = np.minimum(sides[:, 0] * sides[:, 1], np.minimum(area_p, area_q))
    reach = np.flatnonzero(
        bound >= threshold * (1.0 - _BOUND_SLACK) * (area_p + area_q - bound))
    rows, cols = rows.take(reach), cols.take(reach)
    area_p, area_q = area_p.take(reach), area_q.take(reach)
    if not len(rows):
        return rows, cols, np.zeros(0)
    inter = _pair_intersections(a.take(rows, axis=0), b.take(cols, axis=0),
                                area_p, area_q)
    return rows, cols, _iou(inter, area_p + area_q - inter)


def ious_within_reach(a, b, rows, cols, threshold: float):
    """The pairs that may reach an IoU threshold, and their rotated IoU.

    ``a`` and ``b`` are corner arrays as for ``pairwise_iou``, and ``rows``
    and ``cols`` index the candidate pairs ``a[rows[k]]``, ``b[cols[k]]``.
    Returns ``(rows, cols, iou)``: the candidates, in the order given, whose
    IoU bound reaches the threshold, and their IoU. Only these pairs are
    clipped; every candidate left out has IoU below the threshold.
    """
    (a, area_a), (b, area_b) = _oriented(_corner_array(a)), _oriented(_corner_array(b))
    return _ious_within_reach(a, area_a, b, area_b, np.asarray(rows, dtype=np.intp),
                              np.asarray(cols, dtype=np.intp), threshold)


# kept only while perfbench's tracer looks this name up (ROADMAP direction 1)
def rotated_iou(a, b) -> float:
    """Rotated IoU of two (4, 2) corner arrays; see ``pairwise_iou``."""
    return float(pairwise_iou(np.asarray(a)[None], np.asarray(b)[None])[0, 0])


def check_iou_threshold(iou_threshold: float) -> None:
    """Raise ValueError unless the threshold lies in [0, 1] (nan fails)."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must lie in [0, 1]")


def oriented_nms(corners, scores, class_ids, iou_threshold: float) -> list[int]:
    """Greedy descending-score suppression within each class; returns the
    kept indices in the order they were kept.

    ``corners`` is a (D, 4, 2) corner array with one score and one class id
    per box. A box only suppresses boxes of its own class. Score ties are
    broken by lower index. No two kept boxes of one class overlap with IoU
    strictly above the threshold, which must lie in [0, 1].
    """
    check_iou_threshold(iou_threshold)
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("detection scores must be finite")
    class_ids = np.asarray(class_ids)
    quads, area = _oriented(_corner_array(corners))
    order = np.argsort(-scores, kind="stable")
    # each unordered same-class pair that may cross the threshold is clipped
    # once: its IoU has the bits of ``pairwise_iou``'s (i, j) and (j, i), and
    # a box's overlap with itself decides nothing
    index = np.arange(len(quads))
    same = (class_ids[:, None] == class_ids[None, :]) & (index[:, None] < index)
    i, j = np.divmod(np.flatnonzero(same), len(quads))
    i, j, iou = _ious_within_reach(quads, area, quads, area, i, j, iou_threshold)
    over = iou > iou_threshold
    if not over.any():
        return order.tolist()
    partners: dict[int, list[int]] = {}
    for p, q in zip(i[over].tolist(), j[over].tolist()):
        partners.setdefault(p, []).append(q)
        partners.setdefault(q, []).append(p)
    # only the boxes with a partner can suppress or be suppressed; they are
    # visited in score order, the others are all kept
    paired = np.zeros(len(scores), dtype=bool)
    paired[list(partners)] = True
    suppressed = np.zeros(len(scores), dtype=bool)
    for k in order[paired[order]].tolist():
        if not suppressed[k]:
            suppressed[partners[k]] = True
    return order[~suppressed[order]].tolist()
