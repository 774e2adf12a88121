"""Independent reference implementations used to derive expected test values.

Nothing here shares code with the package: areas come from Monte Carlo
sampling, half-plane tests or a scalar Sutherland-Hodgman clip, greedy NMS
and matching from plain per-pair loops over that clip, gradients from
finite differences, and connected components from scipy. Tests compare
package output against these, so disagreement points at the
implementation (or, symmetrically, at the oracle) rather than at a copied
bug.
"""

from __future__ import annotations

import math

import numpy as np


def points_in_convex_quad(points: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Half-plane membership for a batch of points, boundary inclusive.

    Works for either winding: the sign of each edge cross product is
    compared against the polygon's own orientation.
    """
    corners = np.asarray(corners, dtype=np.float64)
    x, y = points[:, 0], points[:, 1]
    orient = 0.0
    for i in range(4):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % 4]
        cx, cy = corners[(i + 2) % 4]
        orient += (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    sign = 1.0 if orient >= 0 else -1.0
    inside = np.ones(len(points), dtype=bool)
    for i in range(4):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % 4]
        cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        inside &= sign * cross >= 0.0
    return inside


def signed_shoelace(corners) -> float:
    pts = np.asarray(corners, dtype=np.float64)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def shoelace(corners) -> float:
    return abs(signed_shoelace(corners))


def mc_intersection_area(corners_a, corners_b, num_samples: int,
                         rng: np.random.Generator) -> float:
    """Monte Carlo intersection area over the joint bounding box."""
    allpts = np.vstack([corners_a, corners_b])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    box_area = float(np.prod(hi - lo))
    if box_area <= 0.0:
        return 0.0
    samples = rng.uniform(lo, hi, size=(num_samples, 2))
    hit = (points_in_convex_quad(samples, corners_a)
           & points_in_convex_quad(samples, corners_b))
    return box_area * float(np.count_nonzero(hit)) / num_samples


def mc_iou(corners_a, corners_b, num_samples: int,
           rng: np.random.Generator) -> float:
    """IoU with Monte Carlo intersection and exact shoelace box areas."""
    inter = mc_intersection_area(corners_a, corners_b, num_samples, rng)
    union = shoelace(corners_a) + shoelace(corners_b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def random_rectangle(rng: np.random.Generator, center_range=(5.0, 60.0),
                     side_range=(2.0, 20.0)) -> np.ndarray:
    """Random rotated rectangle corners, counterclockwise (y-down frame)."""
    cx = rng.uniform(*center_range)
    cy = rng.uniform(*center_range)
    w = rng.uniform(*side_range)
    h = rng.uniform(*side_range)
    phi = rng.uniform(0.0, math.pi)
    offs = np.array([[w / 2, h / 2], [-w / 2, h / 2],
                     [-w / 2, -h / 2], [w / 2, -h / 2]])
    rot = np.array([[math.cos(phi), -math.sin(phi)],
                    [math.sin(phi), math.cos(phi)]])
    return offs @ rot.T + np.array([cx, cy])


def jittered_scene(rng: np.random.Generator, num_objects: int,
                   copies: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense scene: ``num_objects`` rectangles packed into a 40 px square,
    each followed by ``copies`` jittered duplicates (shift, scale, turn),
    the way a detector reports one object several times. Returns the
    (num_objects * (copies + 1), 4, 2) corners and the object index of each.
    """
    corners, owner = [], []
    for k in range(num_objects):
        base = random_rectangle(rng, center_range=(10.0, 30.0),
                                side_range=(4.0, 14.0))
        corners.append(base)
        owner.append(k)
        center = base.mean(axis=0)
        for _ in range(copies):
            phi = rng.uniform(-0.15, 0.15)
            rot = np.array([[math.cos(phi), -math.sin(phi)],
                            [math.sin(phi), math.cos(phi)]])
            scale = rng.uniform(0.85, 1.15)
            shift = rng.uniform(-1.5, 1.5, size=2)
            corners.append((base - center) @ rot.T * scale + center + shift)
            owner.append(k)
    return np.array(corners), np.array(owner)


def rect_polar_truth(cx: float, cy: float, w: float, h: float,
                     phi: float) -> tuple[float, float, float]:
    """Closed-form (rho, theta1, theta2) of a rotated rectangle.

    Corner angles are {beta + phi, pi - beta + phi} mod pi with
    beta = atan2(h, w); the polar radius is half the diagonal.
    """
    rho = math.hypot(w, h) / 2.0
    beta = math.atan2(h, w)
    a1 = (beta + phi) % math.pi
    a2 = (math.pi - beta + phi) % math.pi
    t1, t2 = sorted((a1, a2))
    return rho, t1, t2


def fd_gradient(f, x: float, step: float = 1e-6) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def brute_force_components(mask: np.ndarray) -> list[set[tuple[int, int]]]:
    """8-connected components by repeated neighbor expansion (no BFS order)."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    remaining = {(r, c) for r in range(h) for c in range(w) if mask[r, c]}
    comps = []
    while remaining:
        seed_cell = next(iter(remaining))
        comp = {seed_cell}
        frontier = {seed_cell}
        while frontier:
            new_frontier = set()
            for r, c in frontier:
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        cand = (r + dr, c + dc)
                        if cand in remaining and cand not in comp:
                            comp.add(cand)
                            new_frontier.add(cand)
            frontier = new_frontier
        remaining -= comp
        comps.append(comp)
    return comps


def voc_ap_reference(scored_flags: list[tuple[float, bool]], num_gt: int) -> float:
    """All-point-interpolation AP computed the slow, obvious way.

    For every achieved recall step, take the best precision at any equal
    or higher recall, then sum recall increments times that precision.
    """
    ranked = sorted(scored_flags, key=lambda sf: -sf[0])
    points = []
    tp = 0
    for rank, (_score, flag) in enumerate(ranked, start=1):
        tp += bool(flag)
        points.append((tp / num_gt, tp / rank))
    ap = 0.0
    prev_recall = 0.0
    for recall, _ in points:
        if recall <= prev_recall:
            continue
        best = max(p for r, p in points if r >= recall)
        ap += (recall - prev_recall) * best
        prev_recall = recall
    return ap


def _ccw(pts: np.ndarray) -> np.ndarray:
    return pts[::-1] if signed_shoelace(pts) < 0.0 else pts


def clip_polygon(subject, clip, eps: float = 1e-9) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon against a convex polygon.

    Returns the intersection polygon's vertices (possibly empty). Both
    inputs are reoriented counterclockwise first, so corner order does not
    matter. A point within ``eps`` (cross-product units) outside an edge
    counts as inside, so clipping a polygon against itself returns it.
    """
    out = [tuple(p) for p in _ccw(np.asarray(subject, dtype=np.float64))]
    clip_pts = _ccw(np.asarray(clip, dtype=np.float64))
    n = len(clip_pts)
    for k in range(n):
        if not out:
            break
        ax, ay = clip_pts[k]
        bx, by = clip_pts[(k + 1) % n]
        ex, ey = bx - ax, by - ay

        def inside(p):
            return ex * (p[1] - ay) - ey * (p[0] - ax) >= -eps

        def intersect(p, q):
            # intersection of segment p->q with the infinite line a->b
            dx, dy = q[0] - p[0], q[1] - p[1]
            denom = ex * dy - ey * dx
            t = (ex * (ay - p[1]) - ey * (ax - p[0])) / denom
            return (p[0] + t * dx, p[1] + t * dy)

        prev_pts, out = out, []
        s = prev_pts[-1]
        for e in prev_pts:
            if inside(e):
                if not inside(s):
                    out.append(intersect(s, e))
                out.append(e)
            elif inside(s):
                out.append(intersect(s, e))
            s = e
    return np.array(out, dtype=np.float64).reshape(-1, 2)


def clip_intersection_area(corners_a, corners_b) -> float:
    poly = clip_polygon(corners_a, corners_b)
    return shoelace(poly) if len(poly) >= 3 else 0.0


def clip_iou(corners_a, corners_b) -> float:
    """Rotated IoU from one scalar Sutherland-Hodgman clip per pair."""
    inter = clip_intersection_area(corners_a, corners_b)
    if inter <= 0.0:
        return 0.0
    union = shoelace(corners_a) + shoelace(corners_b) - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def clip_iou_matrix(corners_a, corners_b) -> np.ndarray:
    return np.array([[clip_iou(a, b) for b in corners_b] for a in corners_a],
                    dtype=np.float64).reshape(len(corners_a), len(corners_b))


def greedy_nms_reference(corners, scores, iou_threshold: float) -> list[int]:
    """Greedy oriented NMS with one scalar clip per (candidate, kept) pair."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if all(clip_iou(corners[i], corners[j]) <= iou_threshold for j in kept):
            kept.append(i)
    return kept


def greedy_match_reference(det_corners, det_classes, det_scores, gt_corners,
                           gt_classes, iou_threshold: float) -> list[bool]:
    """VOC greedy matching with one scalar clip per (detection, GT) pair."""
    order = sorted(range(len(det_scores)), key=lambda i: -det_scores[i])
    gt_taken = [False] * len(gt_corners)
    flags = [False] * len(det_scores)
    for i in order:
        best_iou, best_j = 0.0, -1
        for j, gt in enumerate(gt_corners):
            if gt_taken[j] or gt_classes[j] != det_classes[i]:
                continue
            iou = clip_iou(det_corners[i], gt)
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= iou_threshold:
            gt_taken[best_j] = True
            flags[i] = True
    return flags


def regression_loss_reference(pred, truth, lam: float, beta: float):
    """Per-cell regression loss in plain Python floats: two ring terms plus
    three Smooth-L1 terms, with branches taken by ``if``.

    Returns (value, d_rho, d_theta1, d_theta2).
    """
    def sl1(r):
        if abs(r) < beta:
            return 0.5 * r * r / beta, r / beta
        return abs(r) - 0.5 * beta, math.copysign(1.0, r)

    def sign(v):
        return 0.0 if v == 0.0 else math.copysign(1.0, v)

    def ring(rho, rho_s, t, t_s):
        dr2, dt = rho * rho - rho_s * rho_s, t - t_s
        value, dl_dg = sl1(abs(dr2 * dt))
        return (value, dl_dg * (sign(dr2) * 2.0 * rho * abs(dt)),
                dl_dg * (abs(dr2) * sign(dt)))

    rho, t1, t2 = (float(v) for v in pred)
    rho_s, t1_s, t2_s = (float(v) for v in truth)
    r1, r1_rho, r1_t = ring(rho, rho_s, t1, t1_s)
    r2, r2_rho, r2_t = ring(rho, rho_s, t2, t2_s)
    s_rho, g_rho = sl1(rho - rho_s)
    s_t1, g_t1 = sl1(t1 - t1_s)
    s_t2, g_t2 = sl1(t2 - t2_s)
    return (lam * (r1 + r2) + s_rho + s_t1 + s_t2,
            lam * (r1_rho + r2_rho) + g_rho, lam * r1_t + g_t1, lam * r2_t + g_t2)
