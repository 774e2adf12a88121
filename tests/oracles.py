"""Independent reference implementations used to derive expected test values.

Nothing here shares code with the package: areas come from Monte Carlo
sampling, half-plane tests or a scalar Sutherland-Hodgman clip, greedy NMS
and matching from plain per-pair loops over that clip, gradients from
finite differences, connected components and heatmap peaks from a full
row-major scan, decoded corners from one scalar
``math`` formula per pole, conv columns from ``np.pad`` and a sliding-window
view, conv input gradients from one strided add per tap over the
(n, oy, ox) columns, training targets from one Gaussian window and one
set of dense regression planes per box and image, and the dataset readers
and polar conversions from their earlier one-item-at-a-time forms (a byte
tokenizer, the annotation and detection parsers that read one line's
numbers at a time, comprehensions over ``math`` calls), the heatmap
scatter from ``np.maximum.at``, the PR curve and AP from their per-point
loops, and synthetic scenes and their dataset files from the
one-object-at-a-time generator and writer (scalar ``rng.uniform`` draws,
a ``math.hypot`` loop over placed centres, one matrix product and one
``meshgrid`` fill per rectangle). Tests compare
package output against these, so disagreement points at the
implementation (or, symmetrically, at the oracle) rather than at a copied
bug.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


#: rows of Monte Carlo samples drawn at a time; the generator yields the
#: same stream however it is cut, so the estimate does not depend on this
MC_CHUNK_ROWS = 2 ** 15


def mc_intersection_area(corners_a, corners_b, num_samples: int,
                         rng: np.random.Generator) -> float:
    """Monte Carlo intersection area over the joint bounding box."""
    allpts = np.vstack([corners_a, corners_b])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    box_area = float(np.prod(hi - lo))
    if box_area <= 0.0:
        return 0.0
    hits = 0
    for start in range(0, num_samples, MC_CHUNK_ROWS):
        samples = rng.uniform(lo, hi, size=(min(MC_CHUNK_ROWS, num_samples - start), 2))
        # quad b is tested only on the samples that fell inside quad a
        in_a = samples[points_in_convex_quad(samples, corners_a)]
        hits += int(np.count_nonzero(points_in_convex_quad(in_a, corners_b)))
    return box_area * float(hits) / num_samples


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


def decode_poles_reference(poles, rho_plane, theta1_plane, theta2_plane,
                           stride: int):
    """Decoding one pole at a time, in plain Python floats and ``math``.

    ``poles`` is a ``Poles`` array set. A pole with rho <= 0 or
    theta2 <= theta1 is dropped; any other pole becomes four corners at
    angles (t1, t2, t1+pi, t2+pi) about its cell center, and non-finite
    corners raise ``ValueError``. Returns
    ([(corners (4, 2), class_id, score)], number dropped).
    """
    d = stride
    detections, dropped = [], 0
    for class_id, cy, cx, score in zip(poles.class_id.tolist(),
                                       poles.cell_y.tolist(),
                                       poles.cell_x.tolist(),
                                       poles.score.tolist()):
        rho = float(rho_plane[cy, cx]) * d
        t1 = float(theta1_plane[cy, cx])
        t2 = float(theta2_plane[cy, cx])
        if rho <= 0.0 or t2 <= t1:
            dropped += 1
            continue
        xs, ys = cx * d + d / 2.0, cy * d + d / 2.0
        corners = np.array([[xs + rho * math.cos(t), ys + rho * math.sin(t)]
                            for t in (t1, t2, t1 + math.pi, t2 + math.pi)])
        if not np.all(np.isfinite(corners)):
            raise ValueError("corners must be finite")
        detections.append((corners, class_id, score))
    return detections, dropped


def scan_components(mask: np.ndarray) -> list[list[tuple[int, int]]]:
    """8-connected components found by visiting every cell in row-major
    order: ordered by smallest member, each component's cells sorted."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    seen = np.zeros_like(mask)
    comps = []
    for r0 in range(h):
        for c0 in range(w):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            seen[r0, c0] = True
            stack, cells = [(r0, c0)], []
            while stack:
                r, c = stack.pop()
                cells.append((r, c))
                for rr in range(max(r - 1, 0), min(r + 2, h)):
                    for cc in range(max(c - 1, 0), min(c + 2, w)):
                        if mask[rr, cc] and not seen[rr, cc]:
                            seen[rr, cc] = True
                            stack.append((rr, cc))
            comps.append(sorted(cells))
    return comps


def peak_scan_reference(heatmap: np.ndarray, threshold: float,
                        k: int | None = None) -> list[tuple[int, int, int, float]]:
    """Poles by visiting every cell of every channel, one at a time.

    A cell is a pole when it is >= ``threshold``, strictly above each of
    its in-grid 3x3 neighbours that come before it in row-major order and
    >= each that comes after. Returns (class, row, col, score) tuples
    ranked by descending score, ties by (class, row, col), cut to ``k``.
    """
    heatmap = np.asarray(heatmap, dtype=np.float64)
    c, h, w = heatmap.shape
    poles = []
    for ci in range(c):
        for r in range(h):
            for col in range(w):
                v = float(heatmap[ci, r, col])
                if v < threshold:
                    continue
                is_peak = True
                for rr in range(max(r - 1, 0), min(r + 2, h)):
                    for cc in range(max(col - 1, 0), min(col + 2, w)):
                        u = float(heatmap[ci, rr, cc])
                        if (rr, cc) < (r, col) and not v > u:
                            is_peak = False
                        if (rr, cc) > (r, col) and not v >= u:
                            is_peak = False
                if is_peak:
                    poles.append((ci, r, col, v))
    poles.sort(key=lambda p: (-p[3], p[0], p[1], p[2]))
    return poles if k is None else poles[:k]


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


def precision_recall_reference(scores, tp_flags, num_gt: int) -> list[tuple]:
    """(recall, precision, score) per detection prefix, by descending score
    with ties in input order, one numpy scalar division per point."""
    order = np.argsort([-s for s in scores], kind="stable")
    tps = np.cumsum([tp_flags[i] for i in order])
    ranks = np.arange(1, len(order) + 1)
    return [(float(tp / num_gt), float(tp / rank), float(scores[i]))
            for i, tp, rank in zip(order, tps, ranks)]


def average_precision_reference(curve) -> float:
    """All-point AP of (recall, precision, ...) points: the envelope by a
    backward max loop, the area by a forward running sum."""
    recalls = np.concatenate(([0.0], [p[0] for p in curve]))
    precisions = np.concatenate(([0.0], [p[1] for p in curve]))
    for k in range(len(precisions) - 2, -1, -1):
        precisions[k] = max(precisions[k], precisions[k + 1])
    ap = 0.0
    for k in range(1, len(recalls)):
        ap += (recalls[k] - recalls[k - 1]) * precisions[k]
    return float(ap)


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
    """Rotated IoU from one scalar Sutherland-Hodgman clip per pair.

    Boxes that only touch can leave a sliver of rounding: for two 3x3
    squares at 0.3 rad sharing an edge it returns ~4.9e-17, not 0, so at
    threshold 0 a reference that uses it can suppress a touching box.
    """
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


def encode_records_reference(records_per_image, class_names, cfg):
    """Training targets the per-box way: for each image, each annotation
    record goes through its own polar conversion, pole-cell lookup and
    Gaussian window, in plain Python floats and ``math`` functions.

    ``records_per_image`` holds one list of annotation records (``corners``
    and ``class_name``) per image; ``cfg`` has the grid's width, height,
    stride and num_classes. Returns one dict per image: the (C, gh, gw)
    ``heatmap``; the dense (gh, gw) ``rho`` (grid units), ``theta1`` and
    ``theta2`` planes, zero away from the poles; the ``pole_mask`` of the
    pole cells; and ``pole_cells``, one (class_id, cx, cy) tuple per record in
    input order. It raises the package's errors.
    """
    from polardet.errors import CellCollision, DegenerateBox, OutOfBounds, UnknownClass

    d = cfg.stride
    gh, gw = cfg.height // d, cfg.width // d

    def polar(corners):
        if shoelace(corners) <= 1e-6:
            raise DegenerateBox("quad area <= 1e-06 px^2")
        pole = corners.mean(axis=0)
        offsets = corners - pole
        rho = float(np.hypot(offsets[:, 0], offsets[:, 1]).mean())
        angles = []
        for dx, dy in offsets:
            a = math.fmod(math.atan2(dy, dx), 2.0 * math.pi)
            if a < 0.0:
                a += 2.0 * math.pi
            angles.append(0.0 if a >= 2.0 * math.pi else a)
        angles.sort()
        return float(pole[0]), float(pole[1]), rho, angles[0], angles[1]

    def cell(x, y):
        if not (0.0 <= x < cfg.width and 0.0 <= y < cfg.height):
            raise OutOfBounds(f"pole ({x}, {y}) outside {cfg.width}x{cfg.height} image")
        return int(x // d), int(y // d)

    out = []
    for records in records_per_image:
        boxes = []
        for r in records:
            if r.class_name not in class_names:
                raise UnknownClass(f"class {r.class_name!r} not in {class_names}")
            corners = np.asarray(r.corners, dtype=np.float64).reshape(4, 2)
            boxes.append((*polar(corners), class_names.index(r.class_name)))
        target = {"heatmap": np.zeros((cfg.num_classes, gh, gw)),
                  "rho": np.zeros((gh, gw)), "theta1": np.zeros((gh, gw)),
                  "theta2": np.zeros((gh, gw)),
                  "pole_mask": np.zeros((gh, gw), dtype=bool), "pole_cells": []}
        occupied = {}
        for i, (x, y, rho, t1, t2, class_id) in enumerate(boxes):
            cx, cy = cell(x, y)
            if (cx, cy) in occupied:
                raise CellCollision(f"boxes {occupied[(cx, cy)]} and {i} share "
                                    f"pole cell ({cx}, {cy})")
            occupied[(cx, cy)] = i
            target["rho"][cy, cx] = rho / d
            target["theta1"][cy, cx] = t1
            target["theta2"][cy, cx] = t2
            target["pole_mask"][cy, cx] = True
            target["pole_cells"].append((class_id, cx, cy))
        for x, y, rho, t1, t2, class_id in boxes:
            cx, cy = cell(x, y)
            c = np.array([[x + rho * math.cos(t), y + rho * math.sin(t)]
                          for t in (t1, t2, t1 + math.pi)])
            side = min(float(np.hypot(*(c[1] - c[0]))), float(np.hypot(*(c[2] - c[1]))))
            if side <= 0.0:
                raise DegenerateBox("box has a zero-length side")
            sigma = side / 3.0 / d
            radius = int(math.ceil(3.0 * sigma))
            x0, x1 = max(cx - radius, 0), min(cx + radius, gw - 1)
            y0, y1 = max(cy - radius, 0), min(cy + radius, gh - 1)
            gx, gy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
            r2 = (gx - cx) ** 2 + (gy - cy) ** 2
            kernel = np.exp(-r2 / (2.0 * sigma * sigma))
            kernel[r2 > (3.0 * sigma) ** 2] = 0.0
            window = target["heatmap"][class_id, y0:y1 + 1, x0:x1 + 1]
            np.maximum(window, kernel, out=window)
        out.append(target)
    return out


def render_heatmaps_reference(boxes, cells, num_images: int, cfg) -> np.ndarray:
    """The training heatmaps with every window sample scattered by one
    ``np.maximum.at``: each box's truncated Gaussian around its pole cell,
    sigma a third of its shorter side in grid units, merged by max."""
    from polardet.geometry import polars_to_quads

    side = np.diff(polars_to_quads(boxes.pole, boxes.rho, boxes.theta)[:, :3], axis=1)
    sigma = np.hypot(side[..., 0], side[..., 1]).min(axis=1) / 3.0 / cfg.stride
    radius = np.ceil(3.0 * sigma).astype(np.intp)
    heat = np.zeros((num_images, cfg.num_classes, cfg.grid_h, cfg.grid_w))
    for r in np.unique(radius):
        sel = np.flatnonzero(radius == r)
        d = np.arange(-r, r + 1)
        r2 = d[:, None] ** 2 + d[None, :] ** 2
        s = sigma[sel, None, None]
        gy = cells[sel, 1, None, None] + d[:, None]
        gx = cells[sel, 0, None, None] + d[None, :]
        keep = ((r2 <= (3.0 * s) ** 2)
                & (0 <= gy) & (gy < cfg.grid_h) & (0 <= gx) & (gx < cfg.grid_w))
        index = np.broadcast_arrays(boxes.image[sel, None, None],
                                    boxes.class_id[sel, None, None], gy, gx)
        kernel = np.exp(-r2 / (2.0 * s * s))
        np.maximum.at(heat, tuple(i[keep] for i in index), kernel[keep])
    return heat


def target_planes(targets, k: int = 0):
    """The dense (gh, gw) rho, theta1 and theta2 planes of image ``k`` of a
    ``Targets``: each pole row's values at its cell, zero elsewhere. This is
    the layout ``decode_poles`` reads from a net's outputs."""
    gh, gw = targets.heat.shape[2:]
    planes = np.zeros((3, gh, gw))
    rows = slice(targets.first[k], targets.first[k + 1])
    cx, cy = targets.cell[rows].T
    planes[:, cy, cx] = targets.value[rows].T
    return tuple(planes)


def batch_loss_reference(net, x, targets, cfg):
    """``compute_batch_loss`` the per-image way: the batch's heatmaps and
    dense planes are stacked from one ``encode_records_reference`` dict per
    image, and the pole indices are rebuilt from each dict's ``pole_cells``.

    The net, the losses and the backward are the package's; what is
    independent is how the targets reach them. Returns (total, pole, reg)
    and leaves the gradients in the net's parameters.
    """
    from polardet.losses import pole_focal_loss, total_loss, total_regression_loss

    out = net.forward(x)
    n = x.shape[0]
    fl = pole_focal_loss(out.heat, np.stack([t["heatmap"] for t in targets]), cfg,
                         [max(len(t["pole_cells"]), 1) for t in targets])
    pole = float(np.mean(fl.value))
    cells = [(k, cx, cy) for k, t in enumerate(targets) for _c, cx, cy in t["pole_cells"]]
    b, cx, cy = np.array(cells, dtype=np.intp).reshape(-1, 3).T
    planes = np.stack([(t["rho"], t["theta1"], t["theta2"]) for t in targets])
    truth = planes[b, :, cy, cx]
    reg = total_regression_loss((out.rho[b, cy, cx], *out.theta[b, :, cy, cx].T),
                                tuple(truth.T), cfg)
    reg_mean = float(np.mean(reg.value)) if b.size else 0.0
    scale = cfg.reg_weight / b.size if b.size else 0.0
    d_rho = np.zeros_like(out.rho)
    d_theta = np.zeros_like(out.theta)
    np.add.at(d_rho, (b, cy, cx), reg.gradients["rho"] * scale)
    np.add.at(d_theta, (b, slice(None), cy, cx),
              np.stack((reg.gradients["theta1"], reg.gradients["theta2"]), axis=1) * scale)
    net.backward(fl.gradients["pred"] / n, d_rho, d_theta)
    return total_loss(pole, reg_mean, cfg), pole, reg_mean


def im2col_reference(x: np.ndarray, stride: int) -> np.ndarray:
    """(N, C, H, W) -> (C*9, N*oh*ow) conv columns, rows (c, ki, kj) and
    columns (n, oy, ox), read off a sliding-window view of the padded input."""
    from numpy.lib.stride_tricks import sliding_window_view

    n, c, h, w = x.shape
    oh, ow = (h - 1) // stride + 1, (w - 1) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::stride, ::stride]
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * 9, n * oh * ow)


def col2im_reference(dcols: np.ndarray, x_shape: tuple, stride: int) -> np.ndarray:
    """Scatter-add (C*9, N*oh*ow) column gradients, columns in (n, oy, ox)
    order as ``toynet._im2col`` lays them out, back to (N, C, H, W): one
    strided add per tap, taps in (ki, kj) order."""
    n, c, h, w = x_shape
    oh, ow = (h - 1) // stride + 1, (w - 1) // stride + 1
    dc = dcols.reshape(c, 3, 3, n, oh, ow)
    dxp = np.zeros((c, n, h + 2, w + 2), dtype=dcols.dtype)
    for ki in range(3):
        for kj in range(3):
            dxp[:, :, ki:ki + stride * (oh - 1) + 1:stride,
                kj:kj + stride * (ow - 1) + 1:stride] += dc[:, ki, kj]
    return dxp[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)


def adam_step_reference(params, m, v, t: int, cfg) -> None:
    """Adam step ``t`` (from 1) as a loop over parameter arrays, each
    updated by one expression; ``m`` and ``v`` hold one moment array per
    parameter and are updated in place."""
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for p, mi, vi in zip(params, m, v):
        mi *= cfg.beta1
        mi += (1.0 - cfg.beta1) * p.grad
        vi *= cfg.beta2
        vi += (1.0 - cfg.beta2) * p.grad ** 2
        p.value -= cfg.learning_rate * (mi / bc1) / (np.sqrt(vi / bc2) + cfg.eps)


def pole_focal_loss_reference(pred, target, cfg, num_objects):
    """The penalty-reduced focal loss with both branches computed at every
    cell and one picked per cell by ``np.where``: (value, gradient), with
    ``pole_focal_loss``'s batch convention for an (N,) ``num_objects``."""
    from polardet.losses import CLAMP_EPS

    counts = np.asarray(num_objects, dtype=np.float64)
    a, b = cfg.alpha_focal, cfg.beta_focal
    p = np.clip(pred, CLAMP_EPS, 1.0 - CLAMP_EPS)
    pos = target == 1.0
    log_p = np.log(p)
    log_1p = np.log1p(-p)
    pos_term = (1.0 - p) ** a * log_p
    damp = (1.0 - target) ** b
    neg_term = damp * p ** a * log_1p
    per_image = tuple(range(counts.ndim, p.ndim))
    value = -np.where(pos, pos_term, neg_term).sum(axis=per_image) / counts
    per_cell = counts.reshape(counts.shape + (1,) * len(per_image))
    grad = np.where(
        pos,
        -(-a * (1.0 - p) ** (a - 1.0) * log_p + (1.0 - p) ** a / p),
        -damp * (a * p ** (a - 1.0) * log_1p - p ** a / (1.0 - p)),
    ) / per_cell
    return value, grad


def sigmoid_reference(z: np.ndarray) -> np.ndarray:
    """Logistic function, one masked pass per sign of ``z``."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def read_pgm_reference(path) -> np.ndarray:
    """Binary 8-bit PGM raster, header read one byte at a time: four tokens
    (magic, width, height, maxval) between whitespace and '#' comments that
    run to the end of their line, then one byte, then the raster."""
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        tokens.append(blob[start:pos])
    if tokens[0] != b"P5":
        raise ValueError(f"not a binary PGM: magic {tokens[0]!r}")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported, maxval={maxval}")
    pos += 1
    raster = np.frombuffer(blob, dtype=np.uint8, count=w * h, offset=pos)
    return raster.reshape(h, w)


def _finite_floats_reference(tokens):
    try:
        values = list(map(float, tokens))
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


class AnnotationRow(NamedTuple):
    corners: tuple  # x1 y1 ... y4, row major
    class_name: str
    difficulty: int


class DetectionRow(NamedTuple):
    image_id: str
    score: float
    corners: tuple  # x1 y1 ... y4, row major
    class_name: str


def annotation_rows(parsed) -> list[AnnotationRow]:
    """The rows of a parsed ``formats.Annotations``, one tuple each."""
    coords = parsed.coords
    corners = [tuple(coords[k:k + 8]) for k in range(0, len(coords), 8)]
    return list(map(AnnotationRow, corners, parsed.class_name, parsed.difficulty))


def detection_rows(parsed) -> list[DetectionRow]:
    """The rows of a parsed ``formats.DetectionRows``, one tuple each."""
    return list(map(DetectionRow, parsed.image_id, parsed.score.tolist(),
                    map(tuple, parsed.corners.reshape(-1, 8).tolist()),
                    parsed.class_name))


def parse_annotations_reference(text: str):
    """``formats.parse_annotations`` as (rows, warnings): the per-line
    parser the package had before it read whole files at once."""
    records, warnings = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or ":" in tokens[0]:  # blank, or a metadata header
            continue
        if len(tokens) != 10:
            warnings.append(f"line {lineno}: expected 10 fields, got {len(tokens)}")
            continue
        coords = _finite_floats_reference(tokens[:8])
        if coords is None:
            warnings.append(f"line {lineno}: non-numeric or non-finite coordinates")
            continue
        try:
            difficulty = int(tokens[9])
        except ValueError:
            warnings.append(f"line {lineno}: bad difficulty {tokens[9]!r}")
            continue
        records.append(AnnotationRow(tuple(coords), tokens[8], difficulty))
    return records, warnings


def parse_detections_reference(text: str):
    """``formats.parse_detections`` as (rows, warnings): the per-line
    parser the package had before it read whole files at once."""
    records, warnings = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 11:
            warnings.append(f"line {lineno}: expected 11 fields, got {len(tokens)}")
            continue
        values = _finite_floats_reference(tokens[1:10])
        if values is None:
            warnings.append(f"line {lineno}: non-numeric or non-finite values")
            continue
        records.append(
            DetectionRow(tokens[0], values[0], tuple(values[1:]), tokens[10]))
    return records, warnings


def read_annotations_reference(path):
    """An annotation file read as text in the locale's encoding, then parsed
    by ``parse_annotations_reference``."""
    from pathlib import Path

    return parse_annotations_reference(Path(path).read_text())


def _normalize_angle_reference(raw: float) -> float:
    a = math.fmod(raw, 2.0 * math.pi)
    if a < 0.0:
        a += 2.0 * math.pi
    return 0.0 if a >= 2.0 * math.pi else a


def quads_to_polar_reference(corners):
    """(pole, rho, theta) of (B, 4, 2) corners, one ``math.atan2`` and one
    scalar angle normalisation per corner in a comprehension."""
    from polardet.errors import DegenerateBox

    c = np.asarray(corners, dtype=np.float64).reshape(-1, 4, 2)
    x, y = c[..., 0], c[..., 1]
    area = 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y,
                        axis=-1)
    if np.any(np.abs(area) <= 1e-6):
        raise DegenerateBox("quad area <= 1e-06 px^2")
    pole = c.mean(axis=1)
    offsets = c - pole[:, None, :]
    rho = np.hypot(offsets[..., 0], offsets[..., 1]).mean(axis=1)
    angles = np.array([_normalize_angle_reference(math.atan2(dy, dx))
                       for dx, dy in offsets.reshape(-1, 2).tolist()])
    return pole, rho, np.sort(angles.reshape(-1, 4), axis=1)[:, :2]


def polars_to_quads_reference(pole, rho, theta):
    """(B, 4, 2) corners at (t1, t2, t1 + pi, t2 + pi), one ``math.cos`` and
    one ``math.sin`` per corner in a nested comprehension."""
    angles = np.asarray(theta, dtype=np.float64).reshape(-1, 2).tolist()
    trig = np.array([[(math.cos(t), math.sin(t)) for t in (a, b, a + math.pi, b + math.pi)]
                     for a, b in angles]).reshape(-1, 4, 2)
    return (np.asarray(pole, dtype=np.float64).reshape(-1, 1, 2)
            + np.asarray(rho, dtype=np.float64).reshape(-1, 1, 1) * trig)


def _rectangle_reference(cx, cy, w, h, phi):
    offs = np.array([[w / 2, h / 2], [-w / 2, h / 2], [-w / 2, -h / 2], [w / 2, -h / 2]])
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    return offs @ rot.T + np.array([cx, cy])


def _fill_quad_reference(image, corners, value):
    h, w = image.shape
    x0 = max(int(math.floor(corners[:, 0].min())), 0)
    x1 = min(int(math.ceil(corners[:, 0].max())) + 1, w)
    y0 = max(int(math.floor(corners[:, 1].min())), 0)
    y1 = min(int(math.ceil(corners[:, 1].max())) + 1, h)
    if x0 >= x1 or y0 >= y1:
        return
    px, py = np.meshgrid(np.arange(x0, x1) + 0.5, np.arange(y0, y1) + 0.5)
    inside = np.ones(px.shape, dtype=bool)
    for i in range(4):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % 4]
        inside &= (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0.0
    image[y0:y1, x0:x1][inside] = value


def generate_scene_reference(spec, rng):
    """``synthdata.generate_scene`` one object at a time: five scalar
    ``rng.uniform`` calls per attempt, a loop over the placed centres with
    ``math.hypot``, each rectangle's corners from its own (4, 2) @ (2, 2)
    product and its pixels from a ``meshgrid``; returns (image, corners
    (B, 4, 2), class ids (B,))."""
    from polardet.errors import PlacementError

    target = int(rng.integers(spec.min_objects, spec.max_objects + 1))
    placed = []  # (cx, cy, radius, long, short, phi, class_id)
    d = spec.pole_stride
    for k in range(target):
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
            if any(math.hypot(cx - ox, cy - oy) < 0.9 * (radius + orad) + 2.0
                   or (int(cx // d) == int(ox // d) and int(cy // d) == int(oy // d))
                   for ox, oy, orad, *_rest in placed):
                continue
            placed.append((cx, cy, radius, long, short, phi,
                           int(rng.integers(spec.num_classes))))
            break
        else:
            if k >= spec.min_objects:
                break
            raise PlacementError(f"could not place object {k} after {spec.max_attempts} tries")
    image = np.full((spec.height, spec.width), spec.background)
    corners = []
    for cx, cy, _radius, long, short, phi, class_id in placed:
        corners.append(_rectangle_reference(cx, cy, long, short, phi))
        _fill_quad_reference(image, corners[-1], spec.class_intensity(class_id))
    if spec.noise_sigma > 0.0:
        image = image + rng.normal(0.0, spec.noise_sigma, image.shape)
    return (np.clip(image, 0.0, 1.0), np.array(corners).reshape(-1, 4, 2),
            np.array([p[-1] for p in placed], dtype=np.intp))


def write_dataset_reference(out_dir, spec, count: int, seed: int) -> list[str]:
    """``synthdata.write_dataset`` from ``generate_scene_reference``: a PGM
    header and raster in two writes, one text line per box from a join of
    ``f"{v:.6f}"`` fields, and the manifest through ``csv``."""
    import csv
    from pathlib import Path

    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "annotations").mkdir(parents=True, exist_ok=True)
    names = [f"class{c}" for c in range(spec.num_classes)]
    rows = []
    children = np.random.SeedSequence(seed).spawn(count)
    for i, child in enumerate(children):
        image_id = f"img_{i:05d}"
        image, corners, class_id = generate_scene_reference(
            spec, np.random.default_rng(child))
        quantized = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
        with open(out / "images" / f"{image_id}.pgm", "wb") as fh:
            fh.write(f"P5\n{spec.width} {spec.height}\n255\n".encode("ascii"))
            fh.write(quantized.tobytes())
        lines = [" ".join(f"{v:.6f}" for v in c.reshape(-1).tolist())
                 + f" {names[k]} 0" for c, k in zip(corners, class_id.tolist())]
        (out / "annotations" / f"{image_id}.txt").write_text(
            "\n".join(lines) + ("\n" if lines else ""))
        rows.append((image_id, len(lines)))
    (out / "classes.txt").write_text("\n".join(names) + "\n")
    with open(out / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "num_objects"])
        writer.writerows(rows)
    return [image_id for image_id, _n in rows]
