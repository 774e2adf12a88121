"""Detection evaluation: greedy IoU matching, PR curves and (m)AP.

Matching follows the usual VOC protocol. Detections are visited in
descending score order; each one matches the unmatched ground-truth box of
the same class with the highest rotated IoU, provided that IoU meets the
threshold. A matched detection is a true positive, everything else is a
false positive, and each ground truth can be claimed once. Objects flagged
difficult follow the VOC / DOTA-devkit rule: they are left out of the
ground-truth count, are never marked taken, and a detection matched to one
counts as neither a true nor a false positive, so it leaves the ranking.
AP uses all-point interpolation (area under the precision envelope).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import NoClasses, UndefinedRecall
from .formats import GroundTruth
from .geometry import ious_within_reach
from .postprocess import Detections

#: match outcomes of a detection: a false or true positive, or matched to a
#: difficult object and so not ranked
FALSE_POSITIVE, TRUE_POSITIVE, IGNORED = 0, 1, -1


class PRPoint(NamedTuple):
    recall: float
    precision: float
    score: float


@dataclass
class ClassEval:
    """One class's AP and its precision-recall curve, one point per ranked
    detection, as arrays; ``curve`` lists the points."""

    class_id: int
    ap: float
    num_gt: int
    num_det: int
    recall: np.ndarray
    precision: np.ndarray
    score: np.ndarray

    @property
    def curve(self) -> list[PRPoint]:
        return list(map(PRPoint, self.recall.tolist(), self.precision.tolist(),
                        self.score.tolist()))


@dataclass
class EvalReport:
    iou_threshold: float
    mean_ap: float
    per_class: dict[int, ClassEval] = field(default_factory=dict)


def check_iou_thresholds(iou_thresholds: Sequence[float]) -> None:
    """Raise ValueError unless every threshold lies in (0, 1] (nan fails)."""
    if not all(0.0 < t <= 1.0 for t in iou_thresholds):
        raise ValueError("iou_threshold must lie in (0, 1]")


def _pairs_sharing(key_a: np.ndarray, key_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of every pair with ``key_a[row] == key_b[col]``, in
    row-major order: one sort of ``key_b``, no (len(a), len(b)) matrix."""
    order = np.argsort(key_b, kind="stable")
    ranked = key_b[order]
    lo = np.searchsorted(ranked, key_a, "left")
    count = np.searchsorted(ranked, key_a, "right") - lo
    rows = np.repeat(np.arange(len(key_a)), count)
    # pair j of row r takes the (j - first pair of r)-th key of r's run
    start = np.repeat(lo - (np.cumsum(count) - count), count)
    return rows, order[start + np.arange(len(rows))]


def match_detections(detections: Detections, ground_truth: GroundTruth,
                     iou_thresholds: Sequence[float]) -> np.ndarray:
    """Greedy matching at each threshold; returns (T, D) int8 outcomes
    (``TRUE_POSITIVE``, ``FALSE_POSITIVE`` or ``IGNORED``), one row per
    threshold, detections in input order.

    Only the same-class pairs that may reach the smallest threshold are
    clipped, once for every threshold; a detection without such a pair is
    a false positive at each of them.
    """
    check_iou_thresholds(iou_thresholds)
    outcome = np.full((len(iou_thresholds), len(detections)), FALSE_POSITIVE,
                      dtype=np.int8)
    if not len(ground_truth) or not len(iou_thresholds):
        return outcome
    lowest = min(iou_thresholds)
    rows, cols = _pairs_sharing(detections.class_id, ground_truth.class_id)
    rows, cols, iou = ious_within_reach(detections.corners, ground_truth.corners,
                                        rows, cols, lowest)
    reach = iou >= lowest
    rows, cols, iou = rows[reach], cols[reach], iou[reach]
    # each detection's candidates in turn, by descending score (ties by
    # index), each by descending IoU, ties by lower ground-truth index
    rank = np.empty(len(detections), dtype=np.intp)
    rank[np.argsort(-detections.score, kind="stable")] = np.arange(len(detections))
    pick = np.lexsort((cols, -iou, rank[rows]))
    pairs = list(zip(rows[pick].tolist(), cols[pick].tolist(), iou[pick].tolist()))
    difficult = ground_truth.difficult.tolist()
    for row, threshold in zip(outcome, iou_thresholds):
        taken: set[int] = set()
        decided = -1
        for i, j, value in pairs:
            # a detection is decided by its best candidate not yet taken
            if i == decided or j in taken:
                continue
            decided = i
            if value >= threshold:
                if difficult[j]:
                    row[i] = IGNORED
                else:
                    taken.add(j)
                    row[i] = TRUE_POSITIVE
    return outcome


def _ranked_curve(scores, tp_flags, num_gt: int):
    """``precision_recall_curve``'s points as (recall, precision, score)
    arrays."""
    if num_gt < 1:
        raise UndefinedRecall("no ground-truth objects: recall is undefined")
    scores = np.asarray(scores, dtype=np.float64)
    tp_flags = np.asarray(tp_flags, dtype=bool)
    if len(scores) != len(tp_flags):
        raise ValueError("scores and tp_flags length mismatch")
    order = np.argsort(-scores, kind="stable")
    tps = np.cumsum(tp_flags[order])
    ranks = np.arange(1, len(order) + 1)
    return tps / num_gt, tps / ranks, scores[order]


def precision_recall_curve(scores, tp_flags, num_gt: int) -> list[PRPoint]:
    """Cumulative precision/recall swept over descending score.

    One point per detection prefix, ties in input order; recall
    denominators use num_gt, which must be positive for recall to mean
    anything. ``scores`` and ``tp_flags`` are sequences or arrays.
    """
    return list(map(PRPoint, *(a.tolist() for a in _ranked_curve(scores, tp_flags,
                                                                  num_gt))))


def _envelope_area(recall: np.ndarray, precision: np.ndarray) -> float:
    """Area under the monotone precision envelope of a curve's arrays."""
    if not len(recall):
        return 0.0
    recalls = np.concatenate(([0.0], recall))
    precisions = np.concatenate(([0.0], precision))
    # envelope: precision at recall r is the max precision at any recall >= r
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    # cumsum adds left to right, as a running float sum does
    return float(np.cumsum(np.diff(recalls) * envelope[1:])[-1])


def average_precision(curve: list[PRPoint], num_gt: int) -> float:
    """Area under the monotone precision envelope (all-point interpolation)."""
    if num_gt < 1:
        raise UndefinedRecall("no ground-truth objects: AP is undefined")
    points = np.array(curve, dtype=np.float64).reshape(-1, 3)
    return _envelope_area(points[:, 0], points[:, 1])


def mean_ap(per_class_ap: dict[int, float]) -> float:
    if not per_class_ap:
        raise NoClasses("mean AP over zero classes is undefined")
    return float(np.mean(list(per_class_ap.values())))


def evaluate(detections: Detections, image: np.ndarray, ground_truth: GroundTruth,
             iou_thresholds: Sequence[float]) -> list[EvalReport]:
    """Pool matches across images and compute per-class AP and mAP, one
    report per IoU threshold, in the order given.

    ``image`` holds each detection's image, indexed as
    ``ground_truth.image`` indexes the objects'. Every threshold must lie
    in (0, 1], with or without detections. Classes with zero ground-truth
    instances (difficult ones do not count) are excluded from the mean;
    detections for such classes still exist but have no defined recall.
    ``num_det`` counts every detection of a class, the curve only those
    that are not ``IGNORED``. Score ties rank in input order. Every image
    is matched in one ``match_detections`` call, whose class ids are then
    (image, class) groups, so a detection meets only the objects of its
    own image and class, and the pairs of every image are clipped at once.
    """
    check_iou_thresholds(iou_thresholds)
    class_id, score, gt_class = detections.class_id, detections.score, ground_truth.class_id
    num_gt = Counter(gt_class[~ground_truth.difficult].tolist())
    # group id (image k, class c) -> k * span + c - lowest, distinct per pair
    both = np.concatenate([class_id, gt_class])
    lowest = int(both.min(initial=0))
    span = int(both.max(initial=0)) - lowest + 1
    pooled = Detections(detections.corners, image * span + class_id - lowest, score)
    truth = replace(ground_truth, class_id=ground_truth.image * span + gt_class - lowest)
    outcome = match_detections(pooled, truth, iou_thresholds)
    num_det = Counter(class_id.tolist())

    reports = []
    for iou_threshold, row in zip(iou_thresholds, outcome):
        report = EvalReport(iou_threshold=iou_threshold, mean_ap=0.0)
        ranked = row != IGNORED
        aps: dict[int, float] = {}
        for c in sorted(num_gt):
            mine = ranked & (class_id == c)
            points = _ranked_curve(score[mine], row[mine] == TRUE_POSITIVE, num_gt[c])
            aps[c] = _envelope_area(*points[:2])
            report.per_class[c] = ClassEval(c, aps[c], num_gt[c], num_det[c], *points)
        report.mean_ap = mean_ap(aps)
        reports.append(report)
    return reports
