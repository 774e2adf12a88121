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

from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import NoClasses, UndefinedRecall
from .formats import GroundTruth
from .geometry import pairwise_iou
from .postprocess import Detections

#: match outcomes of a detection: a false or true positive, or matched to a
#: difficult object and so not ranked
FALSE_POSITIVE, TRUE_POSITIVE, IGNORED = 0, 1, -1

_NO_OBJECTS = GroundTruth.from_records([], [])


@dataclass(frozen=True)
class PRPoint:
    recall: float
    precision: float
    score: float


@dataclass
class ClassEval:
    class_id: int
    ap: float
    num_gt: int
    num_det: int
    curve: list[PRPoint] = field(default_factory=list)


@dataclass
class EvalReport:
    iou_threshold: float
    mean_ap: float
    per_class: dict[int, ClassEval] = field(default_factory=dict)


def match_detections(detections: Detections, ground_truth: GroundTruth,
                     iou_thresholds: Sequence[float]) -> np.ndarray:
    """Greedy matching at each threshold; returns (T, D) int8 outcomes
    (``TRUE_POSITIVE``, ``FALSE_POSITIVE`` or ``IGNORED``), one row per
    threshold, detections in input order. The class-masked IoU matrix is
    built once and serves every threshold."""
    if not all(0.0 < t <= 1.0 for t in iou_thresholds):
        raise ValueError("iou_threshold must lie in (0, 1]")
    outcome = np.full((len(iou_thresholds), len(detections)), FALSE_POSITIVE,
                      dtype=np.int8)
    if not len(ground_truth):
        return outcome
    iou = pairwise_iou(detections.corners, ground_truth.corners)
    # zero marks a ground truth a detection cannot claim: another class,
    # or already taken; the threshold is positive, so zero never matches
    iou[detections.class_id[:, None] != ground_truth.class_id[None, :]] = 0.0
    order = np.argsort(-detections.score, kind="stable").tolist()
    difficult = ground_truth.difficult.tolist()
    for row, threshold in zip(outcome, iou_thresholds):
        free = iou.copy()
        for i in order:
            j = int(np.argmax(free[i]))  # the lowest index wins ties
            if free[i, j] >= threshold:
                if difficult[j]:
                    row[i] = IGNORED
                else:
                    free[:, j] = 0.0
                    row[i] = TRUE_POSITIVE
    return outcome


def precision_recall_curve(scores: list[float], tp_flags: list[bool],
                           num_gt: int) -> list[PRPoint]:
    """Cumulative precision/recall swept over descending score.

    One point per detection prefix; recall denominators use num_gt, which
    must be positive for recall to mean anything.
    """
    if num_gt < 1:
        raise UndefinedRecall("no ground-truth objects: recall is undefined")
    if len(scores) != len(tp_flags):
        raise ValueError("scores and tp_flags length mismatch")
    order = np.argsort([-s for s in scores], kind="stable")
    tps = np.cumsum([tp_flags[i] for i in order])
    ranks = np.arange(1, len(order) + 1)
    return [PRPoint(float(tp / num_gt), float(tp / rank), float(scores[i]))
            for i, tp, rank in zip(order, tps, ranks)]


def average_precision(curve: list[PRPoint], num_gt: int) -> float:
    """Area under the monotone precision envelope (all-point interpolation)."""
    if num_gt < 1:
        raise UndefinedRecall("no ground-truth objects: AP is undefined")
    if not curve:
        return 0.0
    recalls = np.concatenate(([0.0], [p.recall for p in curve]))
    precisions = np.concatenate(([0.0], [p.precision for p in curve]))
    # envelope: precision at recall r is the max precision at any recall >= r
    for k in range(len(precisions) - 2, -1, -1):
        precisions[k] = max(precisions[k], precisions[k + 1])
    ap = 0.0
    for k in range(1, len(recalls)):
        ap += (recalls[k] - recalls[k - 1]) * precisions[k]
    return float(ap)


def mean_ap(per_class_ap: dict[int, float]) -> float:
    if not per_class_ap:
        raise NoClasses("mean AP over zero classes is undefined")
    return float(np.mean(list(per_class_ap.values())))


def evaluate(detections_by_image: dict[str, Detections],
             ground_truth_by_image: dict[str, GroundTruth],
             iou_thresholds: Sequence[float]) -> list[EvalReport]:
    """Pool matches across images and compute per-class AP and mAP, one
    report per IoU threshold, in the order given.

    Classes with zero ground-truth instances (difficult ones do not count)
    are excluded from the mean; detections for such classes still exist but
    have no defined recall. ``num_det`` counts every detection of a class,
    the curve only those that are not ``IGNORED``.
    """
    num_gt: Counter = Counter()
    for gt in ground_truth_by_image.values():
        num_gt.update(gt.class_id[~gt.difficult].tolist())
    num_det: Counter = Counter()
    scores: list[dict[int, list[float]]] = [defaultdict(list) for _ in iou_thresholds]
    flags: list[dict[int, list[bool]]] = [defaultdict(list) for _ in iou_thresholds]
    for img in sorted(detections_by_image):
        dets = detections_by_image[img]
        outcome = match_detections(dets, ground_truth_by_image.get(img, _NO_OBJECTS),
                                   iou_thresholds)
        num_det.update(dets.class_id.tolist())
        for c in np.unique(dets.class_id).tolist():
            mine = dets.class_id == c
            for by_class, tp_by_class, row in zip(scores, flags, outcome):
                ranked = mine & (row != IGNORED)
                by_class[c].extend(dets.score[ranked].tolist())
                tp_by_class[c].extend((row[ranked] == TRUE_POSITIVE).tolist())

    reports = []
    for iou_threshold, by_class, tp_by_class in zip(iou_thresholds, scores, flags):
        report = EvalReport(iou_threshold=iou_threshold, mean_ap=0.0)
        aps: dict[int, float] = {}
        for c in sorted(num_gt):
            curve = precision_recall_curve(by_class[c], tp_by_class[c], num_gt[c])
            ap = average_precision(curve, num_gt[c])
            aps[c] = ap
            report.per_class[c] = ClassEval(c, ap, num_gt[c], num_det[c], curve)
        report.mean_ap = mean_ap(aps)
        reports.append(report)
    return reports
