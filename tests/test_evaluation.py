import numpy as np
import pytest

from polardet import geometry
from polardet.errors import NoClasses, UndefinedRecall
from polardet.evaluation import (IGNORED, TRUE_POSITIVE, average_precision,
                                 evaluate, match_detections, mean_ap,
                                 precision_recall_curve, PRPoint)
from polardet.formats import GroundTruth
from polardet.postprocess import Detections

from oracles import (average_precision_reference, greedy_match_reference,
                     jittered_scene, precision_recall_reference, voc_ap_reference)


def square(cx, cy, size=4.0, class_id=0):
    """An axis-aligned square as a ((4, 2) corners, class id) pair."""
    half = size / 2
    return np.array([[cx - half, cy - half], [cx + half, cy - half],
                     [cx + half, cy + half], [cx - half, cy + half]]), class_id


def det(cx, cy, score, size=4.0, class_id=0):
    return square(cx, cy, size, class_id), score


def truth(quads, difficult=(), image=0):
    """A ``GroundTruth`` from (corners, class id) pairs: ``image`` holds the
    objects' image index, one for all or one each, and ``difficult`` the
    indices of the difficult ones."""
    return GroundTruth(np.zeros(len(quads), dtype=np.intp) + image,
                       np.array([k for _c, k in quads], dtype=np.intp),
                       np.array([c for c, _k in quads]).reshape(-1, 4, 2),
                       np.isin(np.arange(len(quads)), difficult))


def detections(*items):
    """``Detections`` from ((corners, class id), score) pairs."""
    return Detections(np.array([c for (c, _k), _s in items]).reshape(-1, 4, 2),
                      np.array([k for (_c, k), _s in items], dtype=np.intp),
                      np.array([score for _, score in items], dtype=np.float64))


class TestMatchDetections:
    def test_perfect_overlap_is_tp(self):
        flags = match_detections(detections(det(10, 10, 0.9)),
                                 truth([square(10, 10)]), [0.5])
        assert flags.tolist() == [[True]]

    def test_disjoint_is_fp(self):
        flags = match_detections(detections(det(10, 10, 0.9)),
                                 truth([square(30, 30)]), [0.5])
        assert flags.tolist() == [[False]]

    def test_each_gt_claimed_once(self):
        dets = detections(det(10, 10, 0.9), det(10.2, 10, 0.8))
        flags = match_detections(dets, truth([square(10, 10)]), [0.5])
        assert flags.tolist() == [[True, False]]

    def test_higher_score_claims_first(self):
        dets = detections(det(10.2, 10, 0.6), det(10, 10, 0.9))
        flags = match_detections(dets, truth([square(10, 10)]), [0.5])
        # the 0.9 detection wins the only gt; flags stay in input order
        assert flags.tolist() == [[False, True]]

    def test_matches_highest_iou_gt(self):
        # detection halfway between two gts, much closer to the second
        gts = truth([square(14, 10), square(11, 10)])
        flags = match_detections(detections(det(10, 10, 0.9)), gts, [0.2])
        # the second gt is taken, so an exact det on it later is unmatched
        flags2 = match_detections(detections(det(10, 10, 0.9), det(11, 10, 0.5)),
                                  gts, [0.2])
        assert flags.tolist() == [[True]]
        assert flags2.tolist() == [[True, False]]

    def test_iou_tie_goes_to_lower_gt_index(self):
        # the first detection sits midway between two gts (IoU 1/3 each) and
        # takes gt 0; the second then finds gt 0 taken and gt 1 too far
        gts = truth([square(8, 10), square(12, 10)])
        flags = match_detections(detections(det(10, 10, 0.9), det(8.5, 10, 0.5)),
                                 gts, [0.3])
        assert flags.tolist() == [[True, False]]

    def test_iou_below_threshold_is_fp(self):
        # 4x4 squares 2 apart: inter 8, union 24, IoU 1/3
        flags = match_detections(detections(det(12, 10, 0.9)),
                                 truth([square(10, 10)]), [0.5])
        assert flags.tolist() == [[False]]

    def test_class_mismatch_never_matches(self):
        flags = match_detections(detections(det(10, 10, 0.9, class_id=1)),
                                 truth([square(10, 10, class_id=0)]), [0.1])
        assert flags.tolist() == [[False]]

    def test_difficult_match_is_ignored_and_never_taken(self):
        gts = truth([square(10, 10), square(30, 30)], difficult=[1])
        dets = detections(det(30, 30, 0.9), det(30.2, 30, 0.8), det(10, 10, 0.7),
                          det(50, 50, 0.6))
        assert match_detections(dets, gts, [0.5]).tolist() == [
            [IGNORED, IGNORED, TRUE_POSITIVE, 0]]

    def test_difficult_object_wins_on_higher_iou(self):
        # the detection overlaps the difficult square more than the easy one
        gts = truth([square(10, 10), square(11, 10)], difficult=[1])
        [[outcome]] = match_detections(detections(det(11.5, 10, 0.9)), gts, [0.2])
        assert outcome == IGNORED

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            match_detections(detections(), truth([]), [0.0])
        with pytest.raises(ValueError):
            match_detections(detections(), truth([]), [0.5, 1.5])

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.75])
    def test_decisions_match_scalar_reference(self, threshold):
        rng = np.random.default_rng(round(threshold * 100) + 1)
        matched = 0
        for _ in range(15):
            corners, owner = jittered_scene(rng, num_objects=6, copies=3)
            # each object's first box is its ground truth, the copies detect it
            gt_idx = np.unique(owner, return_index=True)[1]
            det_idx = np.setdiff1d(np.arange(len(corners)), gt_idx)
            classes = rng.integers(0, 2, len(corners))
            # a copy mostly keeps its object's class
            classes = np.where(rng.uniform(size=len(corners)) < 0.8,
                               classes[gt_idx][owner], classes)
            scores = np.round(rng.uniform(0.0, 1.0, len(corners)), 1)
            dets = Detections(corners[det_idx], classes[det_idx], scores[det_idx])
            gts = truth([(corners[j], classes[j]) for j in gt_idx])
            [flags] = match_detections(dets, gts, [threshold]).tolist()
            assert flags == greedy_match_reference(
                corners[det_idx], classes[det_idx], scores[det_idx],
                corners[gt_idx], classes[gt_idx], threshold)
            matched += sum(flags)
        assert 0 < matched < 15 * len(det_idx)


def offset_squares(side, dx, dy):
    """Two axis-aligned squares ``side`` wide, the second shifted by (dx, dy):
    their bounding-box overlap is their intersection, so the IoU bound is
    exact, and dyadic sides keep every area exact."""
    a = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return a, a + [dx, dy]


class TestMatchingAtTheThreshold:
    """Pairs are screened by an IoU bound before clipping; at and around the
    threshold the decisions must stay those of the per-pair clip."""

    SHIFTS = [(4.0, 0.5, 0.0), (4.0, 1.0, 1.0), (2.0, 0.5, 0.25), (1.0, 0.5, 0.0),
              (8.0, 2.0, 3.0)]

    @pytest.mark.parametrize("side, dx, dy", SHIFTS)
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_threshold_at_and_one_ulp_around_the_iou(self, side, dx, dy, ulps):
        det_quad, gt_quad = offset_squares(side, dx, dy)
        inter = (side - dx) * (side - dy)
        iou = inter / (2 * side * side - inter)
        threshold = iou
        for _ in range(abs(ulps)):
            threshold = np.nextafter(threshold, 2.0 * ulps)
        dets = Detections(det_quad[None], np.zeros(1, np.intp), np.array([0.9]))
        gts = truth([(gt_quad, 0)])
        [[outcome]] = match_detections(dets, gts, [threshold])
        assert (outcome == TRUE_POSITIVE) == (ulps <= 0)
        assert [outcome == TRUE_POSITIVE] == greedy_match_reference(
            det_quad[None], [0], [0.9], gt_quad[None], [0], threshold)

    @pytest.mark.parametrize("threshold", [0.1, 0.5, 1.0])
    def test_constructed_cases_match_scalar_reference(self, threshold):
        unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        diamond = np.array([[1.0, 0.5], [1.5, 0.0], [2.0, 0.5], [1.5, 1.0]])
        gt_quads = [unit, unit + 10.0, unit + [20.0, 0.0], unit + [30.0, 0.0]]
        gt_classes = [0, 0, 1, 0]
        det_quads = [
            unit,                                   # identical
            unit + 10.0,                            # identical, second gt
            unit + [1.0, 0.0],                      # touches gt 0 at an edge
            unit + [11.0, 11.0],                    # touches gt 1 at a corner
            diamond,                                # touches gt 0 at a corner
            np.full((4, 2), 30.5),                  # zero area inside gt 3
            unit + [20.0, 0.0],                     # other class than its gt
            unit + [20.0, 0.0],                     # same box, gt's class
            unit + [0.5, 0.0],                      # gt 0 already taken
        ]
        det_classes = [0, 0, 0, 0, 0, 0, 0, 1, 0]
        scores = [0.9, 0.9, 0.8, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3]
        dets = Detections(np.array(det_quads), np.array(det_classes, np.intp),
                          np.array(scores))
        gts = GroundTruth(np.zeros(4, np.intp), np.array(gt_classes, np.intp),
                          np.array(gt_quads), np.zeros(4, bool))
        [row] = match_detections(dets, gts, [threshold])
        expected = greedy_match_reference(np.array(det_quads), det_classes, scores,
                                          np.array(gt_quads), gt_classes, threshold)
        assert (row == TRUE_POSITIVE).tolist() == expected
        assert expected[:2] == [True, True] and expected[7]

    def test_screened_pairs_keep_the_clip_bits(self):
        # the pairs left out never reach the threshold, and the pairs kept
        # carry the IoU that the full matrix gives them
        rng = np.random.default_rng(5)
        for threshold in (0.05, 0.3, 0.5, 0.75, 1.0):
            corners, _owner = jittered_scene(rng, num_objects=8, copies=3)
            classes = rng.integers(0, 2, len(corners))
            allowed = classes[:, None] == classes[None, :]
            rows, cols, iou = geometry.ious_within_reach(corners, corners,
                                                         *np.nonzero(allowed), threshold)
            full = geometry.pairwise_iou(corners, corners)
            assert iou.tobytes() == full[rows, cols].tobytes()
            left_out = allowed.copy()
            left_out[rows, cols] = False
            assert np.all(full[left_out] < threshold)
            assert np.all(allowed[rows, cols])


class TestPrecisionRecallCurve:
    def test_hand_case(self):
        points = precision_recall_curve([0.9, 0.8, 0.7], [True, False, True], 2)
        assert [(p.recall, p.precision) for p in points] == [
            (0.5, 1.0), (0.5, 0.5), (1.0, 2.0 / 3.0)]

    def test_sorted_by_descending_score(self):
        points = precision_recall_curve([0.2, 0.9], [False, True], 1)
        assert [p.score for p in points] == [0.9, 0.2]
        assert points[0].precision == 1.0

    def test_no_gt_raises(self):
        with pytest.raises(UndefinedRecall):
            precision_recall_curve([0.5], [False], 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_curve([0.5], [True, False], 1)

    def test_array_scan_equals_loop_form_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(0, 40))
            num_gt = int(rng.integers(1, 30))
            # one decimal makes many score ties
            scores = np.round(rng.uniform(0.0, 1.0, n), 1).tolist()
            flags = (rng.random(n) < 0.6).tolist()
            curve = precision_recall_curve(scores, flags, num_gt)
            expected = precision_recall_reference(scores, flags, num_gt)
            assert [tuple(p) for p in curve] == expected
            assert np.array(curve).reshape(-1, 3).tobytes() == \
                np.array(expected).reshape(-1, 3).tobytes()
            if curve:
                ap = average_precision(curve, num_gt)
                assert ap.hex() == average_precision_reference(expected).hex()


class TestAveragePrecision:
    def test_perfect_detector(self):
        curve = precision_recall_curve([0.9, 0.8], [True, True], 2)
        assert average_precision(curve, 2) == pytest.approx(1.0)

    def test_all_false_positives(self):
        curve = precision_recall_curve([0.9, 0.8, 0.7], [False] * 3, 2)
        assert average_precision(curve, 2) == 0.0

    def test_tp_fp_tp_hand_value(self):
        # envelope: precision 1 up to recall 0.5, then 2/3 up to recall 1
        # AP = 0.5 * 1 + 0.5 * 2/3 = 5/6
        curve = precision_recall_curve([0.9, 0.8, 0.7], [True, False, True], 2)
        assert average_precision(curve, 2) == pytest.approx(5.0 / 6.0)

    def test_empty_curve_is_zero(self):
        assert average_precision([], 3) == 0.0

    def test_no_gt_raises(self):
        with pytest.raises(UndefinedRecall):
            average_precision([], 0)

    def test_missed_gt_caps_ap(self):
        # one of two gts never found: recall stops at 0.5
        curve = precision_recall_curve([0.9], [True], 2)
        assert average_precision(curve, 2) == pytest.approx(0.5)

    def test_matches_reference_on_random_runs(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            num_gt = int(rng.integers(1, 8))
            scores = rng.uniform(0, 1, n).tolist()
            max_tp = min(n, num_gt)
            flags = [bool(rng.random() < 0.5) for _ in range(n)]
            while sum(flags) > max_tp:  # cannot have more TPs than gts
                flags[flags.index(True)] = False
            curve = precision_recall_curve(scores, flags, num_gt)
            got = average_precision(curve, num_gt)
            expected = voc_ap_reference(list(zip(scores, flags)), num_gt)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_envelope_ignores_later_dips(self):
        # a trailing FP cannot reduce AP below the prefix value
        base = precision_recall_curve([0.9, 0.8], [True, True], 2)
        with_tail = precision_recall_curve([0.9, 0.8, 0.1], [True, True, False], 2)
        assert average_precision(with_tail, 2) == \
            pytest.approx(average_precision(base, 2))


class TestMeanAP:
    def test_two_class_mean(self):
        assert mean_ap({0: 0.9269, 1: 0.8738}) == pytest.approx(0.90035)

    def test_empty_raises(self):
        with pytest.raises(NoClasses):
            mean_ap({})


def images(*counts):
    """Image indices of pooled rows: ``counts[k]`` rows of image k in turn."""
    return np.repeat(np.arange(len(counts)), counts)


class TestEvaluate:
    def test_pools_across_images(self):
        dets = detections(det(10, 10, 0.9), det(30, 30, 0.8),   # image 0: TP, FP
                          det(10, 10, 0.7))                     # image 1: TP
        gts = truth([square(10, 10), square(10, 10), square(50, 50)], image=[0, 1, 1])
        [report] = evaluate(dets, images(2, 1), gts, [0.5])
        ce = report.per_class[0]
        assert ce.num_gt == 3
        assert ce.num_det == 3
        # ranked flags: [T, F, T] over 3 gts
        expected = voc_ap_reference([(0.9, True), (0.8, False), (0.7, True)], 3)
        assert ce.ap == pytest.approx(expected)
        assert report.mean_ap == pytest.approx(expected)

    def test_gt_in_one_image_cannot_match_detection_in_another(self):
        # the object lies in image 1, which has no detection
        [report] = evaluate(detections(det(10, 10, 0.9)), images(1),
                            truth([square(10, 10)], image=1), [0.5])
        assert report.per_class[0].ap == 0.0
        assert report.per_class[0].num_gt == 1

    def test_classes_without_gt_are_excluded(self):
        dets = detections(det(10, 10, 0.9, class_id=0), det(20, 20, 0.8, class_id=1))
        gts = truth([square(10, 10, class_id=0)])
        [report] = evaluate(dets, images(2), gts, [0.5])
        assert set(report.per_class) == {0}
        assert report.mean_ap == pytest.approx(1.0)

    def test_multi_class_mean(self):
        dets = detections(det(10, 10, 0.9, class_id=0),
                          det(40, 40, 0.8, class_id=1),
                          det(20, 20, 0.7, class_id=1))  # second class1 det is FP
        gts = truth([square(10, 10, class_id=0), square(40, 40, class_id=1)])
        [report] = evaluate(dets, images(3), gts, [0.5])
        assert report.per_class[0].ap == pytest.approx(1.0)
        assert report.per_class[1].ap == pytest.approx(1.0)
        assert report.mean_ap == pytest.approx(1.0)

    def test_iou_threshold_changes_outcome(self):
        # det offset so IoU is 1/3: TP at 0.25, FP at 0.5
        at_25, at_50 = evaluate(detections(det(12, 10, 0.9)), images(1),
                                truth([square(10, 10)]), [0.25, 0.5])
        assert at_25.mean_ap == pytest.approx(1.0)
        assert at_50.mean_ap == 0.0

    def test_one_clip_call_serves_every_image_and_threshold(self, monkeypatch):
        rng = np.random.default_rng(21)
        corners, score, gt_corners, gt_image = [], [], [], []
        for _ in range(3):
            boxes, owner = jittered_scene(rng, num_objects=5, copies=2)
            gt_idx = np.unique(owner, return_index=True)[1]
            det_idx = np.setdiff1d(np.arange(len(boxes)), gt_idx)
            corners.append(boxes[det_idx])
            score.append(rng.uniform(0.0, 1.0, len(det_idx)))
            gt_corners.append(boxes[gt_idx])
        dets = Detections(np.concatenate(corners), np.zeros(30, np.intp),
                          np.concatenate(score))
        # image 3 holds ground truth only: nothing to match
        gt_corners.append(square(10, 10)[0][None])
        gts = truth([(c, 0) for c in np.concatenate(gt_corners)],
                    image=images(5, 5, 5, 1))
        thresholds = [0.3, 0.5, 0.75]
        singles = [evaluate(dets, images(10, 10, 10), gts, [t])[0] for t in thresholds]
        calls = []
        real = geometry._intersection_areas
        monkeypatch.setattr(geometry, "_intersection_areas",
                            lambda p, q: calls.append(len(p)) or real(p, q))
        reports = evaluate(dets, images(10, 10, 10), gts, thresholds)
        # one call clips the pairs of every image with detections
        assert len(calls) == 1
        assert [r.iou_threshold for r in reports] == thresholds
        for got, ref in zip(reports, singles):
            assert got.mean_ap == ref.mean_ap
            assert got.per_class[0].curve == ref.per_class[0].curve
        assert reports[0].per_class[0].num_gt == 16
        assert 0.0 < reports[2].mean_ap < reports[0].mean_ap

    def test_difficult_objects_leave_recall_and_ranking(self):
        # VOC: an exact detection of the easy square alone scores AP 1
        gts = truth([square(10, 10), square(30, 30)], difficult=[1])
        [report] = evaluate(detections(det(10, 10, 0.9)), images(1), gts, [0.5])
        assert report.per_class[0].num_gt == 1
        assert report.per_class[0].ap == 1.0
        # a higher-scored detection of the difficult square changes nothing
        # but the detection count
        [again] = evaluate(detections(det(30, 30, 0.95), det(10, 10, 0.9)), images(2),
                           gts, [0.5])
        assert again.per_class[0].curve == report.per_class[0].curve
        assert again.per_class[0].num_det == 2

    def test_class_with_only_difficult_objects_is_excluded(self):
        gts = truth([square(10, 10), square(30, 30, class_id=1)], difficult=[1])
        [report] = evaluate(detections(det(10, 10, 0.9)), images(1), gts, [0.5])
        assert set(report.per_class) == {0}

    def test_no_gt_anywhere_raises(self):
        with pytest.raises(NoClasses):
            evaluate(detections(det(1, 1, 0.5)), images(1), truth([]), [0.5])

    def test_curve_attached_to_report(self):
        [report] = evaluate(detections(det(10, 10, 0.9)), images(1),
                            truth([square(10, 10)]), [0.5])
        assert report.per_class[0].curve == [PRPoint(1.0, 1.0, 0.9)]


def random_pooled_scene(rng, num_images: int):
    """(detections, image, ground truth) of ``num_images`` jittered scenes:
    the ground truth image after image, the detections pooled in a shuffled
    order. Objects take three classes and about a fifth are difficult (not
    the first); a detection mostly keeps its object's class, else takes one
    of four; scores lie on a 0.1 grid, so equal scores recur within and
    across images; the last image may have no detection."""
    corners, class_id, score, image = [], [], [], []
    gt_corners, gt_class, gt_image = [], [], []
    for k in range(num_images):
        boxes, owner = jittered_scene(rng, num_objects=int(rng.integers(2, 6)), copies=2)
        gt_idx = np.unique(owner, return_index=True)[1]
        det_idx = np.setdiff1d(np.arange(len(boxes)), gt_idx)
        if k == num_images - 1 and rng.random() < 0.3:
            det_idx = det_idx[:0]
        classes = rng.integers(0, 3, len(boxes))[gt_idx][owner]
        classes = np.where(rng.uniform(size=len(boxes)) < 0.8, classes,
                           rng.integers(0, 4, len(boxes)))
        corners.append(boxes[det_idx])
        class_id.append(classes[det_idx])
        score.append(np.round(rng.uniform(0.05, 0.95, len(det_idx)), 1))
        image.append(np.full(len(det_idx), k))
        gt_corners.append(boxes[gt_idx])
        gt_class.append(classes[gt_idx])
        gt_image.append(np.full(len(gt_idx), k))
    order = rng.permutation(sum(map(len, score)))
    dets = Detections(np.concatenate(corners)[order], np.concatenate(class_id)[order],
                      np.concatenate(score)[order])
    difficult = rng.uniform(size=sum(map(len, gt_class))) < 0.2
    difficult[0] = False
    gts = GroundTruth(np.concatenate(gt_image), np.concatenate(gt_class),
                      np.concatenate(gt_corners), difficult)
    return dets, np.concatenate(image)[order], gts


def evaluate_reference(dets, image, gts, threshold):
    """{class: (num_gt, num_det, curve, AP)} for the classes with an easy
    object: ``greedy_match_reference`` on each image alone, then each
    class's ranked detections pooled in input order."""
    flags: list = [None] * len(dets)
    for k in set(image.tolist()):
        rows = np.flatnonzero(image == k)
        mine = gts.image == k
        matched = greedy_match_reference(
            dets.corners[rows], dets.class_id[rows], dets.score[rows], gts.corners[mine],
            gts.class_id[mine], threshold, gts.difficult[mine])
        for i, flag in zip(rows.tolist(), matched):
            flags[i] = flag
    out = {}
    for c in sorted(set(gts.class_id[~gts.difficult].tolist())):
        num_gt = int(np.count_nonzero((gts.class_id == c) & ~gts.difficult))
        ranked = [i for i in range(len(dets))
                  if dets.class_id[i] == c and flags[i] is not None]
        curve = precision_recall_reference([dets.score[i] for i in ranked],
                                           [flags[i] for i in ranked], num_gt)
        out[c] = (num_gt, int(np.count_nonzero(dets.class_id == c)), curve,
                  average_precision_reference(curve))
    return out, flags


class TestEvaluateAgainstPerImageReference:
    def test_every_report_matches_the_reference(self):
        thresholds = [0.3, 0.5, 0.75]
        rng = np.random.default_rng(2025)
        seen = {"ignored": 0, "tp": 0, "cross_image_ties": 0, "excluded": 0}
        for _ in range(12):
            dets, image, gts = random_pooled_scene(rng, int(rng.integers(2, 5)))
            reports = evaluate(dets, image, gts, thresholds)
            for threshold, report in zip(thresholds, reports):
                expected, flags = evaluate_reference(dets, image, gts, threshold)
                assert report.iou_threshold == threshold
                assert sorted(report.per_class) == sorted(expected)
                for c, (num_gt, num_det, curve, ap) in expected.items():
                    got = report.per_class[c]
                    assert (got.num_gt, got.num_det) == (num_gt, num_det)
                    assert got.curve == curve
                    assert got.ap == ap
                assert report.mean_ap == mean_ap({c: e[3] for c, e in expected.items()})
                seen["ignored"] += flags.count(None)
                seen["tp"] += flags.count(True)
            seen["excluded"] += len(set(dets.class_id.tolist()) - set(expected))
            for s in set(dets.score.tolist()):
                seen["cross_image_ties"] += len(set(image[dets.score == s].tolist())) > 1
        # the scenes reach every rule the reference encodes
        assert all(seen.values()), seen
