"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to watch the lines stream;
without -s they appear in the captured-output section of any failure.
"""

import math
import os
import sys
import time

import numpy as np
import pytest

from polardet import cli
from polardet.encoding import BoxArrays, GridConfig, encode_boxes
from polardet.evaluation import (average_precision, mean_ap,
                                 precision_recall_curve)
from polardet.geometry import pairwise_iou, polars_to_quads, quads_to_polar
from polardet.gradcheck import check_all_losses
from polardet.losses import ring_area
from polardet.postprocess import decode_poles, extract_pole_points
from polardet.synthdata import SceneSpec, generate_scene
from polardet.toynet import load_checkpoint

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from oracles import mc_iou, random_rectangle, shoelace, target_planes  # noqa: E402


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}/9] {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)


def test_criterion_1_representation_round_trip():
    rng = np.random.default_rng(1)
    t_start = time.perf_counter()

    # (x, y, rho, theta1, theta2) rows, drawn one box at a time
    draws = []
    for _ in range(10_000):
        pole = (rng.uniform(-50, 50), rng.uniform(-50, 50))
        rho = rng.uniform(0.5, 40.0)
        t1 = rng.uniform(0.0, math.pi - 0.06)
        t2 = t1 + rng.uniform(0.05, math.pi - t1 - 0.01)
        draws.append((*pole, rho, t1, t2))
    draws = np.array(draws)
    pole, rho, theta = quads_to_polar(polars_to_quads(draws[:, :2], draws[:, 2],
                                                      draws[:, 3:]))
    polar_err = float(np.abs(np.column_stack((pole, rho, theta)) - draws).max())

    corners = np.array([random_rectangle(rng) for _ in range(10_000)])
    rec = polars_to_quads(*quads_to_polar(corners))
    # corner order may start elsewhere; compare as point sets
    dists = np.linalg.norm(corners[:, :, None, :] - rec[:, None, :, :], axis=3)
    rect_err = float(max(dists.min(axis=2).max(), dists.min(axis=1).max()))

    elapsed = time.perf_counter() - t_start
    ok = polar_err <= 1e-9 and rect_err <= 1e-6 and elapsed < 5.0
    _verdict(1, "representation round trip", ok,
             f"polar err {polar_err:.2e}, rect err {rect_err:.2e}, "
             f"{elapsed:.1f}s")
    assert polar_err <= 1e-9
    assert rect_err <= 1e-6
    assert elapsed < 5.0


def test_criterion_2_loss_gradient_checks():
    t_start = time.perf_counter()
    summaries = check_all_losses(seed=0, num_points=1000)
    elapsed = time.perf_counter() - t_start
    worst = max(s.max_rel_error for s in summaries)
    ok = len(summaries) == 4 and worst <= 1e-4 and elapsed < 10.0
    _verdict(2, "loss gradients vs finite differences", ok,
             f"worst rel err {worst:.2e} over "
             f"{sum(s.num_points for s in summaries)} points, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 10.0


def test_criterion_3_ring_loss_zero_cases_and_hand_values():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        rho, rho_s = rng.uniform(0.5, 20.0, 2)
        th, th_s = rng.uniform(0.0, math.pi, 2)
        got = ring_area(rho, rho_s, th, th_s)
        hand = 0.5 * abs((rho * rho - rho_s * rho_s) * (th - th_s))
        worst = max(worst, abs(got - hand))
        assert ring_area(rho, rho, th, th_s) == 0.0
        assert ring_area(rho, rho_s, th, th) == 0.0
    ok = worst <= 1e-12
    _verdict(3, "ring-area zero cases and hand values", ok,
             f"max deviation {worst:.2e} on 100 tuples")
    assert ok


def test_criterion_4_component_extraction_beats_topk_cap():
    t_start = time.perf_counter()
    heat = np.zeros((1, 100, 100))
    centers = []
    for i in range(150):
        r, c = 2 + 5 * (i // 15), 2 + 6 * (i % 15) + (i // 15) % 2
        centers.append((r, c))
        heat[0, r - 1:r + 2, c - 1:c + 2] = 0.4
        heat[0, r, c] = 0.9
    cc = extract_pole_points(heat, 0.3)
    tk = extract_pole_points(heat, 0.3, k=100)
    elapsed = time.perf_counter() - t_start

    recovered = set(zip(cc.cell_y.tolist(), cc.cell_x.tolist()))
    within_one = all(any(abs(r - pr) <= 1 and abs(c - pc) <= 1
                         for pr, pc in recovered) for r, c in centers)
    ok = (len(cc) == 150 and within_one and len(tk) <= 100 and elapsed < 1.0)
    _verdict(4, "peak extraction recovers all blobs, topk capped", ok,
             f"cc poles {len(cc)}/150, topk {len(tk)} (cap 100), "
             f"{elapsed:.2f}s")
    assert len(cc) == 150
    assert within_one
    assert len(tk) <= 100
    assert elapsed < 1.0


def test_criterion_5_rotated_iou_vs_monte_carlo():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        a = random_rectangle(rng, (0.0, 12.0), (2.0, 9.0))
        b = random_rectangle(rng, (0.0, 12.0), (2.0, 9.0))
        exact = pairwise_iou(a[None], b[None])[0, 0]
        est = mc_iou(a, b, 1_000_000, rng)
        worst = max(worst, abs(exact - est))

    # unit-half-width square vs its 45-degree twin: for side 2 the overlap
    # is a regular octagon of area 4 * 2(sqrt(2)-1), giving IoU 1/sqrt(2)
    axis = np.array([[1.0, 1], [-1, 1], [-1, -1], [1, -1]])
    s = math.sqrt(2.0)
    tilted = np.array([[s, 0.0], [0, s], [-s, 0], [0, -s]])
    iou_45 = pairwise_iou(axis[None], tilted[None])[0, 0]
    # IoU = I / (A + B - I), so I = IoU * (A + B) / (1 + IoU)
    inter = iou_45 * (shoelace(axis) + shoelace(tilted)) / (1.0 + iou_45)
    analytic_inter = 4.0 * 2.0 * (s - 1.0)

    ok = (worst <= 1e-2
          and abs(inter - analytic_inter) <= 1e-6
          and abs(iou_45 - 1.0 / s) <= 1e-6)
    _verdict(5, "rotated IoU vs Monte-Carlo oracle", ok,
             f"max |exact-MC| {worst:.2e} on 1000 pairs, 45-degree "
             f"intersection {inter:.6f} vs {analytic_inter:.6f}")
    assert worst <= 1e-2
    assert abs(inter - analytic_inter) <= 1e-6
    assert abs(iou_45 - 1.0 / s) <= 1e-6


def test_criterion_6_average_precision_fixtures():
    def ap(flags, num_gt):
        scores = list(np.linspace(1.0, 0.5, len(flags)))
        return average_precision(
            precision_recall_curve(scores, flags, num_gt), num_gt)

    perfect = ap([True] * 5, 5)
    all_fp = ap([False] * 6, 3)
    mixed = ap([True, False, True], 2)
    table_mean = mean_ap({0: 0.9269, 1: 0.8738})

    ok = (perfect == 1.0 and all_fp == 0.0
          and abs(mixed - 5.0 / 6.0) <= 1e-12
          and abs(table_mean - 0.90035) <= 1e-12)
    _verdict(6, "average-precision fixtures", ok,
             f"perfect {perfect}, all-FP {all_fp}, mixed {mixed:.6f} "
             f"(want {5/6:.6f}), two-class mean {table_mean:.5f}")
    assert perfect == 1.0
    assert all_fp == 0.0
    assert mixed == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert table_mean == pytest.approx(0.90035, abs=1e-12)


def _pipeline_eval(eval_dir, dets_path, iou):
    [report], class_names = cli.score(eval_dir, dets_path, [iou])
    return report, class_names


def test_criterion_7_end_to_end_pipeline(tmp_path):
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    train_dir, eval_dir = tmp_path / "train", tmp_path / "eval"
    ckpt, hist = tmp_path / "net.ckpt", tmp_path / "history.csv"
    dets_path = tmp_path / "detections.txt"

    assert cli.main(["synth", "--out", str(train_dir), "--count", "500",
                     "--seed", "7"]) == 0
    assert cli.main(["synth", "--out", str(eval_dir), "--count", "60",
                     "--seed", "7001"]) == 0
    assert cli.main(["train", "--data", str(train_dir), "--out", str(ckpt),
                     "--history", str(hist), "--log-every", "0"]) == 0
    assert cli.main(["detect", "--data", str(eval_dir),
                     "--checkpoint", str(ckpt), "--out", str(dets_path)]) == 0
    assert cli.main(["eval", "--data", str(eval_dir),
                     "--detections", str(dets_path)]) == 0

    report, _names = _pipeline_eval(eval_dir, dets_path, 0.5)
    totals = [float(r.split(",")[1])
              for r in hist.read_text().splitlines()[1:]]
    early = float(np.mean(totals[:100]))
    late = float(np.mean(totals[-100:]))
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - wall_start

    # the CPU figure counts every BLAS thread, so it grows with their number
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    compute = load_checkpoint(ckpt)[0].dtype  # the conv stack's precision
    ok = report.mean_ap >= 0.5 and late <= 0.5 * early and cpu < 900.0
    _verdict(7, "end-to-end pipeline on held-out scenes", ok,
             f"mAP@0.5 {report.mean_ap:.4f} (floor 0.5), loss MA100 "
             f"{early:.4f}->{late:.4f}, {cpu:.0f}s CPU / {wall:.0f}s wall "
             f"in {compute} with OPENBLAS_NUM_THREADS={blas} on "
             f"{os.cpu_count()} CPUs")
    assert report.mean_ap >= 0.5
    assert late <= 0.5 * early
    assert cpu < 900.0


def test_criterion_8_ring_loss_ablation_harness(tmp_path):
    # reduced-scale rehearsal of the two-arm experiment; the full-scale
    # version lives in scripts/run_ring_ablation.py
    train_dir, eval_dir = tmp_path / "train", tmp_path / "eval"
    assert cli.main(["synth", "--out", str(train_dir), "--count", "120",
                     "--seed", "21"]) == 0
    assert cli.main(["synth", "--out", str(eval_dir), "--count", "40",
                     "--seed", "2101"]) == 0

    results = {}
    pr_files_ok = True
    for lam, tag in (("0.01", "with_ring"), ("0", "no_ring")):
        ckpt = tmp_path / f"{tag}.ckpt"
        dets = tmp_path / f"{tag}.txt"
        pr_dir = tmp_path / f"pr_{tag}"
        assert cli.main(["train", "--data", str(train_dir), "--out", str(ckpt),
                         "--iters", "600", "--base-channels", "8",
                         "--lambda-ring", lam, "--log-every", "0"]) == 0
        assert cli.main(["detect", "--data", str(eval_dir),
                         "--checkpoint", str(ckpt), "--out", str(dets)]) == 0
        assert cli.main(["eval", "--data", str(eval_dir),
                         "--detections", str(dets), "--iou", "0.5", "0.75",
                         "--pr-out", str(pr_dir)]) == 0
        results[tag] = tuple(_pipeline_eval(eval_dir, dets, iou)[0].mean_ap
                             for iou in (0.5, 0.75))
        for iou in ("0.50", "0.75"):
            for cls in ("class0", "class1"):
                path = pr_dir / f"pr_iou{iou}_{cls}.csv"
                pr_files_ok &= (path.exists()
                                and len(path.read_text().splitlines()) >= 1)

    finite = all(math.isfinite(v) for pair in results.values() for v in pair)
    ok = pr_files_ok and finite
    gap = results["with_ring"][0] - results["no_ring"][0]
    _verdict(8, "ring-loss ablation harness (exploratory, no threshold)", ok,
             f"with ring mAP@0.5/0.75 {results['with_ring'][0]:.4f}/"
             f"{results['with_ring'][1]:.4f}, without "
             f"{results['no_ring'][0]:.4f}/{results['no_ring'][1]:.4f}, "
             f"gap@0.5 {gap:+.4f}")
    assert pr_files_ok
    assert finite


def test_criterion_9_encode_decode_identity():
    # rho rides the grid as rho/stride and comes back exactly (power-of-two
    # scaling); angles pass through untouched, so the decoded quad must be
    # bitwise equal to one built from the original (rho, theta1, theta2) at
    # the snapped pole
    spec = SceneSpec(width=64, height=64, num_classes=2, max_objects=3)
    cfg = GridConfig(64, 64, 4, 2)
    stride = cfg.stride
    worst_pole, total = 0.0, 0
    for seed in range(100):
        rng = np.random.default_rng(900 + seed)
        _image, corners, class_id = generate_scene(spec, rng)
        pole, rho, theta = quads_to_polar(corners)
        targets = encode_boxes(BoxArrays(np.zeros(len(rho), dtype=np.intp), class_id,
                                         pole, rho, theta), 1, cfg)
        result = decode_poles(extract_pole_points(targets.heat[0], 0.3),
                              *target_planes(targets), cfg)
        dets = result.detections
        assert result.dropped_invalid == 0
        assert len(dets) == len(rho)
        snapped = (pole // stride) * stride + stride / 2
        expected = polars_to_quads(snapped, rho, theta)
        for k in range(len(rho)):
            # bitwise corner equality, box by box
            same = ((dets.class_id == class_id[k])
                    & np.all(dets.corners == expected[k], axis=(1, 2)))
            assert np.count_nonzero(same) == 1, "decoded params drifted from encoding"
        worst_pole = max(worst_pole, float(np.abs(snapped - pole).max(initial=0.0)))
        total += len(rho)

    ok = worst_pole <= stride / 2
    _verdict(9, "encode-decode identity", ok,
             f"{total} boxes over 100 scenes, recall 1.0, (rho, theta) "
             f"carried bitwise, pole err {worst_pole:.3f}px (cap {stride/2})")
    assert ok
