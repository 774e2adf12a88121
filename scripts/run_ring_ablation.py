#!/usr/bin/env python3
"""Train two arms (ring loss on and off) and score both at IoU 0.5 and 0.75.

Writes summary.csv plus per-arm precision-recall curves under --out. The
mAP gap between arms is exploratory output: at these scales it moves with
the seed, so read it as a trend probe, not a verdict.
"""

import argparse
import csv
from pathlib import Path

from polardet import cli


def _mean_aps(data_dir, dets_path) -> list[float]:
    """mAP at IoU 0.5 and 0.75."""
    return [r.mean_ap for r in cli.score(data_dir, dets_path, [0.5, 0.75])[0]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--images", type=int, default=300)
    ap.add_argument("--eval-images", type=int, default=60)
    ap.add_argument("--iterations", type=int, default=1500)
    ap.add_argument("--batch", type=int, default=8)
    ap.add_argument("--base-channels", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_dir, eval_dir = out / "train_data", out / "eval_data"
    for path, count, seed in ((train_dir, args.images, args.seed),
                              (eval_dir, args.eval_images, args.seed + 10_000)):
        code = cli.main(["synth", "--out", str(path), "--count", str(count),
                         "--seed", str(seed)])
        if code != 0:
            return code

    rows = []
    for lam, tag in (("0.01", "with_ring"), ("0", "no_ring")):
        ckpt = out / f"{tag}.ckpt"
        dets = out / f"{tag}_detections.txt"
        for step in (
            ["train", "--data", str(train_dir), "--out", str(ckpt),
             "--iters", str(args.iterations), "--batch", str(args.batch),
             "--base-channels", str(args.base_channels),
             "--seed", str(args.seed), "--lambda-ring", lam,
             "--history", str(out / f"{tag}_history.csv")],
            ["detect", "--data", str(eval_dir), "--checkpoint", str(ckpt),
             "--out", str(dets)],
            ["eval", "--data", str(eval_dir), "--detections", str(dets),
             "--iou", "0.5", "0.75", "--pr-out", str(out / f"pr_{tag}")],
        ):
            print("$ polardet " + " ".join(step), flush=True)
            code = cli.main(step)
            if code != 0:
                return code
        rows.append((tag, lam, *_mean_aps(eval_dir, dets)))

    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm", "lambda_ring", "map_iou50", "map_iou75"])
        writer.writerows(rows)
    gap = rows[0][2] - rows[1][2]
    print(f"mAP@0.5 gap (with ring minus without): {gap:+.4f}; "
          f"summary at {out / 'summary.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
