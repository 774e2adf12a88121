#!/usr/bin/env python3
"""Synth -> train -> detect -> eval in one go, with quick defaults.

Reference run (the README quick start's five commands; lands around 0.97
mAP@0.5):

    python scripts/run_smoke_pipeline.py --workdir /tmp/polardet \
        --images 500 --eval-images 60 --iterations 3000 --base-channels 16

After each command it prints the command's wall seconds and the process's
peak resident set so far (``ru_maxrss``), so one run gives both the time
and the memory of every step.
"""

import argparse
import resource
import time
from pathlib import Path

from polardet import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--images", type=int, default=80)
    ap.add_argument("--eval-images", type=int, default=30)
    ap.add_argument("--iterations", type=int, default=600)
    ap.add_argument("--batch", type=int, default=8)
    ap.add_argument("--base-channels", type=int, default=8)
    ap.add_argument("--threshold", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    train_dir, eval_dir = work / "train_data", work / "eval_data"
    ckpt, dets = work / "net.ckpt", work / "detections.txt"

    steps = [
        ["synth", "--out", str(train_dir), "--count", str(args.images),
         "--seed", str(args.seed)],
        ["synth", "--out", str(eval_dir), "--count", str(args.eval_images),
         "--seed", str(args.seed + 10_000)],
        ["train", "--data", str(train_dir), "--out", str(ckpt),
         "--iters", str(args.iterations), "--batch", str(args.batch),
         "--base-channels", str(args.base_channels), "--seed", str(args.seed),
         "--history", str(work / "history.csv")],
        ["detect", "--data", str(eval_dir), "--checkpoint", str(ckpt),
         "--out", str(dets), "--threshold", str(args.threshold)],
        ["eval", "--data", str(eval_dir), "--detections", str(dets),
         "--iou", "0.5", "0.75", "--pr-out", str(work / "pr")],
    ]
    total = 0.0
    for step in steps:
        print("$ polardet " + " ".join(step), flush=True)
        start = time.perf_counter()
        code = cli.main(step)
        seconds = time.perf_counter() - start
        total += seconds
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"# {step[0]}: {seconds:.2f} s wall, peak RSS {peak_mb:.1f} MB",
              flush=True)
        if code != 0:
            return code
    print(f"# all steps: {total:.2f} s wall; artifacts under {work}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
