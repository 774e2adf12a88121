#!/usr/bin/env python3
"""polardet benchmark: drives the CLI in-process on seeded workloads.

    python3 perfbench/run.py --workload detect --seed 7001 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``train``   - ``polardet train`` at the reference shape;
* ``detect``  - ``polardet detect`` then ``polardet eval`` on 300 64x64 scenes;
* ``crowded`` - the same with ``--nms-iou 0.3`` on 20 256x256 scenes holding
  45 objects each.

The workload seed generates the scenes; ``detect`` and ``crowded`` also train
a checkpoint during set-up, from fixed seeds, with this checkout's code.
The gated rates (``*_img_per_s_norm``) are scaled to a host of fixed speed
by a yardstick workload timed in the same window; the raw rates are printed
and kept in the detail line.
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes the same
untraced pass, then the same pass with tracing on, and prints per-layer
metrics taken from the traced set-up and first op. The last stdout line is
the result JSON; the line before it holds the environment, fingerprints and
every per-op sample.
"""

import os

# one process, one BLAS thread: set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import mmap  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "polardet" / "cli.py").is_file():
    sys.exit(f"perfbench: no polardet sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402

from polardet import cli  # noqa: E402
from polardet.errors import PolarDetError  # noqa: E402
from polardet.formats import parse_detections  # noqa: E402
from polardet.toynet import ToyNet, load_checkpoint  # noqa: E402
from spans import Tracer, conv_shapes  # noqa: E402

# The reference training shape; also what the detect checkpoint trains on.
BATCH = 8
BASE_CHANNELS = 16
LEARNING_RATE = 0.0025
TRAIN_SEED = 0            # network init and batch sampling, never varied
CKPT_DATA_SEED = 7        # the checkpoint must not depend on the workload seed
CKPT_ITERATIONS = 120     # with CKPT_LEARNING_RATE: mAP@0.5 0.65-0.70 on
CKPT_LEARNING_RATE = 0.005  # both detect workloads in ~10 s
TRAIN_OP_ITERATIONS = 20  # one train op is ~2 s, so a window holds several
LOSS_TAIL = 10            # train_loss_final averages this many last iterations
SETUP_REPEATS = 5         # sub-second set-up steps: median of this many
PARTS = 10                # detect and eval run on this many parts of the scenes
MAP_FLOOR = 0.5           # acceptance criterion 7's mAP@0.5 floor
THRESHOLD = 0.3
CONV_LAYERS = ("stem", "down", "block1.conv1", "block1.conv2", "block2.conv1",
               "block2.conv2", "head_heat", "head_rho", "head_angle")
MODULES = ("synthdata", "formats", "encoding", "toynet", "losses",
           "postprocess", "geometry", "evaluation", "cli")


@dataclass(frozen=True)
class Scenes:
    count: int
    size: int
    min_objects: int
    max_objects: int


@dataclass(frozen=True)
class Workload:
    default_seed: int
    scenes: Scenes
    nms_iou: float | None = None


REFERENCE = Scenes(500, 64, 1, 3)
# BENCHMARK.json declares train and crowded; detect is for runs by hand
# (see README.md for why).
WORKLOADS = {
    "train": Workload(7, REFERENCE),
    "detect": Workload(7001, Scenes(300, 64, 1, 3)),
    "crowded": Workload(7001, Scenes(20, 256, 45, 45), nms_iou=0.3),
}


class Yardstick:
    """Fixed work of the benchmark's own that gauges how fast the shared host
    runs at the moment: conv-shaped matrix products, im2col-style copies into
    freshly mapped memory, then a loop of small numpy calls like the
    rotated-IoU clipping. It never calls polardet, and it allocates nothing
    from the heap the program shares, so a change to the program cannot move
    it. The copies take their page faults from a fresh mapping on every run,
    whatever state the program left the allocator in."""

    SECONDS = 0.090  # its fastest run on an idle core of the reference host

    def __init__(self):
        # Small arrays, so that the mapping adds little to the peak RSS.
        rng = np.random.default_rng(0)
        self.cols = rng.standard_normal((2048, 144))
        self.weight = rng.standard_normal((144, 32))
        self.maps = rng.standard_normal((2, 16, 34, 34))
        self.out = np.empty((2048, 32))
        self.grad = np.empty((144, 32))
        self.times: list[float] = []

    def run(self) -> None:
        start = time.perf_counter()
        for _ in range(12):
            np.matmul(self.cols, self.weight, out=self.out)
            np.matmul(self.cols.T, self.out, out=self.grad)
            with mmap.mmap(-1, self.cols.nbytes) as buf:
                cols = np.frombuffer(buf).reshape(2, 16, 32, 32, 3, 3)
                np.copyto(cols, np.lib.stride_tricks.sliding_window_view(
                    self.maps, (3, 3), axis=(2, 3)))
                del cols  # the mapping closes only once no array views it
        point = np.zeros(2)
        for _ in range(20_000):
            float(point @ point)
        self.times.append(time.perf_counter() - start)

    def slowdown(self) -> float:
        """The fastest run so far against the reference host's."""
        return min(self.times) / self.SECONDS


class StampedOutput(io.StringIO):
    """Captured stdout that notes when each ``iter`` progress line arrives."""

    def __init__(self):
        super().__init__()
        self.marks: list[float] = []

    def write(self, text):
        if text.startswith("iter "):
            self.marks.append(time.perf_counter())
        return super().write(text)


@dataclass
class Call:
    argv: list[str]
    code: int | None
    start: float
    end: float
    stdout: str
    marks: list[float]
    ok: bool = True

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def segments(self) -> list[float]:
        """Wall time split at each progress line: for ``train --log-every 1``
        the load and first iteration, each later iteration, then the save."""
        bounds = [self.start, *self.marks, self.end]
        return [b - a for a, b in zip(bounds, bounds[1:])]


@dataclass
class Pipeline:
    """Runs CLI calls in-process; an op is one call, failed if it exits
    nonzero, raises, or fails an output check."""

    work: Path
    tracer: Tracer
    attempted: int = 0
    failed: int = 0

    def call(self, *argv) -> Call:
        argv = [str(a) for a in argv]
        out, err = StampedOutput(), io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.tracer.record(f"cli.{argv[0]}", cli.main, argv)
        except Exception:  # a raising command is a failed op, not a crash
            code = None
            err.write(traceback.format_exc())
        call = Call(argv, code, start, time.perf_counter(), out.getvalue(),
                    out.marks)
        sys.stderr.write(err.getvalue())
        if code != 0:
            self.fail(call, f"exit code {code}")
        return call

    def fail(self, call: Call, why: str) -> None:
        print(f"perfbench: polardet {' '.join(call.argv)}: {why}",
              file=sys.stderr)
        if call.ok:
            call.ok = False
            self.failed += 1

    def synth(self, out: Path, scenes: Scenes, seed: int,
              yardstick: Yardstick) -> float:
        """Median seconds of SETUP_REPEATS identical synth calls, each
        followed by a yardstick run."""
        cfg = self.work / f"{out.name}.cfg"
        cfg.write_text(f"min_objects={scenes.min_objects}\n"
                       f"max_objects={scenes.max_objects}\n")
        times = []
        for _ in range(SETUP_REPEATS):
            times.append(self.call(
                "synth", "--out", out, "--count", scenes.count, "--seed", seed,
                "--width", scenes.size, "--height", scenes.size,
                "--config", cfg).seconds)
            yardstick.run()
        return statistics.median(times)

    def train(self, data: Path, ckpt: Path, iterations: int,
              learning_rate: float = LEARNING_RATE):
        """One train call; returns (call, mean loss of its last iterations)."""
        history = self.work / "history.csv"
        call = self.call("train", "--data", data, "--out", ckpt,
                         "--iters", iterations, "--batch", BATCH,
                         "--lr", learning_rate, "--base-channels", BASE_CHANNELS,
                         "--seed", TRAIN_SEED, "--log-every", 1,
                         "--history", history)
        if not call.ok:
            return call, math.nan
        with open(history, newline="") as fh:
            totals = [float(row["total"]) for row in csv.DictReader(fh)]
        if len(totals) != iterations or not all(map(math.isfinite, totals)):
            self.fail(call, "training loss history is short or not finite")
        if len(call.marks) != iterations:
            self.fail(call, f"{len(call.marks)} progress lines, not {iterations}")
        try:
            load_checkpoint(ckpt)
        except (OSError, ValueError, PolarDetError) as exc:
            self.fail(call, f"checkpoint does not reload: {exc}")
        return call, statistics.fmean(totals[-LOSS_TAIL:])

    def detect_eval(self, data: Path, ckpt: Path, dets: Path,
                    nms_iou: float | None, map_floor: float = 0.0):
        """detect then eval; returns (detect call, eval call, mAP@0.5, mAP@0.75)."""
        nms = ["--nms-iou", nms_iou] if nms_iou is not None else []
        det = self.call("detect", "--data", data, "--checkpoint", ckpt,
                        "--out", dets, "--extractor", "cc",
                        "--threshold", THRESHOLD, *nms)
        if det.ok:
            warnings = parse_detections(dets.read_text()).warnings
            if warnings:
                self.fail(det, f"{len(warnings)} detection-file warnings")
        ev = self.call("eval", "--data", data, "--detections", dets,
                       "--iou", 0.5, 0.75)
        maps = {float(iou): float(m)
                for iou, m in re.findall(r"IoU (\S+): mAP (\S+)", ev.stdout)}
        map50, map75 = maps.get(0.5, math.nan), maps.get(0.75, math.nan)
        if ev.ok and not (map50 >= map_floor and 0.0 <= map75 <= 1.0):
            self.fail(ev, f"mAP@0.5 {map50} below the {map_floor} floor"
                          f" or mAP@0.75 {map75} out of range")
        return det, ev, map50, map75


def split_dataset(data: Path, parts: int) -> list[Path]:
    """Copy the scenes of ``data`` into ``parts`` datasets of contiguous
    image ids; in id order they hold the same scenes as ``data``."""
    images = sorted((data / "images").glob("*.pgm"))
    size = math.ceil(len(images) / parts)
    parts = []
    for k in range(0, len(images), size):
        part = data.with_name(f"{data.name}_part{len(parts)}")
        for sub in ("images", "annotations"):
            (part / sub).mkdir(parents=True)
        shutil.copy(data / "classes.txt", part)
        for img in images[k:k + size]:
            shutil.copy(img, part / "images")
            shutil.copy(data / "annotations" / f"{img.stem}.txt",
                        part / "annotations")
        parts.append(part)
    return parts


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def measure(name: str, seed: int, seconds: float, work: Path,
            tracer: Tracer) -> dict:
    """Set up, then repeat the op until ``seconds`` have passed.

    Every op runs the same calls on the same inputs, so each piece of it (a
    train iteration, a detect or eval call on one part of the scenes) is
    timed once per op. A command's time is the sum over its pieces of each
    piece's fastest time in the window: the host is shared, and the slower
    repeats measure the neighbours more than the program. The gated rates
    also divide out the host's speed in the window, as the Yardstick gauges
    it between ops or parts: neighbours slow the host for minutes at a time. So does
    ``setup_s``, with the yardstick run between set-up steps.
    """
    wl = WORKLOADS[name]
    s = Pipeline(work, tracer)
    setup_stick, yardstick = Yardstick(), Yardstick()
    work.mkdir(parents=True)
    data, ckpt = work / "data", work / "net.npz"
    setup = {}
    if name == "train":
        setup_raw = s.synth(data, wl.scenes, seed, setup_stick)

        def op():
            call, loss = s.train(data, ckpt, TRAIN_OP_ITERATIONS)
            yardstick.run()
            return call.ok, {f"train.{i}": t
                             for i, t in enumerate(call.segments())}, {
                "train_call_img_per_s": BATCH * TRAIN_OP_ITERATIONS / call.seconds,
                "train_loss_final": loss}
    else:
        ckpt_data = work / "ckpt_data"
        synth_ckpt_s = s.synth(ckpt_data, REFERENCE, CKPT_DATA_SEED, setup_stick)
        call, loss = s.train(ckpt_data, ckpt, CKPT_ITERATIONS, CKPT_LEARNING_RATE)
        if not call.ok:
            raise RuntimeError("set-up could not train the checkpoint")
        setup_stick.run()
        setup = {"checkpoint_train_s": call.seconds,
                 "checkpoint_train_loss_final": loss}
        setup_raw = (synth_ckpt_s + call.seconds
                     + s.synth(data, wl.scenes, seed, setup_stick))
        parts = split_dataset(data, PARTS)
        digests: dict[int, str] = {}

        def op():
            ok, pieces, sample = True, {}, {}
            for k, part in enumerate(parts):
                dets = work / f"detections_part{k}.txt"
                det, ev, map50, _ = s.detect_eval(part, ckpt, dets, wl.nms_iou)
                digest = sha256(dets)
                if det.ok and digests.setdefault(k, digest) != digest:
                    s.fail(det, "detections differ from the first op's")
                ok = ok and det.ok and ev.ok
                pieces[f"detect.{k}"], pieces[f"eval.{k}"] = det.seconds, ev.seconds
                sample[f"map_50.part{k}"] = map50
                if k % 2:  # on crowded, about one run per second of work
                    yardstick.run()
            return ok, pieces, sample

    ops = []
    op_start = len(tracer.spans)
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(op())
        if len(ops) == 1:  # per-layer figures cover set-up and this op
            first_op = {"spans": (op_start, len(tracer.spans)),
                        "counts": dict(tracer.counts)}
    good = [(pieces, sample) for ok, pieces, sample in ops if ok]
    if not good:
        raise RuntimeError(f"all {len(ops)} ops of workload {name} failed")
    best = {key: min(pieces[key] for pieces, _ in good) for key in good[0][0]}

    def best_seconds(command):
        return math.fsum(t for key, t in best.items()
                         if key.startswith(command + "."))

    slowdown = yardstick.slowdown()
    if name == "train":
        summary = {
            "train_img_per_s": BATCH * TRAIN_OP_ITERATIONS / best_seconds("train"),
            "train_loss_final": statistics.median(
                sample["train_loss_final"] for _, sample in good)}
        summary["net_img_per_s"] = summary["op_img_per_s"] = summary["train_img_per_s"]
        dets = None
    else:
        # Quality and the split's fidelity are checked once, untimed, on the
        # whole scene set: the same two commands, mAP over every scene.
        dets = work / "detections.txt"
        det, ev, map50, map75 = s.detect_eval(data, ckpt, dets, wl.nms_iou,
                                              MAP_FLOOR)
        joined = "".join((work / f"detections_part{k}.txt").read_text()
                         for k in range(len(parts)))
        if det.ok and dets.read_text() != joined:
            s.fail(det, "detections on the whole set differ from its parts'")
        n = wl.scenes.count
        summary = {"detect_img_per_s": n / best_seconds("detect"),
                   "eval_img_per_s": n / best_seconds("eval"),
                   "map_50": map50, "map_75": map75}
        summary["net_img_per_s"] = summary["detect_img_per_s"]
        summary["op_img_per_s"] = n / (best_seconds("detect")
                                       + best_seconds("eval"))
    for key in ("net_img_per_s", "op_img_per_s"):
        summary[f"{key}_norm"] = summary[key] * slowdown
    return {
        "setup_s": setup_raw / setup_stick.slowdown(),
        "setup_raw_s": setup_raw, "setup_host_slowdown": setup_stick.slowdown(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **summary, "ops": len(ops), "first_op": first_op, "setup": setup,
        "host_slowdown": slowdown,
        "yardstick_s": {"min": min(yardstick.times),
                        "median": statistics.median(yardstick.times),
                        "runs": len(yardstick.times)},
        "samples": [{**pieces, **sample} for pieces, sample in good],
        "attempted": s.attempted, "failed": s.failed,
        "fingerprints": {"checkpoint_sha256": sha256(ckpt),
                         "detections_sha256": dets and sha256(dets)},
    }


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def module_self(own: dict[str, list[float]]) -> dict[str, float]:
    """Self seconds per module, from self times per span name."""
    return {m: math.fsum(t for span, times in own.items()
                         if span.startswith(m + ".") for t in times)
            for m in MODULES}


def span_group(span: str) -> str:
    """Conv spans collapse to one kernel per direction: toynet.conv.bwd."""
    head, _, direction = span.rpartition(".")
    if head.removeprefix("toynet.") in CONV_LAYERS:
        return f"toynet.conv.{direction}"
    return span


def per_layer(tracer: Tracer, untraced: dict, traced: dict,
              e2e_names: list[str], computed: dict) -> dict:
    """Per-call medians and call counts over the traced set-up and first op,
    self time per module in that op, tracing overhead and the computed
    kernel counts."""
    op_start, op_end = traced["first_op"]["spans"]
    inclusive = tracer.durations(stop=op_end)
    own = tracer.durations(self_time=True, stop=op_end)
    out = {}
    for direction in ("fwd", "bwd"):
        total = []
        for layer in CONV_LAYERS:
            times = inclusive.get(f"toynet.{layer}.{direction}", [])
            out[f"toynet.{layer}.{direction}_ms"] = _median(times, 1e3)
            total += times
        out[f"toynet.conv_{direction}.calls"] = len(total)
        out[f"toynet.conv_{direction}.self_s"] = math.fsum(total)
    timed = [("toynet.adam_step", "ms"), ("toynet.predict_planes", "ms"),
             ("toynet.load_checkpoint", "ms"), ("toynet.save_checkpoint", "ms"),
             ("losses.pole_focal_loss", "ms"),
             ("losses.total_regression_loss", "ms"),
             ("geometry.rotated_iou", "us"), ("geometry.oriented_nms", "ms"),
             ("evaluation.match_detections", "ms"), ("evaluation.evaluate", "ms"),
             ("postprocess.extract_pole_points", "ms"),
             ("postprocess.decode_poles", "ms"),
             ("formats.parse_annotations", "ms"),
             ("formats.serialize_detections", "ms"),
             ("formats.parse_detections", "ms"),
             ("synthdata.write_dataset", "s"), ("synthdata.read_pgm", "ms"),
             ("encoding.encode_regression", "ms"),
             *((f"cli.{c}", "s") for c in ("synth", "train", "detect", "eval"))]
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}
    for span, unit in timed:
        times = inclusive.get(span, [])
        out[f"{span}_{unit}"] = _median(times, scale[unit])
        out[f"{span}.calls"] = len(times)
    cbl = own.get("toynet.compute_batch_loss", [])
    out["toynet.compute_batch_loss.self_ms"] = _median(cbl, 1e3)
    out["toynet.compute_batch_loss.calls"] = len(cbl)
    op_self = module_self(tracer.durations(self_time=True, first=op_start,
                                           stop=op_end))
    for module, seconds in op_self.items():
        out[f"{module}.op_self_s"] = seconds
    c = Counter(traced["first_op"]["counts"])
    out["geometry.nms_kept_ratio"] = (c["geometry.nms_kept"] / c["geometry.nms_in"]
                                      if c["geometry.nms_in"] else 0.0)
    out["postprocess.poles"] = c["postprocess.poles"]
    out["postprocess.valid_ratio"] = (c["postprocess.decoded"] / c["postprocess.poles"]
                                      if c["postprocess.poles"] else 0.0)
    out["formats.detections_bytes"] = c["formats.detections_bytes"]
    out["encoding.pole_cells"] = c["encoding.pole_cells"]
    for metric in e2e_names:
        out[f"trace_overhead.{metric}"] = traced[metric] - untraced[metric]
    out.update(computed)
    return out


def kernel_counts(detect_size: int) -> dict:
    """Conv FLOPs and im2col bytes from the layer shapes of one forward.

    A train iteration runs each conv forward once and backward once; the
    backward computes a weight gradient and an input gradient, each as many
    FLOPs as the forward, and materializes a column gradient the size of
    the forward's columns.
    """
    net = ToyNet(2, BASE_CHANNELS)

    def cost(n, size):
        flop = cols = 0
        for inp, out, itemsize in conv_shapes(net, np.zeros((n, 1, size, size))):
            flop += 2 * math.prod(out) * inp[1] * 9
            cols += itemsize * inp[0] * inp[1] * 9 * out[2] * out[3]
        return flop, cols

    train_flop, train_cols = cost(BATCH, REFERENCE.size)
    detect_flop, detect_cols = cost(1, detect_size)
    return {"toynet.conv_flop_per_train_iter.computed": 3 * train_flop,
            "toynet.im2col_bytes_per_train_iter.computed": 2 * train_cols,
            "toynet.conv_flop_per_detect_image.computed": detect_flop,
            "toynet.im2col_bytes_per_detect_image.computed": detect_cols}


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": _blas_threads(),
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(name: str, seed: int, result: dict, tracer: Tracer,
           traced: dict | None) -> None:
    """Human-readable summary under the names the metrics have for users."""
    rows = [("setup_raw_s", "s"), ("setup_host_slowdown", "x"), ("setup_s", "s")]
    if name == "train":
        rows += [("train_img_per_s", "img/s"), ("train_loss_final", "loss")]
    else:
        rows += [("detect_img_per_s", "img/s"), ("eval_img_per_s", "img/s"),
                 ("map_50", "AP"), ("map_75", "AP")]
    rows += [("host_slowdown", "x"), ("net_img_per_s_norm", "img/s"),
             ("op_img_per_s_norm", "img/s"), ("peak_rss_mb", "MB")]
    print(f"polardet benchmark: workload {name}, seed {seed}, "
          f"{result['ops']} ops in the window")
    for key, unit in rows:
        print(f"  {key:<20} {result[key]:.6g} {unit}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'ops_failed_ratio':<20} {ratio:.6g} "
          f"(base ops_attempted {result['attempted']})")
    if traced is None:
        return
    op_start, op_end = traced["first_op"]["spans"]
    for phase, first, stop in (("set-up", 0, op_start),
                               ("first op", op_start, op_end)):
        own = tracer.durations(self_time=True, first=first, stop=stop)
        groups: dict[str, list[float]] = {}
        for span, times in own.items():
            groups.setdefault(span_group(span), []).extend(times)
        total = math.fsum(math.fsum(ts) for ts in groups.values()) or 1.0
        print(f"  traced {phase}: self time by module")
        for module, secs in sorted(module_self(own).items(),
                                   key=lambda kv: -kv[1]):
            print(f"    {module:<12} {secs:9.3f} s  {100 * secs / total:5.1f}%")
        print(f"  traced {phase}: largest self times")
        for secs, group in sorted(((math.fsum(ts), g) for g, ts in groups.items()),
                                  reverse=True)[:8]:
            print(f"    {group:<36} {secs:9.3f} s  {100 * secs / total:5.1f}%"
                  f"  {len(groups[group]):7d} calls")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int,
                    help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    name, trace = args.workload, bool(args.trace)
    seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
    units = declared_units(trace)
    e2e_names = list(declared_units(False))

    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    tracer = Tracer()
    traced = None
    computed = kernel_counts(WORKLOADS[name].scenes.size)
    try:
        result = measure(name, seed, args.seconds, work / "untraced", tracer)
        attempted, failed = result["attempted"], result["failed"]
        if trace:
            with tracer.installed():
                traced = measure(name, seed, args.seconds, work / "traced",
                                 tracer)
            attempted += traced["attempted"]
            failed += traced["failed"]
            metrics = per_layer(tracer, result, traced, e2e_names, computed)
        else:
            metrics = {key: result[key] for key in e2e_names if key in result}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(units) - set(metrics))}, "
                 f"undeclared {sorted(set(metrics) - set(units))}")
    report(name, seed, result, tracer, traced)
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    detail = {
        "workload": name, "seed": seed, "seconds": args.seconds, "trace": trace,
        "seeds": {"workload": seed, "checkpoint_data": CKPT_DATA_SEED,
                  "network_init_and_batches": TRAIN_SEED},
        "environment": environment(),
        "fingerprints": {**result["fingerprints"], "src_lines": src_lines},
        "computed_kernel_counts": computed,
        "setup": {**result["setup"], "setup_raw_s": result["setup_raw_s"],
                  "host_slowdown": result["setup_host_slowdown"]},
        "host_slowdown": result["host_slowdown"],
        "yardstick_s": result["yardstick_s"],
        "raw": {key: result[key] for key in ("net_img_per_s", "op_img_per_s")},
        "samples": result["samples"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
