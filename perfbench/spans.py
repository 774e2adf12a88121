"""In-memory span tracer that wraps polardet from outside the package.

Each wrapper is installed under every name a polardet module binds the
original to: ``cli`` imports most functions by name and ``evaluation``
imports ``rotated_iou`` by name, so patching only the defining module would
miss those callers. ``Conv2d.forward``/``backward`` and ``Adam.step`` are
patched on their classes, and each Conv2d instance is named after its weight
(``block1.conv2.weight`` -> ``toynet.block1.conv2.fwd``).

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1. The benchmark is single-threaded, so a stack gives the
parent. Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from polardet import (encoding, evaluation, formats, geometry, losses,
                      postprocess, synthdata, toynet)


def _conv_name(suffix):
    return lambda conv: f"toynet.{conv.weight.name.rsplit('.', 1)[0]}.{suffix}"


def _count_nms(counts, kept, args):
    counts["geometry.nms_in"] += len(args[0])
    counts["geometry.nms_kept"] += len(kept)


def _count_poles(counts, poles, _args):
    counts["postprocess.poles"] += len(poles)


def _count_decoded(counts, result, _args):
    counts["postprocess.decoded"] += len(result.detections)


def _count_bytes(counts, text, _args):
    counts["formats.detections_bytes"] += len(text.encode())


def _count_pole_cells(counts, sample, _args):
    counts["encoding.pole_cells"] += len(sample.pole_cells)


# (module, function, span name, counter): the public functions the CLI
# pipeline reaches. gradcheck, errors, topk_extract and the debug
# subcommands are deliberately not measured.
FUNCTIONS = [
    (toynet, "compute_batch_loss", "toynet.compute_batch_loss", None),
    (toynet, "predict_planes", "toynet.predict_planes", None),
    (toynet, "load_checkpoint", "toynet.load_checkpoint", None),
    (toynet, "save_checkpoint", "toynet.save_checkpoint", None),
    (losses, "pole_focal_loss", "losses.pole_focal_loss", None),
    (losses, "total_regression_loss", "losses.total_regression_loss", None),
    (geometry, "rotated_iou", "geometry.rotated_iou", None),
    (geometry, "oriented_nms", "geometry.oriented_nms", _count_nms),
    (evaluation, "match_detections", "evaluation.match_detections", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (postprocess, "extract_pole_points", "postprocess.extract_pole_points",
     _count_poles),
    (postprocess, "decode_poles", "postprocess.decode_poles", _count_decoded),
    (formats, "parse_annotations", "formats.parse_annotations", None),
    (formats, "serialize_detections", "formats.serialize_detections",
     _count_bytes),
    (formats, "parse_detections", "formats.parse_detections", None),
    (synthdata, "write_dataset", "synthdata.write_dataset", None),
    (synthdata, "read_pgm", "synthdata.read_pgm", None),
    (encoding, "encode_regression", "encoding.encode_regression",
     _count_pole_cells),
]

METHODS = [
    (toynet.Conv2d, "forward", _conv_name("fwd")),
    (toynet.Conv2d, "backward", _conv_name("bwd")),
    (toynet.Adam, "step", lambda _opt: "toynet.adam_step"),
]


class Tracer:
    """Spans and counters kept in memory; records only while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def record(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (a plain call when off)."""
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _function_wrapper(self, orig, name, count):
        def wrapper(*args, **kwargs):
            result = self.record(name, orig, *args, **kwargs)
            if count is not None and self.active:
                count(self.counts, result, args)
            return result
        return wrapper

    def _method_wrapper(self, orig, name_of):
        def wrapper(obj, *args, **kwargs):
            return self.record(name_of(obj), orig, obj, *args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Patch every wrapped name, record while inside, then restore."""
        modules = [m for key, m in sys.modules.items()
                   if key == "polardet" or key.startswith("polardet.")]
        for module, attr, name, count in FUNCTIONS:
            orig = getattr(module, attr)
            wrapper = self._function_wrapper(orig, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)
        for cls, attr, name_of in METHODS:
            self._patch(cls, attr, self._method_wrapper(cls.__dict__[attr],
                                                        name_of))
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            while self._undo:
                owner, attr, orig = self._undo.pop()
                setattr(owner, attr, orig)

    def durations(self, self_time: bool = False, first: int = 0,
                  stop: int | None = None) -> dict[str, list[float]]:
        """Seconds per span name, inclusive or self, in call order, for the
        spans recorded between indices ``first`` and ``stop``."""
        children = [0.0] * len(self.spans)
        if self_time:
            for _name, start, end, parent in self.spans:
                if parent >= 0:
                    children[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        stop = len(self.spans) if stop is None else stop
        for i in range(first, stop):
            name, start, end, _parent = self.spans[i]
            out[name].append(end - start - children[i])
        return out


def conv_shapes(net, x) -> list[tuple[tuple, tuple, int]]:
    """(input shape, output shape, itemsize) of every Conv2d call in one forward."""
    orig = toynet.Conv2d.__dict__["forward"]
    shapes = []

    def forward(conv, inp):
        out = orig(conv, inp)
        shapes.append((inp.shape, out.shape, out.itemsize))
        return out

    toynet.Conv2d.forward = forward
    try:
        net.forward(x)
    finally:
        toynet.Conv2d.forward = orig
    return shapes
