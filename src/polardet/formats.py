"""Plain-text annotation and detection formats.

Annotation files carry one object per line:

    x1 y1 x2 y2 x3 y3 x4 y4 class_name difficulty

Leading metadata lines of the form ``key:value`` (e.g. an imagesource or
acquisition date) are skipped. Detection files add the image id and
confidence up front:

    image_id score x1 y1 x2 y2 x3 y3 x4 y4 class_name

Parsers never raise on malformed content; bad lines are dropped and
reported as human-readable warnings so a corrupt line cannot take down a
whole evaluation run. A dataset's parsed annotations become one
``GroundTruth`` array set, where an unknown class name raises.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import UnknownClass


class AnnotationRecord(NamedTuple):
    corners: tuple[float, ...]  # x1 y1 ... y4, row major
    class_name: str
    difficulty: int = 0


class DetectionRecord(NamedTuple):
    image_id: str
    score: float
    corners: tuple[float, ...]  # x1 y1 ... y4, row major
    class_name: str


@dataclass
class ParseResult:
    records: list = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _finite_floats(tokens: list[str]) -> list[float] | None:
    try:
        values = list(map(float, tokens))
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


def parse_annotations(text: str) -> ParseResult:
    """Parse oriented annotations; see the module docstring for the format."""
    result = ParseResult()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or ":" in tokens[0]:  # blank, or a metadata header
            continue
        if len(tokens) != 10:
            result.warnings.append(f"line {lineno}: expected 10 fields, got {len(tokens)}")
            continue
        coords = _finite_floats(tokens[:8])
        if coords is None:
            result.warnings.append(f"line {lineno}: non-numeric or non-finite coordinates")
            continue
        try:
            difficulty = int(tokens[9])
        except ValueError:
            result.warnings.append(f"line {lineno}: bad difficulty {tokens[9]!r}")
            continue
        result.records.append(AnnotationRecord(tuple(coords), tokens[8], difficulty))
    return result


def parse_detections(text: str) -> ParseResult:
    """Parse detection lines into DetectionRecord items plus warnings."""
    result = ParseResult()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 11:
            result.warnings.append(f"line {lineno}: expected 11 fields, got {len(tokens)}")
            continue
        values = _finite_floats(tokens[1:10])
        if values is None:
            result.warnings.append(f"line {lineno}: non-numeric or non-finite values")
            continue
        result.records.append(
            DetectionRecord(tokens[0], values[0], tuple(values[1:]), tokens[10]))
    return result


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Annotated objects of one or more images, one row each, in image order."""

    image: np.ndarray      # (B,) intp index of the object's image
    class_id: np.ndarray   # (B,) intp
    corners: np.ndarray    # (B, 4, 2) float64 pixels
    difficult: np.ndarray  # (B,) bool

    def __len__(self) -> int:
        return len(self.class_id)

    @classmethod
    def from_records(cls, records_per_image: Iterable[list[AnnotationRecord]],
                     class_names: list[str]) -> GroundTruth:
        """Stack the records of each image in turn, image k's rows tagged k.

        Each image's class names are checked as its records arrive, so an
        iterable that reports a file's warnings before yielding its records
        reports every file up to the first with an unknown class, which
        raises ``UnknownClass``.
        """
        index: dict[str, int] = {}
        for k, name in enumerate(class_names):
            index.setdefault(name, k)
        counts, class_id, corners, difficult = [], [], [], []
        for records in records_per_image:
            ids = [index.get(r.class_name, -1) for r in records]
            if -1 in ids:
                name = records[ids.index(-1)].class_name
                raise UnknownClass(f"class {name!r} not in {class_names}")
            counts.append(len(ids))
            class_id += ids
            corners += [r.corners for r in records]
            difficult += [r.difficulty != 0 for r in records]
        return cls(np.repeat(np.arange(len(counts)), counts),
                   np.array(class_id, dtype=np.intp),
                   np.array(corners, dtype=np.float64).reshape(-1, 4, 2),
                   np.array(difficult, dtype=bool))

    def per_image(self, num_images: int) -> list[GroundTruth]:
        """Row views of images 0 to num_images - 1, one set each."""
        bounds = np.searchsorted(self.image, np.arange(num_images + 1)).tolist()
        return [GroundTruth(self.image[lo:hi], self.class_id[lo:hi],
                            self.corners[lo:hi], self.difficult[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])]


#: one annotation line: eight coordinates at six decimals, class name,
#: difficulty
_ANNOTATION_LINE = "%.6f " * 8 + "%s %d\n"


def serialize_annotations(corners, class_names, difficulty) -> str:
    """One line per box, each made by a single format of its fields: B
    boxes' corners (B, 4, 2), class names (B,) and difficulties (B,)."""
    coords = np.asarray(corners, dtype=np.float64).reshape(-1, 8).tolist()
    return "".join([_ANNOTATION_LINE % (*xy, name, level)
                    for xy, name, level in zip(coords, class_names, difficulty)])


#: one detection line: image id, score and eight coordinates at six decimals,
#: class name
_DETECTION_LINE = "%s %.6f" + " %.6f" * 8 + " %s\n"


def serialize_detections(records: list[DetectionRecord]) -> str:
    """One line per record, each made by a single format of its fields."""
    return "".join([_DETECTION_LINE % (image_id, score, *corners, class_name)
                    for image_id, score, corners, class_name in records])
