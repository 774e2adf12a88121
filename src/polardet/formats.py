"""Plain-text annotation and detection formats.

Annotation files carry one object per line:

    x1 y1 x2 y2 x3 y3 x4 y4 class_name difficulty

Leading metadata lines of the form ``key:value`` (e.g. an imagesource or
acquisition date) are skipped. Detection files add the image id and
confidence up front:

    image_id score x1 y1 x2 y2 x3 y3 x4 y4 class_name

Parsers never raise on malformed content; bad lines are dropped and
reported as human-readable warnings so a corrupt line cannot take down a
whole evaluation run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownClass
from .geometry import QuadBox
from .postprocess import Detection


@dataclass(frozen=True)
class AnnotationRecord:
    corners: tuple[float, ...]  # x1 y1 ... y4, row major
    class_name: str
    difficulty: int = 0


@dataclass(frozen=True)
class DetectionRecord:
    image_id: str
    score: float
    corners: tuple[float, ...]
    class_name: str


@dataclass
class ParseResult:
    records: list = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _finite_floats(tokens: list[str]) -> list[float] | None:
    try:
        values = [float(t) for t in tokens]
    except ValueError:
        return None
    return values if all(np.isfinite(values)) else None


def parse_annotations(text: str) -> ParseResult:
    """Parse oriented annotations; see the module docstring for the format."""
    result = ParseResult()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ":" in line.split()[0]:  # metadata header, not an object
            continue
        tokens = line.split()
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
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
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


def quad_from_record(record: AnnotationRecord, class_names: list[str]) -> QuadBox:
    if record.class_name not in class_names:
        raise UnknownClass(f"class {record.class_name!r} not in {class_names}")
    corners = np.asarray(record.corners, dtype=np.float64).reshape(4, 2)
    return QuadBox(corners, class_id=class_names.index(record.class_name))


def record_from_detection(image_id: str, det: Detection,
                          class_names: list[str]) -> DetectionRecord:
    if not 0 <= det.class_id < len(class_names):
        raise UnknownClass(f"class id {det.class_id} outside {len(class_names)} classes")
    return DetectionRecord(image_id, det.score,
                           tuple(det.quad.corners.reshape(-1).tolist()),
                           class_names[det.class_id])


def serialize_annotations(records: list[AnnotationRecord]) -> str:
    lines = []
    for r in records:
        coords = " ".join(f"{v:.6f}" for v in r.corners)
        lines.append(f"{coords} {r.class_name} {r.difficulty}")
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_detections(records: list[DetectionRecord]) -> str:
    lines = []
    for r in records:
        coords = " ".join(f"{v:.6f}" for v in r.corners)
        lines.append(f"{r.image_id} {r.score:.6f} {coords} {r.class_name}")
    return "\n".join(lines) + ("\n" if lines else "")
