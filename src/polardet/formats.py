"""Plain-text annotation and detection formats.

Annotation files carry one object per line:

    x1 y1 x2 y2 x3 y3 x4 y4 class_name difficulty

Leading metadata lines of the form ``key:value`` (e.g. an imagesource or
acquisition date) are skipped. Detection files add the image id and
confidence up front:

    image_id score x1 y1 x2 y2 x3 y3 x4 y4 class_name

Parsers return a file's well-formed lines as columns (``Annotations``,
``DetectionRows``) and never raise on malformed content; bad lines are
dropped and reported as human-readable warnings so a corrupt line cannot
take down a whole evaluation run. A quad's coordinates must be finite, and
so must its shoelace area, so that no overflow reaches the geometry. Each
parser splits a file into tokens once and converts all its numbers at once;
only a file with a line to drop is read again line by line, for the
warnings. A dataset's parsed annotations become one ``GroundTruth`` array
set, where an unknown class name raises.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import UnknownClass
from .geometry import _shoelace


@dataclass(eq=False)
class Annotations:
    """The well-formed lines of an annotation file as columns, in file
    order, and one warning per dropped line. ``coords`` holds each row's
    eight coordinates in turn, as the file does, so a dataset's files
    become one array at once (``GroundTruth.stack``)."""

    coords: list[float]
    class_name: list[str]
    difficulty: list[int]
    warnings: list[str]


@dataclass(eq=False)
class DetectionRows:
    """The well-formed lines of a detections file as columns, in file
    order, and one warning per dropped line."""

    image_id: list[str]
    score: np.ndarray     # (R,) float64
    corners: np.ndarray   # (R, 4, 2) float64
    class_name: list[str]
    warnings: list[str]


def _finite_floats(tokens: list[str]) -> list[float] | None:
    try:
        values = list(map(float, tokens))
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


def _finite_areas(coords) -> bool:
    """Whether each quad of ``coords``, eight finite coordinates in turn,
    has a finite shoelace area; an overflow on the way warns nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(_shoelace(np.reshape(coords, (-1, 4, 2)))).all())


def _annotation_columns(rows: list[list[str]]) -> tuple[list[float], list[int]] | None:
    """(coords, difficulty) of annotation rows split into tokens, or None
    if a row would be dropped: not 10 tokens, a coordinate that is not a
    finite float, a quad whose area is not finite, or a difficulty that is
    not an integer."""
    if not all(len(t) == 10 for t in rows):
        return None
    coords = _finite_floats(list(chain.from_iterable([t[:8] for t in rows])))
    try:
        difficulty = [int(t[9]) for t in rows]
    except ValueError:
        return None
    if coords is None or not _finite_areas(coords):
        return None
    return coords, difficulty


def parse_annotations(text: str) -> Annotations:
    """Parse oriented annotations; see the module docstring for the format."""
    rows = [t for t in map(str.split, text.splitlines()) if t and ":" not in t[0]]
    columns = _annotation_columns(rows)
    warnings: list[str] = []
    if columns is not None:
        coords, difficulty = columns
    else:
        rows, coords, difficulty = [], [], []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.split()
            if not tokens or ":" in tokens[0]:  # blank, or a metadata header
                continue
            if len(tokens) != 10:
                warnings.append(f"line {lineno}: expected 10 fields, got {len(tokens)}")
                continue
            values = _finite_floats(tokens[:8])
            if values is None:
                warnings.append(f"line {lineno}: non-numeric or non-finite coordinates")
                continue
            if not _finite_areas(values):
                warnings.append(f"line {lineno}: quad area is not finite")
                continue
            try:
                difficulty.append(int(tokens[9]))
            except ValueError:
                warnings.append(f"line {lineno}: bad difficulty {tokens[9]!r}")
                continue
            rows.append(tokens)
            coords += values
    return Annotations(coords, [t[8] for t in rows], difficulty, warnings)


def parse_annotation_files(texts: list[str]) -> tuple[Annotations, list[int]] | None:
    """The rows of all ``texts`` as one ``Annotations``, file after file,
    and each file's row count, when every line of every file is a
    well-formed row: then each file's ``parse_annotations`` gives its rows
    with no warning. None when a file has a blank, metadata or malformed
    line, which only the per-file parser reports."""
    lines = [text.splitlines() for text in texts]
    rows = list(map(str.split, chain.from_iterable(lines)))
    # a metadata line fails here too: no coordinate holds a ':'
    columns = _annotation_columns(rows)
    if columns is None:
        return None
    coords, difficulty = columns
    return Annotations(coords, [t[8] for t in rows], difficulty, []), list(map(len, lines))


def parse_detections(text: str) -> DetectionRows:
    """Parse detection lines into columns plus warnings."""
    rows = [t for t in map(str.split, text.splitlines()) if t]
    values = None
    if all(len(t) == 11 for t in rows):
        values = _finite_floats(list(chain.from_iterable([t[1:10] for t in rows])))
        if values is not None and not _finite_areas(np.reshape(values, (-1, 9))[:, 1:]):
            values = None
    warnings: list[str] = []
    if values is None:
        rows, values = [], []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.split()
            if not tokens:
                continue
            if len(tokens) != 11:
                warnings.append(f"line {lineno}: expected 11 fields, got {len(tokens)}")
                continue
            numbers = _finite_floats(tokens[1:10])
            if numbers is None:
                warnings.append(f"line {lineno}: non-numeric or non-finite values")
                continue
            if not _finite_areas(numbers[1:]):
                warnings.append(f"line {lineno}: quad area is not finite")
                continue
            rows.append(tokens)
            values += numbers
    values = np.array(values, dtype=np.float64).reshape(-1, 9)
    return DetectionRows([t[0] for t in rows], values[:, 0].copy(),
                         values[:, 1:].reshape(-1, 4, 2), [t[10] for t in rows],
                         warnings)


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
    def stack(cls, files: Iterable[Annotations], class_names: list[str]) -> GroundTruth:
        """Stack the rows of each image's annotations in turn, image k's
        rows tagged k.

        Each image's class names are checked as its annotations arrive, so
        an iterable that reports a file's warnings before yielding it
        reports every file up to the first with an unknown class, which
        raises ``UnknownClass``.
        """
        index: dict[str, int] = {}
        for k, name in enumerate(class_names):
            index.setdefault(name, k)
        counts, class_id, coords, difficulty = [], [], [], []
        for ann in files:
            ids = [index.get(name, -1) for name in ann.class_name]
            if -1 in ids:
                name = ann.class_name[ids.index(-1)]
                raise UnknownClass(f"class {name!r} not in {class_names}")
            counts.append(len(ids))
            class_id += ids
            coords += ann.coords
            difficulty += ann.difficulty
        return cls(np.repeat(np.arange(len(counts)), counts),
                   np.array(class_id, dtype=np.intp),
                   np.array(coords, dtype=np.float64).reshape(-1, 4, 2),
                   np.array([d != 0 for d in difficulty], dtype=bool))


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


def serialize_detections(image_id, score, corners, class_name) -> str:
    """One line per box, all made by a single format of the whole file's
    fields: R boxes' image ids (R,), scores (R,), corners (R, 4, 2) and
    class names (R,)."""
    coords = np.asarray(corners, dtype=np.float64).reshape(-1, 8).T.tolist()
    score = np.asarray(score, dtype=np.float64).tolist()
    fields = chain.from_iterable(zip(image_id, score, *coords, class_name))
    return (_DETECTION_LINE * len(score)) % tuple(fields)
