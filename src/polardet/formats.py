"""Plain-text annotation and detection formats.

Annotation files carry one object per line:

    x1 y1 x2 y2 x3 y3 x4 y4 class_name difficulty

Leading metadata lines of the form ``key:value`` (e.g. an imagesource or
acquisition date) are skipped. Detection files add the image id and
confidence up front:

    image_id score x1 y1 x2 y2 x3 y3 x4 y4 class_name

Parsers return a file's well-formed lines as columns (``Annotations``,
``DetectionRows``) and never raise on malformed content: blank lines are
skipped, and any other line is dropped with a human-readable warning, so a
corrupt line cannot take down a whole evaluation run, by the first of these
rules that it breaks:

1. ``expected 10 fields, got N`` (annotations; 11 for detections);
2. ``non-numeric or non-finite coordinates`` (``values`` for detections, whose
   score counts too): a number ``float`` does not read, or reads as inf or nan;
3. ``quad area is not finite``: the quad's shoelace area overflows, which would
   reach the geometry;
4. ``quad area <= 1e-06 px^2`` (annotations only; the bound is
   ``geometry.AREA_EPS``): a quad no detection can match. Either winding is
   kept (DOTA's is clockwise), and a degenerate detection is kept, as a false
   positive;
5. ``bad difficulty 'x'`` (annotations only): a difficulty ``int`` does not read.

One checker, ``_check``, holds these rules for both formats. It reads a whole
file's rows at once, or many files' (``parse_annotation_files``); only a file
with a line to drop is checked again line by line, for the warnings. A
dataset's parsed annotations become one ``GroundTruth`` array set, where an
unknown class name raises.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .errors import UnknownClass
from .geometry import AREA_EPS, _shoelace


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


def _check(rows: list[list[str]], fields: int, numbers: slice, what: str,
           annotation: bool) -> tuple[list[float], list[int]] | str:
    """The columns of token rows, their ``numbers`` row after row (the last
    eight of a row's numbers are its quad) and, for an ``annotation``, their
    difficulties; or, when a row breaks a rule of the module docstring, the
    warning for the first rule a row breaks, with the field count or
    difficulty of the first row that breaks it."""
    wrong = next((len(t) for t in rows if len(t) != fields), None)
    if wrong is not None:
        return f"expected {fields} fields, got {wrong}"
    try:
        values = list(map(float, chain.from_iterable([t[numbers] for t in rows])))
        finite = all(map(math.isfinite, values))
    except ValueError:
        finite = False
    if not finite:
        return f"non-numeric or non-finite {what}"
    quads = np.reshape(values, (-1, numbers.stop - numbers.start))[:, -8:]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow warns nothing
        area = np.abs(_shoelace(quads.reshape(-1, 4, 2)))
    if not np.isfinite(area).all():
        return "quad area is not finite"
    difficulty: list[int] = []
    if annotation:
        if (area <= AREA_EPS).any():
            return f"quad area <= {AREA_EPS} px^2"
        try:  # the rows read before a failing one stay in the list
            difficulty += map(int, [t[-1] for t in rows])
        except ValueError:
            return f"bad difficulty {rows[len(difficulty)][-1]!r}"
    return values, difficulty


_check_annotations = partial(_check, fields=10, numbers=slice(0, 8),
                             what="coordinates", annotation=True)
_check_detections = partial(_check, fields=11, numbers=slice(1, 10),
                            what="values", annotation=False)


def _parse(text: str, check, skip_metadata: bool):
    """(rows, columns, warnings) of a file: the token rows of its lines that
    ``check`` keeps, in file order, ``check``'s columns of them, and one
    warning per line it drops. Blank lines are skipped, and so, with
    ``skip_metadata``, are lines whose first token holds a ':'."""
    lines = [(lineno, t) for lineno, t in enumerate(map(str.split, text.splitlines()), 1)
             if t and not (skip_metadata and ":" in t[0])]
    rows = [t for _, t in lines]
    columns = check(rows)
    warnings = []
    if isinstance(columns, str):
        reasons = [check([t]) for t in rows]
        warnings = [f"line {lineno}: {r}" for (lineno, _), r in zip(lines, reasons)
                    if isinstance(r, str)]
        rows = [t for t, r in zip(rows, reasons) if not isinstance(r, str)]
        columns = check(rows)
    return rows, columns, warnings


def parse_annotations(text: str) -> Annotations:
    """Parse oriented annotations; see the module docstring for the format."""
    rows, (coords, difficulty), warnings = _parse(text, _check_annotations, True)
    return Annotations(coords, [t[8] for t in rows], difficulty, warnings)


def parse_annotation_files(texts: list[str]) -> tuple[Annotations, list[int]] | None:
    """The rows of all ``texts`` as one ``Annotations``, file after file,
    and each file's row count, when every line of every file is a
    well-formed row: then each file's ``parse_annotations`` gives its rows
    with no warning. None when a file has a blank, metadata or malformed
    line, which only the per-file parser reports."""
    lines = [text.splitlines() for text in texts]
    rows = list(map(str.split, chain.from_iterable(lines)))
    # a blank line fails the field count, a metadata line that or the number
    # test: no coordinate holds a ':'
    columns = _check_annotations(rows)
    if isinstance(columns, str):
        return None
    coords, difficulty = columns
    return Annotations(coords, [t[8] for t in rows], difficulty, []), list(map(len, lines))


def parse_detections(text: str) -> DetectionRows:
    """Parse detection lines into columns plus warnings."""
    rows, (values, _), warnings = _parse(text, _check_detections, False)
    values = np.array(values, dtype=np.float64).reshape(-1, 9)
    return DetectionRows([t[0] for t in rows], values[:, 0].copy(),
                         values[:, 1:].reshape(-1, 4, 2), [t[10] for t in rows],
                         warnings)


def class_index(class_names: list[str]) -> dict[str, int]:
    """Each class name's index in ``class_names``: its first, for a name
    that repeats."""
    return {name: k for k, name in reversed(list(enumerate(class_names)))}


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
        index = class_index(class_names)
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
