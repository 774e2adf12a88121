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

One checker, ``_check``, holds these rules for both formats and tests each
rule once over all the rows it is given, one file's or many files' pooled
(``parse_annotation_files``): every token is read once, and a row keeps the
warning of the first rule it breaks. A dataset's parsed annotations become
one ``GroundTruth`` array set, where an unknown class name raises.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice

import numpy as np

from .errors import UnknownClass
from .geometry import AREA_EPS, _shoelace


@dataclass(eq=False)
class Annotations:
    """The well-formed lines of one or more annotation files as columns, in
    file order, and one warning per dropped line. ``coords`` holds each
    row's eight coordinates in turn, as the file does, so a dataset's files
    become one array at once (``GroundTruth.stack``)."""

    coords: np.ndarray    # (8R,) float64
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


def _read(convert, tokens, width: int, fill) -> tuple[list, list[int]]:
    """``convert`` of each token, rows of ``width`` in turn, each token once,
    and the rows with a token it rejects, whose values are all ``fill``."""
    values, failed, tokens = [], [], iter(tokens)
    while True:
        try:
            values += map(convert, tokens)  # the values read before a failure stay
            return values, failed
        except ValueError:
            failed.append(len(values) // width)
            list(islice(tokens, width - len(values) % width - 1))  # the row's rest
            values[failed[-1] * width:] = [fill] * width


def _check(rows: list[list[str]], fields: int, numbers: slice, what: str,
           annotation: bool) -> tuple[np.ndarray, list[int], dict[int, str]]:
    """(values, difficulty, dropped) of token rows: their ``numbers`` as one
    row of floats each (the last eight are the quad), for an ``annotation``
    their difficulties, and, by row index, the warning for the first rule
    of the module docstring that a row breaks. A row of another length
    reads as zeros, and a number that ``float`` rejects as nan."""
    dropped = {k: f"expected {fields} fields, got {len(t)}"
               for k, t in enumerate(rows) if len(t) != fields}
    if dropped:
        rows = [t if len(t) == fields else ["0"] * fields for t in rows]
    width = numbers.stop - numbers.start
    values, _ = _read(float, chain.from_iterable([t[numbers] for t in rows]), width,
                      math.nan)
    values = np.reshape(values, (-1, width))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow warns nothing
        area = np.abs(_shoelace(values[:, -8:].reshape(-1, 4, 2)))
    rules = [(np.isfinite(values).all(axis=1), f"non-numeric or non-finite {what}"),
             (np.isfinite(area), "quad area is not finite")]
    difficulty, bad = [], []
    if annotation:
        rules.append((area > AREA_EPS, f"quad area <= {AREA_EPS} px^2"))
        difficulty, bad = _read(int, [t[-1] for t in rows], 1, 0)
    for passed, warning in rules:
        for k in np.flatnonzero(~passed).tolist():
            dropped.setdefault(k, warning)
    for k in bad:
        dropped.setdefault(k, f"bad difficulty {rows[k][-1]!r}")
    return values, difficulty, dropped


def _parse(texts: list[str], *form):
    """(rows, values, difficulty, counts, warnings) of files, pooled: the
    token rows that ``_check(rows, *form)`` keeps, file after file, its
    values and difficulties of them, and each file's row count and ``line
    N: ...`` warnings. Blank lines, and annotation lines whose first token
    holds a ':', are dropped without one (they break rule 1 or 2)."""
    lines = [text.splitlines() for text in texts]
    rows = list(map(str.split, chain.from_iterable(lines)))
    values, difficulty, dropped = _check(rows, *form)
    counts = list(map(len, lines))
    warnings = [[] for _ in texts]
    if dropped:
        starts = [0, *accumulate(counts)]
        for k in sorted(dropped):
            f = bisect_right(starts, k) - 1
            counts[f] -= 1
            if rows[k] and not (form[-1] and ":" in rows[k][0]):
                warnings[f].append(f"line {k - starts[f] + 1}: {dropped[k]}")
        kept = [k not in dropped for k in range(len(rows))]
        rows, values = list(compress(rows, kept)), values[kept]
        difficulty = list(compress(difficulty, kept))
    return rows, values, difficulty, counts, warnings


def parse_annotation_files(texts: list[str]) -> tuple[Annotations, list[int], list]:
    """The rows of all ``texts`` as one ``Annotations``, file after file,
    each file's row count and each file's warnings; the ``Annotations``
    holds all their warnings, file after file."""
    rows, values, difficulty, counts, warnings = _parse(texts, 10, slice(0, 8),
                                                        "coordinates", True)
    return (Annotations(values.reshape(-1), [t[8] for t in rows], difficulty,
                        list(chain.from_iterable(warnings))),
            counts, warnings)


def parse_annotations(text: str) -> Annotations:
    """Parse oriented annotations; see the module docstring for the format."""
    return parse_annotation_files([text])[0]


def parse_detections(text: str) -> DetectionRows:
    """Parse detection lines into columns plus warnings."""
    rows, values, _, _, (warnings,) = _parse([text], 11, slice(1, 10), "values", False)
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
    def stack(cls, parts: list[Annotations], counts: list[int],
              class_names: list[str]) -> GroundTruth:
        """The rows of ``parts``, each the pooled rows of consecutive
        images, in turn: the first ``counts[0]`` rows are image 0's, the
        next ``counts[1]`` image 1's, and so on. The first row whose class
        name is not in ``class_names`` raises ``UnknownClass``."""
        index = class_index(class_names)
        names = list(chain.from_iterable(p.class_name for p in parts))
        ids = [index.get(name, -1) for name in names]
        if -1 in ids:
            raise UnknownClass(f"class {names[ids.index(-1)]!r} not in {class_names}")
        coords = np.concatenate([np.empty(0), *(p.coords for p in parts)])
        return cls(np.repeat(np.arange(len(counts)), counts),
                   np.array(ids, dtype=np.intp), coords.reshape(-1, 4, 2),
                   np.array([d != 0 for p in parts for d in p.difficulty], dtype=bool))


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
